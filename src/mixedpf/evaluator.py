"""The core partition-function computations.

Three modes of one engine: ordinary (symmetric colors only), skew (exterior
colors over the full edge set of an Eulerian graph) and mixed (a sum over all
Eulerian edge subsets, exterior colors inside, symmetric outside).

One per-subset engine, :func:`subset_sums`, serves every caller: it returns
a subset's tensor over the (k+2*ell)^t label colors, and a plain graph's
scalar subset value is the single coefficient of its t=0 tensor.  One
subset loop serves graphs and fragments alike: :func:`tensor_sums` is its
signed sum of a fragment's tensors over the subsets of a mode, and
:func:`partition_function_many` reads the single coefficient of a graph's
t=0 sum.  Each subset's tensor is signed by :func:`subset_prefactor`.

:func:`partition_function` may evaluate a graph by two halves, with the same
value, subsets and colorings.  A connected graph in mixed mode whose cycle
rank reaches :data:`CUT_GATE` may be cut along a few edges
(:func:`_balanced_cut`) into two fragments (:func:`~mixedpf.graph.split`,
the inverse of gluing); its value is then the Gram pairing of the halves'
tensor sums, Z(F1 * F2) = [sum T(F1), sum T(F2)], which visits
2^cyc(F1) + 2^cyc(F2) subsets of half the graph each instead of 2^cyc(G)
of the whole.  The halves are paired as the walk leaves their sums, as
Gaussian integers scaled by D^(n_vertices - t) (see below): plain ints
under weights that are real or purely imaginary, so the pairing runs in
int arithmetic, and the paired value is taken into Q(i) by one exact
division by the two halves' powers of D, which also applies the circle
factor once.  Its colorings are the pairing of the halves' coloring
counts, each counted at its label coordinate, with every sign +1, and its
subsets, 2^cyc(G), are counted in closed form.  Isomorphic halves are
walked once: when an isomorphism maps F1 onto F2, labels to labels
(:func:`~mixedpf.graph._isomorphism`), only F1 is walked, since sum T(F2)
is sum T(F1) with its labels moved by the isomorphism's label
permutation p, each coordinate times its Koszul sign, as for the classes
of an orbit below; so F1's sum is paired with itself through the table
of p's inverse with the dual (:func:`~mixedpf.algebra.signed_map`),
which gives the form of sum T(F1) and sum T(F2).  The cut halves of a
prism or Moebius ladder with an even number of rungs, 6 or more, are
such.  The subset sum over the whole graph, :func:`partition_function_many`,
is what the halves are checked against.  Disconnected graphs are not split into components: on
the small graphs of the suites a subset sum per component costs more in
setup than it saves.

Coloring enumeration walks the internal vertices one at a time, once for
all the models of a call, in the order that :func:`_walk_order`'s edge
order completes them.  Each step colors only the vertex's free edges, those
no earlier vertex has colored, and picks from the vertex's live local
colorings: the colorings of its free edges that, with the colors its other
edges already have, some model still alive weighs nonzero.  A vertex whose
edges earlier vertices have all colored is checked in the step that colors
the last of them, and an edge between two labels is colored at the leaf.
A branch is thus cut as soon as every model weighs some vertex zero, which
is what makes the sparse built-in models fast.  The exact sum does not
depend on the order and ``colorings`` counts full colorings, so the order
changes only how many nodes the walk visits.  The children of the last step
are the leaves: each is summed where the step finds it, never pushed, and a
graph with no vertex to color walks one empty step to reach the same code.

A vertex's live local colorings come from one cache that every subset,
graph and call shares, keyed by the models' keys (from (k, two_ell) and the
weights, never object identity), the vertex's local shape and its slot
pattern (which slots its free edges fill), and then by the colors of its
fixed slots; on a miss they are computed from the canonical patterns.  A
vertex with no free edge has the one-coloring list of its factors, or an
empty one, and a list with free slots reads each candidate from the table
of its shape with every slot fixed, so vertices of one shape weigh a color
tuple once.  The cache memoises a pure function, so sharing it cannot change
a value.

Each set of models has one record beside the cache (:func:`_model_set`),
found by the models key: the key object itself, which the walk's cache keys
then hold, so that lookups compare keys by identity, not weight by weight;
the mask of the models with a pattern of each vertex bidegree; and the
weight of an isolated vertex.  Equal models built apart thus share one
record and its tables.  ``_held`` counts every number the cache holds, each
record once, and an insertion that would pass ``MAX_MODEL_SIZE`` empties
the cache and the records together, then holds the walk's record again.

Work that does not depend on the subset is done once per call: the edge
order, the vertex order and each vertex's edges and free edges; what does
not depend on the graph either is read from the record.  The per-subset
path, :func:`subset_sums`, is called once per subset, so it does that
work once per run of calls on one fragment: it keeps the last context it
built, with its fragment and models, for the next call on equal ones,
and emptying the cache drops it with the records.

A vertex with x of its d half-edges in a subset reads d - x symmetric
colors and x exterior ones, so a model with no pattern of that bidegree
(d - x, x) weighs every coloring of the subset zero.  Each subset is
checked this way before its state is built: a subset that no model
survives is skipped, and the walk starts from the models that do.  Under
the charpoly models only disjoint unions of cycles survive.  A skipped
subset adds zero to every value and coloring count, and it still counts
in ``subsets``, which is every Eulerian subset of the mode.

In mixed mode the loop runs over parallel-edge classes of subsets
(:func:`_eulerian_classes`), not over the subsets themselves.  The edges of
one endpoint pair form a group, as do the loops at one vertex, and
swapping two edges of a group is an automorphism that fixes every vertex
and label, so the subsets that take the same number of edges from each
group have equal signed tensors and equal coloring counts.  Each class is
checked, peeled and walked once, by its representative, and its weight,
the number of subsets in it, multiplies the walk's starting products and
each surviving coloring's count.  ``subsets`` is the sum of the weights
and ``colorings`` the weighted count, so both keep their meaning: every
Eulerian subset, and every surviving full coloring.

Much the same holds for any automorphism of the fragment that maps labels
to labels and its other vertices to other vertices.  It maps each
parallel-edge group to one of the same size, so a class to a class of the
same weight, with the same bidegrees, and it maps a subset and its
colorings one to one onto another subset and its colorings.  When it fixes
each label the signed tensors and coloring counts are equal.  When it moves
label q to label p(q), the tensor V^(x)t of the image class is that of the
class with its coordinates permuted: at c it is the class's at c', where
c'_q = c_p(q), times the Koszul sign, the sign of the sequence of p(q) over
the q, in increasing order, whose c'_q is exterior; the counts move with no
sign.  So once the classes that pass the bidegree check number
:data:`ORBIT_GATE` or more, they are merged into their orbits under the
generators that :func:`~mixedpf.graph._automorphisms` finds
(:func:`_orbits`), each class with the label permutation of one group
element that maps its orbit's first class onto it.  Each orbit is peeled
and walked once, by its first class, into one sum per label permutation
with the summed weight of its classes of that permutation, and each sum
but that of the unmoved labels is permuted into the total once, at the end,
through the table of its permutation (:func:`_relabel`, which reads
:func:`~mixedpf.algebra.signed_map`), a sign of -1 as two quarter turns.
Below the gate the search costs more than the walks it saves.

Each subset's state comes from the rng-free
:func:`~mixedpf.graph.peel`, which counts circuits and lists the trails as
it builds the state, so the sign needs no second trace; any valid state
gives the same signed sum.

The walk multiplies ints, not Fractions or Gaussian rationals: each model
carries its weights scaled by their common denominator D, as r * i^q with
an int r and a quarter turn q when the weight is real or purely imaginary
(:class:`~mixedpf.models.EdgeColoringModel`).  A product multiplies the r
and adds the q, and a full coloring adds its product to one of four sums,
the one of its q plus the subset's prefactor and a dual label's sign, all
mod 4; the four sums are combined once at the end, into one Gaussian
integer a coordinate (:func:`_gaussian`).  A weight with two nonzero
parts keeps its Gaussian value as r, with q = 0, and ``mul`` takes it as
it takes an int.  Every vertex but the labels gives one weight per
coloring, so a subset's sum is D^(n_vertices - t) times the true one.
The subset loop hands on each model's scaled coordinates with its scale,
the exact rational (k - 2*ell)^circles / D^(n_vertices - t) that takes
them to the sum (:func:`_mode_sums`).  The callers that return Q(i)
values, :func:`subset_sums`, :func:`tensor_sums` and
:func:`partition_function_many`, multiply each coefficient by the scale
once per call (:func:`_unturn`), skipping it when it is 1; a cut divides
once per value, as above.  The result is exact, with the same canonical
components as any Q(i) value.

Vertexless circle components never enter the enumeration: each contributes
the closed-form factor k - 2*ell, which is k in ordinary mode (2*ell = 0)
and -2*ell in skew mode (k = 0).  The exact sum is independent of
enumeration order, and partial sums combine associatively, so any parallel
partitioning of the work reproduces the same value bit for bit.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import filterfalse, product
from math import comb
from operator import add, mul

from .algebra import (
    ZERO,
    GaussianRational,
    I,
    _div_exact,
    as_gaussian,
    dual_basis,
    form_pairing,
    normalize_wedge,
    permutation_sign,
    signed_map,
    sym_counts,
)
from .graph import (
    EulerianState,
    Fragment,
    MultiGraph,
    _automorphisms,
    _eulerian_masks,
    _isomorphism,
    as_fragment,
    decompose,
    enumerate_eulerian_subsets,
    eulerian_state,
    is_eulerian_subset,
    is_incoming,
    n_components,
    peel,
    split,
    validate_state,
)
from .models import MAX_MODEL_SIZE, EdgeColoringModel

MODES = ("ordinary", "skew", "mixed")


@dataclass(frozen=True)
class EvaluationResult:
    """An exact value plus enumeration counters for diagnostics."""

    value: GaussianRational
    subsets: int
    colorings: int


# The factor cache, {(models key, local shape (k, two_ell, n_sym, n_pairs),
# slot pattern): {fixed colors: live local colorings}}, and the numbers it
# holds: per table its shape and its pattern, per list its fixed colors and,
# per live coloring, its free colors, mask, factors and turns, and per
# model-set record in _KEYS the numbers of _record_numbers.
_FACTORS: dict[tuple, dict] = {}
_held = 0
# The model-set records, {models key: (the same key, bidegree masks, one
# isolated vertex's (mask, factors, turns))}, one per set of models a call
# has used since the cache was last emptied.  A call takes its key from
# here, so that its lookups find the key by identity under equal models
# built apart; every table of _FACTORS has its models key here.
_KEYS: dict[tuple, tuple] = {}


def _record_numbers(record) -> int:
    """The numbers a model-set record holds: per model its entries times
    colors and its (k, two_ell), 3 per bidegree mask, and the isolated
    vertex's mask, factors and turns."""
    key, bidegrees, (_, factors, turns) = record
    size = sum(2 + len(items) * (k + l2) for k, l2, items in key)
    return size + 3 * len(bidegrees) + 1 + len(factors or ()) + len(turns or ())


# The last (fragment, models, context) that subset_sums built, reused by its
# next call on an equal fragment and equal models; None once _empty has run.
_context = None


def _empty() -> None:
    """Empty the factor cache and the model-set records, clearing each table
    in place, so that a walk still filling one fills no stale table, and
    drop :func:`subset_sums`' last context, whose models key the records no
    longer hold."""
    global _held, _context
    for emptied in _FACTORS.values():
        emptied.clear()
    _FACTORS.clear()
    _KEYS.clear()
    _held = 0
    _context = None


def _model_set(models) -> tuple:
    """The record of ``models``: the one _KEYS holds for equal models, or a
    new one, held and counted once the cache is emptied if it would pass
    MAX_MODEL_SIZE.  One that passes it alone is not held, and neither are
    its tables.

    Its bidegree masks map (s, x) to the mask of the models with a pattern
    of s symmetric colors and x exterior ones, and its isolated vertex's
    (mask, factors, turns) are those of :func:`_vertex_factors`, (0, None,
    None) when every model weighs it zero.
    """
    global _held
    key = tuple(h.key for h in models)
    record = _KEYS.get(key)
    if record is None:
        bidegrees = {}
        for i, h in enumerate(models):
            for bidegree in h.bidegrees:
                bidegrees[bidegree] = bidegrees.get(bidegree, 0) | 1 << i
        k, two_ell = models[0].k, models[0].two_ell
        tables = [h.scaled for h in models]
        isolated = _vertex_factors((k, two_ell, 0, 0), (), tables) or (0, None, None)
        record = (key, bidegrees, isolated)
        size = _record_numbers(record)
        if _held + size > MAX_MODEL_SIZE:
            _empty()
        if size <= MAX_MODEL_SIZE:
            _KEYS[key] = record
            _held += size
    return record


def _keep(cache_key, table: dict, fixed, live: list) -> None:
    """Keep ``live``, the live local colorings under fixed colors ``fixed``,
    in ``table``, the walk's table of ``cache_key``, and put the table in
    the cache if it is not there: during a walk the cache holds that table
    or none for its key.

    A table is kept only while the record of its models key is held.  An
    insertion that would pass MAX_MODEL_SIZE first empties the cache and
    holds that record again, so a table a walk still fills is put back and
    counted again.  One that passes it with the record alone is not kept.
    """
    global _held
    size = len(fixed)
    for free, _, factors, turns in live:
        size += 1 + len(free) + len(factors or ()) + len(turns or ())
    if cache_key not in _FACTORS or _held + size > MAX_MODEL_SIZE:
        models_key, shape, pattern = cache_key
        record = _KEYS.get(models_key)
        if record is None:
            return
        size += len(shape) + len(pattern)
        if _held + size > MAX_MODEL_SIZE:
            _empty()
            _KEYS[models_key] = record
            _held = _record_numbers(record)
            if _held + size > MAX_MODEL_SIZE:
                return
        _FACTORS[cache_key] = table
    table[fixed] = live
    _held += size


def _vertex_factors(shape, key, tables):
    """A vertex's weights under each model's table of scaled weights.

    None when every model weighs the pattern of the slot-ordered colors
    ``key`` zero, else (alive mask, factors, turns): bit i of the mask is
    set iff model i's weight is nonzero, and model i's signed weight is
    factors[i] * i^turns[i], 1 and 0 standing in for the zero ones.
    factors is None when they are all 1 and turns when they are all 0, so
    that the walk skips the product or the sum.  ``tables`` holds each
    model's ``scaled`` table of (r, q) pairs.
    """
    k, two_ell, n_sym, _ = shape
    # the pair slots alternate: f_c where the edge comes in, g_c where it goes out
    sign, ext = normalize_wedge([(c, p % 2 == 1) for p, c in enumerate(key[n_sym:])], two_ell)
    if sign == 0:
        return None
    entry = (sym_counts(key[:n_sym], k), ext)
    mask = 0
    factors = []
    turns = []
    for i, weights in enumerate(tables):
        weight = weights.get(entry)
        if weight is None:
            factors.append(1)
            turns.append(0)
        else:
            mask |= 1 << i
            r, q = weight
            factors.append(r if sign > 0 else -r)
            turns.append(q)
    if not mask:
        return None
    return (
        mask,
        None if all(f == 1 for f in factors) else tuple(factors),
        tuple(turns) if any(turns) else None,
    )


def _weighed(cache_key, table: dict, key, tables) -> tuple:
    """The live local colorings of a vertex whose slots are all fixed, with
    slot-ordered colors ``key``: (((), alive mask, factors, turns),) of
    :func:`_vertex_factors`, or () when every model weighs it zero, tuples
    so that a table of many dead keys stays small.  Read from ``table``,
    the walk's table of ``cache_key``, whose slot pattern fixes every slot;
    on a miss weighed and kept there."""
    hit = table.get(key)
    if hit is None:
        weights = _vertex_factors(cache_key[1], key, tables)
        hit = () if weights is None else (((), *weights),)
        _keep(cache_key, table, key, hit)
    return hit


def _live_colorings(shape, pattern, fixed, tables, full) -> list:
    """The live local colorings of a vertex with a free slot: each coloring
    of its free edges that, with the colors ``fixed`` of its other slots,
    some model weighs nonzero, as (free colors, alive mask, factors, turns)
    of :func:`_vertex_factors`.

    ``pattern`` gives each slot, in slot order, the index of its free edge,
    or None for a fixed slot, whose colors ``fixed`` lists in slot order.  A
    loop's edge fills two slots.  A free edge takes the symmetric colors in
    a symmetric slot and the exterior ones in a pair slot.  Each candidate's
    weights are read by :func:`_weighed` from ``full``, the (cache key,
    table) of the shape's fully fixed pattern, so vertices of one shape
    weigh a color tuple once, whichever of their slots are free.
    """
    k, two_ell, n_sym, _ = shape
    domains = [None] * len(set(pattern) - {None})
    for p, j in enumerate(pattern):
        if j is not None:
            domains[j] = range(1, k + 1) if p < n_sym else range(1, two_ell + 1)
    full_key, full_table = full
    live = []
    for free in product(*domains):
        colors = iter(fixed)
        key = tuple(next(colors) if j is None else free[j] for j in pattern)
        hit = _weighed(full_key, full_table, key, tables)
        if hit:
            live.append((free, *hit[0][1:]))
    return live


def _table(walk: dict, cache_key) -> dict:
    """The table of ``cache_key``, a fully fixed slot pattern, that a walk
    reads and fills: the cache's, or a new one that its first insertion
    puts in (:func:`_keep`).  ``walk`` holds the walk's tables new to the
    cache and its fully fixed ones, so that the walk fills one table per
    key even after the cache is emptied, and the cache holds that table or
    none."""
    table = walk.get(cache_key)
    if table is None:
        table = walk[cache_key] = _FACTORS.get(cache_key, {})
    return table


# The step of a graph with no vertex to color: its one live coloring colors
# nothing and keeps every model, so that its one leaf is summed as the
# children of any last step are.
_NO_STEP = ((), {(): (((), -1, None, None),)}, None, ())


def _walk_order(g: MultiGraph) -> list[int]:
    """An edge order, read from the graph's structure, whose completions
    give the coloring walk its vertex order: the walk colors the internal
    vertices in the order this one takes their last edges.

    Greedy: start at a vertex with the fewest edges; then take the lowest
    unordered edge at the touched vertex with the fewest unordered edges
    left, ties to the lower vertex; when no touched vertex has edges left,
    restart at the untouched vertex with the fewest edges, which is how the
    order reaches the next component.  A loop counts once.  Each step thus
    finishes the vertex nearest completion, so vertices complete early and
    the backlog, the edges colored before the check of their second end,
    stays small.  On prisms and Moebius ladders the backlog stays at 2 under
    any vertex names.
    """
    edges = g.edges
    incident = [[] for _ in range(g.n_vertices)]
    for e, (a, b) in enumerate(edges):
        incident[a].append(e)
        if b != a:
            incident[b].append(e)
    full = [len(es) for es in incident]
    left = full[:]
    fewest = left.__getitem__
    nxt = [0] * g.n_vertices  # where each vertex's unordered edges may begin
    placed = [False] * len(edges)
    order = []
    # a component, once started, is ordered whole before the next starts
    for start in sorted(range(g.n_vertices), key=fewest):
        if not left[start]:
            continue
        active = [start]  # the touched vertices with edges left, by index
        while active:
            v = min(active, key=fewest)
            es = incident[v]
            i = nxt[v]
            while placed[es[i]]:
                i += 1
            nxt[v] = i + 1
            e = es[i]
            placed[e] = True
            order.append(e)
            a, b = edges[e]
            u = b if a == v else a
            if u != v:
                if left[u] == full[u]:
                    insort(active, u)
                left[u] -= 1
                if not left[u]:
                    active.remove(u)
            left[v] -= 1
            if not left[v]:
                active.remove(v)
    return order


class _SubsetContext:
    """Coloring machinery for one call: a graph or fragment and its models.

    What does not depend on the subset is set up once per call and serves
    every subset :meth:`run` searches.  The walk colors the internal
    vertices with edges one at a time, in the order :func:`_walk_order`'s
    edges complete them, ties to the lower vertex.  A vertex's free edges,
    those no earlier vertex has, are colored at its step; the edges between
    two labels, ``leaf_edges``, at the leaf.  ``frees`` holds each step's
    free edges, and ``vertices``, in walk order, each vertex, its edges (a
    loop twice), the index of each of its free edges and its step.  A
    vertex with no free edge has no step of its own: it is checked at the
    step that colors its last edge.  A graph with no vertex to color has
    one empty step, :data:`_NO_STEP`.  The context also holds the degree of
    each vertex, the labels' open ends and ``start``, the alive mask,
    factors and turns of the isolated vertices.  It reads from the models'
    record (:func:`_model_set`) ``key``, the models key that, with a local
    shape and a slot pattern, keys the factor cache's tables, the mask of
    models with a pattern of each bidegree, and the weight of one isolated
    vertex, so that none of them is built again for equal models.

    :meth:`alive` is the bidegree check of a subset: callers skip a subset
    it finds dead, before its state is built, yet still count it in
    ``subsets``; otherwise :meth:`run` starts its walk from its mask.

    The walk multiplies each model's ``scaled`` weights, so :meth:`run`
    sums D^(n_vertices - t) times the true values; ``scales`` holds that
    power for each model, isolated vertices counted.

    Each internal vertex reads its colors in slot order: one symmetric slot
    per end of an edge off the subset (a loop gives two), then the (in, out)
    edges of each of its pairings through the subset.  Its live local
    colorings are then a pure function of the models, its local shape (k,
    two_ell, n_sym, n_pairs), its slot pattern (which slots are free, and
    which free edge fills each) and the colors of its fixed slots, kept in
    the shared table of (``key``, shape, pattern) of :data:`_FACTORS`.

    Each label owns one tensor slot (edge, block offset, is_dual): an open
    end off the subset gives its symmetric color e_c (offset 0); one on the
    subset gives its exterior color f_c (offset k) where the edge comes in,
    and the dual g_c, expanded to a signed f, where it goes out.
    """

    def __init__(self, frag: Fragment, models: list[EdgeColoringModel]):
        g = frag.graph
        k, two_ell = models[0].k, models[0].two_ell
        self.k = k
        self.two_ell = two_ell
        self.edges = g.edges
        self.tables = [h.scaled for h in models]
        self.key, self.bidegrees, lone = _model_set(models)
        labeled = set(frag.labels)
        incident = [[] for _ in range(g.n_vertices)]  # in slot order, a loop twice
        for e, (a, b) in enumerate(g.edges):
            incident[a].append(e)
            incident[b].append(e)
        # the position of each vertex's last edge in the edge order, which completes it
        last = {}
        for p, e in enumerate(_walk_order(g)):
            a, b = g.edges[e]
            last[a] = last[b] = p
        self.frees = []
        self.vertices = []
        self.degrees = []
        colored = {}  # the step coloring each edge
        for _, v in sorted([(p, v) for v, p in last.items() if v not in labeled]):
            es = incident[v]
            at = len(self.frees)
            index = {}
            for e in es:
                if colored.setdefault(e, at) == at:
                    index.setdefault(e, len(index))
            if index:
                self.frees.append(tuple(index))
            else:
                at = max(map(colored.__getitem__, es))
            self.vertices.append((v, es, index, at))
            self.degrees.append((v, len(es)))
        if not self.frees:
            self.frees.append(())  # the one step of _NO_STEP
        self.leaf_edges = [e for e in range(g.n_edges) if e not in colored]
        self.n_vertices = g.n_vertices
        self.open_ends = [frag.open_end(pos) for pos in range(frag.t)]
        # the weight of the isolated internal vertices, common to every subset: one
        # vertex's factors and turns times their number; with none, every model is alive
        n = len(models)
        weighed = g.n_vertices - len(labeled)
        isolated = weighed - len(self.vertices)  # labels have an edge each
        mask, acc, turns = (1 << n) - 1, (1,) * n, (0,) * n
        if isolated:
            mask, factors, quarters = lone
            if factors is not None:
                acc = tuple(f**isolated for f in factors)
            if quarters is not None:
                turns = tuple(q * isolated for q in quarters)
        self.start = mask, acc, turns
        self.scales = [h.denominator**weighed for h in models]

    def alive(self, subset) -> int:
        """The mask of the models that weigh the isolated vertices nonzero
        and have a pattern of each other internal vertex's bidegree (d - x,
        x) on ``subset``, x of its d half-edges being in the subset.  Labels
        are not weighed."""
        inner = [0] * self.n_vertices
        edges = self.edges
        for e in subset:
            a, b = edges[e]
            inner[a] += 1
            inner[b] += 1
        mask = self.start[0]
        bidegrees = self.bidegrees
        for v, degree in self.degrees:
            if not mask:
                break
            x = inner[v]
            mask &= bidegrees.get((degree - x, x), 0)
        return mask

    def run(self, subset, state: EulerianState, mask: int, turn: int, targets) -> None:
        """Sum per-coloring products of internal-vertex weights by label colors.

        ``mask`` is :meth:`alive` of the subset.  One walk of the coloring
        tree serves every model it holds: each step colors one vertex's free
        edges from its live local colorings, and a branch is cut once every
        model weighs some vertex zero.  Adds each full coloring's product of
        r's for model i, times ``weight``, to the list ``by_turn[q % 4][i]``,
        at the coefficient of its label colors among the (k+2*ell)^t of the
        subset's tensor: q is ``turn``, the subset's prefactor, plus the
        turns of its weights and 2 for each dual label color of sign -1.
        Adds ``weight`` for each full coloring the model weighs nonzero,
        at the same coordinates, to the list ``leaves[i]``.  It does so for
        each (weight, by_turn, leaves) of ``targets``: ``weight`` is the
        number of subsets, in the orbit of the subset's parallel-edge class,
        whose sums that target takes, or 1.  Callers pass zeros for one
        subset's sums alone.  With no labels the single coefficient is the
        scalar sum.  The sums hold ints, or Gaussian integers once a weight
        with two nonzero parts enters, each model's times its entry of
        ``scales``.

        The full colorings are the surviving children of the last step,
        each with the colors of its edges between two labels: they are
        added where the step finds them, with the child's own alive mask,
        products and turns, and never pushed.  A lone target's weight
        multiplies the walk's starting products; with more, each leaf
        multiplies its products by each target's weight.
        """
        if not mask:
            return
        k, two_ell, tables = self.k, self.two_ell, self.tables
        n = len(tables)
        base = k + two_ell
        _, acc, turns = self.start
        # turned[j][i]: model i's sum of the products of quarter turn j, the
        # subset's added; with several targets, sinks holds each one's weight,
        # turned sums and leaves
        sinks = None
        if len(targets) == 1:
            [(weight, by_turn, leaves)] = targets
            turned = by_turn[turn:] + by_turn[:turn]
            if weight != 1:
                acc = tuple(a * weight for a in acc)
        else:
            sinks = [(w, sums[turn:] + sums[:turn], counts) for w, sums, counts in targets]

        # per step: its vertex's fixed slots' edges, its table, the table's cache
        # key, and the (slot edges, table, cache key) of each vertex with no free
        # edge it checks
        frees = self.frees
        m = len(frees)
        steps = [_NO_STEP] * m  # each step but that of a graph with none is set below
        checks = [[] for _ in frees]
        pairing = state.pairing
        walk = {}  # the walk's tables new to the cache, and its fully fixed ones
        for v, incident, index, at in self.vertices:
            es = [e for e in incident if e not in subset]
            n_sym = len(es)
            pairs = pairing.get(v, ())
            for hin, hout in pairs:
                es += (hin[0], hout[0])
            cache_key = (self.key, (k, two_ell, n_sym, len(pairs)), tuple(map(index.get, es)))
            table = _FACTORS.get(cache_key)
            if table is None:
                table = walk.setdefault(cache_key, {})
            if index:
                fixed = tuple(filterfalse(index.__contains__, es))
                steps[at] = (fixed, table, cache_key, checks[at])
            else:
                walk[cache_key] = table  # where _table finds a fully fixed table
                checks[at].append((tuple(es), table, cache_key))
        slots = []
        for e, side in self.open_ends:
            if e in subset:
                slots.append((e, k, not is_incoming(state, (e, side))))
            else:
                slots.append((e, 0, False))
        leaf_edges = self.leaf_edges
        leaf_colorings = [()]
        if leaf_edges:
            leaf_colorings = list(
                product(*(range(1, (two_ell if e in subset else k) + 1) for e in leaf_edges))
            )
        colors = [0] * len(self.edges)
        getitem = colors.__getitem__
        ell = two_ell // 2

        # depth-first over an explicit stack, so a graph's vertex count is
        # not bounded by the recursion limit: an entry (s, mask, acc, turns,
        # free) is a node whose step s-1 colored its free edges ``free``, and
        # colors of earlier steps are still those of its ancestors when it
        # is popped.  The last step's children are the leaves: each is summed
        # where it is found, not pushed.
        last = m - 1
        stack = [(0, mask, acc, turns, ())]
        pop, push = stack.pop, stack.append
        while stack:
            s, mask, acc, turns, free = pop()
            if s:
                for e, c in zip(frees[s - 1], free):
                    colors[e] = c
            free_edges = frees[s]
            fixed_edges, table, cache_key, completes = steps[s]
            fixed = tuple(map(getitem, fixed_edges))
            live = table.get(fixed)
            if live is None:
                models_key, shape, pattern = cache_key
                full_key = (models_key, shape, (None,) * len(pattern))
                full = full_key, _table(walk, full_key)
                live = _live_colorings(shape, pattern, fixed, tables, full)
                _keep(cache_key, table, fixed, live)
            leaf = s == last
            for free, alive, factors, quarters in live:
                alive &= mask
                if not alive:
                    continue
                f = acc if factors is None else tuple(map(mul, acc, factors))
                q = turns if quarters is None else tuple(map(add, turns, quarters))
                if completes or leaf:
                    for e, c in zip(free_edges, free):
                        colors[e] = c
                    for es, ctable, ckey in completes:
                        key = tuple(map(getitem, es))
                        hit = ctable.get(key)
                        if hit is None:
                            hit = _weighed(ckey, ctable, key, tables)
                        if not hit:
                            alive = 0
                            break
                        [(_, checked, factors, quarters)] = hit
                        alive &= checked
                        if not alive:
                            break
                        if factors is not None:
                            f = tuple(map(mul, f, factors))
                        if quarters is not None:
                            q = tuple(map(add, q, quarters))
                    if not alive:
                        continue
                if not leaf:
                    push((s + 1, alive, f, q, free))
                    continue
                for extra in leaf_colorings:
                    for e, c in zip(leaf_edges, extra):
                        colors[e] = c
                    idx = 0
                    negate = 0
                    for e, offset, dual in slots:
                        c = colors[e]
                        if dual:
                            sign, c = dual_basis(c, ell)
                            if sign < 0:
                                negate ^= 2
                        idx = idx * base + offset + c - 1
                    if sinks is None:
                        for i in range(n):
                            if alive >> i & 1:
                                leaves[i][idx] += weight
                                turned[(negate + q[i]) & 3][i][idx] += f[i]
                        continue
                    for w, sums, counts in sinks:
                        for i in range(n):
                            if alive >> i & 1:
                                counts[i][idx] += w
                                sums[(negate + q[i]) & 3][i][idx] += f[i] * w


def subset_sums(
    frag: Fragment, subset, state: EulerianState, models: list[EdgeColoringModel]
) -> list[tuple[list, int]]:
    """The coloring search of one Eulerian subset, for several models at once.

    Returns one (coefficients, leaves) pair per model: the (k+2*ell)^t
    coefficients of the subset's tensor over the label colors, in the
    coordinates of :class:`~mixedpf.connection.FragmentTensor`, and the
    number of surviving full colorings.  A plain graph gives exactly one
    coefficient, its subset value.  No sign is applied: callers multiply by
    the circuit parity and, for labels, the trail prefactor.  Callers also
    validate once per evaluation what this search assumes: ``state`` is a
    valid state of ``subset``, and the models share (k, two_ell) and fit the
    graph's degree caps (:meth:`EdgeColoringModel.check_cap`).

    Callers sum a fragment subset by subset, so the context of the last
    call is kept and serves the next call on an equal fragment and equal
    models.  Models are compared by ``==``, not by ``key``: models of
    equal scaled weights can differ in D, and so in the context's scales.
    """
    global _context
    models = tuple(models)
    last = _context
    if last is not None and last[0] == frag and last[1] == models:
        ctx = last[2]
    else:
        ctx = _SubsetContext(frag, models)
        _context = (frag, models, ctx)
    size = (ctx.k + ctx.two_ell) ** frag.t
    by_turn = [[[0] * size for _ in models] for _ in range(4)]
    leaves = [[0] * size for _ in models]
    ctx.run(subset, state, ctx.alive(subset), 0, [(1, by_turn, leaves)])
    return [
        (_unturn(_gaussian(sums), _div_exact(1, power)), sum(n))
        for sums, n, power in zip(zip(*by_turn), leaves, ctx.scales)
    ]


def _gaussian(sums) -> list:
    """One model's coordinates from its four sums by quarter turn,
    sum_q i^q * sums[q]: (a - c) + (b - d)*i at each, an int where b = d
    and the walk's weights are ints, else a Gaussian rational with int
    components.  They are still scaled as the walk's products are."""
    return [a - c + (b - d) * I if b != d else a - c for a, b, c, d in zip(*sums)]


def _unturn(coords, scale) -> list[GaussianRational]:
    """Coefficients in Q(i), with canonical components, from Gaussian
    integer coordinates (:func:`_gaussian`, or a cut's pairing of them):
    each times ``scale``, an exact rational, skipped when it is 1."""
    if scale == 1:
        return [as_gaussian(c) if c else ZERO for c in coords]
    # an int coordinate times the numerator stays an int: one exact division each
    n, d = scale.numerator, scale.denominator
    return [as_gaussian(c * n) / d if c else ZERO for c in coords]


def eulerian_sum(
    g: MultiGraph,
    subset,
    model: EdgeColoringModel,
    state: EulerianState | None = None,
) -> GaussianRational:
    """The signed coloring sum for one Eulerian edge subset.

    Exterior colors run over the subset (through the state's pairing),
    symmetric colors over the rest, weighted by (-1)^(number of circuits).
    The value does not depend on which valid state is used.  Circle
    components of g are NOT handled here; callers account for them.
    """
    frag = as_fragment(g)
    if frag.t:
        raise ValueError("eulerian_sum expects a plain graph, not a fragment")
    subset = frozenset(subset)
    model.check_cap(frag)
    if state is None:
        state = eulerian_state(frag, subset, 0)
    else:
        if frozenset(state.subset) != subset:
            raise ValueError("state was built for a different subset")
        validate_state(frag, state)
    circuits, _ = decompose(state, frag)
    [((total,), _)] = subset_sums(frag, subset, state, [model])
    return -total if circuits % 2 else total


def subset_prefactor(circuits: int, trails) -> int:
    """The sign of a subset's tensor as quarter turns q: the tensor is
    scaled by i^q.

    ``circuits`` and ``trails`` are what :func:`~mixedpf.graph.decompose`
    (or :func:`~mixedpf.graph.peel`) gives.  Each trail gives one i, which
    is i^(|S|/2) for the |S| labels on the subset; the directed matching of
    the trails gives its sign, the parity of its arcs listed end to end
    (:func:`~mixedpf.connection.canonical_matching_sign`); and each circuit
    gives -1.  A plain graph has no trails, so q is 0 or 2.
    """
    q = len(trails) + 2 * circuits
    if trails and permutation_sign([x for arc in trails for x in arc]) < 0:
        q += 2
    return q % 4


def _eulerian_classes(frag: Fragment) -> list[tuple[frozenset, int]]:
    """The parallel-edge classes of a fragment's Eulerian subsets, each as
    (representative, weight).

    The edges of one unordered endpoint pair form a group, and so do the
    loops at one vertex.  A class takes a count c_j in [0, mu_j] of edges
    from each group j of mu_j edges; its representative takes the first c_j
    edges of each group, and its weight, prod C(mu_j, c_j), is the number
    of subsets in it.  The classes come from the Eulerian subsets of the
    support, the graph with one edge per group, as parity patterns: a
    non-loop group takes every count of its edge's parity in the pattern, a
    loop group every count, so a pattern with a loop in it is skipped.  The
    patterns are the group masks of :func:`~mixedpf.graph._eulerian_masks`
    over the groups' endpoint pairs, which the fragment's own validation
    covers, so no support graph is built.  A fragment without a repeated
    group has its Eulerian subsets as classes, each of weight 1.
    """
    edges = frag.graph.edges
    groups = {}
    for e, (a, b) in enumerate(edges):
        groups.setdefault((a, b) if a <= b else (b, a), []).append(e)
    if len(groups) == len(edges):
        return [(subset, 1) for subset in enumerate_eulerian_subsets(frag)]
    # options[j][p]: group j's (first edges, C(mu_j, c)) for each count c of parity p
    options = []
    loops = 0  # the mask of the loop groups
    for j, ((a, b), es) in enumerate(groups.items()):
        counts = [(es[:c], comb(len(es), c)) for c in range(len(es) + 1)]
        if a == b:
            loops |= 1 << j
            options.append((counts, counts))
        else:
            options.append((counts[::2], counts[1::2]))
    classes = []
    for pattern in _eulerian_masks(groups, frag.labels):
        if pattern & loops:
            continue
        for choice in product(*(opts[pattern >> j & 1] for j, opts in enumerate(options))):
            subset = []
            weight = 1
            for es, count in choice:
                subset += es
                weight *= count
            classes.append((frozenset(subset), weight))
    return classes


def _mode_classes(frag: Fragment, mode: str) -> list[tuple[frozenset, int]]:
    """The (representative, weight) classes of a mode's subsets: the empty
    subset in ordinary mode, the full edge set in skew mode when it is
    Eulerian, each of weight 1, and :func:`_eulerian_classes` in mixed
    mode."""
    if mode == "ordinary":
        return [(frozenset(), 1)]
    if mode == "skew":
        full = frozenset(range(frag.graph.n_edges))
        return [(full, 1)] if is_eulerian_subset(frag, full) else []
    return _eulerian_classes(frag)


def _orbits(frag: Fragment, live: list) -> list[tuple[frozenset, int, dict]]:
    """The orbits of the live classes ``live``, (representative, weight,
    alive mask) triples, under the automorphisms of the fragment that map
    labels to labels (:func:`~mixedpf.graph._automorphisms`), each as
    (first class, alive mask, weights): ``weights`` maps a label
    permutation p to the summed weight of the orbit's classes that an
    automorphism of label permutation p maps the first class onto.

    An automorphism maps a representative, the first c_j edges of each
    group j, to the first c_j edges of the image group, another
    representative.  Each orbit is grown breadth first from its first
    class, one image per class and generator, and each class takes the
    label permutation of the path that reached it, the generators' label
    permutations composed along it; the group is never listed.  Classes of
    one orbit have equal alive masks, and their signed tensors are those of
    the first class with the labels moved (:func:`_relabel`).
    """
    index = {subset: j for j, (subset, _, _) in enumerate(live)}
    generators = _automorphisms(frag.graph.edges, frag.labels)
    perms = [None] * len(live)  # each class's label permutation, once reached
    orbits = []
    for j, (first, _, mask) in enumerate(live):
        if perms[j] is not None:
            continue
        perms[j] = tuple(range(frag.t))
        weights = {}
        grown = [j]
        for u in grown:
            subset, weight, _ = live[u]
            perm = perms[u]
            weights[perm] = weights.get(perm, 0) + weight
            for edge_map, label_map in generators:
                v = index[frozenset(map(edge_map.__getitem__, subset))]
                if perms[v] is None:
                    perms[v] = tuple(label_map[q] for q in perm)
                    grown.append(v)
        orbits.append((first, mask, weights))
    return orbits


def _relabel(perm, k: int, two_ell: int, source, target) -> None:
    """Add to ``target``, the (sums by quarter turn, counts) of a fragment
    F, those of ``source``, taken with F's labels moved by ``perm``:
    ``labels'[q] = labels[perm[q]]``.  An orbit's first class walked with
    its weight stands so for the classes that an automorphism of label
    permutation ``perm`` maps it onto.

    F's tensor is that of F with its labels moved, with slot q moved to
    slot perm[q] and each coordinate times the Koszul sign of the move: the
    table of :func:`~mixedpf.algebra.signed_map` without the dual.  So each
    coordinate of ``source`` is added at its image, a sign of -1 as two
    quarter turns; counts take no sign.  A coordinate that no coloring
    reached is skipped.
    """
    images, signs = signed_map(k, two_ell, perm, False)
    source_turns, source_counts = source
    target_turns, target_counts = target
    for c in {c for counts in source_counts for c, n in enumerate(counts) if n}:
        idx = images[c]
        flip = 0 if signs[c] > 0 else 2
        for i, counts in enumerate(source_counts):
            if counts[c]:
                target_counts[i][idx] += counts[c]
                for j in range(4):
                    if source_turns[j][i][c]:
                        target_turns[(j + flip) & 3][i][idx] += source_turns[j][i][c]


def _validate(frags, models, mode: str) -> None:
    """Refuse, before any work, models that differ in (k, two_ell), a mode
    they do not fit, or a vertex beyond a model's degree cap."""
    sig = (models[0].k, models[0].two_ell)
    if any((h.k, h.two_ell) != sig for h in models):
        raise ValueError("partition_function_many needs models of equal (k, two_ell)")
    if mode not in MODES:
        raise ValueError(f"unknown mode '{mode}' (expected one of {MODES})")
    if mode == "ordinary" and sig[1] != 0:
        raise ValueError("ordinary mode needs a purely symmetric model (two_ell=0)")
    if mode == "skew" and sig[0] != 0:
        raise ValueError("skew mode needs a purely exterior model (k=0)")
    for frag in frags:
        d = frag.max_degree()
        for h in models:
            h.check_degree(d)


def _mode_sums(frag: Fragment, models, mode: str):
    """The signed tensor sums of a fragment over the subsets of its mode,
    as the walk leaves them.

    Returns (number of subsets, one (coordinates, counts, scale) triple per
    model).  A model's coordinates are its sum's (k+2*ell)^t coefficients
    times D^(n_vertices - t), each the Gaussian integer of
    :func:`_gaussian`: an int unless a quarter turn is odd or a weight has
    two nonzero parts.  Its scale is the exact rational
    (k - 2*ell)^circles / D^(n_vertices - t), int or Fraction, that takes
    every coordinate to its coefficient (:func:`_unturn`).  Its counts are
    its surviving full colorings, counted at the label coordinate each
    adds to.  The callers have validated
    ``models`` and ``mode`` (:func:`_validate`).  Each class of
    :func:`_mode_classes` is checked by :meth:`_SubsetContext.alive` once,
    and a dead one only counts in the subsets.  The live classes are merged
    into their :func:`_orbits`, under the automorphisms that map labels to
    labels, once they number :data:`ORBIT_GATE` or more.  Each class or
    orbit left is walked once, by its representative, into one sum per
    label permutation of its classes, with their summed weight; each sum of
    moved labels is then added to the total by :func:`_relabel`, with the
    Koszul sign of its permutation at each coordinate.  So the subsets and
    counts are those of a walk of every subset.  Each subset's tensor is
    scaled by i^q, q its :func:`subset_prefactor`: the walk adds q to the
    quarter turn of each product it sums, and the model's four sums by
    quarter turn are combined once at the end.
    """
    ctx = _SubsetContext(frag, models)
    size = (ctx.k + ctx.two_ell) ** frag.t

    def zeros():
        # by_turn[q][i]: model i's sum of the products whose quarter turn is q; counts[i]
        return [[[0] * size for _ in models] for _ in range(4)], [[0] * size for _ in models]

    subsets = 0
    live = []  # (representative, weight, alive mask) of each class some model survives
    for subset, weight in _mode_classes(frag, mode):
        subsets += weight
        mask = ctx.alive(subset)
        if mask:  # a dead class adds zero to every sum, yet counts in subsets
            live.append((subset, weight, mask))
    by_turn, counts = total = zeros()
    # (by_turn, counts) of the walks by label permutation; the identity's is the total
    moved = {}
    if len(live) < ORBIT_GATE:
        walks = ((subset, mask, [(weight, by_turn, counts)]) for subset, weight, mask in live)
    else:
        unmoved = tuple(range(frag.t))
        walks = []
        for first, mask, weights in _orbits(frag, live):
            targets = []
            for perm, weight in weights.items():
                if perm != unmoved and perm not in moved:
                    moved[perm] = zeros()
                targets.append((weight, *moved.get(perm, total)))
            walks.append((first, mask, targets))
    for subset, mask, targets in walks:
        state, circuits, trails = peel(frag, subset)
        ctx.run(subset, state, mask, subset_prefactor(circuits, trails), targets)
    for perm, sums in moved.items():
        _relabel(perm, ctx.k, ctx.two_ell, sums, total)
    # the mode checks make k - 2*ell the circle factor of every mode
    circles = (ctx.k - ctx.two_ell) ** frag.graph.n_circles
    return subsets, [
        (_gaussian(turned), n, _div_exact(circles, power))
        for turned, n, power in zip(zip(*by_turn), counts, ctx.scales)
    ]


def tensor_sums(frags, model: EdgeColoringModel, mode: str = "mixed") -> list[list]:
    """The signed tensor sum of each fragment over the subsets of its mode.

    The subsets are those of :func:`partition_function` (the empty one in
    ordinary mode, the full edge set in skew mode when it is Eulerian,
    every Eulerian subset in mixed mode), each tensor is that of
    :func:`~mixedpf.connection.fragment_tensor`, and each of the fragment's
    circles multiplies the sum by k - 2*ell.  Each sum holds the
    (k+2*ell)^t coefficients in Q(i), in that function's coordinates.
    Every fragment is validated before any is summed.
    """
    frags = [as_fragment(f) for f in frags]
    _validate(frags, [model], mode)
    sums = []
    for frag in frags:
        [(coords, _, scale)] = _mode_sums(frag, [model], mode)[1]
        sums.append(_unturn(coords, scale))
    return sums


def partition_function_many(
    g: MultiGraph, models, mode: str = "mixed"
) -> list[EvaluationResult]:
    """Evaluate several models with one subset/state enumeration.

    All models must share (k, two_ell).  A value is the single coefficient
    of the whole graph's t=0 tensor sum: this is the subset sum that
    :func:`partition_function`, which may cut a graph in two, is checked
    against, and its results equal that function's exactly.
    """
    models = list(models)
    if not models:
        return []
    frag = as_fragment(g)
    _validate([frag], models, mode)
    n_subsets, sums = _mode_sums(frag, models, mode)
    return [
        EvaluationResult(*_unturn(coords, scale), n_subsets, n) for coords, (n,), scale in sums
    ]


#: the least number of live classes that are merged into orbits: below it
#: the search for automorphisms costs more than the walks it saves
ORBIT_GATE = 16
#: the least cycle rank at which a connected graph is offered a cut
CUT_GATE = 6
#: the most edges a cut may have: its halves' tensors have (k+2*ell)^t coefficients
CUT_MAX_EDGES = 4
#: the most start vertices the cut finder grows a side from
CUT_STARTS = 16


def _balanced_cut(g: MultiGraph) -> list[int] | None:
    """One side of a cut of the connected graph g that pays, or None.

    A cut of t <= :data:`CUT_MAX_EDGES` edges into sides A and B pays when
    its halves' subsets, 2^cyc(F1) + 2^cyc(F2), are fewer than g's
    2^cyc(g), cyc being the cycle rank: with the labels of a half taken as
    one vertex, cyc(F1) = m_A + t - |A|, m_A the edges inside A.  A side is
    grown greedily from a start vertex: each step adds the vertex with an
    edge into the side that raises the cut least, ties to more edges into
    the side, then to the lower vertex.  Every prefix of every growth is a
    candidate; the cheapest wins, the first found among equals.  The starts
    are every vertex, or :data:`CUT_STARTS` spread evenly through them on a
    larger graph, so the search takes O(CUT_STARTS * (n + m) log m) steps.
    """
    n, m = g.n_vertices, g.n_edges
    neighbours = [[] for _ in range(n)]
    loops = [0] * n
    for a, b in g.edges:
        if a == b:
            loops[a] += 1
        else:
            neighbours[a].append(b)
            neighbours[b].append(a)
    best, size, cheapest = None, 0, 2 ** (m - n + 1)  # the growth and prefix that won
    starts = range(n)
    if n > CUT_STARTS:
        starts = sorted({i * n // CUT_STARTS for i in range(CUT_STARTS)})
    for start in starts:
        side = []
        into = [0] * n  # each vertex's edges into the side
        placed = [False] * n
        cut = inner = 0  # the edges leaving the side, and those inside it
        frontier = [(0, 0, start)]
        while len(side) < n - 1:
            _, minus_into, v = heappop(frontier)
            if placed[v] or -minus_into != into[v]:
                continue  # placed already, or pushed before its last edge into the side
            placed[v] = True
            side.append(v)
            cut += len(neighbours[v]) - 2 * into[v]
            inner += into[v] + loops[v]
            for w in neighbours[v]:
                if not placed[w]:
                    into[w] += 1
                    heappush(frontier, (len(neighbours[w]) - 2 * into[w], -into[w], w))
            if cut <= CUT_MAX_EDGES:
                cost = 2 ** (inner + cut - len(side)) + 2 ** (m - inner - n + len(side))
                if cost < cheapest:
                    best, size, cheapest = side, len(side), cost
    return None if best is None else best[:size]


def _by_cut(g: MultiGraph, side, model: EdgeColoringModel, mode: str) -> EvaluationResult:
    """g's result from the two halves of the cut around ``side``.

    The halves are those of :func:`~mixedpf.graph.split`, and g's value is
    the Gram pairing of their signed tensor sums (the form of
    :func:`~mixedpf.algebra.form_pairing`), the identity
    Z(F1 * F2) = [sum T(F1), sum T(F2)].  The halves are paired as
    :func:`_mode_sums` leaves them, scaled Gaussian integer coordinates, in
    int arithmetic unless a coordinate is not real; the pairing is then
    taken into Q(i) once, times the product of the halves' scales, which
    divides by both powers of D and applies the circle factor, all of the
    circles being F1's.  Its colorings are the same
    pairing of the halves' counts with every sign +1: a full coloring of g
    is one of each half that agrees on the cut edges, and it survives when
    both do.  Its subsets are 2^cyc(g) in mixed mode, counted in closed
    form, and in ordinary and skew mode those of :func:`_mode_classes`.
    The caller has validated ``model`` and ``mode``.

    When :func:`~mixedpf.graph._isomorphism` maps F1 onto F2, labels to
    labels, by a label permutation p, only F1 is walked: sum T(F2) is
    P sum T(F1), F1's sum with its slots moved by p and each coordinate
    times its Koszul sign, so g's value is [S, P S] with S = sum T(F1), and
    its colorings the same pairing of F1's counts, which move with no sign.
    Both are taken through the table of p's inverse with the dual
    (:func:`~mixedpf.algebra.signed_map`): [x, P y] is the form of x and y
    through that table, an identity that holds on every tensor.  Halves
    that are not isomorphic are both walked.
    """
    f1, f2 = split(g, side)
    twin = _isomorphism(f1, f2)
    [(coords1, counts1, scale1)] = _mode_sums(f1, [model], mode)[1]
    if twin is None:
        [(coords2, counts2, scale2)] = _mode_sums(f2, [model], mode)[1]
        perm = tuple(range(f1.t))
    else:
        coords2, counts2, scale2 = coords1, counts1, scale1
        perm = tuple(sorted(range(f1.t), key=twin.__getitem__))  # p's inverse
    k, two_ell = model.k, model.two_ell
    paired = form_pairing(coords1, coords2, k, two_ell, perm)
    [value] = _unturn([paired], scale1 * scale2)
    colorings = form_pairing(counts1, counts2, k, two_ell, perm, signed=False)
    if mode == "mixed":
        subsets = 2 ** (g.n_edges - g.n_vertices + n_components(g))
    else:
        subsets = sum(weight for _, weight in _mode_classes(as_fragment(g), mode))
    return EvaluationResult(value, subsets, colorings)


def partition_function(
    g: MultiGraph, model: EdgeColoringModel, mode: str = "mixed"
) -> EvaluationResult:
    """The partition function of a model on a multigraph.

    mixed sums the subset values over all Eulerian subsets; ordinary is the
    empty-subset case (requires two_ell=0); skew is the full-edge-set case on
    Eulerian graphs and zero otherwise (requires k=0).  Every circle
    component multiplies by k - 2*ell, which is k in ordinary mode and
    -2*ell in skew mode.

    A connected graph in mixed mode of cycle rank at least :data:`CUT_GATE`
    is cut by :func:`_balanced_cut` when a cut pays, and evaluated by
    :func:`_by_cut`; any other goes to :func:`partition_function_many`.
    In ordinary and skew mode a graph has a single subset, so no cut can
    pay.  Each path validates the graph and model once, after the cut
    finder, which reads the graph alone, and before any subset is summed.
    """
    frag = as_fragment(g)
    if frag.t:
        raise ValueError("partition_function expects a plain graph, not a fragment")
    g = frag.graph
    # m - n + 1 is a connected graph's cycle rank, read before the pass over its edges
    if mode == "mixed" and g.n_edges - g.n_vertices + 1 >= CUT_GATE and n_components(g) == 1:
        side = _balanced_cut(g)
        if side is not None:
            _validate([frag], [model], mode)
            return _by_cut(g, side, model, mode)
    return partition_function_many(g, [model], mode)[0]
