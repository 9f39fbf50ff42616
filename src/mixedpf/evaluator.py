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
of the whole.  Its colorings are the pairing of the halves' coloring
counts, each counted at its label coordinate, with every sign +1, and its
subsets, 2^cyc(G), are counted in closed form.  The subset sum over the
whole graph, :func:`partition_function_many`, is what the halves are
checked against.  Disconnected graphs are not split into components: on
the small graphs of the suites a subset sum per component costs more in
setup than it saves.

Coloring enumeration walks the edges in one order, :func:`_walk_order`'s,
once for all the models of a call; a branch is cut as soon as every model
weighs a completed vertex zero, which is what makes the sparse built-in
models fast.  The exact sum does not depend on the order and
``colorings`` counts full colorings, so the order changes only how many
nodes the walk visits.

A vertex's weight comes from its canonical pattern, kept in one table per
local shape that every subset, graph and call shares: the table memoises a
pure function of shape and colors, so sharing it cannot change a value.

Work that does not depend on the subset is done once per call: the edge
order, the internal vertices and the position completing each, the models
alive at each vertex bidegree, and the per-shape factor caches over the
call's models, which every subset's walk reads and fills.

A vertex with x of its d half-edges in a subset reads d - x symmetric
colors and x exterior ones, so a model with no pattern of that bidegree
(d - x, x) weighs every coloring of the subset zero.  Each subset is
checked this way before its state is built: a subset that no model
survives is skipped, and the walk starts from the models that do.  Under
the charpoly models only disjoint unions of cycles survive.  A skipped
subset adds zero to every value and coloring count, and it still counts
in ``subsets``, which is every Eulerian subset of the mode.

Each subset's state comes from the rng-free
:func:`~mixedpf.graph.peel`, which counts circuits and lists the trails as
it builds the state, so the sign needs no second trace; any valid state
gives the same signed sum.

The walk multiplies Gaussian integers, not Fractions: each model carries
its weights scaled by their common denominator D
(:class:`~mixedpf.models.EdgeColoringModel`), so a real factor is a plain
int and ``operator.mul`` stays in C until an i appears.  Every vertex but
the labels gives one weight per coloring, so a subset's sum is
D^(n_vertices - t) times the true one; :func:`subset_sums` divides each
coefficient by that power once, and the subset loop each coefficient of
each model's sum once per call, skipping the division when D = 1.  The
result is exact, with the same canonical components as any Q(i) value.

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
from operator import mul

from .algebra import (
    ZERO,
    GaussianRational,
    I,
    as_gaussian,
    dual_basis,
    form_pairing,
    normalize_wedge,
    permutation_sign,
    sym_counts,
)
from .graph import (
    EulerianState,
    Fragment,
    MultiGraph,
    as_fragment,
    components,
    decompose,
    enumerate_eulerian_subsets,
    eulerian_state,
    is_eulerian_subset,
    is_incoming,
    peel,
    split,
    validate_state,
)
from .models import MAX_MODEL_SIZE, EdgeColoringModel

MODES = ("ordinary", "skew", "mixed")

_MISS = object()


@dataclass(frozen=True)
class EvaluationResult:
    """An exact value plus enumeration counters for diagnostics."""

    value: GaussianRational
    subsets: int
    colorings: int


# Canonical forms per local shape (k, two_ell, n_sym, n_pairs): each maps a
# slot-ordered color tuple to its (entry key, sign), or None when the wedge
# vanishes.  A memo of a pure function of shape and colors, so every context,
# subset, graph and call shares it; it holds only the keys it has met.
_CANON: dict[tuple, dict] = {}
# one object per distinct canonical form, shared by every color tuple that reaches it
_FORMS: dict = {}
# the numbers both hold: each key's colors, and each form's counts and exterior
# colors.  An insertion that would pass MAX_MODEL_SIZE empties both first.
_held = 0


def _canonical(shape, key):
    """The canonical (entry key, sign) of a slot-ordered color tuple, or None."""
    global _held
    table = _CANON.get(shape)
    if table is None:
        table = _CANON[shape] = {}
    canon = table.get(key, _MISS)
    if canon is _MISS:
        k, two_ell, n_sym, _ = shape
        # the pair slots alternate: f_c where the edge comes in, g_c where it goes out
        sign, ext = normalize_wedge(
            [(c, p % 2 == 1) for p, c in enumerate(key[n_sym:])], two_ell
        )
        canon = None if sign == 0 else ((sym_counts(key[:n_sym], k), ext), sign)
        form_size = 0 if canon is None else k + len(ext)
        size = len(key) + (0 if canon in _FORMS else form_size)
        if _held + size > MAX_MODEL_SIZE:
            _CANON.clear()
            _FORMS.clear()
            table = _CANON[shape] = {}
            _held, size = 0, len(key) + form_size
        _held += size
        table[key] = canon = _FORMS.setdefault(canon, canon)
    return canon


def _vertex_factors(shape, key, tables):
    """A vertex's weights under each model's table of weights.

    None when every model weighs the pattern zero, else (alive mask,
    factors): bit i of the mask is set iff model i's weight is nonzero, and
    factors holds the signed per-model weights, 1 standing in for the zero
    ones, or is None when they are all 1, so that the walk skips the
    product.  The walk passes each model's ``scaled`` table, whose real
    weights are plain ints.
    """
    canon = _canonical(shape, key)
    if canon is None:
        return None
    entry, sign = canon
    mask = 0
    factors = []
    for i, entries in enumerate(tables):
        val = entries.get(entry)
        if val is None:
            factors.append(1)
        else:
            mask |= 1 << i
            factors.append(val if sign > 0 else -val)
    if not mask:
        return None
    return mask, None if all(f == 1 for f in factors) else tuple(factors)


def _walk_order(g: MultiGraph) -> list[int]:
    """The edge order of the coloring walk, read from the graph's structure.

    Greedy: start at a vertex with the fewest edges; then take the lowest
    unordered edge at the touched vertex with the fewest unordered edges
    left, ties to the lower vertex; when no touched vertex has edges left,
    restart at the untouched vertex with the fewest edges, which is how the
    order reaches the next component.  A loop counts once.  Each step thus
    finishes the vertex nearest completion, so vertices complete early and
    the backlog, the colored edges that no completed vertex has checked
    yet, stays small: the walk branches on it unchecked.  On prisms and
    Moebius ladders the backlog stays at 2 under any vertex names.
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
    every subset :meth:`run` searches: the edge order of
    :func:`_walk_order`, the position that completes each internal vertex
    (its incident edges are its slots whatever the subset) and its degree,
    the labels' open ends, the weight of isolated vertices, the mask of
    models with a pattern of each bidegree, and the factor caches, one per
    local shape, from a slot-ordered color tuple to its
    :func:`_vertex_factors`.  The caches are keyed by the call's models,
    so they hold for all its subsets.

    :meth:`alive` is the bidegree check of a subset: callers skip a subset
    it finds dead, before its state is built, yet still count it in
    ``subsets``; otherwise :meth:`run` starts its walk from its mask.

    The walk multiplies each model's ``scaled`` weights, so :meth:`run`
    sums D^(n_vertices - t) times the true values; ``scales`` holds that
    power for each model, isolated vertices counted.

    Each internal vertex reads its colors in slot order: one symmetric slot
    per end of an edge off the subset (a loop gives two), then the (in, out)
    edges of each of its pairings through the subset.  Its canonical
    (entry key, sign) is then a pure function of its local shape
    (k, two_ell, n_sym, n_pairs) and the color tuple, looked up in the shared
    :data:`_CANON` table.

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
        self.caches = {}
        self.sym_colors = range(1, k + 1)
        self.ext_colors = range(1, two_ell + 1)
        labeled = set(frag.labels)
        self.order = _walk_order(g)
        # the position of each vertex's last edge, which completes it
        last = {}
        for p, e in enumerate(self.order):
            for v in g.edges[e]:
                last[v] = p
        self.internal = [
            (v, last[v]) for v in range(g.n_vertices) if v not in labeled and v in last
        ]
        self.n_vertices = g.n_vertices
        degrees = g.degrees()
        self.degrees = [(v, degrees[v]) for v, _ in self.internal]
        # bit i of bidegrees[(s, x)] is set iff model i weighs some pattern of
        # s symmetric colors and x exterior ones
        self.bidegrees = {}
        for i, h in enumerate(models):
            for key in h.bidegrees:
                self.bidegrees[key] = self.bidegrees.get(key, 0) | 1 << i
        self.open_ends = [frag.open_end(pos) for pos in range(frag.t)]
        # the weight of the isolated internal vertices, common to every subset
        mask = (1 << len(models)) - 1
        acc = (1,) * len(models)
        isolated = (k, two_ell, 0, 0)
        for v in range(g.n_vertices):
            if v in labeled or v in last:
                continue
            hit = _vertex_factors(isolated, (), self.tables)
            mask &= hit[0] if hit else 0
            if not mask:
                break
            if hit[1] is not None:
                acc = tuple(map(mul, acc, hit[1]))
        self.start = mask, acc
        weighed = g.n_vertices - len(labeled)
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

    def run(self, subset, state: EulerianState, mask: int, coeffs, leaves) -> None:
        """Sum per-coloring products of internal-vertex weights by label colors.

        ``mask`` is :meth:`alive` of the subset.  One walk of the coloring
        tree serves every model it holds: a branch is cut once every model
        weighs some completed vertex zero.  Adds, for each model i, the
        (k+2*ell)^t coefficients of the subset's tensor, unsigned (no
        circuit parity or trail prefactor), to the list ``coeffs[i]``, and
        the full colorings the model weighs nonzero, counted at the same
        coordinates, to the list ``leaves[i]``; callers pass zeros for one
        subset's sums alone.  With no labels the single coefficient is the
        scalar sum.  Coefficients are Gaussian integers, ints when real,
        each model's times its entry of ``scales``.
        """
        k, two_ell, tables = self.k, self.two_ell, self.tables
        n = len(tables)
        base = k + two_ell
        acc = self.start[1]
        if not mask:
            return

        slot_edges = {v: [] for v, _ in self.internal}
        for e, (a, b) in enumerate(self.edges):
            if e not in subset:
                if a in slot_edges:
                    slot_edges[a].append(e)
                if b in slot_edges:
                    slot_edges[b].append(e)
        m = len(self.edges)
        # per position: the (slot edges, factor cache, shape) of each vertex it completes
        comp = [[] for _ in range(m)]
        caches = self.caches
        for v, last in self.internal:
            es = slot_edges[v]
            pairs = state.pairing.get(v, ())
            shape = (k, two_ell, len(es), len(pairs))
            for hin, hout in pairs:
                es += (hin[0], hout[0])
            cache = caches.get(shape)
            if cache is None:
                cache = caches[shape] = {}
            comp[last].append((tuple(es), cache, shape))
        order = self.order
        domains = [self.ext_colors if e in subset else self.sym_colors for e in order]
        slots = []
        for e, side in self.open_ends:
            if e in subset:
                slots.append((e, k, not is_incoming(state, (e, side))))
            else:
                slots.append((e, 0, False))
        colors = [0] * m
        getitem = colors.__getitem__
        ell = two_ell // 2

        # depth-first over an explicit stack, so a graph's edge count is not
        # bounded by the recursion limit: an entry (p, mask, acc, c) is a
        # node whose edge at position p-1 has color c, and colors at earlier
        # positions are still those of its ancestors when it is popped
        stack = [(0, mask, acc, 0)]
        pop, push = stack.pop, stack.append
        while stack:
            p, mask, acc, c = pop()
            if p:
                colors[order[p - 1]] = c
            if p == m:
                idx = 0
                negate = False
                for e, offset, dual in slots:
                    c = colors[e]
                    if dual:
                        s, c = dual_basis(c, ell)
                        negate ^= s < 0
                    idx = idx * base + offset + c - 1
                for i in range(n):
                    if mask >> i & 1:
                        leaves[i][idx] += 1
                        col = coeffs[i]
                        col[idx] = col[idx] - acc[i] if negate else col[idx] + acc[i]
                continue
            e = order[p]
            cp = comp[p]
            nxt = p + 1
            for c in domains[p]:
                colors[e] = c
                live = mask
                f = acc
                for es, cache, shape in cp:
                    key = tuple(map(getitem, es))
                    hit = cache.get(key, _MISS)
                    if hit is _MISS:
                        hit = cache[key] = _vertex_factors(shape, key, tables)
                    if hit is None:
                        live = 0
                        break
                    live &= hit[0]
                    if not live:
                        break
                    if hit[1] is not None:
                        f = tuple(map(mul, f, hit[1]))
                if live:
                    push((nxt, live, f, c))


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
    """
    ctx = _SubsetContext(frag, models)
    size = (ctx.k + ctx.two_ell) ** frag.t
    coeffs = [[0] * size for _ in models]
    leaves = [[0] * size for _ in models]
    ctx.run(subset, state, ctx.alive(subset), coeffs, leaves)
    return [
        ([_unscale(c, scale) for c in col], sum(n))
        for col, n, scale in zip(coeffs, leaves, ctx.scales)
    ]


def _unscale(value, scale: int) -> GaussianRational:
    """A sum of scaled products back in Q(i), with canonical components."""
    if not value:
        return ZERO
    value = as_gaussian(value)
    return value if scale == 1 else value / scale


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


def _mode_subsets(frag: Fragment, mode: str):
    if mode == "ordinary":
        return [frozenset()]
    if mode == "skew":
        full = frozenset(range(frag.graph.n_edges))
        return [full] if is_eulerian_subset(frag, full) else []
    return enumerate_eulerian_subsets(frag)


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
        for h in models:
            h.check_cap(frag)


def _mode_sums(frag: Fragment, models, mode: str):
    """The signed tensor sums of a fragment over the subsets of its mode.

    Returns (number of subsets, one (coefficients, counts) pair per model):
    a model's counts are its surviving full colorings, counted at the label
    coordinate of the coefficient each adds to.  The callers have validated
    ``models`` and ``mode`` (:func:`_validate`).  Each subset's tensor is
    scaled by i^q, q its :func:`subset_prefactor`: the walk adds it,
    unsigned, to the model's sum of quarter turn q, and the four sums are
    combined once at the end.  Sums stay scaled by D^(n_vertices - t) until
    one division per coefficient, and the fragment's own circles multiply
    them by k - 2*ell each.
    """
    ctx = _SubsetContext(frag, models)
    size = (ctx.k + ctx.two_ell) ** frag.t
    # by_turn[q][i]: model i's sum of the subsets whose prefactor is i^q
    by_turn = [[[0] * size for _ in models] for _ in range(4)]
    counts = [[0] * size for _ in models]
    subsets = _mode_subsets(frag, mode)
    for subset in subsets:
        mask = ctx.alive(subset)
        if not mask:
            continue  # every model weighs it zero; it still counts in subsets
        state, circuits, trails = peel(frag, subset)
        ctx.run(subset, state, mask, by_turn[subset_prefactor(circuits, trails)], counts)
    # the mode checks make k - 2*ell the circle factor of every mode
    factor = GaussianRational(ctx.k - ctx.two_ell) ** frag.graph.n_circles
    results = []
    for sums, scale, n in zip(zip(*by_turn), ctx.scales, counts):
        coeffs = []
        for a, b, c, d in zip(*sums):
            value, turned = a - c, b - d
            coeffs.append(_unscale(value + turned * I if turned else value, scale) * factor)
        results.append((coeffs, n))
    return len(subsets), results


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
    return [_mode_sums(frag, [model], mode)[1][0][0] for frag in frags]


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
    return [EvaluationResult(value, n_subsets, n) for (value,), (n,) in sums]


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
    Z(F1 * F2) = [sum T(F1), sum T(F2)].  Its colorings are the same
    pairing of the halves' counts with every sign +1: a full coloring of g
    is one of each half that agrees on the cut edges, and it survives when
    both do.  Its subsets are counted in closed form: 2^cyc(g) in mixed
    mode, one in ordinary mode, and in skew mode one if g is Eulerian.
    The caller has validated ``model`` and ``mode``.
    """
    f1, f2 = split(g, side)
    (_, [(values1, counts1)]), (_, [(values2, counts2)]) = (
        _mode_sums(f, [model], mode) for f in (f1, f2)
    )
    k, two_ell, t = model.k, model.two_ell, f1.t
    value = form_pairing(values1, values2, k, two_ell, t)
    colorings = form_pairing(counts1, counts2, k, two_ell, t, signed=False)
    if mode == "mixed":
        subsets = 2 ** (g.n_edges - g.n_vertices + len(components(g)))
    else:
        subsets = int(mode == "ordinary" or g.is_eulerian())
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
    pay.
    """
    frag = as_fragment(g)
    if frag.t:
        raise ValueError("partition_function expects a plain graph, not a fragment")
    g = frag.graph
    # m - n + 1 is a connected graph's cycle rank, read before the pass over its edges
    if mode == "mixed" and g.n_edges - g.n_vertices + 1 >= CUT_GATE and len(components(g)) == 1:
        _validate([frag], [model], mode)
        side = _balanced_cut(g)
        if side is not None:
            return _by_cut(g, side, model, mode)
    return partition_function_many(g, [model], mode)[0]
