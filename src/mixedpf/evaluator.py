"""The core partition-function computations.

Three modes of one engine: ordinary (symmetric colors only), skew (exterior
colors over the full edge set of an Eulerian graph) and mixed (a sum over all
Eulerian edge subsets, exterior colors inside, symmetric outside).

One per-subset engine, :func:`subset_sums`, serves every caller: it returns
a subset's tensor over the (k+2*ell)^t label colors, and a plain graph's
scalar subset value is the single coefficient of its t=0 tensor.

Coloring enumeration walks the edges in an order that completes vertices as
early as possible, once for all the models of a call; a branch is cut as
soon as every model weighs a completed vertex zero, which is what makes the
sparse built-in models fast.  A vertex's weight comes from its canonical
pattern, kept in one table per local shape that every subset, graph and
call shares: the table memoises a pure function of shape and colors, so
sharing it cannot change a value.

Vertexless circle components never enter the enumeration: they contribute a
closed-form multiplicative factor per mode.  The exact sum is independent of
enumeration order, and partial sums combine associatively, so any parallel
partitioning of the work reproduces the same value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .algebra import GaussianRational, ONE, ZERO, dual_basis, normalize_wedge, sym_counts
from .graph import (
    EulerianState,
    Fragment,
    MultiGraph,
    as_fragment,
    decompose,
    enumerate_eulerian_subsets,
    eulerian_state,
    is_eulerian_subset,
    is_incoming,
    validate_state,
)
from .models import EdgeColoringModel

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


def _canonical(shape, key):
    """The canonical (entry key, sign) of a slot-ordered color tuple, or None."""
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
        table[key] = canon = _FORMS.setdefault(canon, canon)
    return canon


def _vertex_factors(shape, key, tables):
    """A vertex's weights under each model's entry table.

    None when every model weighs the pattern zero, else (alive mask,
    factors): bit i of the mask is set iff model i's weight is nonzero, and
    factors holds the per-model weights, ONE standing in for the zero ones,
    or is None when they are all ONE, so that the walk skips the product.
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
            factors.append(ONE)
        else:
            mask |= 1 << i
            factors.append(val if sign > 0 else -val)
    if not mask:
        return None
    return mask, None if all(f == ONE for f in factors) else tuple(factors)


class _SubsetContext:
    """Coloring machinery for one (subset, state) pair.

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

    def __init__(self, frag: Fragment, subset, state: EulerianState, k: int, two_ell: int):
        g = frag.graph
        self.k = k
        self.two_ell = two_ell
        self.n_edges = g.n_edges
        labeled = set(frag.labels)
        internal = [v for v in range(g.n_vertices) if v not in labeled]

        slot_edges = {v: [] for v in internal}
        for e, (a, b) in enumerate(g.edges):
            if e in subset:
                continue
            if a not in labeled:
                slot_edges[a].append(e)
            if b not in labeled:
                slot_edges[b].append(e)
        shapes = {}
        for v in internal:
            pairs = state.pairing.get(v, ())
            shapes[v] = (k, two_ell, len(slot_edges[v]), len(pairs))
            for hin, hout in pairs:
                slot_edges[v] += (hin[0], hout[0])

        order = sorted(
            range(self.n_edges), key=lambda e: (max(g.edges[e]), min(g.edges[e]), e)
        )
        pos = {e: p for p, e in enumerate(order)}
        # per position: the (slot edges, shape) of each vertex it completes
        self.completed = [[] for _ in range(self.n_edges)]
        self.pre_shapes = []
        for v in internal:
            if slot_edges[v]:
                last = max(pos[e] for e in slot_edges[v])
                self.completed[last].append((tuple(slot_edges[v]), shapes[v]))
            else:
                self.pre_shapes.append(shapes[v])
        self.order = order
        self.domains = [
            range(1, two_ell + 1) if e in subset else range(1, k + 1) for e in order
        ]
        self.slots = []
        for pos in range(frag.t):
            e, side = frag.open_end(pos)
            if e in subset:
                self.slots.append((e, k, not is_incoming(state, (e, side))))
            else:
                self.slots.append((e, 0, False))

    def run(self, models):
        """Sum per-coloring products of internal-vertex weights by label colors.

        One walk of the coloring tree serves every model: a branch is cut
        once every model weighs some completed vertex zero.  Returns one
        (coefficients, leaves) pair per model: the (k+2*ell)^t coefficients
        of the subset's tensor, unsigned (no circuit parity or trail
        prefactor), and the number of full colorings the model weighs
        nonzero.  With no labels the single coefficient is the scalar sum.
        """
        tables = [h.entries for h in models]
        n = len(tables)
        size = (self.k + self.two_ell) ** len(self.slots)
        coeffs = [[ZERO] * size for _ in range(n)]
        leaves = [0] * n
        # per shape: slot-ordered color tuple -> _vertex_factors of it
        caches = {}
        mask = (1 << n) - 1
        acc = (ONE,) * n
        for shape in self.pre_shapes:
            hit = _vertex_factors(shape, (), tables)
            mask &= hit[0] if hit else 0
            if not mask:
                return list(zip(coeffs, leaves))
            if hit[1] is not None:
                acc = tuple(map(mul, acc, hit[1]))
        comp = [
            tuple((es, caches.setdefault(shape, {}), shape) for es, shape in done)
            for done in self.completed
        ]
        colors = [0] * self.n_edges
        getitem = colors.__getitem__
        m = self.n_edges
        order, domains, slots = self.order, self.domains, self.slots
        base = self.k + self.two_ell
        ell = self.two_ell // 2

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
                        leaves[i] += 1
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
        return list(zip(coeffs, leaves))


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
    ctx = _SubsetContext(frag, subset, state, models[0].k, models[0].two_ell)
    return ctx.run(models)


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
    if not is_eulerian_subset(frag, subset):
        raise ValueError("subset is not Eulerian")
    model.check_cap(frag.graph)
    if state is None:
        state = eulerian_state(frag, subset, 0)
    else:
        if frozenset(state.subset) != subset:
            raise ValueError("state was built for a different subset")
        validate_state(frag, state)
    circuits, _ = decompose(state, frag)
    [((total,), _)] = subset_sums(frag, subset, state, [model])
    return -total if circuits % 2 else total


def _mode_subsets(g: MultiGraph, mode: str):
    frag = as_fragment(g)
    if mode == "ordinary":
        return [frozenset()]
    if mode == "skew":
        if g.is_eulerian():
            return [frozenset(range(g.n_edges))]
        return []
    return enumerate_eulerian_subsets(frag)


def _circle_factor(model: EdgeColoringModel, mode: str) -> GaussianRational:
    if mode == "ordinary":
        return GaussianRational(model.k)
    if mode == "skew":
        return GaussianRational(-model.two_ell)
    return GaussianRational(model.k - model.two_ell)


def partition_function_many(
    g: MultiGraph, models, mode: str = "mixed"
) -> list[EvaluationResult]:
    """Evaluate several models with one subset/state enumeration.

    All models must share (k, two_ell); results equal per-model calls to
    :func:`partition_function` exactly.
    """
    models = list(models)
    if not models:
        return []
    sig = (models[0].k, models[0].two_ell)
    if any((h.k, h.two_ell) != sig for h in models):
        raise ValueError("partition_function_many needs models of equal (k, two_ell)")
    if mode not in MODES:
        raise ValueError(f"unknown mode '{mode}' (expected one of {MODES})")
    if mode == "ordinary" and sig[1] != 0:
        raise ValueError("ordinary mode needs a purely symmetric model (two_ell=0)")
    if mode == "skew" and sig[0] != 0:
        raise ValueError("skew mode needs a purely exterior model (k=0)")
    for h in models:
        h.check_cap(g)

    frag = as_fragment(g)
    totals = [ZERO] * len(models)
    colorings = [0] * len(models)
    subsets = _mode_subsets(g, mode)
    for subset in subsets:
        state = eulerian_state(frag, subset, 0)
        circuits, _ = decompose(state, frag)
        sums = subset_sums(frag, subset, state, models)
        for idx, ((value,), leaves) in enumerate(sums):
            colorings[idx] += leaves
            totals[idx] = totals[idx] - value if circuits % 2 else totals[idx] + value

    out = []
    for idx, h in enumerate(models):
        factor = _circle_factor(h, mode) ** g.n_circles
        out.append(EvaluationResult(totals[idx] * factor, len(subsets), colorings[idx]))
    return out


def partition_function(
    g: MultiGraph, model: EdgeColoringModel, mode: str = "mixed"
) -> EvaluationResult:
    """The partition function of a model on a multigraph.

    mixed sums the subset values over all Eulerian subsets; ordinary is the
    empty-subset case (requires two_ell=0); skew is the full-edge-set case on
    Eulerian graphs and zero otherwise (requires k=0).  Every circle
    component multiplies by k, -2*ell or k-2*ell according to the mode.
    """
    return partition_function_many(g, [model], mode)[0]


def invariance_check(
    g: MultiGraph, subset, model: EdgeColoringModel, trials: int = 10
) -> bool:
    """True iff the subset value agrees across ``trials`` seeded states."""
    frag = as_fragment(g)
    subset = frozenset(subset)
    reference = None
    for seed in range(trials):
        state = eulerian_state(frag, subset, seed)
        value = eulerian_sum(g, subset, model, state)
        if reference is None:
            reference = value
        elif value != reference:
            return False
    return True
