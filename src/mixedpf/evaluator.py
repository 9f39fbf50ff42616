"""The core partition-function computations.

Three modes of one engine: ordinary (symmetric colors only), skew (exterior
colors over the full edge set of an Eulerian graph) and mixed (a sum over all
Eulerian edge subsets, exterior colors inside, symmetric outside).

One per-subset engine, :func:`subset_sums`, serves every caller: it returns
a subset's tensor over the (k+2*ell)^t label colors, and a plain graph's
scalar subset value is the single coefficient of its t=0 tensor.

Coloring enumeration walks the edges in an order that completes vertices as
early as possible; a vertex whose weight comes out zero aborts the branch
immediately, which is what makes the sparse built-in models fast.  Vertexless
circle components never enter the enumeration: they contribute a closed-form
multiplicative factor per mode.  The exact sum is independent of enumeration
order, and partial sums combine associatively, so any parallel partitioning
of the work reproduces the same value bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GaussianRational, ONE, ZERO, dual_basis, normalize_wedge
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


class _SubsetContext:
    """Coloring machinery for one (subset, state) pair.

    The canonicalization cache maps each vertex's incident-color tuple to a
    canonical entry key plus a sign; it depends only on (k, two_ell), so
    several models with the same signature share one context and each run
    keeps its own per-model factor cache on top.

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

        sym_slots = {v: [] for v in internal}
        for e, (a, b) in enumerate(g.edges):
            if e in subset:
                continue
            if a not in labeled:
                sym_slots[a].append(e)
            if b not in labeled:
                sym_slots[b].append(e)
        pair_slots = {
            v: [(hin[0], hout[0]) for hin, hout in state.pairing.get(v, ())]
            for v in internal
        }
        vedges = {}
        for v in internal:
            es = set(sym_slots[v])
            for ein, eout in pair_slots[v]:
                es.add(ein)
                es.add(eout)
            vedges[v] = tuple(sorted(es))

        order = sorted(
            range(self.n_edges), key=lambda e: (max(g.edges[e]), min(g.edges[e]), e)
        )
        pos = {e: p for p, e in enumerate(order)}
        completed = [[] for _ in range(self.n_edges)]
        pre = []
        for v in internal:
            if vedges[v]:
                completed[max(pos[e] for e in vedges[v])].append(v)
            else:
                pre.append(v)

        # slot positions within each vertex's incident-color tuple
        self.sym_pos = {
            v: tuple(vedges[v].index(e) for e in sym_slots[v]) for v in internal
        }
        self.pair_pos = {
            v: tuple(
                (vedges[v].index(ein), vedges[v].index(eout))
                for ein, eout in pair_slots[v]
            )
            for v in internal
        }

        self.internal = internal
        self.vedges = vedges
        self.order = order
        self.completed = completed
        self.pre_vertices = pre
        self.domains = [
            range(1, two_ell + 1) if e in subset else range(1, k + 1) for e in order
        ]
        self._canon = {v: {} for v in internal}
        self.slots = []
        for pos in range(frag.t):
            e, side = frag.open_end(pos)
            if e in subset:
                self.slots.append((e, k, not is_incoming(state, (e, side))))
            else:
                self.slots.append((e, 0, False))

    def _canonize(self, v, key):
        """Canonical (entry key, sign) for an incident-color tuple, or None."""
        sym = [0] * self.k
        for p in self.sym_pos[v]:
            sym[key[p] - 1] += 1
        positions = []
        for pin, pout in self.pair_pos[v]:
            positions.append((key[pin], False))
            positions.append((key[pout], True))
        sign, ext = normalize_wedge(positions, self.two_ell)
        return None if sign == 0 else ((tuple(sym), ext), sign)

    def _factor(self, entries, v, key):
        canon = self._canon[v]
        keyed = canon.get(key, _MISS)
        if keyed is _MISS:
            keyed = self._canonize(v, key)
            canon[key] = keyed
        if keyed is None:
            return None
        val = entries.get(keyed[0])
        if val is None:
            return None
        return val if keyed[1] > 0 else -val

    def run(self, model: EdgeColoringModel):
        """Sum per-coloring products of internal-vertex weights by label colors.

        Returns (coefficients, leaves): the (k+2*ell)^t coefficients of the
        subset's tensor, unsigned (no circuit parity or trail prefactor), and
        the number of surviving full colorings.  With no labels the single
        coefficient is the scalar sum.
        """
        entries = model.entries
        base = self.k + self.two_ell
        coeffs = [ZERO] * base ** len(self.slots)
        colors = [0] * self.n_edges
        acc0 = ONE
        for v in self.pre_vertices:
            f = self._factor(entries, v, ())
            if f is None:
                return coeffs, 0
            acc0 = acc0 * f

        leaves = 0
        m = self.n_edges
        order, domains, slots = self.order, self.domains, self.slots
        ell = self.two_ell // 2
        getitem = colors.__getitem__
        factor_cache = {v: {} for v in self.internal}
        # per position: (vedges, per-run factor cache, vertex)
        comp = [
            tuple(
                (self.vedges[v], factor_cache[v], v) for v in self.completed[p]
            )
            for p in range(m)
        ]
        factor = self._factor

        def rec(p, acc):
            nonlocal leaves
            if p == m:
                leaves += 1
                idx = 0
                negate = False
                for e, offset, dual in slots:
                    c = colors[e]
                    if dual:
                        s, c = dual_basis(c, ell)
                        negate ^= s < 0
                    idx = idx * base + offset + c - 1
                coeffs[idx] = coeffs[idx] - acc if negate else coeffs[idx] + acc
                return
            e = order[p]
            cp = comp[p]
            nxt = p + 1
            for c in domains[p]:
                colors[e] = c
                f = acc
                dead = False
                for ves, fcache, v in cp:
                    key = tuple(map(getitem, ves))
                    fv = fcache.get(key, _MISS)
                    if fv is _MISS:
                        fv = factor(entries, v, key)
                        fcache[key] = fv
                    if fv is None:
                        dead = True
                        break
                    f = f * fv
                if not dead:
                    rec(nxt, f)

        rec(0, acc0)
        return coeffs, leaves


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
    return [ctx.run(h) for h in models]


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
