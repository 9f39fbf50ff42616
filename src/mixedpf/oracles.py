"""Independent brute-force oracles used as ground truth in every test.

Each function here recomputes, by direct enumeration or textbook linear
algebra, a quantity that the engine reaches through a partition function:
Eulerian edge subsets by testing every edge bitmask, the coloring sum of one
subset by trying every coloring, characteristic polynomials (an integer
trace recurrence and the subgraph expansion, deliberately separate code
paths), the circuit partition polynomial via transition systems, matching
counts, and matching-permutation signs via exhaustive search.  The subgraph
expansion classifies a graph's edge subsets once, as a polynomial in t, and
evaluates it at each t.  Nothing in this module calls the evaluator.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import GaussianRational, ONE, ZERO, as_gaussian, dual_basis
from .graph import MultiGraph, as_fragment, is_eulerian_subset, is_incoming
from .linalg import determinant


@dataclass(frozen=True)
class Polynomial:
    """A dense polynomial over Q(i); coefficient index = degree."""

    coeffs: tuple = ()

    def __post_init__(self):
        coeffs = [as_gaussian(c) for c in self.coeffs]
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x) -> GaussianRational:
        x = as_gaussian(x)
        total = ZERO
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for a, ca in enumerate(self.coeffs):
            if not ca:
                continue
            for b, cb in enumerate(other.coeffs):
                out[a + b] = out[a + b] + ca * cb
        return Polynomial(tuple(out))

    def shift(self, n: int) -> "Polynomial":
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return Polynomial((ZERO,) * n + self.coeffs)


def eulerian_subsets_oracle(frag) -> list[frozenset]:
    """The Eulerian subsets of a graph or fragment, by testing all 2^m masks.

    Same list, in the same ascending-mask order, as
    ``graph.enumerate_eulerian_subsets``.
    """
    frag = as_fragment(frag)
    m = frag.graph.n_edges
    out = []
    for mask in range(1 << m):
        subset = frozenset(e for e in range(m) if mask >> e & 1)
        if is_eulerian_subset(frag, subset):
            out.append(subset)
    return out


def coloring_sum_oracle(frag, subset, state, model) -> tuple[list, int]:
    """The coloring sum of one Eulerian subset, one coloring at a time.

    Tries every coloring (exterior colors on the subset, symmetric ones off
    it), weighs each internal vertex through ``model.evaluate`` with its
    pairing's (incoming, outgoing-as-dual) exterior positions, and adds the
    product at the labels' coordinate in the (k+2*ell)^t color space: e_c off
    the subset, f_c where a subset edge comes in, and the dual g_c, expanded
    to a signed f, where it goes out.  Returns (coefficients, number of
    colorings with a nonzero product), without circuit or trail signs.
    """
    frag = as_fragment(frag)
    g = frag.graph
    subset = frozenset(subset)
    k, two_ell = model.k, model.two_ell
    base = k + two_ell
    internal = [v for v in range(g.n_vertices) if v not in frag.labels]
    domains = [
        range(1, two_ell + 1) if e in subset else range(1, k + 1)
        for e in range(g.n_edges)
    ]
    coeffs = [ZERO] * base**frag.t
    nonzero = 0
    for colors in itertools.product(*domains):
        product = ONE
        for v in internal:
            sym = [
                colors[e]
                for e, ends in enumerate(g.edges)
                if e not in subset
                for end in ends
                if end == v
            ]
            ext = []
            for (e_in, _), (e_out, _) in state.pairing.get(v, ()):
                ext += [(colors[e_in], False), (colors[e_out], True)]
            product = product * model.evaluate(sym, ext)
        if not product:
            continue
        nonzero += 1
        idx = 0
        for pos in range(frag.t):
            e, side = frag.open_end(pos)
            c = colors[e]
            if e not in subset:
                coord = c - 1
            elif is_incoming(state, (e, side)):
                coord = k + c - 1
            else:
                s, j = dual_basis(c, two_ell // 2)
                product = product * s
                coord = k + j - 1
            idx = idx * base + coord
        coeffs[idx] = coeffs[idx] + product
    return coeffs, nonzero


def adjacency_matrix(g: MultiGraph) -> list[list[int]]:
    """Edge multiplicities off the diagonal, twice the loop count on it."""
    a = [[0] * g.n_vertices for _ in range(g.n_vertices)]
    for u, v in g.edges:
        if u == v:
            a[u][u] += 2
        else:
            a[u][v] += 1
            a[v][u] += 1
    return a


def adjacency_determinant(g: MultiGraph) -> GaussianRational:
    """det of the adjacency matrix, by exact elimination."""
    if g.n_circles:
        raise ValueError("adjacency matrix undefined for circle components")
    return determinant(adjacency_matrix(g))


def charpoly_oracle(g: MultiGraph) -> Polynomial:
    """det(tI - A) as an exact polynomial, by the Faddeev-LeVerrier recurrence.

    Over plain ints on the adjacency matrix: with M_0 = 0 and c_n = 1, step
    k = 1..n forms M_k = A*M_(k-1) + c_(n-k+1)*I and c_(n-k) = -tr(A*M_k)/k.
    Newton's identities make every division exact; a remainder raises
    ArithmeticError rather than being floored.
    """
    if g.n_circles:
        raise ValueError("characteristic polynomial undefined for circle components")
    n = g.n_vertices
    a = adjacency_matrix(g)
    coeffs = [0] * n + [1]
    m = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c = coeffs[n - k + 1]
        m = _matmul(a, m)
        for r in range(n):
            m[r][r] += c
        trace = sum(a[r][j] * m[j][r] for r in range(n) for j in range(n))
        coeffs[n - k], remainder = divmod(-trace, k)
        if remainder:
            raise ArithmeticError(f"tr(A*M_{k}) = {trace} is not divisible by {k}")
    return Polynomial(tuple(coeffs))


def _matmul(a, b) -> list[list[int]]:
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def sachs_oracle(g: MultiGraph, t) -> GaussianRational:
    """The subgraph expansion of det(tI - A), evaluated at t.

    Evaluates ``sachs_polynomial(g)``, so the edge subsets of a graph are
    classified once however many t values it is asked for.
    """
    return sachs_polynomial(g).evaluate(t)


@functools.lru_cache(maxsize=1)
def sachs_polynomial(g: MultiGraph) -> Polynomial:
    """The subgraph expansion of det(tI - A) as a polynomial in t.

    Classifies every edge subset once, and adds (-1)^(edge components) *
    (-2)^(cycle components) to the coefficient of t^(uncovered vertices) for
    each subset whose components are single edges or cycles; loops count as
    cycles and parallel pairs as 2-cycles.  The memo holds the last graph
    only, which serves the t values asked for one graph in a row.
    """
    if g.n_circles:
        raise ValueError("Sachs expansion undefined for circle components")
    m = g.n_edges
    n = g.n_vertices
    coeffs = [0] * (n + 1)
    for mask in range(1 << m):
        chosen = [e for e in range(m) if mask >> e & 1]
        kinds = _sachs_components(g, chosen)
        if kinds is None:
            continue
        covered = set()
        for e in chosen:
            covered.update(g.edges[e])
        coeffs[n - len(covered)] += (-1) ** kinds.count("edge") * (-2) ** kinds.count("cycle")
    return Polynomial(tuple(coeffs))


def _sachs_components(g: MultiGraph, chosen):
    """Classify the components of an edge subset as edges/cycles, or None."""
    deg = {}
    adj = {}
    for e in chosen:
        u, v = g.edges[e]
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append((e, v))
        adj.setdefault(v, []).append((e, u))
    if any(d > 2 for d in deg.values()):
        return None
    kinds = []
    seen_v = set()
    for start in sorted(deg):
        if start in seen_v:
            continue
        stack = [start]
        comp_v = set()
        comp_e = set()
        while stack:
            u = stack.pop()
            if u in comp_v:
                continue
            comp_v.add(u)
            for e, w in adj[u]:
                comp_e.add(e)
                if w not in comp_v:
                    stack.append(w)
        seen_v.update(comp_v)
        if len(comp_e) == 1 and len(comp_v) == 2:
            kinds.append("edge")
        elif all(deg[v] == 2 for v in comp_v):
            kinds.append("cycle")
        else:
            return None
    return kinds


def circuit_partition_oracle(g: MultiGraph) -> Polynomial:
    """The circuit partition polynomial via transition-system enumeration.

    At every vertex, each unordered perfect pairing of the incident
    half-edges is one transition choice; a full choice decomposes the edges
    into closed walks, counted by x^(number of walks).  Non-Eulerian graphs
    give the zero polynomial; every circle component multiplies by x.
    """
    if any(d % 2 for d in g.degrees()):
        return Polynomial()
    per_vertex = []
    for v in range(g.n_vertices):
        hes = []
        for e, (a, b) in enumerate(g.edges):
            if a == v:
                hes.append((e, 0))
            if b == v:
                hes.append((e, 1))
        per_vertex.append(list(_all_pairings(hes)))
    counts = {}
    for combo in itertools.product(*per_vertex):
        transition = {}
        for pairing in combo:
            for h1, h2 in pairing:
                transition[h1] = h2
                transition[h2] = h1
        circuits = _count_closed_walks(g, transition)
        counts[circuits] = counts.get(circuits, 0) + 1
    coeffs = [0] * (max(counts) + 1)
    for c, n in counts.items():
        coeffs[c] = n
    return Polynomial(tuple(coeffs)).shift(g.n_circles)


def _all_pairings(items):
    items = list(items)
    if not items:
        yield []
        return
    first = items.pop(0)
    for i, other in enumerate(items):
        for rest in _all_pairings(items[:i] + items[i + 1 :]):
            yield [(first, other)] + rest


def _count_closed_walks(g: MultiGraph, transition) -> int:
    visited = set()
    circuits = 0
    for he in sorted(transition):
        if he in visited:
            continue
        circuits += 1
        cur = he
        while cur not in visited:
            visited.add(cur)
            crossed = (cur[0], 1 - cur[1])
            visited.add(crossed)
            cur = transition[crossed]
    return circuits


def matching_count_oracle(g: MultiGraph) -> int:
    """Number of edge subsets forming matchings, the empty one included.

    Loops never take part: they meet their vertex twice.
    """
    candidates = [e for e, (u, v) in enumerate(g.edges) if u != v]
    count = 0
    for mask in range(1 << len(candidates)):
        used = set()
        ok = True
        for pos, e in enumerate(candidates):
            if not mask >> pos & 1:
                continue
            u, v = g.edges[e]
            if u in used or v in used:
                ok = False
                break
            used.add(u)
            used.add(v)
        if ok:
            count += 1
    return count


def permutation_sign_oracle(m, n) -> int:
    """Sign of a permutation sending one matching's arcs onto the other's.

    Exhaustive search over all permutations of the common ground set; all
    permutations achieving the mapping share one sign, so the first found is
    returned.
    """
    if m.ground_set() != n.ground_set():
        raise ValueError("matchings live on different ground sets")
    elements = sorted(m.ground_set())
    index = {x: i for i, x in enumerate(elements)}
    target = set(m.arcs)
    for images in itertools.permutations(elements):
        mapping = {x: images[i] for i, x in enumerate(elements)}
        if {(mapping[u], mapping[v]) for u, v in n.arcs} == target:
            positions = tuple(index[images[i]] for i in range(len(elements)))
            inversions = sum(
                1
                for a in range(len(positions))
                for b in range(a + 1, len(positions))
                if positions[a] > positions[b]
            )
            return -1 if inversions % 2 else 1
    raise ValueError("no permutation maps the matchings onto each other")
