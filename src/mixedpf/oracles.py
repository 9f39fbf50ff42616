"""Independent brute-force oracles used as ground truth in every test.

Each function here recomputes, by direct enumeration or textbook linear
algebra, a quantity that the engine reaches through a partition function:
Eulerian edge subsets by testing every edge bitmask, the coloring sum of one
subset by trying every coloring, characteristic polynomials (an integer
trace recurrence and the subgraph expansion, deliberately separate code
paths), the circuit partition polynomial via transition systems, matching
counts, and matching-permutation signs via exhaustive search.  The subgraph
expansion enumerates a graph's elementary subgraphs once, as a polynomial in
t, and evaluates it at each t; the tests check it against a test of every
edge subset.  Nothing in this module calls the evaluator.
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

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, x) -> GaussianRational:
        """The value at x, by Horner's rule on plain int or Fraction
        components: on the real parts alone when x and every coefficient
        are real, since a Fraction times 0 is still a Fraction."""
        x = as_gaussian(x)
        a, b = x.re, x.im
        coeffs = self.coeffs[::-1]
        re = im = 0
        if not b and not any(c.im for c in coeffs):
            for c in coeffs:
                re = re * a + c.re
        else:
            for c in coeffs:
                re, im = re * a - im * b + c.re, re * b + im * a + c.im
        return GaussianRational(re, im)

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

    Evaluates ``sachs_polynomial(g)``, so the elementary subgraphs of a
    graph are enumerated once however many t values it is asked for.
    """
    return sachs_polynomial(g).evaluate(t)


@functools.lru_cache(maxsize=1)
def sachs_polynomial(g: MultiGraph) -> Polynomial:
    """The subgraph expansion of det(tI - A) as a polynomial in t.

    Enumerates the elementary subgraphs, the edge subsets whose components
    are single edges or cycles (loops count as cycles and parallel pairs as
    2-cycles), and adds (-1)^(edge components) * (-2)^(cycle components) of
    each to the coefficient of t^(uncovered vertices).  It backtracks over
    the edges, taking an edge only while both its ends stay at degree at
    most 2 (a loop counts 2), and drops a complete choice with a path of
    two or more edges: an edge whose ends have degrees 1 and 2.  What is
    left is single edges, both ends of degree 1, and cycles, whose count a
    union-find of their edges gives.  The memo holds the last graph only,
    which serves the t values asked for one graph in a row.
    """
    if g.n_circles:
        raise ValueError("Sachs expansion undefined for circle components")
    edges = g.edges
    n = g.n_vertices
    coeffs = [0] * (n + 1)
    degree = [0] * n
    chosen = []
    # depth-first over the edges, each taken or not, on an explicit stack so
    # that the edge count is not bounded by the recursion limit: an entry is
    # the next edge to decide, or its complement ~e to undo edge e
    stack = [0]
    while stack:
        e = stack.pop()
        if e < 0:
            u, v = chosen.pop()
            degree[u] -= 1
            degree[v] -= 1
        elif e < len(edges):
            stack.append(e + 1)  # leave edge e out, after the branches that take it
            u, v = edges[e]
            if degree[u] + (u == v) < 2 and degree[v] < 2:
                degree[u] += 1
                degree[v] += 1
                chosen.append((u, v))
                stack += (~e, e + 1)
        elif all(degree[u] == degree[v] for u, v in chosen):
            singles = cycles = 0
            parent = list(range(n))
            for u, v in chosen:
                if degree[u] == 1:
                    singles += 1
                    continue
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u == v:
                    cycles += 1  # the edge that closes a cycle, a loop its only one
                else:
                    parent[u] = v
            coeffs[degree.count(0)] += (-1) ** singles * (-2) ** cycles
    return Polynomial(tuple(coeffs))


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
