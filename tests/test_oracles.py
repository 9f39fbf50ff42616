"""Oracle self-consistency tests (the oracles must stand on their own)."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from mixedpf.algebra import GaussianRational, as_gaussian
from mixedpf.graph import MultiGraph, circle_graph, cycle_graph, disjoint_union
from mixedpf.linalg import determinant
from mixedpf.oracles import (
    Polynomial,
    adjacency_determinant,
    adjacency_matrix,
    charpoly_oracle,
    circuit_partition_oracle,
    matching_count_oracle,
    sachs_oracle,
    sachs_polynomial,
)
from mixedpf.suites import enumerate_multigraphs, random_multigraph

K3 = cycle_graph(3)
FIG8 = MultiGraph(1, ((0, 0), (0, 0)))


def test_polynomial_basics():
    p = Polynomial((1, 0, 3))
    assert p.degree == 2
    assert p.evaluate(2) == 13
    assert Polynomial((0, 0)) == Polynomial(())
    q = Polynomial((-2, 1))
    assert (p * q).evaluate(5) == p.evaluate(5) * q.evaluate(5)


def gaussian_horner(coeffs, x) -> GaussianRational:
    """Horner's rule in GaussianRational arithmetic, a step at a time."""
    total = GaussianRational(0)
    for c in reversed(coeffs):
        total = total * as_gaussian(x) + c
    return total


HALF, THIRD = Fraction(1, 2), Fraction(1, 3)


@pytest.mark.parametrize(
    "coeffs",
    [
        (),
        (7,),
        (-2, -3, 0, 1),
        (HALF, HALF),
        (THIRD, -3, Fraction(2, 3), Fraction(-5, 4)),
        (GaussianRational(1, -2), THIRD, GaussianRational(0, HALF)),
        (GaussianRational(0, 1), 0, GaussianRational(0, 1)),
    ],
)
@pytest.mark.parametrize(
    "x", [0, 1, -2, Fraction(3, 2), GaussianRational(0, 1), GaussianRational(THIRD, HALF)]
)
def test_polynomial_evaluate_is_gaussian_horner(coeffs, x):
    """Real and Gaussian x, real and Gaussian coefficients and the zero
    polynomial give the value of Horner's rule over Q(i), with the same
    canonical components: an int where a part is integral."""
    p = Polynomial(coeffs)
    value, expected = p.evaluate(x), gaussian_horner(p.coeffs, x)
    assert isinstance(value, GaussianRational)
    assert (value.re, value.im) == (expected.re, expected.im)
    for part in (value.re, value.im):
        assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)


def test_polynomial_evaluate_reduces_integral_fractions():
    assert type(Polynomial((HALF, HALF)).evaluate(1).re) is int
    assert type(Polynomial((HALF, Fraction(3, 4))).evaluate(Fraction(2, 3)).re) is int
    i_squared = Polynomial((0, 0, 1)).evaluate(GaussianRational(0, 1))
    assert (i_squared.re, type(i_squared.re), i_squared.im, type(i_squared.im)) == (-1, int, 0, int)
    zero = Polynomial(()).evaluate(GaussianRational(THIRD, HALF))
    assert (zero.re, type(zero.re), zero.im, type(zero.im)) == (0, int, 0, int)


def test_adjacency_conventions():
    g = MultiGraph(2, ((0, 0), (0, 1), (0, 1)))
    assert adjacency_matrix(g) == [[2, 2], [2, 0]]


def test_charpoly_k3():
    # t^3 - 3t - 2
    assert charpoly_oracle(K3) == Polynomial((-2, -3, 0, 1))


def test_charpoly_single_loop():
    g = MultiGraph(1, ((0, 0),))
    assert charpoly_oracle(g) == Polynomial((-2, 1))


@pytest.mark.parametrize("n,det_at_zero", [(6, -4), (4, 0), (12, 0), (3, -2)])
def test_charpoly_cycles_at_zero(n, det_at_zero):
    assert charpoly_oracle(cycle_graph(n)).evaluate(0) == det_at_zero


def test_charpoly_is_the_determinant_at_n_plus_1_points():
    # n + 1 values fix a degree-n polynomial, so agreeing with elimination
    # at x = 0..n makes the trace recurrence det(xI - A) itself
    for g in enumerate_multigraphs(4, 5):
        n = g.n_vertices
        poly = charpoly_oracle(g)
        assert poly.degree == n and poly.coeffs[n] == 1, g
        a = adjacency_matrix(g)
        for x in range(n + 1):
            xi_minus_a = [[(x if r == c else 0) - a[r][c] for c in range(n)] for r in range(n)]
            assert poly.evaluate(x) == determinant(xi_minus_a), (g, x)


def test_charpoly_rejects_circles():
    with pytest.raises(ValueError):
        charpoly_oracle(circle_graph())


def test_adjacency_determinant_values():
    assert adjacency_determinant(cycle_graph(6)) == -4
    assert adjacency_determinant(cycle_graph(12)) == 0
    two_c6 = disjoint_union(cycle_graph(6), cycle_graph(6))
    assert adjacency_determinant(two_c6) == 16


def test_sachs_examples():
    assert sachs_oracle(K3, 0) == -2
    loop = MultiGraph(1, ((0, 0),))
    assert sachs_oracle(loop, 5) == 3
    edgeless = MultiGraph(3)
    assert sachs_oracle(edgeless, Fraction(3, 2)) == Fraction(27, 8)


def test_sachs_agrees_with_charpoly():
    rng = random.Random(17)
    for _ in range(20):
        g = random_multigraph(rng, max_vertices=4, max_edges=6)
        poly = charpoly_oracle(g)
        for _ in range(5):
            t = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert sachs_oracle(g, t) == poly.evaluate(t)


def test_sachs_polynomial_is_charpoly():
    for g in enumerate_multigraphs(3, 6):
        assert sachs_polynomial(g) == charpoly_oracle(g), g


def sachs_polynomial_by_masks(g: MultiGraph) -> Polynomial:
    """The subgraph expansion by testing all 2^m edge subsets, the reference
    for sachs_polynomial's enumeration of the elementary subgraphs alone.

    Each subset whose components are single edges or cycles (loops count as
    cycles and parallel pairs as 2-cycles) adds (-1)^(edge components) *
    (-2)^(cycle components) to the coefficient of t^(uncovered vertices).
    """
    m = g.n_edges
    n = g.n_vertices
    coeffs = [0] * (n + 1)
    for mask in range(1 << m):
        chosen = [e for e in range(m) if mask >> e & 1]
        kinds = sachs_components(g, chosen)
        if kinds is None:
            continue
        covered = set()
        for e in chosen:
            covered.update(g.edges[e])
        coeffs[n - len(covered)] += (-1) ** kinds.count("edge") * (-2) ** kinds.count("cycle")
    return Polynomial(tuple(coeffs))


def sachs_components(g: MultiGraph, chosen):
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


def test_sachs_polynomial_equals_the_mask_reference():
    for g in enumerate_multigraphs(3, 6):
        assert sachs_polynomial(g) == sachs_polynomial_by_masks(g), g


def test_sachs_polynomial_on_larger_random_multigraphs():
    """Up to 6 vertices and 10 edges, where paths, cycles of length 3 to 6
    and vertices of degree beyond 2 meet loops and parallel edges."""
    rng = random.Random(31)
    seen = Counter()
    for _ in range(40):
        n, m = rng.randint(4, 6), rng.randint(6, 10)
        g = MultiGraph(n, tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m)))
        seen["loop"] += any(u == v for u, v in g.edges)
        seen["parallel"] += len({frozenset(ends) for ends in g.edges}) < m
        assert sachs_polynomial(g) == sachs_polynomial_by_masks(g) == charpoly_oracle(g), g
    assert seen["loop"] >= 20 and seen["parallel"] >= 20


@pytest.mark.parametrize("g", [circle_graph(), disjoint_union(K3, circle_graph())])
def test_sachs_rejects_circles(g):
    with pytest.raises(ValueError):
        sachs_oracle(g, 1)


def test_sachs_memo_is_bounded_and_never_stale():
    sachs_polynomial.cache_clear()
    path = MultiGraph(2, ((0, 1),))
    for g, t, value in ((K3, 0, -2), (path, 2, 3), (K3, 0, -2), (path, 0, -1)):
        assert sachs_oracle(g, t) == value
    for g in enumerate_multigraphs(2, 3):
        sachs_oracle(g, 1)
        assert sachs_polynomial.cache_info().currsize <= 1
    sachs_polynomial.cache_clear()
    for t in (0, 1, -2, Fraction(3, 2)):
        assert sachs_oracle(FIG8, t) == charpoly_oracle(FIG8).evaluate(t)
    info = sachs_polynomial.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_circuit_partition_examples():
    assert circuit_partition_oracle(FIG8) == Polynomial((0, 2, 1))  # x^2 + 2x
    assert circuit_partition_oracle(cycle_graph(2)) == Polynomial((0, 1))
    assert circuit_partition_oracle(circle_graph()) == Polynomial((0, 1))
    path = MultiGraph(2, ((0, 1),))
    assert circuit_partition_oracle(path).is_zero()


def test_circuit_partition_convolution():
    # J(G, x+y) = sum over subsets A of J(G(A), x) * J(G(rest), y)
    rng = random.Random(19)
    pairs = [(1, 1), (2, -1), (Fraction(1, 2), 3)]
    for _ in range(10):
        g = random_multigraph(rng, max_vertices=3, max_edges=5)
        full = circuit_partition_oracle(g)
        for x, y in pairs:
            total = GaussianRational(0)
            for mask in range(1 << g.n_edges):
                inside = tuple(g.edges[e] for e in range(g.n_edges) if mask >> e & 1)
                outside = tuple(g.edges[e] for e in range(g.n_edges) if not mask >> e & 1)
                jx = circuit_partition_oracle(MultiGraph(g.n_vertices, inside)).evaluate(x)
                jy = circuit_partition_oracle(MultiGraph(g.n_vertices, outside)).evaluate(y)
                total = total + jx * jy
            assert total == full.evaluate(GaussianRational(x) + y)


def test_oracles_multiplicative():
    rng = random.Random(23)
    for _ in range(8):
        g = random_multigraph(rng, max_vertices=3, max_edges=4)
        h = random_multigraph(rng, max_vertices=3, max_edges=4)
        u = disjoint_union(g, h)
        assert charpoly_oracle(u) == charpoly_oracle(g) * charpoly_oracle(h)
        assert circuit_partition_oracle(u) == circuit_partition_oracle(
            g
        ) * circuit_partition_oracle(h)
        assert matching_count_oracle(u) == matching_count_oracle(g) * matching_count_oracle(h)


@pytest.mark.parametrize(
    "graph,count",
    [
        (K3, 4),
        (MultiGraph(2, ((0, 1),)), 2),
        (MultiGraph(3, ((0, 1), (1, 2))), 3),
        (MultiGraph(1, ((0, 0),)), 1),  # loops never match
    ],
)
def test_matching_counts(graph, count):
    assert matching_count_oracle(graph) == count


def test_circle_shifts_circuit_partition():
    # the suites check g plus a circle against the oracle of g times x
    for g in enumerate_multigraphs(3, 5):
        if g.is_eulerian():
            with_circle = disjoint_union(g, circle_graph())
            assert circuit_partition_oracle(with_circle) == circuit_partition_oracle(g).shift(1)
