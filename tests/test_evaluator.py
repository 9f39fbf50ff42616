"""Partition-function engine tests: modes, circles, identities."""

import gc
import heapq
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedpf import evaluator
from mixedpf.algebra import I, ONE, ZERO, GaussianRational
from mixedpf.connection import DirectedMatching, canonical_matching_sign, fragment_tensor
from mixedpf.evaluator import (
    _vertex_factors,
    eulerian_sum,
    partition_function,
    partition_function_many,
    subset_sums,
)
from mixedpf.graph import (
    EulerianState,
    Fragment,
    MultiGraph,
    circle_graph,
    cycle_graph,
    disjoint_union,
    decompose,
    enumerate_eulerian_subsets,
    eulerian_state,
    peel,
    split,
)
from mixedpf.models import (
    EdgeColoringModel,
    charpoly_model,
    circuit_neg_model,
    circuit_odd_model,
    circuit_pos_model,
    matchings_model,
    tensor_model,
)
from mixedpf.oracles import charpoly_oracle, coloring_sum_oracle
from mixedpf.suites import (
    enumerate_fragments,
    enumerate_multigraphs,
    random_multigraph,
    random_sparse_model,
)

K3 = cycle_graph(3)
FIG8 = MultiGraph(1, ((0, 0), (0, 0)))


def all_ones_model(k, max_degree):
    """h that weighs every purely symmetric pattern 1."""
    entries = []

    def rec(prefix, remaining, parts):
        if parts == 1:
            entries.append((prefix + (remaining,), (), 1))
            return
        for c in range(remaining + 1):
            rec(prefix + (c,), remaining - c, parts - 1)

    for total in range(max_degree + 1):
        rec((), total, k)
    return EdgeColoringModel(k, 0, entries, cap=max_degree)


def test_eulerian_sum_trivial_coloring():
    h = all_ones_model(1, 4)
    assert eulerian_sum(K3, frozenset(), h) == 1


def test_eulerian_sum_fig8_full_subset_vanishes():
    # vertex degree 4 exceeds two_ell = 2, so every pairing pattern dies
    h = circuit_neg_model(1)
    assert eulerian_sum(FIG8, frozenset({0, 1}), h) == 0


def test_eulerian_sum_rejects_odd_subset():
    h = circuit_neg_model(1)
    with pytest.raises(ValueError):
        eulerian_sum(K3, frozenset({0}), h)


# label 0 - internal 1 - label 2: the subset {0} leaves vertex 1 odd
PATH2 = Fragment(MultiGraph(3, ((0, 1), (1, 2))), (0, 2))


@pytest.mark.parametrize("evaluate,g", [(eulerian_sum, K3), (fragment_tensor, PATH2)])
@pytest.mark.parametrize(
    "state_of,message",
    [(None, "not Eulerian"), ("odd", "not Eulerian"), ("empty", "different subset")],
)
def test_odd_subsets_are_refused(evaluate, g, state_of, message):
    """eulerian_state refuses an odd subset when no state is given;
    validate_state refuses a state of it, and a state of another subset is
    refused as such."""
    odd = frozenset({0})
    state = {
        None: None,
        "odd": EulerianState(odd, {0: True}, {}),
        "empty": eulerian_state(g, frozenset(), 0),
    }[state_of]
    with pytest.raises(ValueError, match=message):
        evaluate(g, odd, circuit_neg_model(1), state)


def test_eulerian_sum_rejects_foreign_state():
    h = circuit_neg_model(1)
    state = eulerian_state(K3, frozenset(), 0)
    with pytest.raises(ValueError):
        eulerian_sum(K3, frozenset({0, 1, 2}), h, state)


def test_degree_vanishing():
    # F-degree above two_ell forces zero for any model
    rng = random.Random(0)
    h = random_sparse_model(rng, 1, 2, 8, density=1.0)
    g = MultiGraph(2, ((0, 1), (0, 1), (0, 1), (0, 1)))
    assert eulerian_sum(g, frozenset(range(4)), h) == 0


# -- circle handling ----------------------------------------------------------


@pytest.mark.parametrize("k,two_ell", [(1, 0), (0, 2), (1, 2), (2, 2), (2, 4)])
def test_circle_values(k, two_ell):
    h = EdgeColoringModel(k, two_ell, [])
    circle = circle_graph()
    assert partition_function(circle, h, "mixed").value == k - two_ell
    if two_ell == 0:
        assert partition_function(circle, h, "ordinary").value == k
    if k == 0:
        assert partition_function(circle, h, "skew").value == -two_ell


def test_circle_multiplies():
    h = matchings_model(cap=4)
    g = disjoint_union(K3, circle_graph(2))
    base = partition_function(K3, h, "ordinary").value
    assert partition_function(g, h, "ordinary").value == base * 4


# -- worked values -------------------------------------------------------------


def test_matchings_k3():
    assert partition_function(K3, matchings_model(cap=4), "ordinary").value == 4


def test_fig8_circuit_counting():
    assert partition_function(FIG8, circuit_pos_model(1, cap=4), "ordinary").value == 3


def test_charpoly_loop_vertex():
    g = MultiGraph(1, ((0, 0),))
    assert partition_function(g, charpoly_model(5, cap=4), "mixed").value == 3


def test_c2_skew_value():
    c2 = cycle_graph(2)
    assert partition_function(c2, circuit_neg_model(1), "skew").value == -2


def test_skew_non_eulerian_is_zero():
    path = MultiGraph(2, ((0, 1),))
    assert partition_function(path, circuit_neg_model(1), "skew").value == 0


def test_mode_model_mismatch():
    with pytest.raises(ValueError):
        partition_function(K3, matchings_model(cap=4), "skew")
    with pytest.raises(ValueError):
        partition_function(K3, circuit_neg_model(1), "ordinary")
    with pytest.raises(ValueError):
        partition_function(K3, matchings_model(cap=4), "bogus")


def test_cap_too_small_raises():
    with pytest.raises(ValueError, match="cap"):
        partition_function(K3, matchings_model(cap=1), "ordinary")


def test_counters():
    result = partition_function(K3, matchings_model(cap=4), "ordinary")
    assert result.subsets == 1
    assert result.colorings == 4  # exactly the 4 matchings survive


# -- the coloring search against the brute-force oracle -------------------------

ORACLE_FAMILIES = ((0, 3, 5), (1, 3, 5), (2, 3, 5), (3, 2, 5), (4, 2, 4))
ORACLE_SHAPES = ((1, 2), (2, 2), (0, 2), (2, 0), (1, 4))


def test_subset_sums_equal_coloring_oracle():
    """Coefficients and leaves of every subset of every 7th small fragment.

    Three models share each walk; the empty one is zero on every branch, so
    each model dies and counts its leaves on its own.
    """
    rng = random.Random(5)
    checked = 0
    for family in ORACLE_FAMILIES:
        for pos, frag in enumerate(enumerate_fragments(*family)):
            if pos % 7:
                continue
            k, two_ell = ORACLE_SHAPES[checked % len(ORACLE_SHAPES)]
            degree = max(frag.graph.max_degree(), 1)
            models = [random_sparse_model(rng, k, two_ell, degree) for _ in range(2)]
            models.append(EdgeColoringModel(k, two_ell, {}))
            for subset in enumerate_eulerian_subsets(frag):
                state = eulerian_state(frag, subset, rng.randrange(100))
                got = subset_sums(frag, subset, state, models)
                expected = [coloring_sum_oracle(frag, subset, state, h) for h in models]
                assert got == expected, (frag, subset, k, two_ell)
            checked += 1
    assert checked > 300


def distinct_pattern_model(k, two_ell, max_degree):
    """A model that gives every canonical pattern up to max_degree its own value."""
    entries = []
    for sym in itertools.product(range(max_degree + 1), repeat=k):
        for size in range(max_degree - sum(sym) + 1):
            for ext in itertools.combinations(range(1, two_ell + 1), size):
                entries.append((sym, ext, len(entries) + 1))
    return EdgeColoringModel(k, two_ell, entries, cap=max_degree)


def test_shape_table_equals_model_evaluate():
    """The walk's factor for every slot-ordered color tuple of every shape of
    degree at most 4 is the value that the model's own sym_counts +
    normalize_wedge path gives, with None meaning ZERO."""
    checked = 0
    for k, two_ell in ORACLE_SHAPES:
        h = distinct_pattern_model(k, two_ell, 4)
        for n_pairs in range(3):
            for n_sym in range(5 - 2 * n_pairs):
                domains = [range(1, k + 1)] * n_sym + [range(1, two_ell + 1)] * (2 * n_pairs)
                for key in itertools.product(*domains):
                    ext_positions = [(c, p % 2 == 1) for p, c in enumerate(key[n_sym:])]
                    expected = h.evaluate(key[:n_sym], ext_positions)
                    shape = (k, two_ell, n_sym, n_pairs)
                    hit = _vertex_factors(shape, key, [h.entries])
                    # a second lookup reads the shared table's stored form
                    assert _vertex_factors(shape, key, [h.entries]) == hit
                    if hit is None:
                        got = ZERO
                    else:
                        assert hit[0] == 1
                        got = ONE if hit[1] is None else hit[1][0]
                    assert got == expected, (k, two_ell, n_sym, n_pairs, key)
                    checked += 1
    assert checked == 469


def test_the_walk_leaves_no_reference_cycles():
    """A coloring walk frees its state without the cycle collector."""
    prism = MultiGraph(
        6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5))
    )
    # the prism with edge (0, 1) cut into the open ends of labels 6 and 7
    frag = Fragment(MultiGraph(8, prism.edges[1:] + ((0, 6), (1, 7))), (6, 7))
    h = charpoly_model(Fraction(3, 2), cap=3)
    subsets = enumerate_eulerian_subsets(frag)
    gc.collect()
    gc.disable()
    try:
        partition_function(prism, h, "mixed")
        for subset in subsets:
            fragment_tensor(frag, subset, h)
        assert gc.collect() == 0
    finally:
        gc.enable()


def canon_numbers():
    """The numbers the canonical table holds, counted from its contents."""
    keys = sum(len(key) for table in evaluator._CANON.values() for key in table)
    forms = sum(len(form[0][0]) + len(form[0][1]) for form in evaluator._FORMS if form)
    return keys + forms


def test_canonical_table_holds_a_charpoly_pass(monkeypatch):
    """The charpoly family under its four models stays far under the bound,
    so no table is ever emptied: every key and form it met is still held."""
    monkeypatch.setattr(evaluator, "_CANON", {})
    monkeypatch.setattr(evaluator, "_FORMS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    models = [charpoly_model(t, cap=12) for t in (0, 1, -2, Fraction(3, 2))]
    for g in enumerate_multigraphs(3, 6):
        partition_function_many(g, models, "mixed")
    assert sum(map(len, evaluator._CANON.values())) == 1913
    assert len(evaluator._FORMS) == 147
    assert evaluator._held == canon_numbers() < evaluator.MAX_MODEL_SIZE


class CountedDict(dict):
    """A dict that counts the times it is emptied."""

    emptied = 0

    def clear(self):
        self.emptied += 1
        super().clear()


def test_canonical_table_is_emptied_at_its_bound(monkeypatch):
    """Past the bound the table starts over, and the values stay the same."""
    graphs = [
        MultiGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1))),
        MultiGraph(3, ((0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (0, 0))),
        # K4 with loops at two vertices
        MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 2), (3, 3))),
    ]
    h = charpoly_model(Fraction(3, 2), cap=6)

    def values(bound):
        monkeypatch.setattr(evaluator, "_CANON", CountedDict())
        monkeypatch.setattr(evaluator, "_FORMS", {})
        monkeypatch.setattr(evaluator, "_held", 0)
        monkeypatch.setattr(evaluator, "MAX_MODEL_SIZE", bound)
        return [partition_function(g, h, "mixed").value for g in graphs]

    unbounded = values(evaluator.MAX_MODEL_SIZE)
    assert canon_numbers() > 400 and evaluator._CANON.emptied == 0
    assert values(40) == unbounded
    assert evaluator._CANON.emptied >= 2
    assert evaluator._held == canon_numbers() <= 40


def path_graph(n):
    return MultiGraph(n, tuple((v, v + 1) for v in range(n - 1)))


@pytest.mark.parametrize(
    "g,model,mode,expected",
    [
        # det(-A) of the path P_n: (-1)^(n/2) for even n, 0 for odd n
        (path_graph(1200), charpoly_model(0, cap=2), "mixed", 1),
        (path_graph(1201), charpoly_model(0, cap=2), "mixed", 0),
        # J(C_n, 1) = 1: a cycle has one circuit partition
        (cycle_graph(1500), circuit_pos_model(1, cap=2), "ordinary", 1),
    ],
    ids=["P1200", "P1201", "C1500"],
)
def test_long_graphs_are_not_bounded_by_the_recursion_limit(g, model, mode, expected):
    assert partition_function(g, model, mode).value == expected


def test_values_keep_int_components():
    # det(3I - A) of the triangle: (3 - 2)(3 + 1)^2
    value = partition_function(K3, charpoly_model(3), "mixed").value
    assert value == 16 and type(value.re) is int and type(value.im) is int


# -- the scaled walk: one division by D^(n_vertices - t) per call ---------------


def scaled_family(rng, k, two_ell, max_degree):
    """Four models of one random integer table, with common denominators
    1, 2, 6 and 6: the table itself, and its weights times 1/2, 5/6 and
    1/3 + i/2.  The empty pattern weighs 1 in the table, so an isolated
    vertex's weight is fractional in the other three."""
    entries = []
    for ext_size in range(two_ell + 1):
        for ext in itertools.combinations(range(1, two_ell + 1), ext_size):
            for sym in itertools.product(range(max_degree + 1), repeat=k):
                if sum(sym) + ext_size <= max_degree:
                    weight = 1 if not any(sym) and not ext else rng.choice((-3, -2, -1, 1, 2, 3))
                    entries.append((sym, ext, weight))
    factors = (1, Fraction(1, 2), Fraction(5, 6), GaussianRational(Fraction(1, 3), Fraction(1, 2)))
    models = [
        EdgeColoringModel(k, two_ell, [(sym, ext, w * f) for sym, ext, w in entries])
        for f in factors
    ]
    assert [h.denominator for h in models] == [1, 2, 6, 6]
    return models


def oracle_value(g, h, mode="mixed"):
    """The partition function from coloring_sum_oracle, one coloring at a time
    through ``h.evaluate``, with no scaled weight anywhere."""
    value = ZERO
    for subset in enumerate_eulerian_subsets(g):
        state = eulerian_state(g, subset, 0)
        circuits, _ = decompose(state, Fragment(g))
        (total,), _ = coloring_sum_oracle(g, subset, state, h)
        value = value - total if circuits % 2 else value + total
    return value * GaussianRational(h.k - h.two_ell) ** g.n_circles


def oracle_tensor(frag, subset, state, h):
    """fragment_tensor's coefficients from coloring_sum_oracle and the
    tensor's prefactor: i^(trails), the trail matching's sign and the
    circuit parity."""
    circuits, trails = decompose(state, frag)
    prefactor = I ** len(trails) * canonical_matching_sign(DirectedMatching(trails))
    if circuits % 2:
        prefactor = -prefactor
    coeffs, _ = coloring_sum_oracle(frag, subset, state, h)
    return tuple(prefactor * c for c in coeffs)


def test_scaled_values_equal_the_unscaled_oracle():
    """Four models of common denominators 1, 2, 6 and 6 share each call, on
    every multigraph with at most 3 vertices and 4 edges, isolated vertices
    included: one division per model gives the oracle's values."""
    rng = random.Random(11)
    checked = 0
    for pos, g in enumerate(enumerate_multigraphs(3, 4)):
        k, two_ell = ((2, 2), (1, 2))[pos % 2]
        models = scaled_family(rng, k, two_ell, max(g.max_degree(), 1))
        for h, res in zip(models, partition_function_many(g, models, "mixed")):
            assert res.value == oracle_value(g, h), (g, h)
            checked += 1
    assert checked == 4 * 251


def test_scaled_tensors_equal_the_unscaled_oracle():
    """fragment_tensor of every Eulerian subset of every fragment with t <= 3
    labels, at most 2 internal vertices and 5 edges, under the four models
    (k = 1, so that the oracle stays cheap): the labels weigh in at no
    vertex, so they do not count in the power of D that is divided out."""
    rng = random.Random(12)
    checked = 0
    for t in range(4):
        for frag in enumerate_fragments(t, 2, 5):
            models = scaled_family(rng, 1, 2, max(frag.graph.max_degree(), 1))
            for subset in enumerate_eulerian_subsets(frag):
                state = eulerian_state(frag, subset, 0)
                for h in models:
                    got = fragment_tensor(frag, subset, h, state).coeffs
                    assert got == oracle_tensor(frag, subset, state, h), (frag, subset, h)
                    checked += 1
    assert checked == 4 * (736 + 511 + 1116 + 1642)


def assert_canonical(value):
    """A GaussianRational whose integral components are ints and whose other
    ones are Fractions in lowest terms (which Fraction keeps by itself)."""
    assert type(value) is GaussianRational
    for part in (value.re, value.im):
        if part.denominator == 1:
            assert type(part) is int
        else:
            assert type(part) is Fraction


def test_divided_values_have_canonical_components():
    # a loop's vertex weighs 2/3 and an isolated one 3/2: the value is 1
    h = EdgeColoringModel(1, 0, [((0,), (), Fraction(3, 2)), ((2,), (), Fraction(2, 3))])
    assert h.denominator == 6
    value = partition_function(MultiGraph(2, ((0, 0),)), h, "ordinary").value
    assert value == 1 and type(value.re) is int and type(value.im) is int
    # det(3/2 I - A) of the triangle: (3/2 - 2)(3/2 + 1)^2
    value = partition_function(K3, charpoly_model(Fraction(3, 2)), "mixed").value
    assert value == Fraction(-25, 8) and type(value.re) is Fraction and type(value.im) is int
    # one isolated vertex of weight 1 + i/2, scaled to 2 + i
    h = EdgeColoringModel(1, 0, [((0,), (), GaussianRational(1, Fraction(1, 2)))])
    value = partition_function(MultiGraph(1, ()), h, "ordinary").value
    assert (type(value.re), value.im) == (int, Fraction(1, 2))
    for frag in enumerate_fragments(2, 2, 3):
        models = [charpoly_model(0, cap=4), charpoly_model(Fraction(1, 3), cap=4)]
        for subset in enumerate_eulerian_subsets(frag):
            state = eulerian_state(frag, subset, 0)
            for coeffs, _ in subset_sums(frag, subset, state, models):
                for c in coeffs:
                    assert_canonical(c)
            for h in models:
                for c in fragment_tensor(frag, subset, h, state).coeffs:
                    assert_canonical(c)


# -- invariance -----------------------------------------------------------------


def seeded_values(g, subset, model, trials):
    """The distinct subset values over the states of seeds 0..trials-1."""
    return {eulerian_sum(g, subset, model, eulerian_state(g, subset, s)) for s in range(trials)}


def test_invariance_examples():
    rng = random.Random(1)
    h2 = random_sparse_model(rng, 1, 2, 4)
    assert len(seeded_values(FIG8, frozenset({0, 1}), h2, trials=10)) == 1
    h4 = random_sparse_model(rng, 1, 4, 4)
    assert len(seeded_values(K3, frozenset({0, 1, 2}), h4, trials=10)) == 1
    assert len(seeded_values(K3, frozenset(), h2, trials=3)) == 1


# -- structural identities ----------------------------------------------------------


def whole(g, model, mode):
    """The subset sum over the whole graph.  What partition_function's
    cuts rest on, such as multiplicativity, is checked against this, never
    against that evaluation itself."""
    [result] = partition_function_many(g, [model], mode)
    return result


@pytest.mark.parametrize("mode,k,two_ell", [("ordinary", 2, 0), ("skew", 0, 2), ("mixed", 1, 2)])
def test_multiplicativity(mode, k, two_ell):
    rng = random.Random(42)
    for _ in range(6):
        g = random_multigraph(rng, max_vertices=3, max_edges=4)
        h_graph = random_multigraph(rng, max_vertices=3, max_edges=3)
        cap = max(g.max_degree(), h_graph.max_degree(), 1)
        model = random_sparse_model(rng, k, two_ell, cap)
        left = whole(disjoint_union(g, h_graph), model, mode).value
        right = whole(g, model, mode).value * whole(h_graph, model, mode).value
        assert left == right


def test_mixed_specializes_to_ordinary():
    rng = random.Random(5)
    for _ in range(8):
        g = random_multigraph(rng, max_vertices=4, max_edges=6)
        h = random_sparse_model(rng, 2, 0, max(g.max_degree(), 1))
        assert (
            partition_function(g, h, "mixed").value
            == partition_function(g, h, "ordinary").value
        )


def test_mixed_specializes_to_skew():
    rng = random.Random(6)
    for _ in range(8):
        g = random_multigraph(rng, max_vertices=4, max_edges=6)
        h = random_sparse_model(rng, 0, 2, max(g.max_degree(), 1))
        assert (
            partition_function(g, h, "mixed").value
            == partition_function(g, h, "skew").value
        )


def test_tensor_factorization():
    # mixed value of h0 (x) h1 = sum over Eulerian F of ordinary(complement) * skew(F)
    rng = random.Random(9)
    for _ in range(6):
        g = random_multigraph(rng, max_vertices=3, max_edges=5)
        cap = max(g.max_degree(), 1)
        h0 = random_sparse_model(rng, 2, 0, cap)
        h1 = random_sparse_model(rng, 0, 2, cap)
        h = tensor_model(h0, h1)
        left = partition_function(g, h, "mixed").value

        total = GaussianRational(0)
        for subset in enumerate_eulerian_subsets(g):
            complement = tuple(
                g.edges[e] for e in range(g.n_edges) if e not in subset
            )
            inside = tuple(g.edges[e] for e in sorted(subset))
            part0 = partition_function(
                MultiGraph(g.n_vertices, complement), h0, "ordinary"
            ).value
            part1 = partition_function(
                MultiGraph(g.n_vertices, inside), h1, "skew"
            ).value
            total = total + part0 * part1
        assert left == total


def test_order_independence():
    rng = random.Random(13)
    g = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1)))
    h = random_sparse_model(rng, 1, 2, g.max_degree())
    reference = partition_function(g, h, "mixed").value
    for _ in range(5):
        perm = list(range(g.n_edges))
        rng.shuffle(perm)
        shuffled = MultiGraph(4, tuple(g.edges[e] for e in perm))
        assert partition_function(shuffled, h, "mixed").value == reference


def test_many_matches_single():
    """One walk for four models equals four one-model walks, value and
    colorings, on every multigraph with at most 3 vertices and 4 edges;
    t=0 has a smaller support than the other three."""
    checked = 0
    for g in enumerate_multigraphs(3, 4):
        cap = max(g.max_degree(), 1)
        models = [charpoly_model(t, cap=cap) for t in (0, 1, -2, Fraction(3, 2))]
        many = partition_function_many(g, models, "mixed")
        for h, res in zip(models, many):
            single = partition_function(g, h, "mixed")
            assert (res.value, res.colorings) == (single.value, single.colorings), g
        checked += 1
    assert checked > 200


# -- the per-call fast path against the simple path -------------------------------


def builtin_models(cap):
    """Every built-in model with the modes it allows."""
    yield [matchings_model(cap=cap)], ("ordinary", "mixed")
    yield [charpoly_model(t, cap=cap) for t in (0, 1, -2, Fraction(3, 2))], ("mixed",)
    for k in (1, 2, 3):
        yield [circuit_pos_model(k, cap=cap)], ("ordinary", "mixed")
    for ell in (1, 2):
        yield [circuit_neg_model(ell)], ("skew", "mixed")
        yield [circuit_odd_model(ell, cap=cap)], ("mixed",)


def mode_subsets(g, mode):
    """The Eulerian subsets a mode sums over."""
    if mode == "ordinary":
        return [frozenset()]
    if mode == "skew":
        return [frozenset(range(g.n_edges))] if g.is_eulerian() else []
    return enumerate_eulerian_subsets(g)


def simple_path(g, model, mode):
    """Value, subsets and colorings from seeded states traced by decompose."""
    subsets = mode_subsets(g, mode)
    value, colorings = ZERO, 0
    for subset in subsets:
        state = eulerian_state(g, subset, 0)
        circuits, _ = decompose(state, g)
        [((total,), leaves)] = subset_sums(Fragment(g), subset, state, [model])
        value = value - total if circuits % 2 else value + total
        colorings += leaves
    return value, len(subsets), colorings


def test_partition_function_many_equals_the_simple_path():
    """Every built-in model in every mode it allows, on every multigraph
    with at most 3 vertices and 4 edges: the call-wide context and the
    rng-free peel give what seeded states and decompose give."""
    checked = 0
    for g in enumerate_multigraphs(3, 4):
        for models, modes in builtin_models(max(g.max_degree(), 1)):
            for mode in modes:
                for h, res in zip(models, partition_function_many(g, models, mode)):
                    got = (res.value, res.subsets, res.colorings)
                    assert got == simple_path(g, h, mode), (g, h, mode)
                    checked += 1
    assert checked > 3000


# -- the bidegree check: subsets no model can weigh nonzero are skipped ---------


def holed_models(rng, k, two_ell, max_degree):
    """Three models of one random table, with holes in their bidegree support.

    A pattern's bidegree is (symmetric colors, exterior colors).  The table
    itself, the table without one or two bidegrees, and the table's patterns
    of one bidegree only: on many subsets some of them cannot weigh a vertex
    nonzero while the others can.
    """
    full = random_sparse_model(rng, k, two_ell, max_degree, density=0.6)
    while not full.entries:
        full = random_sparse_model(rng, k, two_ell, max_degree, density=0.6)
    by_bidegree = {}
    for (sym, ext), value in full.entries.items():
        by_bidegree.setdefault((sum(sym), len(ext)), []).append((sym, ext, value))
    bidegrees = sorted(by_bidegree)
    holes = rng.sample(bidegrees, min(rng.randint(1, 2), len(bidegrees)))
    kept = [e for b in bidegrees if b not in holes for e in by_bidegree[b]]
    return [
        full,
        EdgeColoringModel(k, two_ell, kept),
        EdgeColoringModel(k, two_ell, by_bidegree[rng.choice(bidegrees)]),
    ]


# one shape each mode allows; in mixed mode k = 1 keeps the oracle cheap
HOLED_SHAPES = {"ordinary": (2, 0), "skew": (0, 4), "mixed": (1, 2)}


def oracle_results(g, models, mode, rng):
    """Value, subsets and colorings of each model, summed from
    coloring_sum_oracle over seeded states, and how many subsets some
    model weighs zero while another does not."""
    subsets = mode_subsets(g, mode)
    values, colorings = [ZERO] * len(models), [0] * len(models)
    split = 0
    for subset in subsets:
        state = eulerian_state(g, subset, rng.randrange(100))
        circuits, _ = decompose(state, g)
        alive = set()
        for i, h in enumerate(models):
            (total,), leaves = coloring_sum_oracle(g, subset, state, h)
            values[i] = values[i] - total if circuits % 2 else values[i] + total
            colorings[i] += leaves
            alive.add(leaves > 0)
        split += len(alive) == 2
    factor = GaussianRational(models[0].k - models[0].two_ell) ** g.n_circles
    return [(v * factor, len(subsets), n) for v, n in zip(values, colorings)], split


@pytest.mark.parametrize("mode", ["ordinary", "skew", "mixed"])
def test_the_bidegree_check_keeps_every_value(mode):
    """Models with holes in their bidegree support share each call, on every
    multigraph with at most 3 vertices and 5 edges: values, subsets and
    surviving colorings are the oracle's, also where one subset is dead
    under some models and alive under others."""
    rng = random.Random(13)
    k, two_ell = HOLED_SHAPES[mode]
    split = 0
    for g in enumerate_multigraphs(3, 5):
        models = holed_models(rng, k, two_ell, max(g.max_degree(), 1))
        expected, split_here = oracle_results(g, models, mode, rng)
        got = [(r.value, r.subsets, r.colorings) for r in partition_function_many(g, models, mode)]
        assert got == expected, (g, mode)
        split += split_here
    assert split > 50


def test_the_bidegree_check_keeps_every_tensor():
    """subset_sums of the holed models together, and fragment_tensor of each,
    on every Eulerian subset of every fragment with t <= 3 labels, at most 2
    internal vertices and 4 edges: labels are not weighed, so the check
    must not read their degrees."""
    rng = random.Random(14)
    checked = 0
    for t in range(4):
        for frag in enumerate_fragments(t, 2, 4):
            models = holed_models(rng, 2, 2, max(frag.graph.max_degree(), 1))
            for subset in enumerate_eulerian_subsets(frag):
                state = eulerian_state(frag, subset, rng.randrange(100))
                expected = [coloring_sum_oracle(frag, subset, state, h) for h in models]
                assert subset_sums(frag, subset, state, models) == expected, (frag, subset)
                for h in models:
                    got = fragment_tensor(frag, subset, h, state).coeffs
                    assert got == oracle_tensor(frag, subset, state, h), (frag, subset, h)
                checked += 1
    assert checked == 272 + 175 + 364 + 474


def test_peel_runs_only_on_subsets_some_model_can_weigh(monkeypatch):
    """Under the four charpoly models a vertex weighs nonzero only with 0 or
    2 of its half-edges in the subset, so only disjoint unions of cycles
    are peeled; the others still count in ``subsets``."""
    peeled = []

    def spy(frag, subset, rng=None):
        peeled.append(subset)
        return peel(frag, subset, rng)

    monkeypatch.setattr(evaluator, "peel", spy)
    models = [charpoly_model(t, cap=12) for t in (0, 1, -2, Fraction(3, 2))]
    subsets = peeled_total = 0
    for g in enumerate_multigraphs(3, 6):
        del peeled[:]
        [res, *_] = partition_function_many(g, models, "mixed")
        cycles = []
        for s in enumerate_eulerian_subsets(g):
            sub = MultiGraph(g.n_vertices, tuple(g.edges[e] for e in s))
            if set(sub.degrees()) <= {0, 2}:
                cycles.append(s)
        assert peeled == cycles, g
        subsets += res.subsets
        peeled_total += len(peeled)
    assert (peeled_total, subsets) == (7987, 17921)


def test_dead_subsets_are_not_walked(monkeypatch):
    """eulerian_sum and fragment_tensor start their walk from the same check:
    the figure eight's full subset gives its vertex 4 exterior half-edges,
    which no charpoly pattern has, so no vertex is weighed."""
    weighed = []
    monkeypatch.setattr(evaluator, "_vertex_factors", lambda *args: weighed.append(args))
    h = charpoly_model(1)
    assert eulerian_sum(FIG8, {0, 1}, h) == ZERO
    assert fragment_tensor(Fragment(FIG8), {0, 1}, h).coeffs == (ZERO,)
    assert weighed == []


# -- the walk's edge order: greedy by structure, the name order its oracle ------


def name_order(g):
    """The edge order by vertex names, (max end, min end, index): the oracle."""
    return sorted(range(g.n_edges), key=lambda e: (max(g.edges[e]), min(g.edges[e]), e))


@pytest.mark.parametrize("mode", ["ordinary", "skew", "mixed"])
def test_the_walk_order_keeps_every_value(monkeypatch, mode):
    """Two random sparse models per call, on every multigraph with at most 3
    vertices and 5 edges: values, subsets and surviving colorings are those
    of the walk in name order."""
    rng = random.Random(15)
    k, two_ell = HOLED_SHAPES[mode]
    moved = 0
    for g in enumerate_multigraphs(3, 5):
        moved += evaluator._walk_order(g) != name_order(g)
        cap = max(g.max_degree(), 1)
        models = [random_sparse_model(rng, k, two_ell, cap, density) for density in (0.4, 0.8)]
        got = [(r.value, r.subsets, r.colorings) for r in partition_function_many(g, models, mode)]
        with monkeypatch.context() as patch:
            patch.setattr(evaluator, "_walk_order", name_order)
            expected = partition_function_many(g, models, mode)
        assert got == [(r.value, r.subsets, r.colorings) for r in expected], (g, mode)
    assert moved > 250


def test_the_walk_order_keeps_every_tensor(monkeypatch):
    """fragment_tensor on every Eulerian subset of every fragment with t <= 3
    labels, at most 2 internal vertices and 4 edges equals the walk's in
    name order."""
    rng = random.Random(16)
    checked = 0
    for t in range(4):
        for frag in enumerate_fragments(t, 2, 4):
            h = random_sparse_model(rng, 2, 2, max(frag.graph.max_degree(), 1), 0.6)
            for subset in enumerate_eulerian_subsets(frag):
                state = eulerian_state(frag, subset, rng.randrange(100))
                got = fragment_tensor(frag, subset, h, state).coeffs
                with monkeypatch.context() as patch:
                    patch.setattr(evaluator, "_walk_order", name_order)
                    assert got == fragment_tensor(frag, subset, h, state).coeffs, (frag, subset)
                checked += 1
    assert checked == 272 + 175 + 364 + 474


def components(g):
    """Each vertex's component, by the lowest vertex in it."""
    root = list(range(g.n_vertices))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        root[max(ra, rb)] = min(ra, rb)
    return [find(v) for v in range(g.n_vertices)]


def assert_walk_order_shape(g):
    """The order is a permutation of the edges that takes each component whole."""
    order = evaluator._walk_order(g)
    assert sorted(order) == list(range(g.n_edges)), g
    comp = components(g)
    blocks = [comp[g.edges[e][0]] for e in order]
    runs = [c for i, c in enumerate(blocks) if i == 0 or blocks[i - 1] != c]
    assert len(runs) == len(set(runs)), g


def test_the_walk_order_is_a_permutation():
    """Every multigraph with at most 4 vertices and 6 edges, loops and
    parallel edges included."""
    for g in enumerate_multigraphs(4, 6):
        assert_walk_order_shape(g)


def test_the_walk_order_covers_edge_cases():
    """No edges, isolated vertices, several components, and fragments,
    whose labels are vertices of degree one."""
    graphs = [
        MultiGraph(0),
        MultiGraph(3),
        MultiGraph(5, ((1, 3), (3, 3))),
        disjoint_union(cycle_graph(3), MultiGraph(2, ((0, 1), (0, 0), (1, 1)))),
        disjoint_union(FIG8, disjoint_union(MultiGraph(1), cycle_graph(4))),
    ]
    graphs += [frag.graph for t in (1, 2, 3) for frag in enumerate_fragments(t, 2, 4)]
    for g in graphs:
        assert_walk_order_shape(g)


def test_the_walk_order_follows_its_rule():
    # the triangular prism, every vertex of degree 3: vertex 0 takes its edges
    # 0, 2 and 6; then vertex 1, of two edges left, its edges 1 and 7; vertex
    # 2, of one left, edge 8; vertex 3 edges 3 and 5, and vertex 4 edge 4
    assert evaluator._walk_order(prism(3)) == [0, 2, 6, 1, 7, 8, 3, 5, 4]
    # a loop counts once: vertex 2, of one edge, starts; then vertices 0 and
    # 1 have two edges each, and after edge 0 one each, so vertex 0 goes first
    g = MultiGraph(4, ((0, 1), (1, 1), (0, 0), (2, 3)))
    assert evaluator._walk_order(g) == [3, 0, 2, 1]


def prism(n):
    """C_n x K2: two n-cycles joined by n rungs."""
    outer = tuple((i, (i + 1) % n) for i in range(n))
    inner = tuple((n + i, n + (i + 1) % n) for i in range(n))
    return MultiGraph(2 * n, outer + inner + tuple((i, n + i) for i in range(n)))


def mobius_ladder(n):
    """A 2n-cycle plus the n chords joining opposite vertices."""
    rim = tuple((i, (i + 1) % (2 * n)) for i in range(2 * n))
    return MultiGraph(2 * n, rim + tuple((i, i + n) for i in range(n)))


def backlog(g, order):
    """The most colored edges that no completed vertex has checked yet, over
    the positions of the walk: an edge is checked at the position that
    completes its first end."""
    last = {}
    for p, e in enumerate(order):
        for v in g.edges[e]:
            last[v] = p
    checked = [min(last[v] for v in g.edges[e]) for e in order]
    return max(sum(q > p for q in checked[: p + 1]) for p in range(len(order)))


def test_the_name_order_leaves_a_ladder_unchecked():
    """The negative control: in name order, a whole rim waits for its check."""
    for n in range(3, 11):
        assert backlog(prism(n), name_order(prism(n))) == n
        assert backlog(mobius_ladder(n), name_order(mobius_ladder(n))) == n + 1


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([prism, mobius_ladder]), st.integers(3, 10), st.randoms(use_true_random=False))
def test_the_walk_order_checks_ladders_early_under_any_names(ladder, n, rng):
    """Vertices renamed, edges reordered and their ends swapped: at most two
    colored edges wait for a completed vertex."""
    g = ladder(n)
    rename = list(range(g.n_vertices))
    rng.shuffle(rename)
    edges = [(rename[b], rename[a]) if rng.random() < 0.5 else (rename[a], rename[b])
             for a, b in g.edges]
    rng.shuffle(edges)
    moved = MultiGraph(g.n_vertices, tuple(edges))
    walk = evaluator._SubsetContext(Fragment(moved), [charpoly_model(0, cap=3)])
    assert backlog(moved, walk.order) <= 2


MODEL_SHAPES = (
    ("ordinary", 2, 0),
    ("ordinary", 1, 0),
    ("skew", 0, 2),
    ("skew", 0, 4),
    ("mixed", 1, 2),
    ("mixed", 2, 2),
    ("mixed", 0, 2),
)


@st.composite
def multigraphs(draw, max_vertices=4, max_edges=6):
    n = draw(st.integers(1, max_vertices))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=max_edges))
    return MultiGraph(n, tuple(edges), draw(st.integers(0, 1)))


def sparse_model(seed, shape, max_degree):
    _, k, two_ell = shape
    return random_sparse_model(random.Random(seed), k, two_ell, max(max_degree, 1))


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.sampled_from(MODEL_SHAPES), st.integers(0, 2**32), st.data())
def test_partition_function_follows_vertex_renaming_and_edge_permutation(g, shape, seed, data):
    model = sparse_model(seed, shape, g.max_degree())
    rename = data.draw(st.permutations(range(g.n_vertices)))
    order = data.draw(st.permutations(range(g.n_edges)))
    moved = MultiGraph(
        g.n_vertices,
        tuple((rename[g.edges[e][1]], rename[g.edges[e][0]]) for e in order),
        g.n_circles,
    )
    mode = shape[0]
    assert partition_function(moved, model, mode) == partition_function(g, model, mode)


@settings(max_examples=60, deadline=None)
@given(
    multigraphs(3, 4), multigraphs(3, 3), st.sampled_from(MODEL_SHAPES), st.integers(0, 2**32)
)
def test_partition_function_is_multiplicative_over_disjoint_union(g, h, shape, seed):
    model = sparse_model(seed, shape, max(g.max_degree(), h.max_degree()))
    mode = shape[0]
    left = whole(disjoint_union(g, h), model, mode)
    a, b = whole(g, model, mode), whole(h, model, mode)
    assert left.value == a.value * b.value
    assert left.subsets == a.subsets * b.subsets
    assert left.colorings == a.colorings * b.colorings


# -- evaluation by two halves along one balanced edge cut ------------------------

# the models of each mode the cut is checked with, taken in turn graph by graph
CUT_MODELS = {
    "mixed": [
        charpoly_model(0, cap=12),
        charpoly_model(1, cap=12),
        charpoly_model(-2, cap=12),
        circuit_odd_model(1, cap=12),
        circuit_pos_model(2, cap=12),
        matchings_model(cap=12),
    ],
    "ordinary": [matchings_model(cap=12), circuit_pos_model(2, cap=12)],
    "skew": [circuit_neg_model(1), circuit_neg_model(2)],
}


@pytest.mark.parametrize("mode", ["ordinary", "skew", "mixed"])
def test_a_cut_gives_the_whole_subset_sum(mode):
    """Every unordered bipartition of every multigraph with at most 3
    vertices and 6 edges, the two halves each nonempty: the Gram pairing of
    the halves' tensor sums and of their coloring counts, and the subsets in
    closed form, are the whole graph's value, colorings and subsets."""
    cuts = nonzero = 0
    for idx, g in enumerate(enumerate_multigraphs(3, 6)):
        model = CUT_MODELS[mode][idx % len(CUT_MODELS[mode])]
        expected = whole(g, model, mode)
        for size in range(1, g.n_vertices):
            for rest in itertools.combinations(range(1, g.n_vertices), size - 1):
                got = evaluator._by_cut(g, (0, *rest), model, mode)
                assert got == expected, (g, rest, model, mode)
                cuts += 1
        nonzero += expected.value != 0
    assert cuts == 2856
    assert nonzero > 50


@pytest.mark.parametrize("mode", ["ordinary", "mixed"])
def test_a_cut_of_a_larger_graph_gives_the_whole_subset_sum(mode):
    """Seeded multigraphs with 4 to 6 vertices, 10 edges and at most one
    circle, cut around a random side, under Gaussian models: on both sides
    of such cuts, unlike those of 3 vertices, the order of the labels
    matters."""
    rng = random.Random(17)
    k, two_ell = HOLED_SHAPES[mode]
    nonzero = 0
    for _ in range(60):
        n = rng.randint(4, 6)
        edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(10))
        g = MultiGraph(n, edges, rng.randint(0, 1))
        model = random_sparse_model(rng, k, two_ell, max(g.max_degree(), 1), density=0.6)
        side = rng.sample(range(n), rng.randint(1, n - 1))
        expected = whole(g, model, mode)
        assert evaluator._by_cut(g, side, model, mode) == expected, (g, side)
        nonzero += expected.value != 0
    assert nonzero > 20


def grid(rows, columns):
    """The rows x columns grid, vertex r * columns + c in row r, column c."""
    edges = []
    for v in range(rows * columns):
        if v % columns < columns - 1:
            edges.append((v, v + 1))
        if v < (rows - 1) * columns:
            edges.append((v, v + columns))
    return MultiGraph(rows * columns, tuple(edges))


PETERSEN = MultiGraph(
    10,
    tuple((i, (i + 1) % 5) for i in range(5))
    + tuple((5 + i, 5 + (i + 2) % 5) for i in range(5))
    + tuple((i, 5 + i) for i in range(5)),
)


def test_the_planner_cuts_ladders_and_grids(monkeypatch):
    """Prisms and Moebius ladders with n = 3..8 rungs, the 3 x 4 to 3 x 6
    grids and the Petersen graph, against det(3/2 I - A): ladders of cycle
    rank 6 or more are cut at four rim edges, grids at one column of three
    edges, into halves of sizes as even as the cut allows; the smaller
    ladders are below the gate, and no cut of the Petersen graph pays."""
    graphs = {f"prism-{n}": prism(n) for n in range(3, 9)}
    graphs |= {f"mobius-{n}": mobius_ladder(n) for n in range(3, 9)}
    graphs |= {f"grid-3x{c}": grid(3, c) for c in (4, 5, 6)} | {"petersen": PETERSEN}
    cuts = {}
    by_cut = evaluator._by_cut

    def recording(g, side, model, mode):
        cuts[name] = (len(side), split(g, side)[0].t)
        return by_cut(g, side, model, mode)

    monkeypatch.setattr(evaluator, "_by_cut", recording)
    x = Fraction(3, 2)
    model = charpoly_model(x)
    for name, g in graphs.items():
        result = partition_function(g, model, "mixed")
        assert result.value == charpoly_oracle(g).evaluate(x), name
        assert result.subsets == 2 ** (g.n_edges - g.n_vertices + 1)
    rungs = {5: 4, 6: 6, 7: 6, 8: 8}  # the side's vertices: two per rung
    assert cuts == {
        **{f"{ladder}-{n}": (size, 4) for ladder in ("prism", "mobius") for n, size in rungs.items()},
        "grid-3x4": (6, 3),
        "grid-3x5": (6, 3),
        "grid-3x6": (9, 3),
    }


def test_a_disconnected_graph_is_not_cut(monkeypatch):
    """The 6-prism beside an isolated vertex passes the cycle-rank gate as
    m - n + 1 reads it, but is not connected, so it is not offered a cut
    and takes the subset sum over the whole graph."""

    def refuse(g):
        raise AssertionError("a disconnected graph was offered a cut")

    monkeypatch.setattr(evaluator, "_balanced_cut", refuse)
    g = disjoint_union(prism(6), MultiGraph(1))
    assert g.n_edges - g.n_vertices + 1 >= evaluator.CUT_GATE
    x = Fraction(3, 2)
    result = partition_function(g, charpoly_model(x), "mixed")
    assert result.value == charpoly_oracle(g).evaluate(x)
    assert result.subsets == 2 ** (g.n_edges - g.n_vertices + 2)


def test_the_cut_finder_is_bounded(monkeypatch):
    """On a 200-vertex prism the finder grows a side from CUT_STARTS start
    vertices, each growth pushing a vertex once per edge into the side, and
    finds a cut of four rim edges."""
    pushes = []

    def counting(heap, item):
        pushes.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(evaluator, "heappush", counting)
    g = prism(100)
    side = evaluator._balanced_cut(g)
    assert len(pushes) <= evaluator.CUT_STARTS * 2 * g.n_edges
    assert split(g, side)[0].t == 4
