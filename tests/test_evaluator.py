"""Partition-function engine tests: modes, circles, identities."""

import gc
import heapq
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedpf import evaluator, graph
from mixedpf.algebra import I, ZERO, GaussianRational, signed_map
from mixedpf.connection import DirectedMatching, canonical_matching_sign, fragment_tensor
from mixedpf.evaluator import (
    eulerian_sum,
    partition_function,
    partition_function_many,
    subset_sums,
    tensor_sums,
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
    is_incoming,
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


def test_evaluator_refusals():
    with pytest.raises(ValueError) as info:
        partition_function_many(K3, [matchings_model(cap=4), circuit_pos_model(3)], "ordinary")
    assert str(info.value) == "partition_function_many needs models of equal (k, two_ell)"
    assert partition_function_many(K3, [], "mixed") == []
    edge = Fragment(MultiGraph(2, ((0, 1),)), (0,))
    with pytest.raises(ValueError) as info:
        partition_function(edge, matchings_model(cap=4), "ordinary")
    assert str(info.value) == "partition_function expects a plain graph, not a fragment"
    with pytest.raises(ValueError) as info:
        eulerian_sum(edge, frozenset(), matchings_model(cap=4))
    assert str(info.value) == "eulerian_sum expects a plain graph, not a fragment"


def test_partition_function_many_refuses_a_fragment_before_any_work(monkeypatch):
    """A fragment with labels is refused with one line before a subset is
    summed, as partition_function refuses it; no models is still no
    results."""
    walked = []
    mode_sums = evaluator._mode_sums
    monkeypatch.setattr(evaluator, "_mode_sums", lambda *a: walked.append(a) or mode_sums(*a))
    with pytest.raises(ValueError) as info:
        partition_function_many(PATH2, [charpoly_model(1)], "mixed")
    assert str(info.value) == "partition_function_many expects a plain graph, not a fragment"
    assert walked == []
    assert partition_function_many(K3, [], "mixed") == []
    assert partition_function_many(K3, [charpoly_model(1)], "mixed")[0].value == -4  # det(I - A)
    assert len(walked) == 1


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
                got = subset_sums(frag, subset, state, models, (0, ()))
                expected = [coloring_sum_oracle(frag, subset, state, h) for h in models]
                assert got == expected, (frag, subset, k, two_ell)
            checked += 1
    assert checked > 300


def test_subset_sums_reuse_their_last_context_on_equal_input_only(monkeypatch):
    """Calls on two fragments, interleaved, each on the next of its
    fragment's subsets: a call reuses the last context built when its
    fragment and models equal that context's, as objects built apart may,
    and builds one otherwise, also for models of the same scaled weights
    and so the same key whose D differs; after _empty it builds one again.
    Each call gives what a context built for it alone gives."""
    for name, value in (("_FACTORS", {}), ("_held", 0), ("_KEYS", {}), ("_context", None)):
        monkeypatch.setattr(evaluator, name, value)
    w = Fraction(1, 3) + I / 2
    h = charpoly_model(w)
    halved = EdgeColoringModel(2, 2, {pattern: v / 2 for pattern, v in h.entries.items()})
    assert halved.key == h.key and halved.denominator == 2 * h.denominator
    a = Fragment(MultiGraph(4, ((0, 1), (0, 1), (0, 2), (1, 3))), (2, 3))
    b = Fragment(MultiGraph(3, ((0, 0), (0, 1), (0, 2))), (1, 2))
    a_apart = Fragment(MultiGraph(4, a.graph.edges), a.labels)
    assert a_apart == a and a_apart is not a
    hs = [h]
    # (fragment, models, whether the call builds a context); None: call _empty
    calls = [
        (a, hs, True),
        (a, hs, False),
        (a, [charpoly_model(w)], False),
        (a_apart, [h], False),
        (b, hs, True),
        (a, hs, True),
        (b, hs, True),
        (a, [halved], True),
        (a, hs, True),
        (b, [h, halved], True),
        (b, [charpoly_model(w), halved], False),
        None,
        (b, [h, halved], True),
    ]
    states = {}
    for frag in (a, b):
        states[frag] = [(s, eulerian_state(frag, s, 0)) for s in enumerate_eulerian_subsets(frag)]

    def call(step, frag, models):
        subset, state = states[frag][step % len(states[frag])]
        return subset_sums(frag, subset, state, models, (0, ()))

    expected = {}
    for step, (frag, models, _) in enumerate(filter(None, calls)):
        evaluator._context = None
        expected[step] = call(step, frag, models)
    # h's context would scale the halved model's nonzero sums by h's powers of D
    assert any(any(coeffs) for coeffs, _ in expected[7])
    built = []

    class Spy(evaluator._SubsetContext):
        def __init__(self, frag, models):
            built.append(frag)
            super().__init__(frag, models)

    monkeypatch.setattr(evaluator, "_SubsetContext", Spy)
    evaluator._empty()
    step = 0
    for entry in calls:
        if entry is None:
            evaluator._empty()
            continue
        frag, models, builds = entry
        before = len(built)
        assert call(step, frag, models) == expected[step], step
        assert len(built) - before == builds, step
        step += 1


def quarter_turn_models(rng, k, two_ell, max_degree):
    """Two models on one random support: one weighs each pattern i, -i, 2i
    or -1, weights the walk keeps as an int and a quarter turn; the other
    1 + i, 1/2 - 2i/3 or 3, and it keeps a weight with two nonzero parts
    whole, as a Gaussian integer of quarter turn 0."""
    support = random_sparse_model(rng, k, two_ell, max_degree, density=0.7).entries
    gaussian = (1 + I, GaussianRational(Fraction(1, 2), Fraction(-2, 3)), 3)
    return [
        EdgeColoringModel(k, two_ell, [(*pattern, rng.choice(weights)) for pattern in support])
        for weights in ((I, -I, 2 * I, -1), gaussian)
    ]


def test_the_vertex_walk_equals_the_coloring_oracle():
    """subset_sums of the two quarter_turn_models and a third that keeps
    every other pattern of the first, so that it dies on its own, together,
    on every Eulerian subset of every multigraph with at most 3 vertices and
    5 edges and of every fragment with 2 or 3 labels, at most 2 internal
    vertices and 4 edges, under seeded states: coefficients and surviving
    colorings are the oracle's, a walk of weight 2, as of a parallel-edge
    class of two subsets, sums twice each, and one walk into two targets of
    weights 1 and 3, as of an orbit whose classes move the labels in two
    ways, sums once into the first and thrice into the second.  The counts
    name the cases that reach each path of the walk; the last two reach the
    last step, whose children are summed in place: it colors a label's
    dual slot, or it completes a vertex with no free edge."""
    rng = random.Random(17)
    reached = dict.fromkeys(
        (
            "loop",
            "edge between two labels",
            "vertex with no free edge",
            "Gaussian fallback",
            "last step colors a dual label slot",
            "last step completes a vertex",
        ),
        0,
    )
    frags = [Fragment(g) for g in enumerate_multigraphs(3, 5)]
    frags += enumerate_fragments(2, 2, 4)
    frags += enumerate_fragments(3, 2, 4)
    for pos, frag in enumerate(frags):
        k, two_ell = ((1, 2), (2, 2))[pos % 2]
        models = quarter_turn_models(rng, k, two_ell, max(frag.graph.max_degree(), 1))
        models.append(EdgeColoringModel(k, two_ell, dict(list(models[0].entries.items())[::2])))
        walk = evaluator._SubsetContext(frag, models)
        size = (k + two_ell) ** frag.t
        last = len(walk.frees) - 1
        completed = any(not index and at == last for _, _, index, at in walk.vertices)
        for subset in enumerate_eulerian_subsets(frag):
            state = eulerian_state(frag, subset, rng.randrange(100))
            expected = [coloring_sum_oracle(frag, subset, state, h) for h in models]
            assert subset_sums(frag, subset, state, models, (0, ())) == expected, (frag, subset)
            zeros = [0] * size
            targets = [
                (weight, [[zeros[:] for _ in models] for _ in range(4)], [zeros[:] for _ in models])
                for weight in (2, 1, 3)
            ]
            walk.run(subset, state, walk.alive(subset), 0, targets[:1])
            walk.run(subset, state, walk.alive(subset), 0, targets[1:])
            for weight, by_turn, counts in targets:
                weighted = [
                    (evaluator._unturn(evaluator._gaussian(sums), Fraction(1, scale)), sum(n))
                    for sums, n, scale in zip(zip(*by_turn), counts, walk.scales)
                ]
                assert weighted == [
                    ([weight * c for c in coeffs], weight * n) for coeffs, n in expected
                ]
            if not expected[1][1]:
                continue  # no coloring survives the Gaussian model
            reached["loop"] += any(a == b for a, b in frag.graph.edges)
            reached["edge between two labels"] += bool(walk.leaf_edges)
            reached["vertex with no free edge"] += not all(index for _, _, index, _ in walk.vertices)
            reached["Gaussian fallback"] += any(c.re and c.im for c in expected[1][0])
            reached["last step colors a dual label slot"] += any(
                e in subset and e in walk.frees[last] and not is_incoming(state, (e, side))
                for e, side in walk.open_ends
            )
            reached["last step completes a vertex"] += completed
    assert reached == {
        "loop": 2069,
        "edge between two labels": 304,
        "vertex with no free edge": 433,
        "Gaussian fallback": 2072,
        "last step colors a dual label slot": 61,
        "last step completes a vertex": 379,
    }


def distinct_pattern_model(k, two_ell, max_degree):
    """A model that gives every canonical pattern up to max_degree its own
    value n: n, n*i or n*(1 + i) by n mod 3, so that its scaled weights are
    real, imaginary and Gaussian."""
    entries = []
    for sym in itertools.product(range(max_degree + 1), repeat=k):
        for size in range(max_degree - sum(sym) + 1):
            for ext in itertools.combinations(range(1, two_ell + 1), size):
                n = len(entries) + 1
                entries.append((sym, ext, n * (1, I, 1 + I)[n % 3]))
    return EdgeColoringModel(k, two_ell, entries, cap=max_degree)


def slot_patterns(n_sym, n_pairs):
    """Slot patterns of a vertex of n_sym symmetric slots and n_pairs pairs:
    every slot fixed, every slot its own free edge, indexed in slot order and
    in reverse, and one free edge in the first two slots, a loop's, with the
    others fixed, when those two slots are of one kind."""
    degree = n_sym + 2 * n_pairs
    yield (None,) * degree
    if degree:
        yield tuple(range(degree))
    if degree >= 2:
        yield tuple(reversed(range(degree)))
    if n_sym >= 2 or n_sym == 0 < n_pairs:
        yield (0, 0) + (None,) * (degree - 2)


def test_shape_table_equals_model_evaluate(monkeypatch):
    """The walk's live local colorings, for every slot pattern of
    slot_patterns and every fixed color tuple of every shape of degree at
    most 4, are the colorings of the free edges whose weight by the model's
    own sym_counts + normalize_wedge path is nonzero, in product order, each
    with that weight as r * i^q.  A fully fixed pattern's list is weighed by
    _weighed; the others read their candidates from that list's table."""
    monkeypatch.setattr(evaluator, "_FACTORS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    checked = 0
    kinds = set()
    walk = {}
    for k, two_ell in ORACLE_SHAPES:
        h = distinct_pattern_model(k, two_ell, 4)
        models_key = evaluator._model_set([h])[0]
        for n_pairs in range(3):
            for n_sym in range(5 - 2 * n_pairs):
                shape = (k, two_ell, n_sym, n_pairs)
                domains = [range(1, k + 1)] * n_sym + [range(1, two_ell + 1)] * (2 * n_pairs)
                full_key = (models_key, shape, (None,) * (n_sym + 2 * n_pairs))
                full = full_key, evaluator._table(walk, full_key)
                for pattern in slot_patterns(n_sym, n_pairs):
                    cache_key = (models_key, shape, pattern)
                    table = evaluator._table(walk, cache_key)
                    free_domains = {j: d for d, j in zip(domains, pattern) if j is not None}
                    fixed_domains = [d for d, j in zip(domains, pattern) if j is None]
                    for fixed in itertools.product(*fixed_domains):
                        expected = []
                        for free in itertools.product(*map(free_domains.get, sorted(free_domains))):
                            colors = iter(fixed)
                            key = [next(colors) if j is None else free[j] for j in pattern]
                            ext_positions = [(c, p % 2 == 1) for p, c in enumerate(key[n_sym:])]
                            value = h.evaluate(key[:n_sym], ext_positions)
                            if value:
                                expected.append((free, value))
                            checked += 1
                        if cache_key == full_key:
                            live = evaluator._weighed(cache_key, table, fixed, [h.scaled])
                        else:
                            live = evaluator._live_colorings(shape, pattern, fixed, [h.scaled], full)
                            evaluator._keep(cache_key, table, fixed, live)
                        # a second lookup is served from the cache
                        assert evaluator._FACTORS[cache_key][fixed] is live
                        got = []
                        for free, mask, factors, turns in live:
                            assert mask == 1
                            r, q = (factors or (1,))[0], (turns or (0,))[0]
                            kinds.add((type(r), q))
                            got.append((free, r * I**q))
                        assert got == expected, (k, two_ell, n_sym, n_pairs, pattern, fixed)
    assert checked == 1551
    # real and imaginary weights as ints, and Gaussian ones whole
    assert kinds == {(int, 0), (int, 1), (GaussianRational, 0)}
    assert evaluator._held == factor_numbers()


def test_the_walk_leaves_no_reference_cycles():
    """A coloring walk, and the search for automorphisms on the Petersen
    graph, whose 64 live classes partition_function merges into orbits,
    free their state without the cycle collector."""
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
        partition_function(PETERSEN, h, "mixed")
        for subset in subsets:
            fragment_tensor(frag, subset, h)
        assert gc.collect() == 0
    finally:
        gc.enable()


def factor_numbers():
    """The numbers the factor cache holds, counted from its contents: per
    model-set record its key's entries times colors and (k, 2l) per model,
    3 per bidegree mask and the isolated vertex's mask, factors and turns;
    per table its shape and its slot pattern; per list its fixed colors
    and, per live coloring, its free colors, mask, factors and turns.  Each
    table's models key is the key of a record held."""
    total = 0
    for key, bidegrees, (_, factors, turns) in evaluator._KEYS.values():
        total += sum(2 + len(items) * (k + l2) for k, l2, items in key)
        total += 3 * len(bidegrees) + 1 + len(factors or ()) + len(turns or ())
    for (models_key, shape, pattern), table in evaluator._FACTORS.items():
        assert evaluator._KEYS[models_key][0] is models_key
        total += len(shape) + len(pattern)
        for fixed, live in table.items():
            total += len(fixed)
            for free, _, factors, turns in live:
                total += 1 + len(free) + len(factors or ()) + len(turns or ())
    return total


class CountedDict(dict):
    """A dict that counts the times it is emptied."""

    emptied = 0

    def clear(self):
        self.emptied += 1
        super().clear()


def test_factor_cache_holds_a_charpoly_pass(monkeypatch):
    """The charpoly family under its four models stays far under the bound,
    so the cache is never emptied: every list of live local colorings it
    made is still held."""
    monkeypatch.setattr(evaluator, "_FACTORS", CountedDict())
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    models = [charpoly_model(t, cap=12) for t in (0, 1, -2, Fraction(3, 2))]
    for g in enumerate_multigraphs(3, 6):
        partition_function_many(g, models, "mixed")
    assert evaluator._FACTORS.emptied == 0
    assert (len(evaluator._FACTORS), sum(map(len, evaluator._FACTORS.values()))) == (379, 2917)
    assert evaluator._held == factor_numbers() < evaluator.MAX_MODEL_SIZE


def test_factor_cache_is_emptied_at_its_bound(monkeypatch):
    """Past the bound the cache starts over, and the values stay the same.
    The model's record, counted once, holds 112 numbers (its 18 entries
    times 4 colors, its (k, 2l), 3 for each of its 12 bidegree masks, and
    the isolated vertex's mask and factor), and a table at least 9 (its
    shape, one per slot of its pattern, and its lists), so a bound of 40
    keeps nothing, and one of 128 keeps the record and a table at a time.
    Every table a walk filled is in the cache at the end: none escaped the
    count."""
    graphs = [
        MultiGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1))),
        MultiGraph(3, ((0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (0, 0))),
        # K4 with loops at two vertices
        MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (2, 2), (3, 3))),
        # vertex 2, with no free edge, is checked in the fully fixed table
        # that vertex 1's list reads its candidates from, once the loop's
        # list at vertex 0 has emptied the cache
        MultiGraph(3, ((0, 0), (1, 2))),
    ]
    h = charpoly_model(Fraction(3, 2), cap=6)
    assert len(h.entries) == 18
    filled = []
    keep = evaluator._keep

    def spy(cache_key, table, key, hit):
        filled.append(table)
        keep(cache_key, table, key, hit)

    def values(bound):
        del filled[:]
        monkeypatch.setattr(evaluator, "_FACTORS", CountedDict())
        monkeypatch.setattr(evaluator, "_held", 0)
        monkeypatch.setattr(evaluator, "_KEYS", {})
        monkeypatch.setattr(evaluator, "MAX_MODEL_SIZE", bound)
        return [partition_function(g, h, "mixed").value for g in graphs]

    monkeypatch.setattr(evaluator, "_keep", spy)
    unbounded = values(evaluator.MAX_MODEL_SIZE)
    assert factor_numbers() > 400 and evaluator._FACTORS.emptied == 0
    for bound, least in ((40, 0), (128, 121)):
        assert values(bound) == unbounded
        assert evaluator._FACTORS.emptied >= 2
        assert least <= evaluator._held == factor_numbers() <= bound
        held = [id(table) for table in evaluator._FACTORS.values()]
        assert all(id(table) in held for table in filled if table)


def test_a_shape_weighs_each_color_tuple_once(monkeypatch):
    """The triangle's vertices share one local shape, two symmetric slots:
    the walk's first vertex has both edges free, its second one, its third
    none.  Each reads its candidates from the shape's fully fixed table, so
    the 300^2 color pairs are weighed once, not once per slot pattern
    (180,300 calls)."""
    monkeypatch.setattr(evaluator, "_FACTORS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    weigh = evaluator._vertex_factors
    calls = 0

    def spy(*args):
        nonlocal calls
        calls += 1
        return weigh(*args)

    monkeypatch.setattr(evaluator, "_vertex_factors", spy)
    result = partition_function(K3, circuit_pos_model(300, cap=2), "ordinary")
    assert (result.value, result.subsets, result.colorings) == (300, 1, 300)
    assert calls <= 90300
    assert evaluator._held == factor_numbers() <= evaluator.MAX_MODEL_SIZE


def test_equal_models_built_apart_share_one_cache(monkeypatch):
    """The second of two equal models weighs no vertex anew: its walks read
    the tables the first filled."""
    monkeypatch.setattr(evaluator, "_FACTORS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    first, second = charpoly_model(Fraction(3, 2), cap=3), charpoly_model(Fraction(3, 2), cap=3)
    assert first is not second and first.key == second.key
    g = MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    expected = partition_function(g, first, "mixed")
    tables = {key: dict(table) for key, table in evaluator._FACTORS.items()}
    weighed = []
    monkeypatch.setattr(evaluator, "_vertex_factors", lambda *args: weighed.append(args))
    assert partition_function(g, second, "mixed") == expected
    assert weighed == [] and evaluator._FACTORS == tables


def test_equal_model_sets_built_apart_compare_no_weights(monkeypatch):
    """A second set of models, equal to the first but built apart, makes no
    GaussianRational.__eq__ call over the charpoly family: each walk reads
    its models key once, whose real and imaginary weights are ints, and its
    cache lookups find that key by identity.  Values and counters are those
    of the first set."""
    monkeypatch.setattr(evaluator, "_FACTORS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    ts = (0, 1, -2, Fraction(3, 2))
    first = [charpoly_model(t, cap=12) for t in ts]
    graphs = list(enumerate_multigraphs(3, 6))
    expected = [partition_function_many(g, first, "mixed") for g in graphs]
    second = [charpoly_model(t, cap=12) for t in ts]
    assert all(a is not b and a.key == b.key for a, b in zip(first, second))
    compared = []
    eq = GaussianRational.__eq__
    monkeypatch.setattr(GaussianRational, "__eq__", lambda a, b: compared.append(1) or eq(a, b))
    got = [partition_function_many(g, second, "mixed") for g in graphs]
    monkeypatch.setattr(GaussianRational, "__eq__", eq)
    assert compared == []
    assert got == expected


def test_the_first_model_whose_cap_a_graph_passes_refuses_it(monkeypatch):
    """A graph's largest degree is read once for all the models of a call,
    and the refusal names the first model's cap that it passes."""
    reads = []
    max_degree = Fragment.max_degree
    monkeypatch.setattr(Fragment, "max_degree", lambda f: reads.append(f) or max_degree(f))
    k4_loop = MultiGraph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 0)))
    models = [charpoly_model(t, cap=cap) for t, cap in ((0, 5), (1, 4), (2, 3), (3, 2))]
    with pytest.raises(ValueError) as refused:
        partition_function_many(k4_loop, models, "mixed")
    assert str(refused.value) == "graph has a vertex of degree 5 beyond the model's degree cap 4"
    assert len(reads) == 1


def test_equal_model_sets_built_apart_share_one_record(monkeypatch):
    """Equal model sets built apart get one record, counted once: the
    contexts of both read its key, bidegree masks and isolated vertex."""
    monkeypatch.setattr(evaluator, "_FACTORS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    ts = (0, 1, -2, Fraction(3, 2))
    first = [charpoly_model(t, cap=12) for t in ts]
    second = [charpoly_model(t, cap=12) for t in ts]
    record = evaluator._model_set(first)
    held = evaluator._held
    assert evaluator._model_set(second) is record
    frag = Fragment(MultiGraph(4, ((0, 1), (0, 1), (1, 1))))
    contexts = [evaluator._SubsetContext(frag, models) for models in (first, second)]
    for ctx in contexts:
        assert ctx.key is record[0] and ctx.bidegrees is record[1]
    # vertices 2 and 3 are isolated, and t = 0 weighs them zero: every walk
    # starts without that model
    assert record[2] == (0b1110, (1, 1, -2, 3), None)
    assert contexts[0].start == (0b1110, (1, 1, 4, 9), (0, 0, 0, 0))
    assert list(evaluator._KEYS.values()) == [record]
    assert evaluator._held == held == factor_numbers()


def test_emptying_the_factor_cache_empties_the_records(monkeypatch):
    """A cache emptied at its bound drops the records of the model sets it
    held with their tables, and holds again the record of the walk that
    emptied it."""
    monkeypatch.setattr(evaluator, "_FACTORS", CountedDict())
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    g = MultiGraph(3, ((0, 1), (1, 2), (2, 0), (0, 0)))
    first, second = charpoly_model(1, cap=4), charpoly_model(2, cap=4)
    partition_function(g, first, "mixed")
    assert list(evaluator._KEYS) == [(first.key,)] and evaluator._FACTORS
    monkeypatch.setattr(evaluator, "MAX_MODEL_SIZE", evaluator._held)
    assert partition_function(g, second, "mixed").value == charpoly_oracle(g).evaluate(2)
    assert evaluator._FACTORS.emptied >= 1
    assert list(evaluator._KEYS) == [(second.key,)]
    assert all(models_key == (second.key,) for models_key, _, _ in evaluator._FACTORS)
    assert evaluator._held == factor_numbers() <= evaluator.MAX_MODEL_SIZE


def test_isolated_vertices_weigh_as_the_oracle():
    """Every graph of enumerate_multigraphs(3, 4) with an isolated vertex,
    under charpoly at t = 0, which weighs such a vertex zero, so that every
    walk starts without that model, at t = 1/3 + i/2, a weight with two
    nonzero parts, and at t = -2i/5, a quarter turn: each power of t
    starts the products of its model.  Values are charpoly_oracle's."""
    ts = (0, GaussianRational(Fraction(1, 3), Fraction(1, 2)), GaussianRational(0, Fraction(-2, 5)))
    models = [charpoly_model(t, cap=8) for t in ts]
    checked = 0
    for g in enumerate_multigraphs(3, 4):
        isolated = g.degrees().count(0)
        if not isolated:
            continue
        mask, factors, turns = evaluator._SubsetContext(Fragment(g), models).start
        assert mask == 0b110
        assert factors[1:] == (6**isolated * ts[1] ** isolated, (-2) ** isolated)
        assert turns == (0, 0, isolated)
        results = partition_function_many(g, models, "mixed")
        poly = charpoly_oracle(g)
        assert [r.value for r in results] == [poly.evaluate(t) for t in ts], g
        assert results[0].colorings == 0
        checked += 1
    assert checked == 101


def test_partition_function_validates_once(monkeypatch):
    """The Petersen graph is offered a cut and none pays, and the 5-prism is
    cut: either way its largest degree is read once, and a cap it passes is
    refused with the message of partition_function_many."""
    reads = []
    max_degree = Fragment.max_degree
    monkeypatch.setattr(Fragment, "max_degree", lambda f: reads.append(f) or max_degree(f))
    x = Fraction(3, 2)
    for g in (PETERSEN, prism(5)):
        del reads[:]
        assert partition_function(g, charpoly_model(x, cap=3), "mixed").value == (
            charpoly_oracle(g).evaluate(x)
        )
        assert len(reads) == 1
    with pytest.raises(ValueError) as refused:
        partition_function(PETERSEN, charpoly_model(x, cap=2), "mixed")
    assert str(refused.value) == "graph has a vertex of degree 3 beyond the model's degree cap 2"


def test_a_later_model_gets_its_own_factors(monkeypatch):
    """Each model is freed before the next of the same (k, 2l) and cap is
    built, so a later one may take a freed one's id; each gets the values it
    gives from an emptied cache."""
    monkeypatch.setattr(evaluator, "_FACTORS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    g = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 1)))
    shared = []
    for t in range(-2, 4):
        shared.append(partition_function(g, charpoly_model(t, cap=4), "mixed"))
        gc.collect()
    for t, result in zip(range(-2, 4), shared):
        evaluator._empty()
        assert partition_function(g, charpoly_model(t, cap=4), "mixed") == result, t


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


def test_each_subset_is_signed_once_inside_the_walk():
    """On every Eulerian subset of every multigraph with at most 3 vertices
    and 5 edges and of every fragment with 2, 3 or 4 labels, at most 2
    internal vertices and 4 edges, under seeded states and the two
    quarter_turn_models: subset_sums of both, given the state's
    decomposition, is i^q times subset_sums given (0, ()), q the prefactor
    of i^(trails), the trail matching's sign and the circuit parity; and
    under one of them, by turns, that is the oracle's tensor, so is
    fragment_tensor, and eulerian_sum is the oracle's value times
    (-1)^circuits.  The counts are the subsets, with a nonzero oracle
    value, of an odd number of circuits and of a negative matching sign."""
    rng = random.Random(30)
    frags = [Fragment(g) for g in enumerate_multigraphs(3, 5)]
    frags += [*enumerate_fragments(2, 2, 4), *enumerate_fragments(3, 2, 4)]
    frags += enumerate_fragments(4, 2, 4)
    odd_circuits = negative_matching = 0
    for pos, frag in enumerate(frags):
        k, two_ell = ((1, 2), (2, 2))[pos % 2]
        models = quarter_turn_models(rng, k, two_ell, max(frag.graph.max_degree(), 1))
        for subset in enumerate_eulerian_subsets(frag):
            state = eulerian_state(frag, subset, rng.randrange(100))
            circuits, trails = decompose(state, frag)
            sign = canonical_matching_sign(DirectedMatching(trails))
            turn = I ** len(trails) * sign * (-1) ** circuits
            signed = subset_sums(frag, subset, state, models, (circuits, trails))
            unsigned = subset_sums(frag, subset, state, models, (0, ()))
            assert signed == [([turn * c for c in coeffs], n) for coeffs, n in unsigned]
            h = models[pos % 2]
            coeffs, n = coloring_sum_oracle(frag, subset, state, h)
            assert signed[pos % 2] == ([turn * c for c in coeffs], n), (frag, subset)
            got = fragment_tensor(frag, subset, h, state).coeffs
            assert got == tuple(turn * c for c in coeffs), (frag, subset)
            if not frag.t:
                value = eulerian_sum(frag.graph, subset, h, state)
                assert value == coeffs[0] * (-1) ** circuits, (frag, subset)
            if any(coeffs):
                odd_circuits += circuits % 2
                negative_matching += sign < 0
    assert (odd_circuits, negative_matching) == (1474, 301)


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
            for coeffs, _ in subset_sums(frag, subset, state, models, (0, ())):
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
        [((total,), leaves)] = subset_sums(Fragment(g), subset, state, [model], (0, ()))
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
                assert subset_sums(frag, subset, state, models, (0, ())) == expected, (frag, subset)
                for h in models:
                    got = fragment_tensor(frag, subset, h, state).coeffs
                    assert got == oracle_tensor(frag, subset, state, h), (frag, subset, h)
                checked += 1
    assert checked == 272 + 175 + 364 + 474


def edge_groups(g):
    """The edges of each unordered endpoint pair, the loops at one vertex
    together, in edge order."""
    groups = {}
    for e, (a, b) in enumerate(g.edges):
        groups.setdefault(frozenset((a, b)), []).append(e)
    return list(groups.values())


def class_of(groups, subset):
    """The parallel-edge class of a subset: how many edges it takes from
    each group."""
    return tuple(len(subset.intersection(es)) for es in groups)


def representative(groups, counts):
    """The subset of a class that takes the first edges of each group."""
    return frozenset(e for es, c in zip(groups, counts) for e in es[:c])


def class_size(groups, counts):
    return math.prod(math.comb(len(es), c) for es, c in zip(groups, counts))


def test_peel_runs_only_on_subsets_some_model_can_weigh(monkeypatch):
    """Under the four charpoly models a vertex weighs nonzero only with 0 or
    2 of its half-edges in the subset, so only disjoint unions of cycles
    are peeled, and of those one per parallel-edge class, its
    representative: each weighted by its class's size, the peeled subsets
    cover exactly the unions of cycles.  The others still count in
    ``subsets``."""
    peeled = []

    def spy(frag, subset, rng=None):
        peeled.append(subset)
        return peel(frag, subset, rng)

    monkeypatch.setattr(evaluator, "peel", spy)
    models = [charpoly_model(t, cap=12) for t in (0, 1, -2, Fraction(3, 2))]
    subsets = peeled_total = weighted = 0
    for g in enumerate_multigraphs(3, 6):
        del peeled[:]
        [res, *_] = partition_function_many(g, models, "mixed")
        groups = edge_groups(g)
        cycles = Counter()
        for s in enumerate_eulerian_subsets(g):
            sub = MultiGraph(g.n_vertices, tuple(g.edges[e] for e in s))
            if set(sub.degrees()) <= {0, 2}:
                cycles[class_of(groups, s)] += 1
        covered = Counter()
        for s in peeled:
            counts = class_of(groups, s)
            assert s == representative(groups, counts), (g, s)
            covered[counts] += class_size(groups, counts)
        assert len(peeled) == len(covered) and covered == cycles, g
        subsets += res.subsets
        peeled_total += len(peeled)
        weighted += sum(covered.values())
    assert (peeled_total, weighted, subsets) == (4270, 7987, 17921)


def class_test_models():
    """Two calls' models, each (k, 2l) once: charpoly(1/3 + i/2) with the
    two quarter_turn_models of (2, 2), and circuit_odd(1) with those of
    (1, 2), built per degree cap and seeded."""
    rng = random.Random(21)
    built = {}

    def models(cap):
        if cap not in built:
            t = GaussianRational(Fraction(1, 3), Fraction(1, 2))
            built[cap] = [
                [charpoly_model(t, cap=cap), *quarter_turn_models(rng, 2, 2, cap)],
                [circuit_odd_model(1, cap=cap), *quarter_turn_models(rng, 1, 2, cap)],
            ]
        return built[cap]

    return models


def test_a_parallel_edge_class_sums_as_its_representative(monkeypatch):
    """On every multigraph with at most 3 vertices and 6 edges and every
    fragment with 2 or 3 labels, at most 2 internal vertices and 4 edges:

    - every Eulerian subset's signed tensor and surviving colorings, from
      subset_sums under a seeded state and its peeled (circuits, trails),
      are those of its class's representative;
    - the classes are each subset's class once, represented by the first
      edges of each group and weighted by their number of subsets, so the
      weights sum to every Eulerian subset;
    - _mode_sums gives the coefficients, subsets and per-coordinate counts
      of the plain loop, every Eulerian subset walked with weight 1."""
    rng = random.Random(22)
    models_of = class_test_models()
    frags = [Fragment(g) for g in enumerate_multigraphs(3, 6)]
    frags += [*enumerate_fragments(2, 2, 4), *enumerate_fragments(3, 2, 4)]
    repeated = heavy = 0
    for frag in frags:
        groups = edge_groups(frag.graph)
        subsets = enumerate_eulerian_subsets(frag)
        sizes = Counter(class_of(groups, s) for s in subsets)
        classes = evaluator._eulerian_classes(frag)
        assert sorted(classes, key=lambda c: sorted(c[0])) == sorted(
            ((representative(groups, counts), n) for counts, n in sizes.items()),
            key=lambda c: sorted(c[0]),
        ), frag
        assert all(n == class_size(groups, counts) for counts, n in sizes.items())
        assert sum(weight for _, weight in classes) == len(subsets)
        if len(groups) == frag.graph.n_edges:
            continue  # each class is one subset, and _mode_sums walks each
        repeated += 1
        # a subset alone in its class is its representative
        shared = [s for s in subsets if sizes[class_of(groups, s)] > 1]
        for models in models_of(max(frag.graph.max_degree(), 1)):
            signed = {}
            for s in shared:
                state, circuits, trails = peel(frag, s, rng)
                signed[s] = subset_sums(frag, s, state, models, (circuits, trails))
            for s in shared:
                rep = representative(groups, class_of(groups, s))
                assert signed[s] == signed[rep], (frag, s)
                heavy += s == rep and any(n for _, n in signed[s])
            got = evaluator._mode_sums(frag, models, "mixed")
            with monkeypatch.context() as patch:
                patch.setattr(
                    evaluator,
                    "_eulerian_classes",
                    lambda f: [(s, 1) for s in enumerate_eulerian_subsets(f)],
                )
                assert got == evaluator._mode_sums(frag, models, "mixed"), frag
    # the fragments with a repeated group, and the classes of more than one
    # subset whose representative has surviving colorings under some model
    assert (repeated, heavy) == (989, 2737)


def test_dead_subsets_are_not_walked(monkeypatch):
    """eulerian_sum and fragment_tensor start their walk from the same check:
    the figure eight's full subset gives its vertex 4 exterior half-edges,
    which no charpoly pattern has, so no vertex is weighed.  The model's
    record, which weighs an isolated vertex, is made first."""
    monkeypatch.setattr(evaluator, "_FACTORS", {})
    monkeypatch.setattr(evaluator, "_held", 0)
    monkeypatch.setattr(evaluator, "_KEYS", {})
    h = charpoly_model(1)
    evaluator._model_set([h])
    weighed = []
    monkeypatch.setattr(evaluator, "_vertex_factors", lambda *args: weighed.append(args))
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
    assert backlog(moved, evaluator._walk_order(moved)) <= 2


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

# mixed models whose weights the walk scales by their common denominator D:
# D = 2, and D = 6 with weights of two nonzero parts, so each half's scaled
# Gaussian integer coordinates are paired before one division
SCALED_CUT_MODELS = [
    charpoly_model(Fraction(3, 2), cap=12),
    charpoly_model(GaussianRational(Fraction(1, 3), Fraction(1, 2)), cap=12),
]


@pytest.mark.parametrize(
    "mode, models",
    [
        *(pytest.param(mode, CUT_MODELS[mode], id=mode) for mode in ("ordinary", "skew", "mixed")),
        pytest.param("mixed", SCALED_CUT_MODELS, id="mixed-scaled"),
    ],
)
def test_a_cut_gives_the_whole_subset_sum(mode, models):
    """Every unordered bipartition of every multigraph with at most 3
    vertices and 6 edges, the two halves each nonempty, under the models in
    turn graph by graph: the Gram pairing of the halves' tensor sums and of
    their coloring counts, and the subsets in closed form, are the whole
    graph's value, colorings and subsets."""
    cuts = nonzero = 0
    for idx, g in enumerate(enumerate_multigraphs(3, 6)):
        model = models[idx % len(models)]
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


# -- orbits of the live classes under the automorphisms that map labels to labels --


# a triangle with a label at each corner and, beside each side, a vertex with a
# double edge to one end and a single edge to the other: its automorphisms are
# the three rotations, whose label permutations are 3-cycles, not involutions
ROTATED_TRIANGLE = Fragment(
    MultiGraph(
        9,
        ((0, 1), (1, 2), (2, 0))
        + tuple(e for i in range(3) for e in ((3 + i, i), (3 + i, i), (3 + i, (i + 1) % 3)))
        + ((0, 6), (1, 7), (2, 8)),
    ),
    (6, 7, 8),
)


def test_orbits_keep_every_value_subset_and_coloring(monkeypatch):
    """With the orbit gate forced open, every multigraph with at most 3
    vertices and 6 edges, under the four charpoly models and under
    circuit_odd(1), and every fragment with 1 to 4 labels, at most 2
    internal vertices and 4 edges, and the rotated triangle, through
    tensor_sums and _mode_sums, gives exactly the values, subsets and
    per-coordinate colorings of the per-class loop with the gate out of
    reach."""
    merged = Counter()
    moving = Counter()
    orbits = evaluator._orbits

    def spy(frag, live):
        out = orbits(frag, live)
        merged[frag.t] += len(out) < len(live)
        moving[frag.t] += any(perm != tuple(range(frag.t)) for _, _, w in out for perm in w)
        return out

    monkeypatch.setattr(evaluator, "_orbits", spy)

    def both(call):
        monkeypatch.setattr(evaluator, "ORBIT_GATE", 1)
        got = call()
        monkeypatch.setattr(evaluator, "ORBIT_GATE", math.inf)
        return got, call()

    charpoly = [charpoly_model(t, cap=12) for t in (0, 1, -2, Fraction(3, 2))]
    calls = (charpoly, [circuit_odd_model(1, cap=12)])
    for g in enumerate_multigraphs(3, 6):
        for models in calls:
            got, expected = both(lambda: partition_function_many(g, models, "mixed"))
            assert got == expected, g
    for t in (1, 2, 3, 4):
        frags = list(enumerate_fragments(t, 2, 4))
        if t == 3:
            frags.append(ROTATED_TRIANGLE)
        for models in calls:
            for h in models:
                got, expected = both(lambda: tensor_sums(frags, h, "mixed"))
                assert got == expected, (t, h)
            for frag in frags:
                got, expected = both(lambda: evaluator._mode_sums(frag, models, "mixed"))
                assert got == expected, frag
    # the calls of _orbits, by label count, whose live classes fall into fewer
    # orbits, and those with an orbit whose classes move the labels
    assert merged == {0: 173, 1: 0, 2: 22, 3: 81, 4: 359}
    assert moving == {0: 0, 1: 0, 2: 10, 3: 81, 4: 359}


def isomorphisms_by_brute_force(f1, f2):
    """Every bijection of f1's vertices onto f2's that maps labels to labels
    and the other vertices to other vertices and keeps the number of edges
    of every endpoint pair, as a list over f1's vertices; none when the two
    differ in their vertex, edge, circle or label counts.  With f1 = f2
    these are the automorphisms."""
    g1, g2 = f1.graph, f2.graph
    if (g1.n_vertices, g1.n_edges, g1.n_circles, f1.t) != (
        g2.n_vertices,
        g2.n_edges,
        g2.n_circles,
        f2.t,
    ):
        return []
    count = Counter(frozenset(e) for e in g1.edges)
    target = Counter(frozenset(e) for e in g2.edges)
    free = [v for v in range(g1.n_vertices) if v not in f1.labels]
    free2 = [v for v in range(g2.n_vertices) if v not in f2.labels]
    found = []
    for image in itertools.permutations(free2):
        for label_image in itertools.permutations(f2.labels):
            sigma = list(range(g1.n_vertices))
            for v, w in zip(free + list(f1.labels), image + label_image):
                sigma[v] = w
            if all(target[frozenset(sigma[v] for v in pair)] == c for pair, c in count.items()):
                found.append(sigma)
    return found


def test_orbits_are_those_of_the_whole_group():
    """On every multigraph with at most 4 vertices and 5 edges, every
    fragment with 2 labels, at most 2 internal vertices and 4 edges, and
    the rotated triangle, each generator permutes the edges as some
    automorphism that maps labels to labels maps their endpoint pairs, with
    that automorphism's label permutation, and the classes fall into as
    many orbits under the generators as under every such automorphism.
    Each orbit's weights sum to the weight of its classes, each under a
    label permutation of an automorphism that maps the first class into
    the orbit."""
    frags = [Fragment(g) for g in enumerate_multigraphs(4, 5)]
    frags += [*enumerate_fragments(2, 2, 4), ROTATED_TRIANGLE]
    merged = moving = 0
    for frag in frags:
        edges = frag.graph.edges
        label_of = {v: q for q, v in enumerate(frag.labels)}
        sigmas = isomorphisms_by_brute_force(frag, frag)
        induced = {
            (
                tuple(frozenset(sigma[v] for v in e) for e in edges),
                tuple(label_of[sigma[v]] for v in frag.labels),
            )
            for sigma in sigmas
        }
        for moved, labelled in graph._automorphisms(edges, frag.labels):
            assert sorted(moved) == list(range(len(edges))), frag
            pair_map = tuple(frozenset(edges[moved[e]]) for e in range(len(edges)))
            assert (pair_map, labelled) in induced, frag
        classes = evaluator._eulerian_classes(frag)
        groups = edge_groups(frag.graph)
        pairs = [frozenset(edges[es[0]]) for es in groups]

        def images(vector):
            # each automorphism's image of a class's counts, with its label permutation
            counts = dict(zip(pairs, vector))
            for sigma in sigmas:
                image = tuple(counts[frozenset(sigma[v] for v in pair)] for pair in pairs)
                yield image, tuple(label_of[sigma[v]] for v in frag.labels)

        weight_of = {class_of(groups, subset): weight for subset, weight in classes}
        orbits = {min(image for image, _ in images(vector)) for vector in weight_of}
        got = evaluator._orbits(frag, [(subset, weight, 1) for subset, weight in classes])
        assert len(got) == len(orbits), frag
        for first, _, weights in got:
            orbit = {}  # each class of the orbit: the label permutations that reach it
            for image, perm in images(class_of(groups, first)):
                orbit.setdefault(image, set()).add(perm)
            assert sum(weights.values()) == sum(weight_of[vector] for vector in orbit)
            for perm in weights:
                assert any(perm in perms for perms in orbit.values()), frag
        merged += len(orbits) < len(classes)
        moving += any(perm != tuple(range(frag.t)) for _, _, w in got for perm in w)
    # the fragments, those whose classes fall into fewer orbits, and those with
    # an orbit whose classes move the labels
    assert (len(frags), merged, moving) == (3597, 456, 3)


@pytest.mark.parametrize(
    "name, g, live, orbits, peeled",
    [
        ("K4", MultiGraph(4, tuple(itertools.combinations(range(4), 2))), 8, 3, 8),
        ("K3,3", mobius_ladder(3), 16, 3, 3),
        ("prism-4", prism(4), 32, 6, 6),
        ("Petersen", PETERSEN, 64, 6, 6),
    ],
)
def test_charpoly_live_classes_fall_into_few_orbits(monkeypatch, name, g, live, orbits, peeled):
    """The live classes of charpoly(3/2), their orbits, and the subsets
    partition_function peels: one per orbit once the live classes reach the
    gate, one per class below it."""
    h = charpoly_model(Fraction(3, 2))
    assert live_classes_and_orbits(Fragment(g), h) == (live, orbits)
    assert peeled_and_checked(monkeypatch, g, Fraction(3, 2)) == peeled


@pytest.mark.parametrize(
    "name, g, halves, peeled",
    [
        ("prism-5", prism(5), [(16, 6), (32, 16)], 22),
        ("mobius-5", mobius_ladder(5), [(16, 6), (32, 16)], 22),
        ("prism-6", prism(6), [(32, 16), (32, 16)], 16),
        ("mobius-6", mobius_ladder(6), [(32, 16), (32, 16)], 16),
    ],
)
def test_charpoly_live_classes_of_cut_halves_fall_into_few_orbits(
    monkeypatch, name, g, halves, peeled
):
    """The same for the two halves that partition_function cuts a 5- or
    6-ladder into: their automorphisms move their labels."""
    h = charpoly_model(Fraction(3, 2))
    side = evaluator._balanced_cut(g)
    assert [live_classes_and_orbits(f, h) for f in split(g, side)] == halves
    assert peeled_and_checked(monkeypatch, g, Fraction(3, 2)) == peeled


def live_classes_and_orbits(frag, h):
    """The number of classes of frag that model h keeps alive, and of their orbits."""
    ctx = evaluator._SubsetContext(frag, [h])
    classes = [(s, w, ctx.alive(s)) for s, w in evaluator._eulerian_classes(frag)]
    classes = [c for c in classes if c[2]]
    return len(classes), len(evaluator._orbits(frag, classes))


def peeled_and_checked(monkeypatch, g, x):
    """The subsets partition_function peels for g under charpoly(x), once
    its value is checked against charpoly_oracle."""
    calls = []
    monkeypatch.setattr(evaluator, "peel", lambda *args: calls.append(args) or peel(*args))
    result = partition_function(g, charpoly_model(x), "mixed")
    assert result.value == charpoly_oracle(g).evaluate(x)
    return len(calls)


def koszul_moves(perm, k, base):
    """For each coordinate c of a t-label tensor, (c', sign): c'_q = c_perm[q],
    and the sign of the sequence of perm[q] over the q whose c'_q is exterior,
    by inversion count."""

    def index(digits):
        return sum(d * base**j for j, d in enumerate(reversed(digits)))

    moves = []
    for c in itertools.product(range(base), repeat=len(perm)):
        moved = tuple(c[p] for p in perm)
        exterior = [p for p, d in zip(perm, moved) if d >= k]
        inversions = sum(a > b for a, b in itertools.combinations(exterior, 2))
        moves.append((index(c), index(moved), -1 if inversions % 2 else 1))
    return moves


def test_moving_the_labels_moves_the_tensor_sum_by_the_koszul_sign(monkeypatch):
    """The tensor sum of a fragment F with its labels moved by a permutation
    perm, labels'[q] = labels[perm[q]], is that of F with its coordinates
    moved: at c' with c'_q = c_perm[q] it is eps * sum T(F)[c], eps the sign
    of the sequence of perm[q] over the q whose c'_q is exterior.  Every
    label permutation of every fragment with 2 or 3 labels, at most 2
    internal vertices and 4 edges, and of every 8th such fragment with 4
    labels, under charpoly(1/3 + i/2) and circuit_odd(1), with the orbit
    gate out of reach, so that both sides are walked class by class.  The
    count pins how many nonzero coordinates take the sign -1."""
    monkeypatch.setattr(evaluator, "ORBIT_GATE", math.inf)
    calls = [charpoly_model(Fraction(1, 3) + I / 2, cap=12), circuit_odd_model(1, cap=12)]
    flipped = Counter()
    frags = [*enumerate_fragments(2, 2, 4), *enumerate_fragments(3, 2, 4)]
    frags += list(enumerate_fragments(4, 2, 4))[::8]
    for frag in frags:
        perms = list(itertools.permutations(range(frag.t)))
        moved = [Fragment(frag.graph, tuple(frag.labels[p] for p in perm)) for perm in perms]
        for h in calls:
            [sums, *others] = tensor_sums([frag, *moved], h, "mixed")
            base = h.k + h.two_ell
            for perm, other in zip(perms, others):
                for c, c_moved, sign in koszul_moves(perm, h.k, base):
                    assert other[c_moved] == sign * sums[c], (frag, perm, h)
                    flipped[frag.t] += sign < 0 and sums[c] != 0
    assert flipped == {2: 194, 3: 1368, 4: 4416}


# -- one walk for the two halves of a cut that are isomorphic --------------------


def invariants(frag):
    """What _isomorphism compares before it searches."""
    g = frag.graph
    return g.n_vertices, g.n_edges, g.n_circles, frag.t, sorted(g.degrees())


def renamed(frag, rng, rotation=None):
    """frag with its vertices renamed and its edges reordered, ends swapped
    at random, and its labels, in the new names, taken in the order
    ``rotation``: labels'[q] = labels[rotation[q]]."""
    g = frag.graph
    rename = list(range(g.n_vertices))
    rng.shuffle(rename)
    edges = [(rename[b], rename[a]) if rng.random() < 0.5 else (rename[a], rename[b])
             for a, b in g.edges]
    rng.shuffle(edges)
    rotation = rotation or range(frag.t)
    labels = tuple(rename[frag.labels[r]] for r in rotation)
    return Fragment(MultiGraph(g.n_vertices, tuple(edges), g.n_circles), labels)


def test_isomorphisms_are_those_of_brute_force():
    """Every ordered pair of fragments with 3 labels, at most 2 internal
    vertices and 4 edges that agree in their vertex, edge, circle and label
    counts and sorted degrees, and a seeded sample of such pairs with 4
    labels: _isomorphism finds none exactly when no vertex bijection that
    maps labels to labels does, and otherwise returns the label permutation
    p of one, which maps f1.labels[q] to f2.labels[p[q]].  Disconnected
    fragments are searched too, not refused.  A circle on one side only is
    refused by the counts."""
    rng = random.Random(26)
    three = list(enumerate_fragments(3, 2, 4))
    four = list(enumerate_fragments(4, 2, 4))
    pairs = [(f1, f2) for f1 in three for f2 in three if invariants(f1) == invariants(f2)]
    alike = [(f1, f2) for f1 in four for f2 in four if invariants(f1) == invariants(f2)]
    pairs += rng.sample(alike, 600)
    found = Counter()
    for f1, f2 in pairs:
        label_of = {v: q for q, v in enumerate(f2.labels)}
        perms = {
            tuple(label_of[sigma[v]] for v in f1.labels)
            for sigma in isomorphisms_by_brute_force(f1, f2)
        }
        p = graph._isomorphism(f1, f2)
        assert (p is None) == (not perms), (f1, f2)
        assert p is None or p in perms, (f1, f2, p)
        connected = graph.n_components(f1.graph) == 1
        found[f1.t, connected, p is not None] += 1
    for frag in three[::7]:
        circled = Fragment(MultiGraph(frag.graph.n_vertices, frag.graph.edges, 1), frag.labels)
        assert graph._isomorphism(frag, circled) is None
        assert graph._isomorphism(circled, renamed(circled, rng)) is not None
    # the pairs by label count, whether the first is connected, and whether
    # the two are isomorphic
    assert found == {
        (3, False, False): 1206,
        (3, False, True): 507,
        (3, True, False): 198,
        (3, True, True): 42,
        (4, False, False): 377,
        (4, False, True): 219,
        (4, True, False): 4,
    }


def test_the_twin_of_a_renamed_fragment_with_rotated_labels_is_its_own_walk():
    """Each connected fragment with 3 labels, at most 3 internal vertices
    and 6 edges, against a copy with its vertices renamed and its labels
    rotated, labels'[q] = labels[(1, 2, 0)[q]]: the fragment's finished
    sums moved by the label permutation p of _isomorphism, through
    signed_map's table of p without the dual (each scaled coordinate to its
    image times its sign, each count to its image), equal the copy's own
    walk, coordinates, counts and scale, under a dense Gaussian model with
    (k, 2l) = (1, 2).  The cuts of the ladders give only involutions; a
    3-cycle pins the direction of p."""
    rng = random.Random(7)
    frags = [f for f in enumerate_fragments(3, 3, 6) if graph.n_components(f.graph) == 1]
    h = random_sparse_model(rng, 1, 2, max(f.max_degree() for f in frags), density=1.0)
    perms = Counter()
    nonzero = 0
    for frag in frags:
        copy = renamed(frag, rng, (1, 2, 0))
        p = graph._isomorphism(frag, copy)
        subsets, [(coeffs, counts, scale)] = evaluator._mode_sums(frag, [h], "mixed")
        images, signs = signed_map(h.k, h.two_ell, p, False)
        moved, moved_counts = [ZERO] * len(coeffs), [0] * len(counts)
        for c, (image, sign) in enumerate(zip(images, signs)):
            moved[image] = coeffs[c] if sign > 0 else -coeffs[c]
            moved_counts[image] = counts[c]
        twin = [(moved, moved_counts, scale)]
        assert (subsets, twin) == evaluator._mode_sums(copy, [h], "mixed"), frag
        perms[p] += 1
        nonzero += any(coeffs)
    assert (len(frags), nonzero) == (597, 597)
    # (2, 0, 1) is the rotation's own permutation, (1, 2, 0) its inverse
    assert perms == {(0, 1, 2): 39, (0, 2, 1): 194, (1, 0, 2): 80, (2, 0, 1): 216, (2, 1, 0): 68}


@pytest.mark.parametrize("mode", ["ordinary", "skew", "mixed"])
def test_a_cut_into_isomorphic_halves_gives_the_whole_subset_sum(mode):
    """Every cut of a multigraph with 4 vertices and at most 6 edges into
    two sides of 2 vertices each whose halves _isomorphism maps one onto
    the other, in turn under the mode's CUT_MODELS, and each under a seeded
    Gaussian model: _by_cut, which walks one half only, gives the value,
    subsets and colorings of the subset sum over the whole graph.  Halves
    without labels, and disconnected halves, are among them."""
    rng = random.Random(11)
    k, two_ell = HOLED_SHAPES[mode]
    twins = nonzero = 0
    for g in enumerate_multigraphs(4, 6):
        if g.n_vertices != 4:
            continue
        for other in (1, 2, 3):
            if graph._isomorphism(*split(g, (0, other))) is None:
                continue
            twins += 1
            cut_model = CUT_MODELS[mode][twins % len(CUT_MODELS[mode])]
            gauss = random_sparse_model(rng, k, two_ell, max(g.max_degree(), 1), density=0.6)
            for h in (cut_model, gauss):
                expected = whole(g, h, mode)
                assert evaluator._by_cut(g, (0, other), h, mode) == expected, (g, other, h)
                nonzero += expected.value != 0
    assert (twins, nonzero) == (936, {"ordinary": 1367, "skew": 323, "mixed": 1204}[mode])


def test_ladders_and_a_grid_cut_into_isomorphic_halves_give_the_whole_subset_sum():
    """The 6-, 8- and 10-prisms, the 6- and 8-Moebius ladders and the 3 x 6
    grid, as named and under three seeded renamings each: the halves of
    _balanced_cut are isomorphic, and _by_cut gives the value, subsets and
    colorings of the subset sum over the named graph, under charpoly(3/2)
    and a dense Gaussian model.  The label permutations are pinned."""
    rng = random.Random(3)
    graphs = [prism(6), prism(8), prism(10), mobius_ladder(6), mobius_ladder(8), grid(3, 6)]
    models = [charpoly_model(Fraction(3, 2)), random_sparse_model(rng, 1, 2, 4, density=1.0)]
    perms = Counter()
    for g in graphs:
        copies = [g] + [renamed(Fragment(g), rng).graph for _ in range(3)]
        sides = [evaluator._balanced_cut(copy) for copy in copies]
        for copy, side in zip(copies, sides):
            p = graph._isomorphism(*split(copy, side))
            assert p is not None, (g, side)
            perms[p] += 1
        for h in models:
            expected = whole(g, h, "mixed")
            assert expected.value != 0
            for copy, side in zip(copies, sides):
                assert evaluator._by_cut(copy, side, h, "mixed") == expected, (copy, h)
    assert perms == {
        (0, 1, 2): 3,
        (0, 1, 2, 3): 12,
        (0, 1, 3, 2): 2,
        (0, 2, 1): 1,
        (0, 2, 1, 3): 1,
        (0, 3, 2, 1): 5,
    }
