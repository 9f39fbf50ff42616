"""Matching signs, fragment tensors, Gram identities, ranks."""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedpf import connection, evaluator, linalg
from mixedpf.algebra import GaussianRational, I, dual_basis
from mixedpf.connection import (
    ConnectionMatrix,
    DirectedMatching,
    FragmentTensor,
    canonical_matching_sign,
    connection_matrix,
    dglrs_constraint_sum,
    exact_rank,
    fragment_tensor,
    gram_pairing,
    matching_sign,
    permutation_sign,
)
from mixedpf.evaluator import (
    eulerian_sum,
    partition_function,
    partition_function_many,
    tensor_sums,
)
from mixedpf.graph import (
    Fragment,
    MultiGraph,
    cycle_graph,
    decompose,
    enumerate_eulerian_subsets,
    eulerian_state,
    components,
    glue,
    is_eulerian_subset,
    split,
)
from mixedpf.linalg import determinant, row_basis
from mixedpf.models import (
    charpoly_model,
    circuit_neg_model,
    circuit_odd_model,
    circuit_pos_model,
    matchings_model,
)
from mixedpf.oracles import adjacency_determinant, eulerian_subsets_oracle, permutation_sign_oracle
from mixedpf.suites import (
    _directed_matchings,
    enumerate_fragments,
    random_fragment,
    random_sparse_model,
)

K3 = cycle_graph(3)


# -- permutation and matching signs ------------------------------------------------


def test_permutation_sign():
    assert permutation_sign((0, 1, 2)) == 1
    assert permutation_sign((1, 0, 2)) == -1
    assert permutation_sign((1, 2, 0)) == 1


@pytest.mark.parametrize(
    "m,n,expected",
    [
        ((((1, 2),)), (((1, 2),)), 1),
        ((((1, 2),)), (((2, 1),)), -1),
        (((1, 2), (3, 4)), ((1, 4), (3, 2)), -1),
    ],
)
def test_matching_sign_examples(m, n, expected):
    ma = DirectedMatching(tuple(m) if isinstance(m[0], tuple) else (m,))
    nb = DirectedMatching(tuple(n) if isinstance(n[0], tuple) else (n,))
    assert matching_sign(ma, nb) == expected
    assert permutation_sign_oracle(ma, nb) == expected


def test_matching_sign_exhaustive_small():
    for m in (1, 2):
        matchings = _directed_matchings(m)
        for ma, nb in itertools.product(matchings, matchings):
            assert matching_sign(ma, nb) == permutation_sign_oracle(ma, nb)


def test_canonical_matching_sign():
    assert canonical_matching_sign(DirectedMatching(((1, 2),))) == 1
    assert canonical_matching_sign(DirectedMatching(((2, 1),))) == -1
    m = DirectedMatching(((1, 3), (2, 4)))
    expected = permutation_sign_oracle(m, DirectedMatching(((1, 2), (3, 4))))
    assert canonical_matching_sign(m) == expected


def test_matching_validation():
    with pytest.raises(ValueError):
        DirectedMatching(((1, 1),))
    with pytest.raises(ValueError):
        DirectedMatching(((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        matching_sign(DirectedMatching(((1, 2),)), DirectedMatching(((3, 4),)))


# -- the supersymmetric form on the mixed space ----------------------------------------
#
# A vector of the (k + 2*ell)-dimensional mixed space is a t=1 tensor:
# e_i sits at coordinate i-1 and f_i at k+i-1.


def e_basis(k, two_ell, i):
    coeffs = [0] * (k + two_ell)
    coeffs[i - 1] = 1
    return FragmentTensor(1, k, two_ell, tuple(coeffs))


def f_basis(k, two_ell, i, scale=1):
    coeffs = [0] * (k + two_ell)
    coeffs[k + i - 1] = scale
    return FragmentTensor(1, k, two_ell, tuple(coeffs))


def test_bilinear_form_basis_examples():
    e1 = e_basis(1, 2, 1)
    assert gram_pairing(e1, e1) == 1
    f1 = f_basis(1, 2, 1)
    f2 = f_basis(1, 2, 2)
    assert gram_pairing(f1, f2) == 1
    assert gram_pairing(f2, f1) == -1
    assert gram_pairing(f1, f1) == 0
    assert gram_pairing(e1, f1) == 0 and gram_pairing(f2, e1) == 0


def test_symmetry_split_on_basis():
    k, two_ell = 2, 4
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            x, y = e_basis(k, two_ell, a), e_basis(k, two_ell, b)
            assert gram_pairing(x, y) == gram_pairing(y, x)
    for a in range(1, two_ell + 1):
        for b in range(1, two_ell + 1):
            x, y = f_basis(k, two_ell, a), f_basis(k, two_ell, b)
            assert gram_pairing(x, y) == -gram_pairing(y, x)


def test_f_g_pairing_values():
    # <f_i, g_i> = -1 and <g_i, f_i> = 1 for every i
    for ell in (1, 2):
        two_ell = 2 * ell
        for i in range(1, two_ell + 1):
            sign, j = dual_basis(i, ell)
            f = f_basis(0, two_ell, i)
            g = f_basis(0, two_ell, j, scale=sign)
            assert gram_pairing(f, g) == -1
            assert gram_pairing(g, f) == 1


#: the support of st.fractions(-20, 20, max_denominator=12), simplest first so
#: that examples shrink toward 0; one draw per value keeps test_bilinearity's
#: inputs within Hypothesis' too_slow health check on a loaded machine
rationals = st.sampled_from(
    sorted(
        {Fraction(p, q) for q in range(1, 13) for p in range(-20 * q, 20 * q + 1)},
        key=lambda f: (f.denominator, abs(f), f < 0),
    )
)
gaussians = st.builds(GaussianRational, rationals, rationals)


def _three_vectors(t, k=2, two_ell=2):
    """t with three coefficient lists of its (k+2l)^t color space."""
    vec = st.lists(gaussians, min_size=(k + two_ell) ** t, max_size=(k + two_ell) ** t)
    return st.tuples(st.just(t), vec, vec, vec)


# drawn in @given, not in the body, so the deadline times the pairings only
@settings(max_examples=40)
@given(st.sampled_from([1, 2]).flatmap(_three_vectors), gaussians, gaussians)
def test_bilinearity(vectors, a, b):
    t, x, xp, y = vectors
    k, two_ell = 2, 2

    def tensor(coeffs):
        return FragmentTensor(t, k, two_ell, tuple(coeffs))

    combo = tensor(a * u + b * v for u, v in zip(x, xp))
    left = gram_pairing(combo, tensor(y))
    right = a * gram_pairing(tensor(x), tensor(y)) + b * gram_pairing(tensor(xp), tensor(y))
    assert left == right
    # and linear in the second argument as well
    left = gram_pairing(tensor(y), combo)
    right = a * gram_pairing(tensor(y), tensor(x)) + b * gram_pairing(tensor(y), tensor(xp))
    assert left == right


def test_bilinear_form_shape_mismatch():
    with pytest.raises(ValueError):
        gram_pairing(FragmentTensor.zero(1, 1, 2), FragmentTensor.zero(1, 2, 2))
    with pytest.raises(ValueError):
        gram_pairing(FragmentTensor.zero(1, 1, 2), FragmentTensor.zero(2, 1, 2))


# -- fragment tensors ---------------------------------------------------------------


def test_scalar_tensor_is_subset_value():
    rng = random.Random(2)
    h = random_sparse_model(rng, 1, 2, 2)
    for subset in enumerate_eulerian_subsets(K3):
        tensor = fragment_tensor(Fragment(K3, ()), subset, h)
        assert tensor.t == 0 and len(tensor.coeffs) == 1
        assert tensor.coeffs[0] == eulerian_sum(K3, subset, h)


def test_tensor_respects_degree_cap():
    # an internal vertex of degree 6 (two loops and two open ends)
    frag = Fragment(MultiGraph(3, ((0, 0), (0, 0), (0, 1), (0, 2))), (1, 2))
    h = charpoly_model(0, cap=2)
    for subset in enumerate_eulerian_subsets(frag):
        with pytest.raises(ValueError, match="degree cap"):
            fragment_tensor(frag, subset, h)


def test_open_open_edge_tensor():
    # single edge between labels 1 and 2, subset = that edge:
    # i * sum_c (outgoing g_c) (x) (incoming f_c), duals expanded to signed f's
    frag = Fragment(MultiGraph(2, ((0, 1),)), (0, 1))
    rng = random.Random(3)
    h = random_sparse_model(rng, 1, 2, 2)
    state = eulerian_state(frag, frozenset({0}), 0)
    tensor = fragment_tensor(frag, frozenset({0}), h, state)

    from mixedpf.graph import is_incoming

    base = 3  # k + two_ell = 1 + 2
    expected = [GaussianRational(0)] * 9
    out_pos = 0 if not is_incoming(state, (0, 0)) else 1
    for c in (1, 2):
        sign, j = dual_basis(c, 1)
        g_coord = 1 + j - 1 + 1  # k offset 1, f_j coordinate
        f_coord = 1 + c - 1 + 1
        coords = [0, 0]
        coords[out_pos] = g_coord - 1 + 1
        coords[1 - out_pos] = f_coord - 1 + 1
        idx = (coords[0] - 1) * base + (coords[1] - 1)
        expected[idx] = expected[idx] + (I if sign > 0 else -I)
    assert list(tensor.coeffs) == expected


def test_empty_subset_tensor_is_symmetric_block():
    frag = Fragment(MultiGraph(2, ((0, 1),)), (1,))
    rng = random.Random(4)
    h = random_sparse_model(rng, 2, 2, 2, density=1.0)
    tensor = fragment_tensor(frag, frozenset(), h)
    # coefficients supported on the first k coordinates only
    for idx, coeff in enumerate(tensor.coeffs):
        if idx >= 2:
            assert coeff == 0


def test_gram_label_mismatch_vanishes():
    frag = Fragment(MultiGraph(2, ((0, 1),)), (0, 1))
    rng = random.Random(5)
    h = random_sparse_model(rng, 1, 2, 2)
    t_full = fragment_tensor(frag, frozenset({0}), h)
    t_empty = fragment_tensor(frag, frozenset(), h)
    assert gram_pairing(t_full, t_empty) == 0


def test_gram_open_open_circle():
    frag = Fragment(MultiGraph(2, ((0, 1),)), (0, 1))
    rng = random.Random(6)
    h = random_sparse_model(rng, 1, 2, 2)
    t_full = fragment_tensor(frag, frozenset({0}), h)
    t_empty = fragment_tensor(frag, frozenset(), h)
    # in-subset circle contributes -two_ell, out-of-subset circle k
    assert gram_pairing(t_full, t_full) == -2
    assert gram_pairing(t_empty, t_empty) == 1
    total = t_full + t_empty
    glued = glue(frag, frag)
    assert gram_pairing(total, total) == partition_function(glued, h, "mixed").value


def test_path_flip_invariance():
    """A subset's tensor is the same from every seeded state, including
    states whose trails run the other way."""
    rng = random.Random(8)
    reversed_trails = 0
    for trial in range(12):
        t = rng.choice((1, 2, 3))
        frag = random_fragment(rng, t, max_internal=2, max_edges=4)
        k, two_ell = rng.choice(((1, 2), (2, 2)))
        h = random_sparse_model(rng, k, two_ell, max(frag.graph.max_degree(), 1))
        subsets = enumerate_eulerian_subsets(frag)
        subset = rng.choice(subsets)
        states = [eulerian_state(frag, subset, seed) for seed in range(8)]
        tensor = fragment_tensor(frag, subset, h, states[0])
        trails = set(decompose(states[0], frag)[1])
        for state in states[1:]:
            assert fragment_tensor(frag, subset, h, state) == tensor
            reversed_trails += len({(b, a) for a, b in decompose(state, frag)[1]} & trails)
    assert reversed_trails > 0


def test_gram_identity_random():
    rng = random.Random(10)
    for trial in range(8):
        t = rng.choice((1, 2))
        f1 = random_fragment(rng, t, max_internal=2, max_edges=3)
        f2 = random_fragment(rng, t, max_internal=2, max_edges=3)
        h = random_sparse_model(
            rng, 1, 2, max(f1.graph.max_degree(), f2.graph.max_degree(), 1)
        )
        total1 = None
        for h1 in enumerate_eulerian_subsets(f1):
            tensor = fragment_tensor(f1, h1, h, eulerian_state(f1, h1, trial))
            total1 = tensor if total1 is None else total1 + tensor
        total2 = None
        for h2 in enumerate_eulerian_subsets(f2):
            tensor = fragment_tensor(f2, h2, h, eulerian_state(f2, h2, trial + 1))
            total2 = tensor if total2 is None else total2 + tensor
        glued = glue(f1, f2)
        assert gram_pairing(total1, total2) == partition_function(glued, h, "mixed").value


def _multi_arc_label_sets(frag, states):
    """The label sets of the states whose trail matching has two or more arcs."""
    label_sets = set()
    for state in states:
        trails = decompose(state, frag)[1]
        if len(trails) >= 2:
            label_sets.add(frozenset(x for arc in trails for x in arc))
    return label_sets


@pytest.mark.parametrize("t", [4, 5])
def test_gram_identity_with_multi_arc_trail_matchings(t):
    """[sum T(F1), sum T(F2)] = Z(F1 * F2) on pairs of small t-fragments whose
    pairing meets the signs of trail matchings of two or more arcs: each
    fragment has such a subset on one shared label set."""
    rng = random.Random(t)
    frags = list(enumerate_fragments(t, 2, t + 1))
    pairs = 0
    while pairs < 12:
        f1, f2 = rng.choice(frags), rng.choice(frags)
        states1, states2 = (
            [eulerian_state(f, subset, 0) for subset in enumerate_eulerian_subsets(f)]
            for f in (f1, f2)
        )
        if not _multi_arc_label_sets(f1, states1) & _multi_arc_label_sets(f2, states2):
            continue
        pairs += 1
        glued = glue(f1, f2)
        cap = max(glued.max_degree(), 1)
        for h in (
            charpoly_model(0, cap=cap),
            circuit_odd_model(1, cap=cap),
            random_sparse_model(rng, 1, 2, cap),
        ):
            zero = FragmentTensor.zero(t, h.k, h.two_ell)
            total1 = sum((fragment_tensor(f1, s.subset, h, s) for s in states1), zero)
            total2 = sum((fragment_tensor(f2, s.subset, h, s) for s in states2), zero)
            assert gram_pairing(total1, total2) == partition_function(glued, h, "mixed").value


# -- connection matrices and rank ------------------------------------------------


def test_connection_matrix_t0():
    h = matchings_model(cap=4)
    empty = Fragment(MultiGraph(0), ())
    matrix = connection_matrix([empty, Fragment(K3, ())], h, "ordinary")
    # gluing at t=0 is disjoint union, and f(empty)=1, f(K3)=4
    assert matrix.entries[0][0] == 1
    assert matrix.entries[0][1] == 4
    assert matrix.entries[1][1] == 16


def test_connection_matrix_circle_entry():
    h = charpoly_model(1, cap=4)
    open_open = Fragment(MultiGraph(2, ((0, 1),)), (0, 1))
    path = Fragment(MultiGraph(3, ((0, 1), (0, 2))), (1, 2))
    matrix = connection_matrix([open_open, path], h, "mixed")
    # circle value is k - two_ell = 0 for the (2,2) model
    assert matrix.entries[0][0] == 0


def test_connection_matrix_symmetry_against_direct_evaluation():
    rng = random.Random(12)
    frags = [random_fragment(rng, 2, max_internal=2, max_edges=3) for _ in range(3)]
    h = random_sparse_model(rng, 1, 2, max(f.graph.max_degree() for f in frags))
    matrix = connection_matrix(frags, h, "mixed")
    for a in range(3):
        for b in range(3):
            direct = partition_function(glue(frags[a], frags[b]), h, "mixed").value
            assert matrix.entries[a][b] == direct
            assert matrix.entries[a][b] == matrix.entries[b][a]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 3),
    st.sampled_from([("mixed", 1, 2), ("mixed", 2, 2), ("ordinary", 1, 0), ("ordinary", 2, 0)]),
    st.integers(0, 2**32),
)
def test_gluing_is_symmetric(t, shape, seed):
    """connection_matrix evaluates its upper triangle only, which assumes
    Z(F1 * F2) = Z(F2 * F1)."""
    rng = random.Random(seed)
    f1, f2 = (random_fragment(rng, t, max_internal=2, max_edges=4) for _ in range(2))
    mode, k, two_ell = shape
    h = random_sparse_model(rng, k, two_ell, max(f1.graph.max_degree(), f2.graph.max_degree()))
    one = partition_function(glue(f1, f2), h, mode)
    other = partition_function(glue(f2, f1), h, mode)
    assert (one.value, one.subsets) == (other.value, other.subsets)


def glued_matrix(fragments, model, mode):
    """Every entry of the connection matrix evaluated on its glued graph."""
    return tuple(
        tuple(partition_function(glue(a, b), model, mode).value for b in fragments)
        for a in fragments
    )


def spread(family, size):
    """At most ``size`` members spread evenly through ``family``."""
    return family[:: max(len(family) // size, 1)][:size]


def models_of_every_mode(rng, cap):
    """(mode, model) pairs: built-in models and Gaussian random sparse ones."""
    return [
        ("mixed", charpoly_model(0, cap=cap)),
        ("mixed", circuit_odd_model(1, cap=cap)),
        ("mixed", random_sparse_model(rng, 1, 2, cap)),
        ("ordinary", matchings_model(cap=cap)),
        ("ordinary", random_sparse_model(rng, 2, 0, cap)),
        ("skew", circuit_neg_model(1)),
        ("skew", random_sparse_model(rng, 0, 2, cap)),
    ]


@pytest.mark.parametrize("t", range(5))
def test_connection_matrix_equals_glued_evaluation(t):
    """Tensor-sum entries equal the glued evaluations, in every mode."""
    rng = random.Random(t)
    family = spread(list(enumerate_fragments(t, 2, 4)), 16)
    cap = max(max(f.graph.max_degree() for f in family), 1)
    nonzero = set()
    for mode, model in models_of_every_mode(rng, cap):
        expected = glued_matrix(family, model, mode)
        assert connection_matrix(family, model, mode).entries == expected, (mode, model)
        if any(x for row in expected for x in row):
            nonzero.add(mode)
    assert nonzero == {"mixed", "ordinary", "skew"} if t % 2 == 0 else {"mixed", "ordinary"}


def mode_subsets_oracle(frag, mode):
    if mode == "ordinary":
        return [frozenset()]
    full = frozenset(range(frag.graph.n_edges))
    if mode == "skew":
        return [full] if is_eulerian_subset(frag, full) else []
    return eulerian_subsets_oracle(frag)


@pytest.mark.parametrize("t", range(5))
def test_tensor_sums_equal_summed_fragment_tensors(t):
    """The engine's one-context sum equals the sum of per-subset tensors,
    each from a seeded state, over the mode's subsets."""
    rng = random.Random(20 + t)
    family = spread(list(enumerate_fragments(t, 2, 5)), 30)
    cap = max(max(f.graph.max_degree() for f in family), 1)
    for mode, model in models_of_every_mode(rng, cap):
        zero = FragmentTensor.zero(t, model.k, model.two_ell)
        for seed, (frag, coeffs) in enumerate(zip(family, tensor_sums(family, model, mode))):
            total = sum(
                (
                    fragment_tensor(frag, subset, model, eulerian_state(frag, subset, seed))
                    for subset in mode_subsets_oracle(frag, mode)
                ),
                zero,
            )
            assert tuple(coeffs) == total.coeffs, (frag, mode, model)


def test_tensor_sums_take_the_circle_factor():
    rng = random.Random(30)
    # a path between the labels and a vertex with a loop
    frag = Fragment(MultiGraph(4, ((0, 1), (0, 2), (3, 3))), (1, 2))
    circled = Fragment(MultiGraph(4, frag.graph.edges, 2), frag.labels)
    for mode, model in models_of_every_mode(rng, 4):
        factor = GaussianRational(model.k - model.two_ell) ** 2
        [plain, twice] = tensor_sums([frag, circled], model, mode)
        assert twice == [factor * c for c in plain]
        assert any(plain), (mode, model)


def test_connection_matrix_certifies_its_basis_on_glued_graphs(monkeypatch):
    """Exactly the upper triangle of the row basis is glued and evaluated."""
    family = list(enumerate_fragments(2, 2, 3))
    model = charpoly_model(0, cap=4)
    glued = []

    def counting_glue(f1, f2):
        glued.append((family.index(f1), family.index(f2)))
        return glue(f1, f2)

    monkeypatch.setattr(connection, "glue", counting_glue)
    matrix = connection_matrix(family, model, "mixed")
    basis = row_basis(matrix.entries)
    assert len(basis) == exact_rank(matrix) == 5
    assert glued == [(a, b) for i, a in enumerate(basis) for b in basis[i:]]


def test_a_wrong_glued_value_fails_the_certificate(monkeypatch):
    family = list(enumerate_fragments(2, 2, 3))
    model = charpoly_model(0, cap=4)

    def off_by_one(g, models, mode):
        return [
            dataclasses.replace(r, value=r.value + 1)
            for r in partition_function_many(g, models, mode)
        ]

    monkeypatch.setattr(evaluator, "partition_function_many", off_by_one)
    with pytest.raises(RuntimeError, match="on the glued graph"):
        connection_matrix(family, model, "mixed")


def test_the_certificate_reads_the_whole_glued_graph(monkeypatch):
    """The certificate's glued values come from the subset sum over the
    whole glued graph, never from its parts: evaluating by parts rests on
    the Gram identity that the certificate is to check.  Among the glued
    graphs it evaluates are ones of cycle rank 6 or more, which
    partition_function may cut."""
    rims = [(i, (i + 1) % 6) for i in range(6)] + [(6 + i, 6 + (i + 1) % 6) for i in range(6)]
    prism = MultiGraph(12, rims + [(i, i + 6) for i in range(6)])
    # the two halves of the 6-prism's cut at two rungs, and a triangle
    # beside two label-to-label edges
    triangle = MultiGraph(7, ((0, 1), (1, 2), (2, 0), (3, 4), (5, 6)))
    family = [*split(prism, [0, 1, 2, 6, 7, 8]), Fragment(triangle, (3, 4, 5, 6))]
    evaluated = []

    def whole(g, models, mode):
        evaluated.append(g)
        return partition_function_many(g, models, mode)

    def refuse(*args):
        raise AssertionError("the certificate evaluated by parts")

    monkeypatch.setattr(evaluator, "partition_function_many", whole)
    monkeypatch.setattr(evaluator, "split", refuse)
    monkeypatch.setattr(evaluator, "partition_function", refuse)
    matrix = connection_matrix(family, charpoly_model(Fraction(3, 2), cap=4), "mixed")
    assert len(evaluated) == len(matrix.basis) * (len(matrix.basis) + 1) // 2
    assert max(g.n_edges - g.n_vertices + len(components(g)) for g in evaluated) >= 6


def test_one_elimination_per_rank(monkeypatch):
    """connection_matrix eliminates its matrix once, for the row basis that
    its certificate reads; exact_rank then reads the basis."""
    calls = []
    bareiss = linalg._bareiss

    def counting(rows):
        calls.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(linalg, "_bareiss", counting)
    family = list(enumerate_fragments(2, 2, 3))
    matrix = connection_matrix(family, charpoly_model(0, cap=4), "mixed")
    assert exact_rank(matrix) == 5
    assert calls == [len(family)]
    assert matrix.basis == tuple(row_basis(matrix.entries))


def test_a_wrong_pairing_fails_the_certificate(monkeypatch):
    family = list(enumerate_fragments(2, 2, 3))
    model = charpoly_model(0, cap=4)
    monkeypatch.setattr(connection, "gram_pairing", lambda a, b: gram_pairing(a, b) * 2)
    with pytest.raises(RuntimeError, match="by the tensor sums"):
        connection_matrix(family, model, "mixed")


def test_connection_matrix_refuses_before_any_sum(monkeypatch):
    """Mode and degree caps are checked on every fragment before any work;
    the cap counts the unlabeled vertices, the ones a gluing keeps."""

    def no_work(*args):
        raise AssertionError("a tensor sum was started")

    monkeypatch.setattr(evaluator, "_SubsetContext", no_work)
    low = Fragment(MultiGraph(3, ((0, 1), (0, 2))), (1, 2))
    high = Fragment(MultiGraph(3, ((0, 0), (0, 1), (0, 2))), (1, 2))
    h = charpoly_model(0, cap=2)
    with pytest.raises(ValueError, match="degree 4 beyond the model's degree cap 2"):
        connection_matrix([low, low, high], h, "mixed")
    with pytest.raises(ValueError, match="ordinary mode needs a purely symmetric model"):
        connection_matrix([low, high], h, "ordinary")
    with pytest.raises(ValueError, match="unknown mode"):
        connection_matrix([low], h, "both")


def test_cap_counts_only_unlabeled_vertices():
    # a lone edge between two labels glues into circles: no vertex is weighed
    open_open = Fragment(MultiGraph(2, ((0, 1),)), (0, 1))
    assert open_open.max_degree() == 0
    h = circuit_pos_model(2, cap=0)
    matrix = connection_matrix([open_open], h, "ordinary")
    assert matrix.entries == glued_matrix([open_open], h, "ordinary") == ((2,),)


@pytest.mark.parametrize("t, ranks", [(2, (5, 3, 1)), (3, (14, 8, 0))])
def test_rank_growth_on_whole_small_families(t, ranks):
    """Ranks of whole families under charpoly(0), matchings and
    circuit-odd(1), as the glued matrices give them."""
    family = list(enumerate_fragments(t, 2, 4))
    cap = max(f.graph.max_degree() for f in family)
    cases = (
        (charpoly_model(0, cap=cap), "mixed"),
        (matchings_model(cap=cap), "ordinary"),
        (circuit_odd_model(1, cap=cap), "mixed"),
    )
    got = tuple(exact_rank(connection_matrix(family, h, mode)) for h, mode in cases)
    assert got == ranks


def test_connection_matrix_t_mismatch():
    with pytest.raises(ValueError):
        connection_matrix(
            [Fragment(K3, ()), Fragment(MultiGraph(2, ((0, 1),)), (0, 1))],
            matchings_model(cap=4),
            "ordinary",
        )


def fraction_rank(rows):
    """Plain Gaussian elimination over Q(i), independent of the engine's."""
    m = [[GaussianRational(0) + x for x in row] for row in rows]
    if not m:
        return 0
    rank = 0
    n_rows, n_cols = len(m), len(m[0])
    for c in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][c].inverse()
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][c]:
                coef = m[r][c]
                m[r] = [x - coef * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def test_exact_rank_basics():
    zero = ConnectionMatrix(0, (), tuple(tuple(GaussianRational(0) for _ in range(3)) for _ in range(3)))
    assert exact_rank(zero) == 0
    diag = ConnectionMatrix(
        0,
        (),
        tuple(
            tuple(GaussianRational(2 if a == b and a < 2 else 0) for b in range(3))
            for a in range(3)
        ),
    )
    assert exact_rank(diag) == 2


def test_exact_rank_matches_independent_elimination():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(1, 5)
        rows = [
            [
                GaussianRational(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                    Fraction(rng.randint(-2, 2)),
                )
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        matrix = ConnectionMatrix(0, (), tuple(tuple(r) for r in rows))
        assert exact_rank(matrix) == fraction_rank(rows)


def test_row_basis_spans_the_rows():
    """The basis rows are independent and as many as the rank; on a
    symmetric matrix their principal minor is nonsingular."""
    rng = random.Random(16)
    for trial in range(40):
        n = rng.randint(1, 6)
        rank = rng.randint(0, n)
        # n x rank times its transpose, so the rank is at most ``rank``; zero
        # and repeated rows make the elimination swap rows
        left = []
        for _ in range(n):
            pick = rng.random()
            if pick < 0.25:
                left.append([GaussianRational(0)] * rank)
            elif pick < 0.5 and left:
                left.append(rng.choice(left))
            else:
                left.append([GaussianRational(rng.randint(-2, 2), rng.randint(-1, 1)) for _ in range(rank)])
        rows = [
            [sum((a * b for a, b in zip(left[i], left[j])), GaussianRational(0)) for j in range(n)]
            for i in range(n)
        ]
        basis = row_basis(rows)
        assert basis == sorted(basis)
        assert len(basis) == fraction_rank(rows) == fraction_rank([rows[i] for i in basis])
        minor = [[rows[a][b] for b in basis] for a in basis]
        assert not basis or determinant(minor) != 0


def test_rank_bound_charpoly_two_fragments():
    rng = random.Random(15)
    frags = [random_fragment(rng, 2, max_internal=2, max_edges=3) for _ in range(8)]
    h = charpoly_model(0, cap=2 * 3)
    matrix = connection_matrix(frags, h, "mixed")
    assert exact_rank(matrix) <= 16


# -- the signed permutation-family sum ------------------------------------------------


def test_dglrs_zero_parameter():
    assert dglrs_constraint_sum(lambda g: 0, 1) == 0


def test_dglrs_determinant_oracle():
    assert dglrs_constraint_sum(adjacency_determinant, 1) == 16


def test_csv_export():
    h = matchings_model(cap=4)
    matrix = connection_matrix([Fragment(K3, ())], h, "ordinary")
    assert matrix.to_csv() == "16\n"
