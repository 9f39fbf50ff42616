"""Model construction, local evaluation and serialization tests."""

import json
import random
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedpf.algebra import I, GaussianRational
from mixedpf.models import (
    BUILTIN_MODELS,
    MAX_COLORS,
    MAX_MODEL_SIZE,
    EdgeColoringModel,
    _compositions,
    charpoly_model,
    circuit_neg_model,
    circuit_odd_model,
    circuit_pos_model,
    matchings_model,
    model_from_json,
    model_from_spec,
    model_to_json,
    tensor_model,
)
from mixedpf.suites import random_sparse_model


def single_entry_model():
    # k=1, two_ell=2, weight 1 on (e1^2, f1 ^ f2)
    return EdgeColoringModel(1, 2, [((2,), (1, 2), 1)])


def test_evaluate_local_examples():
    h = single_entry_model()
    assert h.evaluate((1, 1), ((2, False), (1, False))) == -1  # one transposition
    assert h.evaluate((1, 1), ((1, False), (1, True))) == -1  # g_1 = -f_2
    assert h.evaluate((1, 1), ((1, False), (1, False))) == 0  # repeated factor


def test_antisymmetry_under_swaps():
    h = single_entry_model()
    for a in (1, 2):
        for b in (1, 2):
            v1 = h.evaluate((1, 1), ((a, False), (b, False)))
            v2 = h.evaluate((1, 1), ((b, False), (a, False)))
            assert v1 == -v2 or (v1 == 0 and v2 == 0)


@given(st.integers(1, 2), st.integers(1, 4))
def test_dual_expansion_consistency(ell, i):
    two_ell = 2 * ell
    if i > two_ell:
        i = (i - 1) % two_ell + 1
    entries = [
        ((), tuple(range(1, r + 1)), 1) for r in range(1, two_ell + 1)
    ]
    h = EdgeColoringModel(0, two_ell, entries)
    dual = h.evaluate((), ((i, True),))
    if i <= ell:
        assert dual == -h.evaluate((), ((i + ell, False),))
    else:
        assert dual == h.evaluate((), ((i - ell, False),))


def test_out_of_range_rejected():
    h = single_entry_model()
    with pytest.raises(ValueError):
        h.evaluate((2,), ())
    with pytest.raises(ValueError):
        h.evaluate((), ((3, False),))


def test_cap_enforced():
    h = matchings_model(cap=3)
    with pytest.raises(ValueError, match="cap"):
        h.evaluate((1, 1, 1, 1), ())


@pytest.mark.parametrize(
    "k,two_ell,entries,cap,message",
    [
        (-1, 0, [], None, "k must be nonnegative"),
        (1, 0, [], -1, "degree cap must be nonnegative"),
        (0, 2, [((), (3,), 1)], None, "exterior index out of range in (3,)"),
        (0, 2, [((), (0, 1), 1)], None, "exterior index out of range in (0, 1)"),
    ],
)
def test_model_refusals(k, two_ell, entries, cap, message):
    with pytest.raises(ValueError) as info:
        EdgeColoringModel(k, two_ell, entries, cap=cap)
    assert str(info.value) == message


def test_entry_validation():
    with pytest.raises(ValueError):
        EdgeColoringModel(1, 2, [((1,), (2, 1), 1)])  # not increasing
    with pytest.raises(ValueError):
        EdgeColoringModel(1, 2, [((1, 1), (), 1)])  # wrong sym length
    with pytest.raises(ValueError):
        EdgeColoringModel(1, 3, [])  # odd two_ell


# -- built-ins -----------------------------------------------------------------


def test_matchings_model_values():
    h = matchings_model(cap=4)
    assert h.evaluate((1, 1, 2), ()) == 1
    assert h.evaluate((2, 2), ()) == 0
    assert h.evaluate((), ()) == 1


def test_charpoly_model_values():
    h = charpoly_model(Fraction(3, 2), cap=4)
    assert h.evaluate((1, 1), ((1, False), (1, True))) == 1
    assert h.evaluate((1, 2), ()) == I
    assert h.evaluate((2, 2), ()) == 0
    assert h.evaluate((1, 1), ()) == Fraction(3, 2)


def test_charpoly_model_support():
    h = charpoly_model(2, cap=5)
    for (sym, ext) in h.entries:
        assert sym[1] in (0, 1)
        assert ext in ((), (1, 2))
        if ext:
            assert sym[1] == 0


def test_charpoly_model_zero_t_drops_entries():
    h = charpoly_model(0, cap=4)
    assert h.evaluate((1, 1), ()) == 0


def test_circuit_pos_model_values():
    h1 = circuit_pos_model(1, cap=6)
    assert h1.evaluate((1, 1, 1, 1), ()) == 3  # (4-1)!! = 3
    assert h1.evaluate((1, 1, 1), ()) == 0  # odd degree vanishes
    h2 = circuit_pos_model(2, cap=6)
    assert h2.evaluate((1, 1, 2, 2), ()) == 1


def test_circuit_neg_model_values():
    h = circuit_neg_model(1)
    assert h.evaluate((), ((1, False), (1, True))) == 1
    assert h.evaluate((), ((1, False), (2, False))) == -1
    h2 = circuit_neg_model(2)
    assert h2.evaluate((), ((1, False), (2, True))) == 0
    assert h2.evaluate((), ((1, False), (1, True), (2, False), (2, True))) == 1


def test_tensor_model_values():
    h = tensor_model(circuit_pos_model(1, cap=4), circuit_neg_model(1))
    assert h.evaluate((1, 1), ((1, False), (1, True))) == 1
    assert h.evaluate((), ()) == 1
    assert h.evaluate((1, 1, 1), ((1, False),)) == 0
    assert h == circuit_odd_model(1, cap=4)


def test_tensor_model_rejects_mixed_inputs():
    with pytest.raises(ValueError):
        tensor_model(circuit_neg_model(1), circuit_neg_model(1))
    with pytest.raises(ValueError):
        tensor_model(circuit_pos_model(1), circuit_pos_model(1))


# -- serialization and specs ------------------------------------------------------


@settings(max_examples=60)
@given(
    st.integers(0, 2**32),
    st.sampled_from([(1, 0), (2, 0), (0, 2), (1, 2), (2, 2), (0, 4), (1, 4)]),
    st.sampled_from([None, 0, 3, 8]),
)
def test_model_json_roundtrip(seed, shape, cap):
    k, two_ell = shape
    sparse = random_sparse_model(random.Random(seed), k, two_ell, max_degree=4)
    h = EdgeColoringModel(k, two_ell, sparse.entries, cap=cap)
    blob = json.dumps(model_to_json(h))
    assert model_from_json(json.loads(blob)) == h
    h = charpoly_model(Fraction(-5, 3), cap=5)
    assert model_from_json(json.loads(json.dumps(model_to_json(h)))) == h


def test_model_json_format_shape():
    obj = model_to_json(circuit_neg_model(1))
    assert obj["k"] == 0 and obj["two_ell"] == 2 and obj["cap"] is None
    entry = obj["entries"][0]
    assert set(entry) == {"sym", "ext", "value"}
    assert set(entry["value"]) == {"re", "im"}


@pytest.mark.parametrize(
    "spec",
    ["matchings", "charpoly?t=0", "charpoly?t=-3/2", "circuit-pos?k=2", "circuit-neg?l=1", "circuit-odd?l=1"],
)
def test_model_specs_parse(spec):
    h = model_from_spec(spec, cap=6)
    assert isinstance(h, EdgeColoringModel)


def test_model_spec_errors():
    with pytest.raises(ValueError):
        model_from_spec("unknown")
    with pytest.raises(ValueError):
        model_from_spec("charpoly")  # missing t
    with pytest.raises(ValueError):
        model_from_spec("matchings?bogus=1")


@pytest.mark.parametrize("spec", ["charpoly?t=1&t=2", "charpoly?t=1&t=1", "circuit-odd?l=1&l=2"])
def test_model_spec_refuses_a_repeated_parameter(spec):
    name = spec.partition("?")[2][0]
    with pytest.raises(ValueError, match=f"model parameter '{name}' given more than once"):
        model_from_spec(spec, cap=4)


# -- readers of outside input ------------------------------------------------------

JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 10),
    st.just(10**30),
    st.floats(allow_nan=False),
    st.sampled_from(["0", "1/2", "-i", "1/0", "2e3", "x", ""]),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["re", "im", "k", "x"]), inner, max_size=3),
    max_leaves=8,
)
VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from(["1/2", "-i", "2-3/4i"]),
    st.fixed_dictionaries(
        {"re": st.sampled_from(["1", "-1/3"]), "im": st.sampled_from(["0", "2"])}
    ),
)


@st.composite
def model_objects(draw):
    """Valid model JSON, with up to two fields replaced by any JSON or deleted."""
    k = draw(st.integers(0, 2))
    two_ell = draw(st.sampled_from([0, 2, 4]))
    entries = [
        {
            "sym": draw(st.lists(st.integers(0, 3), min_size=k, max_size=k)),
            "ext": sorted(draw(st.sets(st.integers(1, max(two_ell, 1)), max_size=two_ell))),
            "value": draw(VALUES),
        }
        for _ in range(draw(st.integers(0, 3)))
    ]
    cap = draw(st.none() | st.integers(0, 8))
    obj = {"k": k, "two_ell": two_ell, "cap": cap, "entries": entries}
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from([obj] + entries))
        if not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.booleans()):
            del target[key]
        else:
            target[key] = draw(JSON_VALUES)
    return obj


@settings(max_examples=400, deadline=None)
@given(model_objects() | JSON_VALUES)
def test_model_from_json_reads_or_refuses(obj):
    """Every JSON value is a model, which survives a round trip, or a ValueError."""
    try:
        h = model_from_json(obj)
    except ValueError:
        return
    assert model_from_json(json.loads(json.dumps(model_to_json(h)))) == h


PARAMETERS = st.one_of(
    st.integers(-1, 4).map(str),
    st.sampled_from(["16", "40", "2000", "9" * 30, "1/2", "-i", "1/0", "1e999999999", "x", ""]),
    st.text(max_size=4),
)
SPEC_KEYS = {
    "matchings": (),
    "charpoly": ("t",),
    "circuit-pos": ("k",),
    "circuit-neg": ("l",),
    "circuit-odd": ("l",),
}


@st.composite
def specs(draw):
    """Built-in specs with their own parameters, and maybe one stray one."""
    name = draw(st.sampled_from(BUILTIN_MODELS))
    pairs = [f"{key}={draw(PARAMETERS)}" for key in SPEC_KEYS[name]]
    if draw(st.integers(0, 3)) == 0:
        pairs.append(draw(st.text(max_size=4)))
    return "?".join([name, "&".join(pairs)]) if pairs else name


@settings(max_examples=300, deadline=None)
@given(specs() | st.text(max_size=20), st.integers(-1, 12))
def test_model_from_spec_builds_or_refuses(spec, cap):
    """Every spec is a model within MAX_MODEL_SIZE, or a ValueError."""
    try:
        h = model_from_spec(spec, cap=cap)
    except ValueError:
        return
    assert len(h.entries) * (h.k + h.two_ell) <= MAX_MODEL_SIZE


def test_model_spec_sizes_are_counted_before_building():
    # circuit-pos?k=K holds C(cap/2 + K, K) entries of K colors
    assert len(model_from_spec("circuit-pos?k=999", cap=2).entries) == 1000
    for spec, cap in [
        ("circuit-pos?k=1000", 2),
        ("circuit-neg?l=16", 0),
        ("circuit-odd?l=15", 2),
        ("charpoly?t=1", 83334),
        ("matchings", 250000),
        ("circuit-neg?l=" + "9" * 30, 0),
    ]:
        with pytest.raises(ValueError, match="model table too large"):
            model_from_spec(spec, cap=cap)


def test_color_count_is_limited():
    # the limit is on k + 2l, checked before any entry is read
    assert EdgeColoringModel(MAX_COLORS, 0, []).k == MAX_COLORS
    assert EdgeColoringModel(MAX_COLORS - 2, 2, []).two_ell == 2
    for k, two_ell in [(MAX_COLORS + 1, 0), (0, MAX_COLORS + 2), (MAX_COLORS - 1, 2)]:
        with pytest.raises(ValueError, match="too many colors"):
            EdgeColoringModel(k, two_ell, [((0,) * 5, (), 1)])
        with pytest.raises(ValueError, match="too many colors"):
            model_from_json({"k": k, "two_ell": two_ell, "entries": []})
    assert model_from_spec(f"circuit-pos?k={MAX_COLORS}", cap=1).k == MAX_COLORS
    with pytest.raises(ValueError, match="too many colors"):
        model_from_spec(f"circuit-pos?k={MAX_COLORS + 1}", cap=1)


def test_weights_are_scaled_by_their_common_denominator():
    # D * w = r * i^q: a real weight gives q = 0, an imaginary one q = 1, and
    # one with two nonzero parts keeps its Gaussian value as r, with q = 0
    h = EdgeColoringModel(
        1,
        2,
        [
            ((0,), (), Fraction(3, 4)),
            ((1,), (), GaussianRational(2, Fraction(-1, 6))),
            ((2,), (), GaussianRational(0, Fraction(-1, 3))),
        ],
    )
    assert h.denominator == 12
    assert h.scaled == {
        ((0,), ()): (9, 0),
        ((1,), ()): (GaussianRational(24, -2), 0),
        ((2,), ()): (-4, 1),
    }
    assert type(h.scaled[((0,), ())][0]) is int and type(h.scaled[((2,), ())][0]) is int
    gaussian = h.scaled[((1,), ())][0]
    assert [type(c) for c in (gaussian.re, gaussian.im)] == [int, int]
    # integral weights: D = 1, and every r is a plain int
    h = charpoly_model(0, cap=2)
    assert h.denominator == 1
    assert {type(r) for r, _ in h.scaled.values()} == {int}
    assert {q for _, q in h.scaled.values()} == {0, 1}
    assert EdgeColoringModel(1, 0, []).denominator == 1


def test_bidegrees_are_the_patterns_degrees():
    """(symmetric, exterior) degrees of the patterns: charpoly at t = 0 has
    no pure e_1 power, so no pattern of degree (0, 0)."""
    assert charpoly_model(0, cap=3).bidegrees == {(1, 0), (2, 0), (3, 0), (0, 2), (1, 2)}
    assert charpoly_model(1, cap=3).bidegrees == {(0, 0), (1, 0), (2, 0), (3, 0), (0, 2), (1, 2)}
    assert EdgeColoringModel(1, 2, [((0,), (1,), 0)]).bidegrees == frozenset()


def recursive_compositions(total, parts):
    """The recursion that _compositions replaced, kept as its reference."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            yield (first,) + rest


def test_compositions_keep_the_recursive_order():
    # random_sparse_model's draws follow this order
    for total in range(7):
        for parts in range(5):
            assert list(_compositions(total, parts)) == list(recursive_compositions(total, parts))
    # the last of 3,000, holding one tuple of 3,000 ints at a time
    assert deque(_compositions(1, 3000), maxlen=1).pop() == (1,) + (0,) * 2999
