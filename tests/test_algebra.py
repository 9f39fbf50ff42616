"""Exact-arithmetic and basis-bookkeeping tests."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedpf.algebra import (
    GaussianRational,
    I,
    double_factorial_odd,
    dual_basis,
    normalize_wedge,
    sym_counts,
)

rationals = st.fractions(
    min_value=-20, max_value=20, max_denominator=12
)
gaussians = st.builds(GaussianRational, rationals, rationals)


# -- GaussianRational ---------------------------------------------------------


@given(gaussians, gaussians, gaussians)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


@given(gaussians)
def test_additive_and_multiplicative_inverse(a):
    assert a + (-a) == 0
    if a:
        assert a * a.inverse() == 1
        assert (a / a) == 1


@given(gaussians)
def test_string_roundtrip(a):
    assert GaussianRational.from_string(str(a)) == a


@given(gaussians)
def test_json_roundtrip(a):
    assert GaussianRational.from_json(a.to_json()) == a


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", GaussianRational(0)),
        ("-3/2", GaussianRational(Fraction(-3, 2))),
        ("i", I),
        ("-i", -I),
        ("2i", GaussianRational(0, 2)),
        ("1+i", GaussianRational(1, 1)),
        ("1/2-3/4i", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
    ],
)
def test_parse_examples(text, value):
    assert GaussianRational.from_string(text) == value


def test_parse_rejects_garbage():
    for bad in ("", "one", "1//2", "1+2"):
        with pytest.raises(ValueError):
            GaussianRational.from_string(bad)


@pytest.mark.parametrize("text", ["1e3", "2E-1", "1/2+3e2i", "1e999999999"])
def test_exponents_are_refused(text):
    # Fraction would expand an exponent in full: 1e999999999 has 10^9 digits
    with pytest.raises(ValueError, match="not an exact rational"):
        GaussianRational.from_string(text)
    with pytest.raises(ValueError, match="not an exact rational"):
        GaussianRational.from_json({"re": text})


@pytest.mark.parametrize("text", ["nan", "inf", "abc", "1/2/3"])
def test_malformed_literals_are_refused_alike(text):
    # Fraction's own ValueError would name its own message for these
    for parse in (GaussianRational.from_string, lambda x: GaussianRational.from_json({"im": x})):
        with pytest.raises(ValueError) as refused:
            parse(text)
        assert str(refused.value) == f"not an exact rational: {text!r}"


def test_i_squared():
    assert I * I == -1
    assert I**2 == GaussianRational(-1)
    assert I**-1 == -I


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 6))
def test_powers_of_gaussian_integers_keep_int_components(re, im, n):
    # integral components are plain ints, and a power must not turn them into
    # Fractions: x**0 is the int 1
    p = GaussianRational(re, im) ** n
    expected = GaussianRational(1)
    for _ in range(n):
        expected = expected * GaussianRational(re, im)
    assert p == expected
    assert type(p.re) is int and type(p.im) is int


@pytest.mark.parametrize("bad", [True, False])
def test_bool_is_not_a_component(bad):
    with pytest.raises(TypeError):
        GaussianRational(bad)
    for obj in (bad, {"re": bad}, {"re": "1", "im": bad}):
        with pytest.raises(ValueError):
            GaussianRational.from_json(obj)


def test_integral_fraction_results_are_ints():
    half = GaussianRational(Fraction(1, 2))
    assert type((half * 2).re) is int
    assert type((half + half).re) is int
    assert type((half - GaussianRational(Fraction(-1, 2))).re) is int
    assert type((GaussianRational(0, Fraction(1, 3)) * 3).im) is int
    assert type((1 - half - half).re) is int


@given(gaussians, gaussians)
def test_sums_and_products_keep_components_reduced(a, b):
    for x in (a + b, a - b, a * b, 1 - a, a * Fraction(2, 3)):
        for c in (x.re, x.im):
            assert type(c) is int or c.denominator != 1


def test_components_always_reduced():
    x = GaussianRational(Fraction(4, 2), Fraction(6, 4))
    assert x.re == 2 and x.im == Fraction(3, 2)
    y = x / 3
    assert Fraction(y.re).denominator == 3


def test_hash_matches_plain_numbers():
    assert hash(GaussianRational(7)) == hash(7)
    assert GaussianRational(7) == 7
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(1, 1) != 1


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


# -- dual basis ---------------------------------------------------------------


@pytest.mark.parametrize(
    "i,ell,expected",
    [
        (1, 2, (-1, 3)),
        (3, 2, (1, 1)),
        (2, 1, (1, 1)),
    ],
)
def test_dual_basis_examples(i, ell, expected):
    assert dual_basis(i, ell) == expected


@pytest.mark.parametrize("i,ell", [(0, 2), (5, 2), (1, 0)])
def test_dual_basis_range_errors(i, ell):
    with pytest.raises(ValueError):
        dual_basis(i, ell)


@given(st.integers(1, 6), st.data())
def test_dual_basis_involution(ell, data):
    i = data.draw(st.integers(1, 2 * ell))
    s1, j = dual_basis(i, ell)
    s2, back = dual_basis(j, ell)
    assert back == i
    assert s1 * s2 == -1


# -- double factorial ---------------------------------------------------------


@pytest.mark.parametrize("n,expected", [(5, 15), (4, 0), (-1, 1), (1, 1), (7, 105), (0, 0)])
def test_double_factorial(n, expected):
    assert double_factorial_odd(n) == expected


def test_double_factorial_domain():
    with pytest.raises(ValueError):
        double_factorial_odd(-2)


# -- wedge normalization --------------------------------------------------------


def test_normalize_wedge_sorting_and_duals():
    assert normalize_wedge([(1, False), (2, False)], 2) == (1, (1, 2))
    assert normalize_wedge([(2, False), (1, False)], 2) == (-1, (1, 2))
    assert normalize_wedge([(1, False), (1, False)], 2) == (0, ())
    # g_1 expands to -f_2
    assert normalize_wedge([(1, True)], 2) == (-1, (2,))
    assert normalize_wedge([(2, True)], 2) == (1, (1,))


def test_sym_counts():
    assert sym_counts((1, 1, 2), 2) == (2, 1)
    assert sym_counts((), 3) == (0, 0, 0)
    with pytest.raises(ValueError):
        sym_counts((3,), 2)
