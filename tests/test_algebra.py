"""Exact-arithmetic and basis-bookkeeping tests."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedpf.algebra import (
    GaussianRational,
    I,
    double_factorial_odd,
    dual_basis,
    form_pairing,
    normalize_wedge,
    signed_map,
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


# -- the signed coordinate table of V^(x)t ------------------------------------

#: (k, 2l) shapes: both blocks, two exterior pairs, and the symmetric block alone
TABLE_SHAPES = [(1, 2), (2, 2), (0, 4), (3, 0)]


def table_by_brute_force(k, two_ell, perm, dual):
    """signed_map's table from pure basis tensors: slot q's vector, e_i or
    f_i, goes to slot perm[q], and with ``dual`` to its partner under the
    form first, f_i to f_j with [f_i, f_j] = -s where dual_basis gives
    g_i = s * f_j; the Koszul sign counts the swaps of two exterior factors
    that sort the factors into their new slots."""
    ell, base, t = two_ell // 2, k + two_ell, len(perm)
    images, signs = [], []
    for digits in itertools.product(range(base), repeat=t):
        moved, sign = [None] * t, 1
        for q, d in enumerate(digits):
            if d >= k and dual:
                s, j = dual_basis(d - k + 1, ell)
                d, sign = k + j - 1, -s * sign
            moved[perm[q]] = d
        factors = [(perm[q], d >= k) for q, d in enumerate(digits)]
        for end in range(t, 0, -1):  # bubble sort by target slot
            for a in range(end - 1):
                if factors[a][0] > factors[a + 1][0]:
                    if factors[a][1] and factors[a + 1][1]:
                        sign = -sign
                    factors[a], factors[a + 1] = factors[a + 1], factors[a]
        images.append(sum(d * base ** (t - 1 - r) for r, d in enumerate(moved)))
        signs.append(sign)
    return tuple(images), tuple(signs)


@pytest.mark.parametrize("k, two_ell", TABLE_SHAPES)
def test_the_signed_table_is_that_of_basis_tensors(k, two_ell):
    """Every perm of t <= 3 slots, with and without the dual."""
    for t in range(4):
        for perm in itertools.permutations(range(t)):
            for dual in (False, True):
                expected = table_by_brute_force(k, two_ell, perm, dual)
                assert signed_map(k, two_ell, perm, dual) == expected, (perm, dual)


@pytest.mark.parametrize("k, two_ell", TABLE_SHAPES)
def test_moves_keep_the_form_and_pair_through_the_inverse(k, two_ell):
    """On dense Gaussian vectors, odd-parity coordinates included, and every
    perm p of t <= 3 slots: [P x, P y] = [x, y], and [x, P y] is the form
    taken through the table of p's inverse with the dual.  A cut's twin
    halves pair one sum S with itself, and [S, P S] cannot tell p from its
    inverse: [S, P S] = [P^-1 S, S], which is [S, P^-1 S] because each
    nonzero coordinate of a fragment's sum has an even number of exterior
    slots, where the form is symmetric.  Two dense vectors do tell them
    apart, at each perm that is not an involution."""
    rng = random.Random(27)

    def move(x, perm):  # P x: each coordinate at its image, times its sign
        out = [None] * len(x)
        for c, (image, sign) in enumerate(zip(*signed_map(k, two_ell, perm, False))):
            out[image] = x[c] if sign > 0 else -x[c]
        return out

    def pair(x, y, perm):
        return form_pairing(x, y, k, two_ell, perm)

    def dense(t):
        size = (k + two_ell) ** t
        return [GaussianRational(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(size)]

    slips = 0
    for t in range(1, 4):
        unmoved = tuple(range(t))
        for p in itertools.permutations(range(t)):
            inverse = tuple(sorted(range(t), key=p.__getitem__))
            x, y = dense(t), dense(t)
            assert pair(move(x, p), move(y, p), unmoved) == pair(x, y, unmoved)
            through = pair(x, move(y, p), unmoved)
            assert pair(x, y, inverse) == through, p
            slips += pair(x, y, p) != through
    # the 3-cycles (1, 2, 0) and (2, 0, 1), the only perms of t <= 3 that are not involutions
    assert slips == 2


@pytest.mark.parametrize("k, two_ell", TABLE_SHAPES)
def test_int_vectors_pair_to_the_int_of_their_gaussian_pairing(k, two_ell):
    """On dense int vectors, negatives included, and every perm of t <= 3
    slots: form_pairing through the table of the perm with the dual gives
    an int, signed or not, and that int is the pairing of the same vectors
    as Gaussian rationals.  A cut pairs its halves' scaled coordinates so."""
    rng = random.Random(28)
    for t in range(4):
        size = (k + two_ell) ** t
        for perm in itertools.permutations(range(t)):
            x = [rng.randint(-9, 9) for _ in range(size)]
            y = [rng.randint(-9, 9) for _ in range(size)]
            gx, gy = [GaussianRational(a) for a in x], [GaussianRational(b) for b in y]
            for signed in (True, False):
                paired = form_pairing(x, y, k, two_ell, perm, signed)
                assert type(paired) is int, (perm, signed)
                assert paired == form_pairing(gx, gy, k, two_ell, perm, signed), (perm, signed)
