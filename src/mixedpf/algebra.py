"""Exact scalars in Q(i) and the basis bookkeeping shared by the whole engine.

Everything downstream (partition functions, Gram tensors, matrix ranks) is
computed in the field Q(i); nothing in this package ever rounds.  This module
also owns the dual exterior basis, the one permutation parity every engine
sign comes from (wedge words here, directed matchings in
:mod:`mixedpf.connection`), normalization of wedge words into the canonical
strictly-increasing form, and the one signed coordinate table of the tensor
powers of the mixed color space, :func:`signed_map`: the supersymmetric
form slot by slot, which :func:`form_pairing` applies, and the Koszul-signed
moves of tensor slots, which the engine's label permutations apply."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def _component(x):
    # integral values are kept as plain ints: their arithmetic is an order of
    # magnitude faster than Fraction's, and most engine values are integers;
    # a bool is refused, since it would print as "True"
    if isinstance(x, bool):
        raise TypeError("expected int or Fraction, got bool")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _fraction(x) -> Fraction:
    """Fraction(x) for parsed input, where every malformed x is the one
    ValueError "not an exact rational: x".

    A float is refused, as a bool is: Fraction would read its binary value
    exactly (0.1 as 3602879701896397/36028797018963968), never what was
    written.  So is a string with an exponent, which Fraction would expand
    in full ("1e999999999" is a billion-digit integer).
    """
    if isinstance(x, (bool, float)) or isinstance(x, str) and "e" in x.lower():
        raise ValueError(f"not an exact rational: {x!r}")
    try:
        return Fraction(x)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"not an exact rational: {x!r}") from None


def _div_exact(a, b):
    """a / b for int-or-Fraction components, never leaving exact arithmetic."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        q, r = divmod(a, b)
        if not r:
            return q
        return Fraction(a, b)
    result = Fraction(a) / Fraction(b)
    return result.numerator if result.denominator == 1 else result


class GaussianRational:
    """An element a + b*i of Q(i) with exact rational components.

    Components are plain ints when integral and ``Fraction`` otherwise
    (always in lowest terms with positive denominator).  Instances are
    immutable by convention (never mutate ``re``/``im``) and are therefore
    safe to share freely across parallel workers.  Equality and hashing agree
    with plain ints and Fractions whenever ``im == 0``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _component(re)
        self.im = _component(im)

    # -- construction / serialization ------------------------------------

    @classmethod
    def from_string(cls, s: str) -> "GaussianRational":
        """Parse the format produced by ``str``: "3", "-1/2", "i", "2-3/4i"."""
        text = s.strip().replace(" ", "")
        if not text:
            raise ValueError("empty Gaussian rational literal")
        if not text.endswith("i"):
            return cls(_fraction(text))
        body = text[:-1]
        cut = max(body.rfind("+"), body.rfind("-"))
        if cut > 0:
            re_part, im_part = body[:cut], body[cut:]
        else:
            re_part, im_part = "", body
        if im_part in ("", "+"):
            im = Fraction(1)
        elif im_part == "-":
            im = Fraction(-1)
        else:
            im = _fraction(im_part)
        re = _fraction(re_part) if re_part else Fraction(0)
        return cls(re, im)

    @classmethod
    def from_json(cls, obj) -> "GaussianRational":
        if isinstance(obj, str):
            return cls.from_string(obj)
        if isinstance(obj, int) and not isinstance(obj, bool):
            return cls(obj)
        if isinstance(obj, dict):
            return cls(_fraction(obj.get("re", "0")), _fraction(obj.get("im", "0")))
        raise ValueError(f"cannot read Gaussian rational from {obj!r}")

    def to_json(self) -> dict:
        return {"re": str(self.re), "im": str(self.im)}

    # -- predicates -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def norm(self):
        """The field norm a^2 + b^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return _gq(self.re + other.re, self.im + other.im)
        if isinstance(other, (int, Fraction)):
            return _gq(self.re + other, self.im)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return _gq(self.re - other.re, self.im - other.im)
        if isinstance(other, (int, Fraction)):
            return _gq(self.re - other, self.im)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return _gq(other - self.re, -self.im)
        return NotImplemented

    def __neg__(self):
        return _gr(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            b, d = self.im, other.im
            if not b:
                if not d:
                    return _gq(self.re * other.re, 0)
                return _gq(self.re * other.re, self.re * d)
            a, c = self.re, other.re
            if not d:
                return _gq(a * c, b * c)
            return _gq(a * c - b * d, a * d + b * c)
        if isinstance(other, (int, Fraction)):
            return _gq(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        return _gr(_div_exact(self.re, n), _div_exact(-self.im, n))

    def __truediv__(self, other):
        if isinstance(other, GaussianRational):
            if not other.im:
                return _gr(
                    _div_exact(self.re, other.re), _div_exact(self.im, other.re)
                )
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            return _gr(_div_exact(self.re, other), _div_exact(self.im, other))
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self):
        if not self.im:
            return str(self.re)
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        if not self.re:
            return imag if self.im > 0 else f"-{imag}"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{imag}"

    def __repr__(self):
        return f"GaussianRational({str(self)!r})"


def _gr(re, im) -> GaussianRational:
    # fast path: skip Fraction coercion when components are already exact
    g = GaussianRational.__new__(GaussianRational)
    g.re = re
    g.im = im
    return g


def _gq(re, im) -> GaussianRational:
    """_gr for a sum or product, whose Fraction components may be integral."""
    g = GaussianRational.__new__(GaussianRational)
    # int arithmetic stays int; only a Fraction result can need reducing
    g.re = re if re.__class__ is int or re.denominator != 1 else re.numerator
    g.im = im if im.__class__ is int or im.denominator != 1 else im.numerator
    return g


#: the square root of -1
I = GaussianRational(0, 1)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)


def as_gaussian(x) -> GaussianRational:
    """Coerce an int, Fraction or GaussianRational to GaussianRational."""
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


def double_factorial_odd(n: int) -> int:
    """n * (n-2) * ... * 1 for odd n >= -1; 0 for even n >= 0.

    The empty product gives (-1)!! = 1, and even arguments are defined to be
    zero (that convention is what makes the circuit-counting weights below
    vanish on odd-degree color patterns).
    """
    if n < -1:
        raise ValueError(f"double factorial undefined for {n}")
    if n % 2 == 0:
        return 0
    result = 1
    while n > 1:
        result *= n
        n -= 2
    return result


def dual_basis(i: int, ell: int) -> tuple[int, int]:
    """The dual g_i of the exterior basis vector f_i, as a signed index.

    Returns (sign, j) with g_i = sign * f_j:  (-1, i+ell) when i <= ell and
    (+1, i-ell) when i > ell.  Indices are 1-based and must lie in [1, 2*ell].
    """
    if not 1 <= i <= 2 * ell:
        raise ValueError(f"exterior index {i} out of range [1, {2 * ell}]")
    if i <= ell:
        return (-1, i + ell)
    return (1, i - ell)


def permutation_sign(perm) -> int:
    """Parity of a sequence of distinct values, +1 or -1, by inversion count.

    A tuple of 0-based images gives the sign of that permutation; any other
    sequence gives the sign of the permutation that sorts it.
    """
    inversions = sum(a > b for a, b in combinations(perm, 2))
    return -1 if inversions % 2 else 1


def normalize_wedge(positions, two_ell: int) -> tuple[int, tuple[int, ...]]:
    """Normalize a wedge word into canonical strictly-increasing form.

    ``positions`` is a sequence of (index, is_dual) pairs; dual entries are
    expanded through :func:`dual_basis` first.  Returns (sign, indices) where
    sign is +-1 and carries both the dual expansion and the parity of the
    sorting permutation; sign 0 (with an empty tuple) means a factor repeats
    and the wedge vanishes.
    """
    ell = two_ell // 2
    sign = 1
    idx = []
    for j, dual in positions:
        if dual:
            s, j = dual_basis(j, ell)
            if s < 0:
                sign = -sign
        elif not 1 <= j <= two_ell:
            raise ValueError(f"exterior index {j} out of range [1, {two_ell}]")
        idx.append(j)
    if len(set(idx)) < len(idx):
        return 0, ()
    return sign * permutation_sign(idx), tuple(sorted(idx))


def sym_counts(colors, k: int) -> tuple[int, ...]:
    """Turn a multiset of symmetric colors in [1, k] into a counts vector."""
    counts = [0] * k
    for c in colors:
        if not 1 <= c <= k:
            raise ValueError(f"symmetric color {c} out of range [1, {k}]")
        counts[c - 1] += 1
    return tuple(counts)


@lru_cache(maxsize=32)
def signed_map(k: int, two_ell: int, perm, dual: bool) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """One signed map of the coordinates of V^(x)t, V = C^(k|2*ell) and
    t = len(perm), as two tuples: each coordinate's image, and its sign.

    A coordinate is one basis vector per slot, e_i at i-1 and f_i at k+i-1,
    the first slot the most significant digit.  Its image moves slot q to
    slot perm[q], and with ``dual`` each slot's vector to its partner under
    the form: e_i to itself, and f_i to f_j with sign -s, where its dual is
    g_i = s * f_j (:func:`dual_basis`), so [f_i, f_{i+ell}] = 1 =
    -[f_{i+ell}, f_i].  The sign is the product of the slots' signs times
    the Koszul sign of the move, the sign of the sequence of perm[q] over
    the exterior slots q in increasing order.  With the identity perm and
    ``dual`` it is the form, [x, y] = sum over a of sign[a] x[a] y[image[a]];
    without ``dual``, x with its slots moved, P x, is sign[a] x[a] at
    image[a], and [x, P y] is the form through the table of perm's inverse
    with ``dual``.  Tables are kept for reuse, so each is a tuple.
    """
    ell = two_ell // 2
    slot = [(a, 1, 0) for a in range(k)]  # one slot's (image digit, sign, exterior)
    for i in range(1, two_ell + 1):
        s, j = dual_basis(i, ell) if dual else (-1, i)  # without the dual, f_i stays
        slot.append((k + j - 1, -s, 1))
    base, t = k + two_ell, len(perm)
    # the Koszul sign by the mask of the exterior slots, taken once per mask
    koszul = [permutation_sign([p for q, p in enumerate(perm) if m >> q & 1]) for m in range(2**t)]
    entries = [(0, 1, 0)]  # each coordinate's (image, slots' sign, exterior mask), slot by slot
    for q, p in enumerate(perm):
        step = base ** (t - 1 - p)
        entries = [
            (image + d * step, sign * s, mask | odd << q)
            for image, sign, mask in entries
            for d, s, odd in slot
        ]
    images = tuple(image for image, _, _ in entries)
    return images, tuple(sign * koszul[mask] for _, sign, mask in entries)


def form_pairing(x, y, k: int, two_ell: int, perm: tuple, signed: bool = True, support=None):
    """[x, y] for two coefficient sequences through :func:`signed_map`'s
    table of perm with the dual: the form itself when perm is the identity.

    The total starts from the int 0 and takes the coefficients' own
    arithmetic: int coefficients pair to an int, and Gaussian rationals to
    a Gaussian rational, or to the int 0 when no term is nonzero.  With
    ``signed=False`` every sign is taken as +1: that pairs two sequences of
    int counts to an int.  A ``support``, the indices of x to visit, in
    place of every index, serves a sparse x: it must hold every index where
    x is nonzero.
    """
    total = 0
    images, signs = signed_map(k, two_ell, perm, True)
    terms = zip(x, images, signs)
    if support is not None:
        terms = [(x[a], images[a], signs[a]) for a in support]
    for val, image, sign in terms:
        if not val:
            continue
        other = y[image]
        if other:
            term = val * other
            total = total - term if signed and sign < 0 else total + term
    return total
