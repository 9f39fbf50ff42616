"""Exact scalars in Q(i) and the basis bookkeeping shared by the whole engine.

Everything downstream (partition functions, Gram tensors, matrix ranks) is
computed in the field Q(i); nothing in this package ever rounds.  This module
also owns the dual exterior basis, the one permutation parity every engine
sign comes from (wedge words here, directed matchings in
:mod:`mixedpf.connection`), normalization of wedge words into the canonical
strictly-increasing form, and the table of the supersymmetric bilinear form
on the mixed color space, which :func:`mixedpf.connection.gram_pairing`
applies.
"""

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
    """Fraction(x) for parsed input, where every malformed x is a ValueError.

    A float is refused, as a bool is: Fraction would read its binary value
    exactly (0.1 as 3602879701896397/36028797018963968), never what was
    written.  So is a string with an exponent, which Fraction would expand
    in full ("1e999999999" is a billion-digit integer).
    """
    if isinstance(x, (bool, float)) or isinstance(x, str) and "e" in x.lower():
        raise ValueError(f"not an exact rational: {x!r}")
    try:
        return Fraction(x)
    except (TypeError, ZeroDivisionError, OverflowError):
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

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * other
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
def form_table(k: int, two_ell: int, t: int = 1) -> tuple[tuple[int, int], ...]:
    """The supersymmetric form as one (partner, sign) per coordinate.

    [x, y] = sum over coordinates a of sign * x[a] * y[partner]: a symmetric
    coordinate pairs with itself, and the exterior f_i with f_j where its
    dual is g_i = s * f_j (:func:`dual_basis`), with sign -s.  The form is
    symmetric on the k-block and skew-symplectic on the 2*ell-block, which
    pairs through ((0, I), (-I, 0)): [f_i, f_{i+ell}] = 1 = -[f_{i+ell}, f_i],
    so the whole form is nondegenerate.  The coordinates are those of a t=1
    :class:`mixedpf.connection.FragmentTensor`: e_i at i-1, f_i at k+i-1.
    Over t tensor slots the form applies slot by slot: a coordinate's
    partner pairs each of its slots, the first slot the most significant
    digit, and its sign is the product of theirs.  Tables are kept for
    reuse, so each is a tuple.
    """
    ell = two_ell // 2
    table = [(a, 1) for a in range(k)]
    for i in range(1, two_ell + 1):
        s, j = dual_basis(i, ell)
        table.append((k + j - 1, -s))
    base = k + two_ell
    tensor = [(0, 1)]
    for _ in range(t):
        tensor = [(p * base + q, s * r) for p, s in tensor for q, r in table]
    return tuple(tensor)


def form_pairing(x, y, k: int, two_ell: int, t: int = 1, signed: bool = True):
    """[x, y] for two coefficient sequences over t tensor slots (:func:`form_table`).

    Signed, the coefficients are Gaussian rationals and so is the result.
    With ``signed=False`` every sign is taken as +1: that pairs two
    sequences of int counts to an int.
    """
    total = ZERO if signed else 0
    for val, (partner, sign) in zip(x, form_table(k, two_ell, t)):
        if not val:
            continue
        other = y[partner]
        if other:
            term = val * other
            total = total - term if signed and sign < 0 else total + term
    return total
