"""Edge-coloring models: sparse exact functionals on color patterns.

A (k, 2*ell)-color model assigns a Gaussian-rational weight to every local
pattern (multiset of symmetric colors, wedge of exterior colors) a vertex can
see.  Entries are stored canonically: exterior indices strictly increasing,
absent key meaning weight zero.  Requests with dual-flagged (g) positions are
resolved at evaluation time so all sign bookkeeping lives in one place.

Weights with infinite support (e.g. "weight t on every pure-symmetric
pattern") are materialized up to an explicit per-vertex degree cap; the cap
makes evaluation total without changing any value, and evaluating past it is
an error rather than a silent zero.
"""

from __future__ import annotations

import itertools
from math import lcm

from .algebra import (
    GaussianRational,
    I,
    ZERO,
    as_gaussian,
    double_factorial_odd,
    normalize_wedge,
    sym_counts,
)


#: the most colors k + 2l a model may have: the coloring search builds a
#: k-vector of counts for each color a vertex sees, so one edge alone costs
#: (k + 2l)^2 numbers, about 32 MB at this limit
MAX_COLORS = 2048


def _check_colors(colors: int) -> None:
    if colors > MAX_COLORS:
        raise ValueError(f"too many colors: k + 2l = {colors} exceeds {MAX_COLORS}")


class EdgeColoringModel:
    """A finitely supported functional on (k, 2*ell) color patterns.

    ``entries`` maps each canonical pattern to its nonzero weight.  The
    model also keeps, from construction on, the least common ``denominator``
    D of every weight's two components, and the table ``scaled`` of the
    Gaussian integers D * w as pairs (r, q), D * w = r * i^q: r an int and q
    0 for a real weight, 1 for a purely imaginary one; a weight with both
    parts nonzero keeps D * w, a GaussianRational with int components, as
    r, with q = 0.  The coloring search multiplies the r and adds the q, so
    its products need no Fraction; a vertex gives one weight per coloring,
    so a sum over the colorings of n weighed vertices is D^n times the true
    one.  ``bidegrees`` holds the (symmetric,
    exterior) degrees of the patterns, so the search can tell which vertices
    the model weighs zero whatever their colors.  The search's factor cache
    is keyed by ``key``, (k, two_ell, the items of ``scaled``, the only
    weights the search reads), not by identity, which a later model may
    reuse: models of equal weights share it, and keys of real and imaginary
    weights compare as ints.
    """

    __slots__ = ("k", "two_ell", "entries", "cap", "denominator", "scaled", "bidegrees", "key")

    def __init__(self, k: int, two_ell: int, entries, cap: int | None = None):
        if k < 0:
            raise ValueError("k must be nonnegative")
        if two_ell < 0 or two_ell % 2:
            raise ValueError("two_ell must be even and nonnegative")
        _check_colors(k + two_ell)
        if cap is not None and cap < 0:
            raise ValueError("degree cap must be nonnegative")
        self.k = k
        self.two_ell = two_ell
        self.cap = cap
        table = {}
        if isinstance(entries, dict):
            entries = [(sym, ext, value) for (sym, ext), value in entries.items()]
        for sym, ext, value in entries:
            sym = tuple(int(c) for c in sym)
            ext = tuple(int(i) for i in ext)
            if len(sym) != k or any(c < 0 for c in sym):
                raise ValueError(f"bad symmetric counts vector {sym} for k={k}")
            if any(not 1 <= i <= two_ell for i in ext):
                raise ValueError(f"exterior index out of range in {ext}")
            if any(ext[a] >= ext[a + 1] for a in range(len(ext) - 1)):
                raise ValueError(f"exterior indices not strictly increasing: {ext}")
            value = as_gaussian(value)
            if value:
                table[(sym, ext)] = value
        self.entries = table
        d = 1
        for value in table.values():
            d = lcm(d, value.re.denominator, value.im.denominator)
        self.denominator = d
        self.scaled = {}
        for key, value in table.items():
            value = value * d
            if not value.im:
                self.scaled[key] = (value.re, 0)
            elif not value.re:
                self.scaled[key] = (value.im, 1)
            else:
                self.scaled[key] = (value, 0)
        self.bidegrees = frozenset((sum(sym), len(ext)) for sym, ext in table)
        self.key = (k, two_ell, frozenset(self.scaled.items()))

    def __eq__(self, other):
        if not isinstance(other, EdgeColoringModel):
            return NotImplemented
        return (
            self.k == other.k
            and self.two_ell == other.two_ell
            and self.cap == other.cap
            and self.entries == other.entries
        )

    def __repr__(self):
        return (
            f"EdgeColoringModel(k={self.k}, two_ell={self.two_ell}, "
            f"{len(self.entries)} entries, cap={self.cap})"
        )

    def check_cap(self, graph) -> None:
        """Refuse a graph, or a fragment, with a weighed vertex of degree
        beyond the degree cap."""
        self.check_degree(graph.max_degree())

    def check_degree(self, d: int) -> None:
        """Refuse a largest weighed degree ``d`` beyond the degree cap."""
        if self.cap is not None and d > self.cap:
            raise ValueError(
                f"graph has a vertex of degree {d} beyond the model's degree cap {self.cap}"
            )

    def evaluate(self, sym_colors, ext_positions) -> GaussianRational:
        """Weight of a local pattern, resolving duals and wedge signs.

        ``sym_colors`` is a multiset of colors in [1, k]; ``ext_positions``
        a sequence of (index, is_dual) pairs.  Repeated exterior factors give
        zero; a request beyond the degree cap is an error.
        """
        sym_colors = tuple(sym_colors)
        ext_positions = tuple(ext_positions)
        if self.cap is not None and len(sym_colors) + len(ext_positions) > self.cap:
            raise ValueError(
                f"request of degree {len(sym_colors) + len(ext_positions)} "
                f"exceeds the model's degree cap {self.cap}"
            )
        counts = sym_counts(sym_colors, self.k)
        sign, ext = normalize_wedge(ext_positions, self.two_ell)
        if sign == 0:
            return ZERO
        val = self.entries.get((counts, ext))
        if val is None:
            return ZERO
        return val if sign > 0 else -val


# -- built-in models ----------------------------------------------------------


def matchings_model(cap: int = 8) -> EdgeColoringModel:
    """The (2,0) model whose ordinary partition function counts matchings.

    Weight 1 on every pattern seeing color 2 at most once, zero otherwise;
    the edges colored 2 then range exactly over the matchings.
    """
    entries = []
    for n1 in range(cap + 1):
        entries.append(((n1, 0), (), 1))
        if n1 + 1 <= cap:
            entries.append(((n1, 1), (), 1))
    return EdgeColoringModel(2, 0, entries, cap=cap)


def charpoly_model(t, cap: int = 8) -> EdgeColoringModel:
    """The (2,2) model whose mixed partition function is det(tI - A).

    Weights: t on pure e_1 powers, sqrt(-1) on patterns with a single e_2,
    and 1 on e_1 powers wedged with f_1 ^ g_1 (stored canonically as -1 at
    f_1 ^ f_2).  Everything else is zero.
    """
    t = as_gaussian(t)
    entries = []
    for d in range(cap + 1):
        if t:
            entries.append(((d, 0), (), t))
        if d + 1 <= cap:
            entries.append(((d, 1), (), I))
        if d + 2 <= cap:
            entries.append(((d, 0), (1, 2), -1))
    return EdgeColoringModel(2, 2, entries, cap=cap)


def circuit_pos_model(k: int, cap: int = 8) -> EdgeColoringModel:
    """The (k,0) model evaluating the circuit partition polynomial at k.

    Weight is the product of (alpha_i - 1)!! over the color multiplicities,
    with the even-argument double factorial defined as zero, so only
    all-even patterns survive; they are the only ones built, twice the
    compositions of half their degree.
    """
    if k < 1:
        raise ValueError("circuit_pos_model needs k >= 1")
    entries = []
    for half in range(cap // 2 + 1):
        for beta in _compositions(half, k):
            weight = 1
            for b in beta:
                weight *= double_factorial_odd(2 * b - 1)
            entries.append((tuple(2 * b for b in beta), (), weight))
    return EdgeColoringModel(k, 0, entries, cap=cap)


def _compositions(total, parts):
    """The tuples of ``parts`` nonnegative ints summing to ``total`` >= 0, in
    lexicographic order: stars and bars, the ``parts - 1`` bars placed among
    ``total + parts - 1`` slots in the order of itertools.combinations."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (slots,)))


def circuit_neg_model(ell: int) -> EdgeColoringModel:
    """The (0, 2*ell) model evaluating the circuit partition polynomial at -2*ell.

    Weight 1 on each wedge of f_i ^ g_i over a subset S of [ell]; expanding
    g_i = -f_{i+ell} and sorting stores the entry at the canonical index set
    with the accumulated sign.  Support is genuinely finite, so no cap.
    """
    if ell < 1:
        raise ValueError("circuit_neg_model needs ell >= 1")
    entries = []
    for r in range(ell + 1):
        for subset in itertools.combinations(range(1, ell + 1), r):
            positions = []
            for i in subset:
                positions.append((i, False))
                positions.append((i, True))
            sign, ext = normalize_wedge(positions, 2 * ell)
            entries.append(((), ext, sign))
    return EdgeColoringModel(0, 2 * ell, entries)


def tensor_model(h0: EdgeColoringModel, h1: EdgeColoringModel) -> EdgeColoringModel:
    """Componentwise product of a purely symmetric and a purely exterior model."""
    if h0.two_ell != 0:
        raise ValueError("first tensor factor must be purely symmetric (two_ell=0)")
    if h1.k != 0:
        raise ValueError("second tensor factor must be purely exterior (k=0)")
    entries = []
    for (sym, _), v0 in h0.entries.items():
        for (_, ext), v1 in h1.entries.items():
            entries.append((sym, ext, v0 * v1))
    return EdgeColoringModel(h0.k, h1.two_ell, entries, cap=h0.cap)


def circuit_odd_model(ell: int, cap: int = 8) -> EdgeColoringModel:
    """The (1, 2*ell) tensor model evaluating the circuit polynomial at 1-2*ell."""
    return tensor_model(circuit_pos_model(1, cap=cap), circuit_neg_model(ell))


# -- JSON format and CLI model specs ------------------------------------------


def model_to_json(model: EdgeColoringModel) -> dict:
    entries = [
        {"sym": list(sym), "ext": list(ext), "value": value.to_json()}
        for (sym, ext), value in sorted(model.entries.items())
    ]
    return {
        "k": model.k,
        "two_ell": model.two_ell,
        "cap": model.cap,
        "entries": entries,
    }


def model_from_json(obj: dict) -> EdgeColoringModel:
    """Read the JSON model format; any malformed field is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("model JSON must be an object")
    try:
        # int() would read true as 1 and truncate 2.7 to 2
        if any(isinstance(obj.get(key), (bool, float)) for key in ("k", "two_ell", "cap")):
            raise ValueError
        k = int(obj["k"])
        two_ell = int(obj["two_ell"])
        cap = None if obj.get("cap") is None else int(obj["cap"])
    except (KeyError, TypeError, ValueError, OverflowError):
        raise ValueError(
            "model JSON needs integer 'k' and 'two_ell' and an integer or null 'cap'"
        ) from None
    items = obj.get("entries", [])
    if not isinstance(items, list):
        raise ValueError("model JSON 'entries' must be a list")
    entries = []
    for pos, item in enumerate(items):
        if not isinstance(item, dict) or not {"sym", "ext", "value"} <= item.keys():
            raise ValueError(f"model entry {pos} needs 'sym', 'ext' and 'value'")
        sym, ext = item["sym"], item["ext"]
        if not all(
            isinstance(part, list)
            and all(isinstance(c, int) and not isinstance(c, bool) for c in part)
            for part in (sym, ext)
        ):
            raise ValueError(f"model entry {pos}: 'sym' and 'ext' must be lists of integers")
        entries.append((tuple(sym), tuple(ext), GaussianRational.from_json(item["value"])))
    return EdgeColoringModel(k, two_ell, entries, cap=cap)


BUILTIN_MODELS = ("matchings", "charpoly", "circuit-pos", "circuit-neg", "circuit-odd")

#: the most numbers a built-in model's table may hold (its entries times its
#: k + 2l colors); model_from_spec counts them before building anything
MAX_MODEL_SIZE = 10**6


def _capped_binomial(n: int, r: int) -> int:
    """C(n, r), or MAX_MODEL_SIZE + 1 as soon as it is larger."""
    r = min(r, n - r)
    value = 1
    for i in range(1, r + 1):
        # C(n - r + i, i), which grows with i
        value = value * (n - r + i) // i
        if value > MAX_MODEL_SIZE:
            return MAX_MODEL_SIZE + 1
    return value


def _check_size(entries: int, colors: int) -> None:
    if entries * colors > MAX_MODEL_SIZE:
        raise ValueError(
            f"model table too large: more than {MAX_MODEL_SIZE} numbers "
            "(entries times k + 2l colors)"
        )
    _check_colors(colors)


def model_from_spec(spec: str, cap: int = 8) -> EdgeColoringModel:
    """Build a named model from a CLI spec like "charpoly?t=3/2".

    Known names: matchings, charpoly?t=..., circuit-pos?k=...,
    circuit-neg?l=..., circuit-odd?l=... .  A table of more than
    :data:`MAX_MODEL_SIZE` numbers, or a model of more than
    :data:`MAX_COLORS` colors, is refused before it is built, and so is a
    parameter given more than once.
    """
    name, _, query = spec.partition("?")
    params = {}
    if query:
        for piece in query.split("&"):
            key, eq, value = piece.partition("=")
            if not eq:
                raise ValueError(f"malformed model parameter '{piece}'")
            if key in params:
                raise ValueError(f"model parameter '{key}' given more than once")
            params[key] = value
    try:
        if name == "matchings":
            _expect_keys(params, ())
            _check_size(2 * cap + 1, 2)
            return matchings_model(cap=cap)
        if name == "charpoly":
            _expect_keys(params, ("t",))
            t = GaussianRational.from_string(params["t"])
            _check_size(3 * cap + 1, 4)
            return charpoly_model(t, cap=cap)
        if name == "circuit-pos":
            _expect_keys(params, ("k",))
            k = int(params["k"])
            _check_size(_capped_binomial(cap // 2 + k, k), k)
            return circuit_pos_model(k, cap=cap)
        # 2^l entries: the clamp keeps a huge l cheap, and the builders refuse l < 1
        if name == "circuit-neg":
            _expect_keys(params, ("l",))
            ell = int(params["l"])
            _check_size(2 ** max(0, min(ell, 64)), 2 * ell)
            return circuit_neg_model(ell)
        if name == "circuit-odd":
            _expect_keys(params, ("l",))
            ell = int(params["l"])
            _check_size((cap // 2 + 1) * 2 ** max(0, min(ell, 64)), 1 + 2 * ell)
            return circuit_odd_model(ell, cap=cap)
    except KeyError as exc:
        raise ValueError(f"model '{name}' is missing parameter {exc}") from None
    raise ValueError(f"unknown model '{name}' (known: {', '.join(BUILTIN_MODELS)})")


def _expect_keys(params, allowed):
    extra = set(params) - set(allowed)
    if extra:
        raise ValueError(f"unexpected model parameters: {', '.join(sorted(extra))}")
