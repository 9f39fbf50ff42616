"""Fraction-free elimination over Q(i): exact rank and determinant.

Bareiss-style two-row updates with first-nonzero pivoting; all divisions are
exact, so no entry ever leaves Q(i).  Performance is secondary at the matrix
sizes this engine meets (a few dozen rows).
"""

from __future__ import annotations

from .algebra import GaussianRational, ONE, ZERO, as_gaussian


def _bareiss(rows) -> tuple[int, GaussianRational, int]:
    """Eliminate a copy of the matrix: (rank, last pivot, sign of the row swaps).

    For a square matrix of full rank the last pivot times the swap sign is
    the determinant.
    """
    m = [[as_gaussian(x) for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    prev = ONE
    sign = 1
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        pivot = m[r][c]
        for i in range(r + 1, n_rows):
            head = m[i][c]
            for j in range(c + 1, n_cols):
                m[i][j] = (pivot * m[i][j] - head * m[r][j]) / prev
            m[i][c] = ZERO
        prev = pivot
        r += 1
    return r, prev, sign


def matrix_rank(rows) -> int:
    """Rank over Q(i) of a rectangular matrix given as nested sequences."""
    return _bareiss(rows)[0]


def determinant(rows) -> GaussianRational:
    """Exact determinant over Q(i) of a square matrix."""
    rows = list(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    rank, pivot, sign = _bareiss(rows)
    if rank < n:
        return ZERO
    return pivot if sign > 0 else -pivot
