"""Fraction-free elimination over Q(i): exact rank, row basis and determinant.

Bareiss-style two-row updates with first-nonzero pivoting; all divisions are
exact, so no entry ever leaves Q(i).  An update leaves out its products
with a zero entry, which connection matrices have many of.
"""

from __future__ import annotations

from .algebra import GaussianRational, ONE, ZERO, as_gaussian


def _bareiss(rows) -> tuple[int, GaussianRational, int, list[int]]:
    """Eliminate a copy of the matrix: (rank, last pivot, sign of the row
    swaps, pivot rows).

    For a square matrix of full rank the last pivot times the swap sign is
    the determinant.  The pivot rows are given by their original indices,
    in the order they were taken; they are a basis of the row space, since
    each row is updated only by multiples of itself and of earlier pivots.
    """
    m = [[as_gaussian(x) for x in row] for row in rows]
    n_rows = len(m)
    index = list(range(n_rows))  # the original index of each current row
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
            index[r], index[pivot_row] = index[pivot_row], index[r]
            sign = -sign
        top = m[r]
        pivot = top[c]
        for i in range(r + 1, n_rows):
            row = m[i]
            head = row[c]
            # (pivot * x - head * y) / prev, leaving out the zero terms
            for j in range(c + 1, n_cols):
                x, y = row[j], top[j]
                if head and y:
                    row[j] = (pivot * x - head * y) / prev
                elif x:
                    row[j] = pivot * x / prev
            row[c] = ZERO
        prev = pivot
        r += 1
    return r, prev, sign, index[:r]


def matrix_rank(rows) -> int:
    """Rank over Q(i) of a rectangular matrix given as nested sequences."""
    return _bareiss(rows)[0]


def row_basis(rows) -> list[int]:
    """The ascending original indices of rows that form a basis of the row
    space over Q(i)."""
    return sorted(_bareiss(rows)[3])


def determinant(rows) -> GaussianRational:
    """Exact determinant over Q(i) of a square matrix."""
    rows = list(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    rank, pivot, sign, _ = _bareiss(rows)
    if rank < n:
        return ZERO
    return pivot if sign > 0 else -pivot
