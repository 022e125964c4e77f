"""Gauss-Jordan elimination over the rationals, run on integers.

Pivots are chosen as the first nonzero entry in column order.  Magnitude
pivoting buys nothing in exact arithmetic and would cost determinism, which
the byte-stable command line output relies on.

``rref`` is integer-preserving: each row is scaled to integers by the lcm of
its denominators, a row is eliminated as p*row - f*pivot_row and divided by
the gcd of its entries, and each pivot row is divided by its pivot only at
the end.  Every integer row stays a nonzero multiple of the row that
elimination over Fraction would hold, so the zero pattern, the pivots and
the row swaps are the same, and since the reduced form is unique the result
is the same matrix, entry for entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .exceptions import DimensionError, NotInvertible
from .matrices import RealMatrix, _scaled, hstack

ZERO = Fraction(0)
ONE = Fraction(1)


def rref(m: RealMatrix) -> tuple[RealMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    work = [_scaled(row)[1] for row in m.entries]
    pivots: list[int] = []
    pr = 0
    for pc in range(m.cols):
        if pr == m.rows:
            break
        hit = next((i for i in range(pr, m.rows) if work[i][pc]), None)
        if hit is None:
            continue
        work[pr], work[hit] = work[hit], work[pr]
        row_pr = work[pr]
        p = row_pr[pc]
        for i in range(m.rows):
            f = work[i][pc]
            if i != pr and f:
                row = [p * a - f * b for a, b in zip(work[i], row_pr)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
        pivots.append(pc)
        pr += 1
    zero_row = (ZERO,) * m.cols
    out = tuple(
        tuple(Fraction(x, row[pc]) for x in row) for row, pc in zip(work, pivots)
    ) + (zero_row,) * (m.rows - pr)
    return RealMatrix(m.rows, m.cols, out), tuple(pivots)


def rank(m: RealMatrix) -> int:
    return len(rref(m)[1])


def nullspace(m: RealMatrix) -> RealMatrix:
    """Basis of the right null space, one column per free variable.

    Free variables are set to 1 one at a time (in increasing column order),
    bound variables read off the reduced form.  Returns a cols x nullity
    matrix; nullity 0 gives a cols x 0 matrix.
    """
    reduced, pivots = rref(m)
    return _null_basis(reduced, pivots, m.cols)


def _null_basis(
    reduced: RealMatrix, pivots: tuple[int, ...], cols: int
) -> RealMatrix:
    """Null space basis of a matrix with ``cols`` columns, read off its
    reduced echelon form (the first ``cols`` columns of ``reduced``) and its
    pivot columns."""
    pivot_set = set(pivots)
    free = [j for j in range(cols) if j not in pivot_set]
    columns = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -reduced.entries[i][f]
        columns.append(v)
    entries = tuple(tuple(col[i] for col in columns) for i in range(cols))
    return RealMatrix(cols, len(free), entries)


def solve(a: RealMatrix, b: RealMatrix) -> tuple[RealMatrix, RealMatrix] | None:
    """General solution of a x = b, or None when inconsistent.

    b may have several columns; the particular solution then has the same
    column count.  Returns (particular, nullspace basis of a).
    """
    if a.rows != b.rows:
        raise DimensionError(f"system {a.shape} does not accept rhs {b.shape}")
    reduced, pivots = rref(hstack(a, b))
    if any(pc >= a.cols for pc in pivots):
        return None
    particular_rows = [[ZERO] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        particular_rows[pc] = list(reduced.entries[i][a.cols:])
    particular = RealMatrix(a.cols, b.cols, tuple(tuple(r) for r in particular_rows))
    # every pivot lies left of b, so the left block is the reduced form of a
    return particular, _null_basis(reduced, pivots, a.cols)


def inverse(m: RealMatrix) -> RealMatrix:
    """Inverse of a square matrix; raises NotInvertible when singular."""
    if not m.is_square:
        raise DimensionError("inverse of a non-square matrix")
    n = m.rows
    if n == 0:
        return m
    reduced, pivots = rref(hstack(m, RealMatrix.identity(n)))
    # the left block of the reduced form is the reduced form of m
    m_rank = sum(1 for pc in pivots if pc < n)
    if m_rank < n:
        raise NotInvertible(f"matrix of rank {m_rank} is singular")
    return reduced.submatrix(0, n, n, 2 * n)


def column_space_contains(span: RealMatrix, vectors: RealMatrix) -> bool:
    """True when every column of ``vectors`` lies in the column space of ``span``."""
    if span.rows != vectors.rows:
        raise DimensionError("column space test needs equal row counts")
    # the pivots left of the vectors are those of span's own reduced form, so
    # the ranks agree exactly when no pivot falls among the vectors
    pivots = rref(hstack(span, vectors))[1]
    return all(pc < span.cols for pc in pivots)
