"""Gaussian elimination over the rationals, run on integers, in two passes.

The forward pass clears below each pivot and leaves an echelon form; it is
all that a rank or a range test reads.  The back pass clears above each
pivot of that echelon form and runs only where a reduced form is read: in
``rref`` (so in ``nullspace`` and ``moore_penrose``), in an inverse, and
once in the index of a singular matrix (see ``real_inverses``).

An inverse is read off the forward pass of [M | I], which seeks pivots in
the columns of M alone, so its pivots are those of M: the index of a square
M runs that same pass for its first rank, and at full rank the back pass of
it gives M^(-1), as ``inverse`` does, with no second elimination of M.

Pivots are chosen as the first nonzero entry in column order.  Magnitude
pivoting buys nothing in exact arithmetic and would cost determinism, which
the byte-stable command line output relies on.

Elimination runs on the int rows of a matrix (see ``matrices``); scaling a
row changes neither its zero pattern nor the reduced form, so the common
denominator plays no part.  A row is eliminated as p*row - f*pivot_row and
divided by the gcd of its entries, and each pivot row is divided by its
pivot only when the reduced form is built.  Every integer row stays a
nonzero multiple of the row that elimination over Fraction would hold, so
the zero pattern, the pivots and the row swaps are the same, and since the
reduced form is unique the result is the same matrix, entry for entry.
"""

from __future__ import annotations

from math import gcd, lcm

from .exceptions import DimensionError, NotInvertible
from .matrices import RealMatrix, _reduced, hstack


def _eliminate(m: RealMatrix) -> tuple[list[list[int]], list[int]]:
    """The forward pass on the ints of m: an echelon form whose first
    len(pivots) rows are the pivot rows (the rest are zero), and the pivot
    columns."""
    return _forward([list(row) for row in m.nums], m.cols)


def _eliminate_bordered(m: RealMatrix) -> tuple[list[list[int]], list[int]]:
    """The forward pass of [M | I] for square M, pivots sought in the
    columns of M only, so they are M's own; the left block of each row is a
    nonzero multiple of that row of the forward pass of M alone.  Over M's
    denominator I is den * I."""
    n, den = m.rows, m.den
    zeros = [0] * (n - 1)
    return _forward(
        [list(row) + zeros[:i] + [den] + zeros[i:] for i, row in enumerate(m.nums)], n
    )


def _forward(work: list[list[int]], search: int) -> tuple[list[list[int]], list[int]]:
    """The forward pass on the int rows ``work``, which it changes in place,
    with pivots sought in the first ``search`` columns."""
    rows = len(work)
    pivots: list[int] = []
    pr = 0
    for pc in range(search):
        if pr == rows:
            break
        for hit in range(pr, rows):
            if work[hit][pc]:
                break
        else:
            continue
        work[pr], work[hit] = work[hit], work[pr]
        p = work[pr][pc]
        # the rows below the pivot are zero left of pc, and each is zero at pc
        # once cleared, so only the tails right of pc are combined
        head, pivot_tail = [0] * (pc + 1), work[pr][pc + 1:]
        for i in range(pr + 1, rows):
            f = work[i][pc]
            if f:
                row = [p * a - f * b for a, b in zip(work[i][pc + 1:], pivot_tail)]
                g = gcd(*row)
                work[i] = head + ([x // g for x in row] if g > 1 else row)
        pivots.append(pc)
        pr += 1
    return work, pivots


def _back_substitute(work: list[list[int]], pivots: list[int], start: int = 0) -> tuple:
    """The back pass on an echelon form from ``_eliminate``, which it
    changes in place: the nonzero rows of the reduced form from column
    ``start`` on, as ints over one denominator, and that denominator."""
    for t, pc in enumerate(pivots):
        row_t = work[t]
        p = row_t[pc]
        for i in range(t):
            f = work[i][pc]
            if f:
                row = [p * a - f * b for a, b in zip(work[i], row_t)]
                g = gcd(*row)
                work[i] = [x // g for x in row] if g > 1 else row
    # each pivot row divided by its pivot, over the lcm of the pivots
    den = lcm(*(row[pc] for row, pc in zip(work, pivots)))
    return [tuple(x * (den // row[pc]) for x in row[start:]) for row, pc in zip(work, pivots)], den


def _reduce(m: RealMatrix, echelon: tuple) -> tuple[RealMatrix, tuple[int, ...]]:
    """rref(m) from the echelon form of m that ``_eliminate`` returned."""
    nums, den = _back_substitute(*echelon)
    if m.rows > len(nums):
        nums += ((0,) * m.cols,) * (m.rows - len(nums))
    return _reduced(m.rows, m.cols, tuple(nums), den), tuple(echelon[1])


def rref(m: RealMatrix) -> tuple[RealMatrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    return _reduce(m, _eliminate(m))


def rank(m: RealMatrix) -> int:
    return len(_eliminate(m)[1])


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
    den = reduced.den
    # over reduced's denominator a free variable's 1 is den, and a bound
    # variable is minus the int of the reduced form
    rows: list = [None] * cols
    for t, f in enumerate(free):
        rows[f] = tuple(den if u == t else 0 for u in range(len(free)))
    for row, pc in zip(reduced.nums, pivots):
        rows[pc] = tuple(-row[f] for f in free)
    return _reduced(cols, len(free), tuple(rows), den)


def inverse(m: RealMatrix) -> RealMatrix:
    """Inverse of a square matrix; raises NotInvertible when singular."""
    if not m.is_square:
        raise DimensionError("inverse of a non-square matrix")
    if m.rows == 0:
        return m
    return _inverse_of_bordered(*_eliminate_bordered(m))


def _inverse_of_bordered(work: list[list[int]], pivots: list[int]) -> RealMatrix:
    """M^(-1) from the forward pass of [M | I] that ``_eliminate_bordered``
    returned, which the back pass changes in place; NotInvertible when M is
    singular."""
    n = len(work)
    if len(pivots) < n:
        raise NotInvertible(f"matrix of rank {len(pivots)} is singular")
    # the reduced form of [M | I] is [I | M^(-1)]
    nums, den = _back_substitute(work, pivots, n)
    return _reduced(n, n, tuple(nums), den)


def column_space_contains(span: RealMatrix, vectors: RealMatrix) -> bool:
    """True when every column of ``vectors`` lies in the column space of ``span``."""
    if span.rows != vectors.rows:
        raise DimensionError("column space test needs equal row counts")
    # the pivots left of the vectors are those of span's own reduced form, so
    # the ranks agree exactly when no pivot falls among the vectors
    pivots = _eliminate(hstack(span, vectors))[1]
    return all(pc < span.cols for pc in pivots)
