"""Exact matrices over the rationals and dual matrices built from them.

A dual matrix A + eps*A0, with eps*eps = 0, is a pair of rational matrices
(standard part, dual part) multiplied with the rule

    (A + eps*A0)(B + eps*B0) = AB + eps*(A*B0 + A0*B)

Everything here is immutable and exact; no floating point anywhere.
Entries are stored as Fraction, the type every caller sees.  The matrix
product runs its inner loop on Python ints: each row of the left factor and
each column of the right factor is scaled by the lcm of its denominators,
and one Fraction is built per output entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

from .exceptions import DimensionError

ZERO = Fraction(0)
ONE = Fraction(1)


def _freeze(entries) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


@dataclass(frozen=True)
class RealMatrix:
    """Immutable rational matrix.

    ``entries`` is a tuple of row tuples of Fraction.  Use ``from_rows`` for
    anything hand-written; the raw constructor trusts its input types and
    only validates the shape.
    """

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative matrix dimension")
        if len(self.entries) != self.rows:
            raise DimensionError("row count does not match entry grid")
        if any(len(row) != self.cols for row in self.entries):
            raise DimensionError("ragged entry grid")

    @classmethod
    def from_rows(cls, rows_data, cols: int | None = None) -> "RealMatrix":
        entries = _freeze(rows_data)
        r = len(entries)
        if r == 0:
            if cols is None:
                cols = 0
            return cls(0, cols, ())
        c = len(entries[0])
        if cols is not None and cols != c:
            raise DimensionError("declared column count does not match rows")
        return cls(r, c, entries)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RealMatrix":
        return cls(rows, cols, tuple(tuple(ZERO for _ in range(cols)) for _ in range(rows)))

    @classmethod
    def identity(cls, n: int) -> "RealMatrix":
        return cls(n, n, tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for row in self.entries for x in row)

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        return self.entries[i][j]

    def __add__(self, other: "RealMatrix") -> "RealMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return RealMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __sub__(self, other: "RealMatrix") -> "RealMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot subtract {other.shape} from {self.shape}")
        return RealMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.entries, other.entries)
            ),
        )

    def __neg__(self) -> "RealMatrix":
        return RealMatrix(
            self.rows, self.cols, tuple(tuple(-a for a in row) for row in self.entries)
        )

    def __matmul__(self, other: "RealMatrix") -> "RealMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        # inner dimension 0 leaves other without rows to take columns from
        if self.cols == 0:
            return RealMatrix.zeros(self.rows, other.cols)
        # rows of self and columns of other as (d, ints) with entry = int / d
        left = [_scaled(row) for row in self.entries]
        right = [_scaled(col) for col in zip(*other.entries)]
        out = tuple(
            tuple(
                Fraction(sum(map(mul, row, col)), d_row * d_col)
                for d_col, col in right
            )
            for d_row, row in left
        )
        return RealMatrix(self.rows, other.cols, out)

    def __pow__(self, k: int) -> "RealMatrix":
        if not self.is_square:
            raise DimensionError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power is not defined here")
        if k == 0:
            return RealMatrix.identity(self.rows)
        result = self
        for _ in range(k - 1):
            result = result @ self
        return result

    @property
    def T(self) -> "RealMatrix":
        return RealMatrix(self.cols, self.rows, tuple(zip(*self.entries)) if self.entries else tuple(() for _ in range(self.cols)))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "RealMatrix":
        """Rows r0..r1-1 and columns c0..c1-1."""
        return RealMatrix(
            r1 - r0, c1 - c0, tuple(row[c0:c1] for row in self.entries[r0:r1])
        )

    def columns_at(self, indices) -> "RealMatrix":
        idx = tuple(indices)
        return RealMatrix(
            self.rows, len(idx), tuple(tuple(row[j] for j in idx) for row in self.entries)
        )

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"RealMatrix([{body}])"


def _scaled(vector) -> tuple[int, list[int]]:
    """(d, ints) with ints[i] / d == vector[i], d the lcm of the denominators."""
    ratios = [x.as_integer_ratio() for x in vector]
    d = lcm(*[q for _, q in ratios])
    return d, [p * (d // q) for p, q in ratios]


def hstack(*mats: RealMatrix) -> RealMatrix:
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack row mismatch")
    entries = tuple(
        tuple(x for m in mats for x in m.entries[i]) for i in range(rows)
    )
    return RealMatrix(rows, sum(m.cols for m in mats), entries)


def vstack(*mats: RealMatrix) -> RealMatrix:
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack column mismatch")
    entries = tuple(row for m in mats for row in m.entries)
    return RealMatrix(sum(m.rows for m in mats), cols, entries)


def block2x2(a: RealMatrix, b: RealMatrix, c: RealMatrix, d: RealMatrix) -> RealMatrix:
    """[[a, b], [c, d]] with conforming shapes."""
    return vstack(hstack(a, b), hstack(c, d))


def block_diag(a: RealMatrix, b: RealMatrix) -> RealMatrix:
    return block2x2(
        a, RealMatrix.zeros(a.rows, b.cols), RealMatrix.zeros(b.rows, a.cols), b
    )


@dataclass(frozen=True)
class DualMatrix:
    """Dual matrix std + eps*dual; both parts share one shape."""

    std: RealMatrix
    dual: RealMatrix

    def __post_init__(self):
        if self.std.shape != self.dual.shape:
            raise DimensionError("standard and dual parts differ in shape")

    @classmethod
    def of(cls, std_rows, dual_rows) -> "DualMatrix":
        return cls(RealMatrix.from_rows(std_rows), RealMatrix.from_rows(dual_rows))

    @classmethod
    def from_real(cls, m: RealMatrix) -> "DualMatrix":
        return cls(m, RealMatrix.zeros(m.rows, m.cols))

    @classmethod
    def eps(cls, m: RealMatrix) -> "DualMatrix":
        return cls(RealMatrix.zeros(m.rows, m.cols), m)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DualMatrix":
        z = RealMatrix.zeros(rows, cols)
        return cls(z, z)

    @classmethod
    def identity(cls, n: int) -> "DualMatrix":
        return cls(RealMatrix.identity(n), RealMatrix.zeros(n, n))

    @property
    def shape(self) -> tuple[int, int]:
        return self.std.shape

    @property
    def rows(self) -> int:
        return self.std.rows

    @property
    def cols(self) -> int:
        return self.std.cols

    @property
    def is_zero(self) -> bool:
        return self.std.is_zero and self.dual.is_zero

    def __add__(self, other: "DualMatrix") -> "DualMatrix":
        return DualMatrix(self.std + other.std, self.dual + other.dual)

    def __sub__(self, other: "DualMatrix") -> "DualMatrix":
        return DualMatrix(self.std - other.std, self.dual - other.dual)

    def __neg__(self) -> "DualMatrix":
        return DualMatrix(-self.std, -self.dual)

    def __matmul__(self, other: "DualMatrix") -> "DualMatrix":
        return DualMatrix(
            self.std @ other.std,
            self.std @ other.dual + self.dual @ other.std,
        )

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "DualMatrix":
        return DualMatrix(
            self.std.submatrix(r0, r1, c0, c1), self.dual.submatrix(r0, r1, c0, c1)
        )

    def __repr__(self) -> str:
        return f"DualMatrix(std={self.std!r}, dual={self.dual!r})"


def dual_vstack(*mats: DualMatrix) -> DualMatrix:
    return DualMatrix(vstack(*(m.std for m in mats)), vstack(*(m.dual for m in mats)))


def dual_block_diag(a: DualMatrix, b: DualMatrix) -> DualMatrix:
    return DualMatrix(block_diag(a.std, b.std), block_diag(a.dual, b.dual))


def dual_power(a: DualMatrix, t: int) -> DualMatrix:
    """t-th power of a square dual matrix by repeated product.

    Its dual part equals the closed form sum_{i=1..t} M^(t-i) M0 M^(i-1) of
    (M + eps*M0)^t; the test suite holds that form as the reference.  t must
    be at least 1.
    """
    if not a.std.is_square:
        raise DimensionError("power of a non-square dual matrix")
    if t < 1:
        raise ValueError("dual power needs t >= 1")
    product = a
    for _ in range(t - 1):
        product = product @ a
    return product
