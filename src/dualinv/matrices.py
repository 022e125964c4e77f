"""Exact matrices over the rationals and dual matrices built from them.

A dual matrix A + eps*A0, with eps*eps = 0, is a pair of rational matrices
(standard part, dual part) multiplied with the rule

    (A + eps*A0)(B + eps*B0) = AB + eps*(A*B0 + A0*B)

Everything here is immutable and exact; no floating point anywhere.
A rational matrix is stored as rows of Python ints over one positive
denominator, always in lowest terms: entry (i, j) is nums[i][j] / den and
gcd(den, every num) == 1, so the zero matrix has den 1 and two matrices are
equal exactly when their shapes, ints and denominators are.  Every kernel
runs on the ints and reduces its result by one gcd pass over the whole
matrix, not one per entry.  A dual product takes AB by the real product
and sums each entry of A*B0 + A0*B on the four parts' own ints, as
u*sum(A B0) + v*sum(A0 B) over lcm(den(A) den(B0), den(A0) den(B)) with u
and v the two cofactors, then reduces once.  Fraction appears only at the
edges: the constructors accept Fraction grids, and ``entries`` and
``m[i, j]`` give Fraction values.  ``fractions`` is imported only inside
``from_rows``, ``entries`` and ``__getitem__``, so a process that only reads,
computes and prints documents never loads it (nor the ``decimal`` and
``numbers`` it brings).
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .exceptions import DimensionError


class RealMatrix:
    """Immutable rational matrix whose entry (i, j) is ``nums[i][j] / den``.

    ``nums`` is a tuple of row tuples of int and ``den`` a positive int, in
    lowest terms together.  The raw constructor takes a grid of Fraction or
    int rows and validates only the shape; ``from_rows`` takes anything
    Fraction accepts.  ``entries`` is the same grid as Fraction rows, built
    on first use and kept.  No attribute may be assigned after construction.
    """

    __slots__ = ("rows", "cols", "nums", "den", "_entries")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimension")
        if len(entries) != rows:
            raise DimensionError("row count does not match entry grid")
        if any(len(row) != cols for row in entries):
            raise DimensionError("ragged entry grid")
        self.rows, self.cols = rows, cols
        self.den, self.nums = _over_common_denominator(
            [[x.as_integer_ratio() for x in row] for row in entries]
        )

    @classmethod
    def from_rows(cls, rows_data, cols: int | None = None) -> "RealMatrix":
        from fractions import Fraction

        entries = tuple(
            tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row)
            for row in rows_data
        )
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
        if rows < 0 or cols < 0:
            raise DimensionError("negative matrix dimension")
        return _make(rows, cols, ((0,) * cols,) * rows if rows else (), 1)

    @classmethod
    def identity(cls, n: int) -> "RealMatrix":
        zeros = (0,) * (n - 1)
        return _make(n, n, tuple(zeros[:i] + (1,) + zeros[i:] for i in range(n)), 1)

    @property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as rows of Fraction, built on first use and kept."""
        try:
            return self._entries
        except AttributeError:
            from fractions import Fraction

            den = self.den
            self._entries = grid = tuple(
                tuple(Fraction(x, den) for x in row) for row in self.nums
            )
            return grid

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(map(any, self.nums))

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        from fractions import Fraction

        i, j = key
        return Fraction(self.nums[i][j], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RealMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.den, self.nums) == (
            other.rows, other.cols, other.den, other.nums
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.nums))

    def __add__(self, other: "RealMatrix") -> "RealMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return _combine(self, other, add)

    def __sub__(self, other: "RealMatrix") -> "RealMatrix":
        if self.shape != other.shape:
            raise DimensionError(f"cannot subtract {other.shape} from {self.shape}")
        return _combine(self, other, sub)

    def __neg__(self) -> "RealMatrix":
        return _make(
            self.rows, self.cols, tuple([tuple([-x for x in row]) for row in self.nums]), self.den
        )

    def __matmul__(self, other: "RealMatrix") -> "RealMatrix":
        if self.cols != other.rows:
            raise DimensionError(f"cannot multiply {self.shape} by {other.shape}")
        # inner dimension 0 leaves other without rows to take columns from
        if self.cols == 0:
            return RealMatrix.zeros(self.rows, other.cols)
        columns = list(zip(*other.nums))
        nums = tuple([tuple([sum(map(mul, row, col)) for col in columns]) for row in self.nums])
        return _reduced(self.rows, other.cols, nums, self.den * other.den)

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
        nums = tuple(zip(*self.nums)) if self.rows else ((),) * self.cols
        return _make(self.cols, self.rows, nums, self.den)

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "RealMatrix":
        """Rows r0..r1-1 and columns c0..c1-1; the matrix itself for the
        whole range, which is safe as no matrix is ever changed."""
        if r0 == c0 == 0 and r1 == self.rows and c1 == self.cols:
            return self
        return _reduced(
            r1 - r0, c1 - c0, tuple([row[c0:c1] for row in self.nums[r0:r1]]), self.den
        )

    def columns_at(self, indices) -> "RealMatrix":
        idx = tuple(indices)
        return _reduced(
            self.rows, len(idx), tuple(tuple(row[j] for j in idx) for row in self.nums), self.den
        )

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in self.entries)
        return f"RealMatrix([{body}])"


def _over_common_denominator(ratios) -> tuple[int, tuple]:
    """(den, nums) of a grid given as rows of (p, q) pairs, each in lowest
    terms with q > 0.  Over the lcm of the qs the whole grid is in lowest
    terms too: each prime power dividing den fully divides some q, and its
    p is prime to it."""
    dens = {q for row in ratios for _, q in row}
    den = lcm(*dens)
    scale = {q: den // q for q in dens}
    return den, tuple([tuple([p * scale[q] for p, q in row]) for row in ratios])


def _make(rows: int, cols: int, nums, den: int) -> RealMatrix:
    """A matrix from int rows and a denominator already in lowest terms."""
    m = object.__new__(RealMatrix)
    m.rows, m.cols, m.nums, m.den = rows, cols, nums, den
    return m


def _reduced(rows: int, cols: int, nums, den: int) -> RealMatrix:
    """The matrix nums / den (den > 0) brought to lowest terms by one gcd
    over the whole grid; a zero grid ends with den 1."""
    g = den
    for row in nums:
        if g == 1:
            break
        g = gcd(g, *row)
    if g != 1:
        nums = tuple([tuple([x // g for x in row]) for row in nums])
        den //= g
    return _make(rows, cols, nums, den)


def _combine(a: RealMatrix, b: RealMatrix, op) -> RealMatrix:
    """Entry-wise a op b over the lcm of the two denominators."""
    den, (na, nb) = _over((a, b))
    nums = tuple([tuple(map(op, ra, rb)) for ra, rb in zip(na, nb)])
    return _reduced(a.rows, a.cols, nums, den)


def _over(mats) -> tuple[int, list]:
    """(den, grids): den is the lcm of the matrices' denominators and each
    grid a matrix's int rows rescaled to it.  Stacked together the grids
    are in lowest terms with no gcd pass: each prime power dividing den
    fully divides some matrix's denominator, and that matrix has an int the
    prime does not divide."""
    den = lcm(*(m.den for m in mats))
    grids = []
    for m in mats:
        f = den // m.den
        grids.append(m.nums if f == 1 else tuple([tuple([x * f for x in row]) for row in m.nums]))
    return den, grids


def hstack(*mats: RealMatrix) -> RealMatrix:
    if not mats:
        raise DimensionError("hstack of nothing")
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack row mismatch")
    den, grids = _over(mats)
    nums = tuple([sum(parts, ()) for parts in zip(*grids)])
    return _make(rows, sum(m.cols for m in mats), nums, den)


def vstack(*mats: RealMatrix) -> RealMatrix:
    if not mats:
        raise DimensionError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack column mismatch")
    den, grids = _over(mats)
    nums = tuple(chain.from_iterable(grids))
    return _make(sum(m.rows for m in mats), cols, nums, den)


def block2x2(a: RealMatrix, b: RealMatrix, c: RealMatrix, d: RealMatrix) -> RealMatrix:
    """[[a, b], [c, d]] with conforming shapes."""
    return vstack(hstack(a, b), hstack(c, d))


def block_diag(a: RealMatrix, b: RealMatrix) -> RealMatrix:
    return block2x2(
        a, RealMatrix.zeros(a.rows, b.cols), RealMatrix.zeros(b.rows, a.cols), b
    )


class _Value:
    """Base of the package's value classes.

    ``==``, ``hash`` and ``repr`` are structural over the fields a subclass
    names in ``__slots__``, in order, and the repr reads
    Name(field=value, ...).  As with RealMatrix, immutability is by
    contract: nothing assigns a field after the constructor.
    """

    __slots__ = ("__weakref__",)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"


class DualMatrix(_Value):
    """Dual matrix std + eps*dual; both parts share one shape."""

    __slots__ = ("std", "dual")

    def __init__(self, std: RealMatrix, dual: RealMatrix):
        if std.rows != dual.rows or std.cols != dual.cols:
            raise DimensionError("standard and dual parts differ in shape")
        self.std = std
        self.dual = dual

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
        a, a0, b, b0 = self.std, self.dual, other.std, other.dual
        std = a @ b
        if a.cols == 0:
            return DualMatrix(std, std)
        # the dual part A B0 + A0 B; see the module docstring
        den = lcm(a.den * b0.den, a0.den * b.den)
        u, v = den // (a.den * b0.den), den // (a0.den * b.den)
        columns = list(zip(zip(*b0.nums), zip(*b.nums)))
        nums = tuple([
            tuple([u * sum(map(mul, r, c0)) + v * sum(map(mul, r0, c)) for c0, c in columns])
            for r, r0 in zip(a.nums, a0.nums)
        ])
        return DualMatrix(std, _reduced(a.rows, b.cols, nums, den))

    def submatrix(self, r0: int, r1: int, c0: int, c1: int) -> "DualMatrix":
        return DualMatrix(
            self.std.submatrix(r0, r1, c0, c1), self.dual.submatrix(r0, r1, c0, c1)
        )


def dual_vstack(*mats: DualMatrix) -> DualMatrix:
    return DualMatrix(vstack(*(m.std for m in mats)), vstack(*(m.dual for m in mats)))


def dual_block_diag(a: DualMatrix, b: DualMatrix) -> DualMatrix:
    return DualMatrix(block_diag(a.std, b.std), block_diag(a.dual, b.dual))


# the equation sets that dual_inverses.verify checks, named here so that the
# command line can offer them without loading the dual layers
VERIFY_KINDS = ("group", "drazin-k", "wddi-t", "wdgi")


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
