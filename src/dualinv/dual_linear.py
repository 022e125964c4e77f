"""Linear algebra over dual matrices.

A dual system (M + eps*M0) x^ = b^ is equivalent to the doubled real system

    [[M,  0], [M0, M]] [x; x0] = [b; b0]

because the top block states the standard part and the bottom block the dual
part of the equation.  The doubling map is multiplicative, so ranges and
null spaces of dual matrices can be read off their doubled forms.
"""

from __future__ import annotations

from .exceptions import DimensionError, Inconsistent
from .matrices import DualMatrix, RealMatrix, _Value, block2x2, hstack, vstack
from .elimination import column_space_contains, inverse, rank, solve


def doubled(a: DualMatrix) -> RealMatrix:
    """Real 2m x 2n image [[M, 0], [M0, M]] of an m x n dual matrix."""
    return block2x2(
        a.std,
        RealMatrix.zeros(a.rows, a.cols),
        a.dual,
        a.std,
    )


def stack_vector(v: DualMatrix) -> RealMatrix:
    """Column vector [std; dual] in R^(2n) for an n x 1 dual vector."""
    if v.cols != 1:
        raise DimensionError("stacking expects a column vector")
    return vstack(v.std, v.dual)


def unstack_vector(w: RealMatrix) -> DualMatrix:
    if w.cols != 1 or w.rows % 2 != 0:
        raise DimensionError("unstacking expects a 2n x 1 column")
    n = w.rows // 2
    return DualMatrix(w.submatrix(0, n, 0, 1), w.submatrix(n, 2 * n, 0, 1))


def dual_inverse(a: DualMatrix) -> DualMatrix:
    """(M + eps*M0)^(-1) = M^(-1) - eps * M^(-1) M0 M^(-1).

    Exists exactly when the standard part is invertible; NotInvertible
    otherwise.
    """
    if not a.std.is_square:
        raise DimensionError("inverse of a non-square dual matrix")
    m_inv = inverse(a.std)
    return DualMatrix(m_inv, -(m_inv @ a.dual @ m_inv))


class ParametricDualSolutions(_Value):
    """Solution family particular + sum_i generators[i] @ y^_i.

    Each generator is an n x w_i dual matrix whose parameter y^_i ranges over
    all dual w_i x 1 columns.  An empty generator tuple means the solution is
    unique.
    """

    __slots__ = ("particular", "generators")

    def __init__(self, particular: DualMatrix, generators: tuple[DualMatrix, ...]):
        self.particular, self.generators = particular, generators

    def member(self, assignments: tuple[DualMatrix, ...]) -> DualMatrix:
        if len(assignments) != len(self.generators):
            raise DimensionError("one parameter column per generator")
        x = self.particular
        for g, y in zip(self.generators, assignments):
            x = x + g @ y
        return x


class DualAffineSet(_Value):
    """Affine subset of dual n-vectors, stored in stacked real coordinates.

    ``point`` is one element, ``span`` a real 2n x m matrix whose column
    space is the direction space.  Spanning over real coefficients is enough:
    the sets built here always come from dual-parameter families, and those
    are closed under the shift (u; v) -> (0; u), which makes the real span
    of the doubled generator columns equal to the dual span.
    """

    __slots__ = ("point", "span")

    def __init__(self, point: RealMatrix, span: RealMatrix):
        self.point, self.span = point, span

    @classmethod
    def from_solutions(cls, sols: ParametricDualSolutions) -> "DualAffineSet":
        n = sols.particular.rows
        pieces = [RealMatrix.zeros(2 * n, 0)]
        for g in sols.generators:
            pieces.append(vstack(g.std, g.dual))
            pieces.append(vstack(RealMatrix.zeros(g.rows, g.cols), g.std))
        return cls(stack_vector(sols.particular), hstack(*pieces))

    @classmethod
    def range_of(cls, a: DualMatrix) -> "DualAffineSet":
        """Range {A^ y^} as a stacked affine set through the origin."""
        return cls(RealMatrix.zeros(2 * a.rows, 1), doubled(a))

    def contains_vector(self, v: DualMatrix) -> bool:
        return column_space_contains(self.span, stack_vector(v) - self.point)

    def contains_set(self, other: "DualAffineSet") -> bool:
        return (
            column_space_contains(self.span, other.span)
            and column_space_contains(self.span, other.point - self.point)
        )

    def same_set(self, other: "DualAffineSet") -> bool:
        return self.contains_set(other) and other.contains_set(self)

    def intersect(self, other: "DualAffineSet") -> "DualAffineSet | None":
        """Intersection as an affine set, or None when empty."""
        system = hstack(self.span, -other.span)
        outcome = solve(system, other.point - self.point)
        if outcome is None:
            return None
        particular, homogeneous = outcome
        c_self = particular.submatrix(0, self.span.cols, 0, 1)
        h_self = homogeneous.submatrix(0, self.span.cols, 0, homogeneous.cols)
        return DualAffineSet(self.point + self.span @ c_self, self.span @ h_self)


def dual_solve(a: DualMatrix, b: DualMatrix) -> ParametricDualSolutions:
    """Full solution set of A^ x^ = b^ via the doubled system.

    Raises Inconsistent when the doubled system has no solution.  Null-space
    columns (u; v) with u nonzero become standard-direction generators
    u + eps*v; columns (0; v) become eps-direction generators eps*v.  Both
    kinds take dual parameters.
    """
    if a.rows != b.rows or b.cols != 1:
        raise DimensionError(f"system {a.shape} does not accept rhs {b.shape}")
    outcome = solve(doubled(a), stack_vector(b))
    if outcome is None:
        raise Inconsistent("dual system has no solution")
    particular, null_basis = outcome
    n = a.cols
    std_dirs = []
    eps_dirs = []
    for j in range(null_basis.cols):
        u = null_basis.submatrix(0, n, j, j + 1)
        v = null_basis.submatrix(n, 2 * n, j, j + 1)
        if u.is_zero:
            eps_dirs.append(DualMatrix.eps(v))
        else:
            std_dirs.append(DualMatrix(u, v))
    generators = []
    for group in (std_dirs, eps_dirs):
        if group:
            generators.append(
                DualMatrix(
                    hstack(*(g.std for g in group)),
                    hstack(*(g.dual for g in group)),
                )
            )
    return ParametricDualSolutions(unstack_vector(particular), tuple(generators))


def in_range(a: DualMatrix, v: DualMatrix) -> bool:
    """True when v^ lies in the range of A^ (over dual coefficients)."""
    if a.rows != v.rows or v.cols != 1:
        raise DimensionError("range test expects a conforming column vector")
    return column_space_contains(doubled(a), stack_vector(v))
