"""The doubled real form of a dual matrix, the dual inverse, and the
solution families the solvers return.

The doubled form D(A^) = [[M, 0], [M0, M]] is an injective algebra
homomorphism: D(A^ B^) = D(A^) D(B^).  So the dual system A^ x^ = b^ is the
real system D(A^) [x; x0] = [b; b0], whose top block states the standard
part and whose bottom block the dual part of the equation, and the dual
rank is read off the rank of D(A^) (see ``indices``).
"""

from __future__ import annotations

from .exceptions import DimensionError
from .matrices import DualMatrix, RealMatrix, _Value, block2x2
from .elimination import inverse


def doubled(a: DualMatrix) -> RealMatrix:
    """Real 2m x 2n image [[M, 0], [M0, M]] of an m x n dual matrix."""
    return block2x2(
        a.std,
        RealMatrix.zeros(a.rows, a.cols),
        a.dual,
        a.std,
    )


def dual_inverse(a: DualMatrix) -> DualMatrix:
    """(M + eps*M0)^(-1) = M^(-1) - eps * M^(-1) M0 M^(-1).

    Exists exactly when the standard part is invertible; NotInvertible
    otherwise.
    """
    if not a.std.is_square:
        raise DimensionError("inverse of a non-square dual matrix")
    return _dual_inverse_from(inverse(a.std), a.dual)


def _dual_inverse_from(m_inv: RealMatrix, m0: RealMatrix) -> DualMatrix:
    """(M + eps*M0)^(-1) from M^(-1): M^(-1) - eps * M^(-1) M0 M^(-1)."""
    return DualMatrix(m_inv, -(m_inv @ m0 @ m_inv))


class ParametricDualSolutions(_Value):
    """Solution family particular + sum_i generators[i] @ y^_i.

    Each generator is an n x w_i dual matrix whose parameter y^_i ranges over
    all dual w_i x 1 columns.  An empty generator tuple means the solution is
    unique.
    """

    __slots__ = ("particular", "generators")

    def member(self, assignments: tuple[DualMatrix, ...]) -> DualMatrix:
        if len(assignments) != len(self.generators):
            raise DimensionError("one parameter column per generator")
        x = self.particular
        for g, y in zip(self.generators, assignments):
            x = x + g @ y
        return x
