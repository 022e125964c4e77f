"""Solvers for A^ x^ = b^ when the standard part has index 1.

Write W for the weak dual group inverse of A^ and A_sharp for the group
inverse of W (so A_sharp = phat diag(chat, 0) phat^(-1)).  The unrestricted
equation is consistent exactly when

    (a) the standard part of (I - W A^) b^ vanishes, and
    (b) (I - W A^) b^ lies in the range of A^ - A_sharp.

The restricted equation (solutions constrained to the range of A^) needs the
stronger condition (I - W A^) b^ = 0.  Conditions are tested in that order
and reported through distinct errors.

None of W, the residual or that range is formed.  With P^^(-1) b^ split
into (b1; b2) after the first r rows, I - W A^ = P^ diag(0, I) P^^(-1) and
A^ - A_sharp = P^ diag(0, eps*N) P^^(-1), the restricted generator, which
real_inverses._conjugate forms from the bottom blocks alone.  So the
residual is P^ (0; b2): (a) reads b2.std = 0, (b) then reads "b2.dual lies
in the range of N", the restricted condition reads b2 = 0, and W b^ =
P^ (C^^(-1) b1; 0).  The bottom block of the unrestricted particular
solution is the appreciable N+ b2.dual: N+ b2 itself would be an
eps-multiple, and eps*N kills those.  As N N+ projects onto the range of N,
(b) is read off that same block as N (N+ b2.dual) = b2.dual.
"""

from __future__ import annotations

from .exceptions import (
    DimensionError,
    Inconsistent,
    InconsistentDualPart,
    InconsistentStandardPart,
)
from .matrices import DualMatrix, RealMatrix, dual_vstack
from .real_inverses import _conjugate, moore_penrose
from .dual_linear import ParametricDualSolutions
from .block_decomposition import block_diagonalize_ind1


def _check_column(a: DualMatrix, b: DualMatrix) -> None:
    if not a.std.is_square:
        raise DimensionError("coefficient matrix must be square")
    if b.cols != 1 or b.rows != a.rows:
        raise DimensionError(f"rhs {b.shape} does not fit system {a.shape}")


def _split(a: DualMatrix, b: DualMatrix):
    """The block diagonalization d of A^ and (b1; b2) = P^^(-1) b^, split
    after the first d.r rows."""
    _check_column(a, b)
    d = block_diagonalize_ind1(a)
    pb = d._to_blocks(b)
    return d, pb.submatrix(0, d.r, 0, 1), pb.submatrix(d.r, a.rows, 0, 1)


def solve_general(a: DualMatrix, b: DualMatrix) -> ParametricDualSolutions:
    """All solutions of A^ x^ = b^ for aind(A^) = 1.

    Returns a particular solution plus two generators: the projector
    generator ((I - N+ N) on the bottom block) and the eps generator (eps
    times the identity on the bottom block), both taking dual parameters.
    Raises InconsistentStandardPart when (a) fails, InconsistentDualPart
    when (b) fails, IndexTooLarge when aind > 1.
    """
    d, b1, b2 = _split(a, b)
    n, r = a.rows, d.r
    if not b2.std.is_zero:
        raise InconsistentStandardPart("standard part of the residual is nonzero")
    if n == r:  # P^ = I and the bottom block is empty: the solution is unique
        return ParametricDualSolutions(d.chat_inv @ b1, ())
    n_pinv = moore_penrose(d.nblock)
    bottom = n_pinv @ b2.dual
    if d.nblock @ bottom != b2.dual:
        raise InconsistentDualPart("residual lies outside the reachable dual range")
    particular = d._from_blocks(dual_vstack(d.chat_inv @ b1, DualMatrix.from_real(bottom)))
    # P^ (0; X^) = P^[:, r:] X^, and P^ (0; eps*I) = eps*P[:, r:]
    p_right = d.phat.submatrix(0, n, r, n)
    projector = DualMatrix.from_real(RealMatrix.identity(n - r) - n_pinv @ d.nblock)
    generators = (p_right @ projector, DualMatrix.eps(p_right.std))
    return ParametricDualSolutions(particular, generators)


def solve_restricted(a: DualMatrix, b: DualMatrix) -> ParametricDualSolutions:
    """Solutions of A^ x^ = b^ lying in the range of A^, for aind(A^) = 1.

    Consistent exactly when (I - W A^) b^ = 0; then the set is
    W b^ + (A^ - A_sharp) y^ over dual columns y^.  Raises Inconsistent or
    IndexTooLarge.
    """
    d, b1, b2 = _split(a, b)
    if not b2.is_zero:
        raise Inconsistent("restricted system rejects this right-hand side")
    # W b^ = P^ (C^^(-1) b1; 0), and b2 is that zero block
    particular = d._from_blocks(dual_vstack(d.chat_inv @ b1, b2))
    generator = _conjugate(d.phat, d.phat_inv, d.r, bottom=d.nhat)
    return ParametricDualSolutions(particular, (generator,))
