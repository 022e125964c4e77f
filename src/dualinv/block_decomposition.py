"""Block diagonalization of dual matrices with appreciable index 1.

Starting from the real core-nilpotent form M = P diag(C, 0) P^(-1) (index 1
makes the nilpotent block vanish), write P^(-1) M0 P = [[M1, M2], [M3, M4]].
The dual similarity P^ = P (I + eps*T) with

    T = [[0, -C^(-1) M2], [M3 C^(-1), 0]]

absorbs the off-diagonal blocks, leaving

    A^ = P^ diag(C + eps*M1, eps*M4) P^(-1)

with C + eps*M1 dual-invertible and eps*M4 nilpotent.  The weak dual group
inverse then reads off as P^ diag((C + eps*M1)^(-1), 0) P^(-1).
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import (
    DimensionError,
    IndexTooLarge,
    NotInvertible,
    PreconditionViolated,
)
from .matrices import DualMatrix, RealMatrix, block2x2, dual_block_diag
from .real_inverses import CoreNilpotentDecomposition, core_nilpotent
from .dual_linear import dual_inverse


@dataclass(frozen=True)
class DualBlockDecompositionInd1:
    """A^ = phat @ dual_block_diag(chat, eps*nblock) @ phat_inv.

    chat is r x r with invertible standard part; nblock is the real
    coefficient of the eps-only bottom block.  phat_inv and chat_inv are the
    dual inverses of phat and chat.
    """

    phat: DualMatrix
    chat: DualMatrix
    nblock: RealMatrix
    r: int
    phat_inv: DualMatrix
    chat_inv: DualMatrix

    def _conjugate(self, top: DualMatrix, bottom: DualMatrix) -> DualMatrix:
        return self.phat @ dual_block_diag(top, bottom) @ self.phat_inv

    def assemble(self) -> DualMatrix:
        return self._conjugate(self.chat, DualMatrix.eps(self.nblock))

    def weak_group_inverse(self) -> DualMatrix:
        """The weak dual group inverse P^ diag(C^^(-1), 0) P^^(-1) of A^."""
        return self._conjugate(self.chat_inv, DualMatrix.zeros(*self.nblock.shape))

    def sharp(self) -> DualMatrix:
        """P^ diag(C^, 0) P^^(-1), the group inverse of the WDGI."""
        return self._conjugate(self.chat, DualMatrix.zeros(*self.nblock.shape))


def _decompose(
    a: DualMatrix, cn: CoreNilpotentDecomposition
) -> DualBlockDecompositionInd1:
    """Block form of A^ from the core-nilpotent form of its standard part,
    which must have index 1."""
    n, r = a.rows, cn.r
    e = cn.p_inv @ a.dual @ cn.p
    m1 = e.submatrix(0, r, 0, r)
    m2 = e.submatrix(0, r, r, n)
    m3 = e.submatrix(r, n, 0, r)
    m4 = e.submatrix(r, n, r, n)
    chat = DualMatrix(cn.c, m1)
    chat_inv = dual_inverse(chat)
    c_inv = chat_inv.std
    t = block2x2(
        RealMatrix.zeros(r, r),
        -(c_inv @ m2),
        m3 @ c_inv,
        RealMatrix.zeros(n - r, n - r),
    )
    return DualBlockDecompositionInd1(
        phat=DualMatrix(cn.p, cn.p @ t),
        chat=chat,
        nblock=m4,
        r=r,
        # (P (I + eps*T))^(-1) = (I - eps*T) P^(-1)
        phat_inv=DualMatrix(cn.p_inv, -(t @ cn.p_inv)),
        chat_inv=chat_inv,
    )


def block_diagonalize_ind1(a: DualMatrix) -> DualBlockDecompositionInd1:
    """Decompose a square dual matrix with aind = 1; IndexTooLarge otherwise."""
    if not a.std.is_square:
        raise DimensionError("decomposition of a non-square dual matrix")
    cn = core_nilpotent(a.std)
    if cn.k != 1:
        raise IndexTooLarge(f"block diagonalization needs aind 1, got {cn.k}")
    return _decompose(a, cn)


def sharp_of_weak_group(
    a: DualMatrix, with_generator: bool = False
) -> DualMatrix | tuple[DualMatrix, DualMatrix]:
    """Group inverse of the WDGI of A^, i.e. P^ diag(C^, 0) P^^(-1).

    With ``with_generator`` also returns A^ minus that matrix, which equals
    P^ diag(0, eps*nblock) P^^(-1) and generates the homogeneous solutions of
    the restricted equation.
    """
    sharp = block_diagonalize_ind1(a).sharp()
    if not with_generator:
        return sharp
    return sharp, a - sharp


def is_dual_nilpotent(a: DualMatrix) -> bool:
    """True when some power of A^ is exactly zero.

    A dual matrix is nilpotent precisely when its standard part is, and then
    A^^(2d) = 0 for d = dimension: the standard part of the 2d-th power is
    M^(2d) = 0, and each dual-part term M^(2d-i) M0 M^(i-1) carries at least
    d factors of the nilpotent M on one side (i <= d or i-1 >= d).  The
    power 2d is genuinely needed: eps*[[1]] squares to zero but is not zero
    at power 1 = dimension.
    """
    if not a.std.is_square:
        raise DimensionError("nilpotency of a non-square dual matrix")
    d = a.rows
    if d == 0:
        return True
    return (a.std**d).is_zero


def wddi_from_given_decomposition(
    phat: DualMatrix, chat: DualMatrix, nhat: DualMatrix
) -> DualMatrix:
    """Weak dual Drazin inverse of A^ = phat diag(chat, nhat) phat^(-1).

    This consumes an externally supplied block form (any appreciable index)
    and returns phat diag(chat^(-1), 0) phat^(-1), which equals the WDDI of
    the assembled matrix.  Preconditions: phat and chat have invertible
    standard parts (NotInvertible otherwise) and nhat is dual-nilpotent
    (PreconditionViolated otherwise).
    """
    for part, label in ((phat, "phat"), (chat, "chat"), (nhat, "nhat")):
        if not part.std.is_square:
            raise DimensionError(f"{label} must be square")
    if chat.rows + nhat.rows != phat.rows:
        raise DimensionError("block sizes do not fill the similarity matrix")
    try:
        phat_inv = dual_inverse(phat)
        chat_inv = dual_inverse(chat)
    except NotInvertible as exc:
        raise NotInvertible(f"decomposition blocks must be invertible: {exc}") from exc
    if not is_dual_nilpotent(nhat):
        raise PreconditionViolated("bottom block is not dual-nilpotent")
    zero = DualMatrix.zeros(nhat.rows, nhat.rows)
    return phat @ dual_block_diag(chat_inv, zero) @ phat_inv
