"""Drazin- and group-type inverses of dual matrices.

For A^ = M + eps*M0 with aind(M) = k, the dual Drazin inverse (DDI) exists
exactly when the obstruction

    (I - M M^D) K (I - M M^D),   K = dual part of A^^k,

vanishes, which is also equivalent to dind(A^) = aind(A^) and to the two
ranks of A^^k agreeing.  Whether or not that happens, the weak dual Drazin
inverse (WDDI) always exists.  Everything is read off the dual
core-nilpotent form A^ = P^ diag(C^, N^) P^^(-1) of block_decomposition:

    WDDI(A^) = P^ diag(C^^(-1), 0) P^^(-1),
    (I - M M^D) K (I - M M^D) = P diag(0, K22) P^(-1),  K22 = dual part of N^^k,

so wddi, ddi, ddi_obstruction, wdgi and dgi form no projector, Drazin
inverse or power of A^.  When the DDI exists it is the WDDI.  The group
flavour (DGI / WDGI) is the index-1 case of the same form, and the DGI
exists exactly when dind = 1 (E22 = 0).  The form, K22 and dind come from
the analysis block_decomposition keeps of the last dual matrix asked about,
so several calls on the same object build them once.

existence_profile reads all three characterizations off the same form.
P^ keeps both ranks, C^^k is dual-invertible and N^^k = eps*K22, so
arank(A^^k) = r and drank(A^^k) = r + rank(K22): the two ranks agree exactly
when K22 = 0, which is also when the obstruction vanishes and when
dind = k.  One call does form a power of A^: verify forms the power A^^e
that its first equation names.
"""

from __future__ import annotations

from .exceptions import DoesNotExist, IndexTooLarge
from .exceptions import DimensionError, InternalInvariantViolation
from .matrices import VERIFY_KINDS, DualMatrix, RealMatrix, _Value, dual_power
from .real_inverses import _macduffee
from .block_decomposition import _analysis, _check_square


class ExistenceProfile(_Value):
    """Three equivalent answers to "does the dual Drazin inverse exist?".

    ddi_exists states that the obstruction matrix vanishes; index_equality
    states dind == aind; rank_equality states that the two ranks of A^^aind
    agree.  The three characterizations are equivalent, so the constructor
    insists they match.  The obstruction matrix is kept as the witness.
    """

    __slots__ = ("ddi_exists", "index_equality", "rank_equality", "obstruction")

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        vanishes = self.obstruction.is_zero
        if not (self.ddi_exists == vanishes == self.index_equality == self.rank_equality):
            raise InternalInvariantViolation("existence characterizations disagree")


def ddi_obstruction(a: DualMatrix) -> RealMatrix:
    """(I - M M^D) K (I - M M^D) with K the dual part of A^^aind."""
    return _analysis(a).obstruction


def existence_profile(a: DualMatrix) -> ExistenceProfile:
    analysis = _analysis(a)
    obstruction = analysis.obstruction
    k22, dind = analysis.bottom
    return ExistenceProfile(
        ddi_exists=obstruction.is_zero,
        index_equality=dind == analysis.aind,
        rank_equality=k22.is_zero,
        obstruction=obstruction,
    )


def wddi(a: DualMatrix) -> DualMatrix:
    """Weak dual Drazin inverse; always exists for square input."""
    return _analysis(a).wddi


def ddi(a: DualMatrix) -> DualMatrix:
    """Dual Drazin inverse; DoesNotExist carries the obstruction witness.

    Existence is decided by K22 = 0; the obstruction is formed only as the
    witness.
    """
    analysis = _analysis(a)
    if not analysis.bottom[0].is_zero:
        raise DoesNotExist("dual Drazin inverse does not exist", analysis.obstruction)
    return analysis.wddi


def wdgi(a: DualMatrix) -> DualMatrix:
    """Weak dual group inverse; needs aind = 1 but always exists then.

    Dual part: (M#)^2 M0 (I - M M#) + (I - M M#) M0 (M#)^2 - M# M0 M#; it is
    computed as P^ diag(C^^(-1), 0) P^^(-1) from the block diagonalization.
    """
    analysis = _analysis(a)
    if analysis.aind != 1:
        raise IndexTooLarge(
            f"group inverse needs index 1, matrix has index {analysis.aind}"
        )
    return analysis.wddi


def dgi(a: DualMatrix) -> DualMatrix:
    """Dual group inverse.

    Raises IndexTooLarge when aind > 1 and DoesNotExist (with the witness
    (I - M M+) M0 (I - M+ M)) when dind > 1, i.e. E22 != 0 in the block
    form; the witness is formed only then.  When it exists it coincides
    with the WDGI.
    """
    analysis = _analysis(a)
    if analysis.aind != 1:
        raise IndexTooLarge(f"dual group inverse needs aind 1, got {analysis.aind}")
    if analysis.bottom[1] != 1:
        # at aind 1, N = 0, so M = P[:, :r] C P^(-1)[:r, :] off the form
        cn, n = analysis.cn, a.rows
        mp = _macduffee(a.std, cn.p.submatrix(0, n, 0, cn.r), cn.p_inv.submatrix(0, cn.r, 0, n))
        eye = RealMatrix.identity(n)
        witness = (eye - a.std @ mp) @ a.dual @ (eye - mp @ a.std)
        if witness.is_zero:
            raise InternalInvariantViolation("dind > 1 but the DGI witness vanishes")
        raise DoesNotExist("dual group inverse does not exist", witness)
    return analysis.wddi


class VerificationReport(_Value):
    """Outcome of checking the three defining equations of an inverse kind:
    the kind, the exponent of A^ in the first equation, the equations as
    (text, holds) pairs in order, and all_hold, whether every one holds."""

    __slots__ = ("kind", "exponent", "equations", "all_hold")


def verify(a: DualMatrix, x: DualMatrix, kind: str) -> VerificationReport:
    """Check X^ against the equations defining an inverse of kind ``kind``.

    group:    A X A   = A,    X A X = X,  A X = X A
    drazin-k: A X A^k = A^k   (k = aind), same trailing two
    wddi-t:   A X A^t = A^t   (t = dind), same trailing two
    wdgi:     A X A^2 = A^2,  same trailing two

    All equations are tested exactly; nothing is assumed about where X came
    from.  Only the kinds whose exponent is an index take the analysis of
    A, so a group or wdgi check leaves the kept analysis in place.
    """
    _check_square(a)
    if x.shape != a.shape:
        raise DimensionError("candidate inverse has the wrong shape")
    if kind not in VERIFY_KINDS:
        raise ValueError(f"unknown verification kind {kind!r}")
    if kind == "wddi-t":
        e = _analysis(a).bottom[1]
    elif kind == "drazin-k":
        e = _analysis(a).aind
    else:
        e = 1 if kind == "group" else 2
    a_e = dual_power(a, e)
    ax, xa = a @ x, x @ a
    checks = (
        (f"A X A^{e} = A^{e}", ax @ a_e == a_e),
        ("X A X = X", xa @ x == x),
        ("A X = X A", ax == xa),
    )
    return VerificationReport(kind, e, checks, all(ok for _, ok in checks))
