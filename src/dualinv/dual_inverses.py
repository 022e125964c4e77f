"""Drazin- and group-type inverses of dual matrices.

For A^ = M + eps*M0 with aind(M) = k, the dual Drazin inverse (DDI) exists
exactly when the obstruction

    (I - M M^D) K (I - M M^D),   K = dual part of A^^k,

vanishes, which is also equivalent to dind(A^) = aind(A^) and to the two
ranks of A^^k agreeing.  Whether or not that happens, the weak dual Drazin
inverse (WDDI) always exists:

    WDDI(A^) = M^D + eps*S,
    S = (M^D)^2 (sum_{i<t} (M^D)^i M0 M^i) (I - M M^D)
        + (I - M M^D) (sum_{i<t} M^i M0 (M^D)^i) (M^D)^2
        - M^D M0 M^D,

with t = dind(A^) in the definition.  The sums here stop at t = k instead,
so no dual index is computed: since M^i (I - M M^D) = 0 = (I - M M^D) M^i
for i >= k (Campbell & Meyer, ch. 7), every term with i >= k dies against
the projector beside its sum, and t = k gives the same S for any t >= k.
When the DDI exists it is this same matrix.  The group flavour (DGI / WDGI)
is the index-1 case; the WDGI is read off the index-1 block
diagonalization of A^.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import DoesNotExist, IndexTooLarge
from .exceptions import DimensionError, InternalInvariantViolation
from .matrices import DualMatrix, RealMatrix, dual_power
from .indices import _dual_index, rank_profile
from .real_inverses import core_nilpotent, index, moore_penrose
from .block_decomposition import _decompose


@dataclass(frozen=True)
class ExistenceProfile:
    """Three equivalent answers to "does the dual Drazin inverse exist?".

    ddi_exists states that the obstruction matrix vanishes; index_equality
    states dind == aind; rank_equality states that the two ranks of A^^aind
    agree.  The three characterizations are equivalent, so the constructor
    insists they match.  The obstruction matrix is kept as the witness.
    """

    ddi_exists: bool
    index_equality: bool
    rank_equality: bool
    obstruction: RealMatrix

    def __post_init__(self):
        if not (
            self.ddi_exists
            == self.obstruction.is_zero
            == self.index_equality
            == self.rank_equality
        ):
            raise InternalInvariantViolation("existence characterizations disagree")


def _square(a: DualMatrix) -> None:
    if not a.std.is_square:
        raise DimensionError("operation needs a square dual matrix")


def _obstruction(
    a: DualMatrix, k: int, md: RealMatrix
) -> tuple[RealMatrix, DualMatrix]:
    """((I - M M^D) K (I - M M^D), A^^k) with k = aind, md = M^D and K the
    dual part of A^^k."""
    power_k, kd = dual_power(a, k)
    proj = RealMatrix.identity(a.rows) - a.std @ md
    return proj @ kd @ proj, power_k


def ddi_obstruction(a: DualMatrix) -> RealMatrix:
    """(I - M M^D) K (I - M M^D) with K the dual part of A^^aind."""
    _square(a)
    cn = core_nilpotent(a.std)
    return _obstruction(a, cn.k, cn.drazin())[0]


def existence_profile(a: DualMatrix) -> ExistenceProfile:
    _square(a)
    cn = core_nilpotent(a.std)
    obstruction, power_k = _obstruction(a, cn.k, cn.drazin())
    ar, dr = rank_profile(power_k)
    return ExistenceProfile(
        ddi_exists=obstruction.is_zero,
        # dind is the first t >= aind at which the two ranks of A^^t agree
        index_equality=ar == dr,
        rank_equality=ar == dr,
        obstruction=obstruction,
    )


def _weak_drazin_dual_part(
    m: RealMatrix, m0: RealMatrix, md: RealMatrix, terms: int
) -> RealMatrix:
    """Dual part of the WDDI with the sums truncated after ``terms`` >= 1
    terms; md is the Drazin inverse of m.  Both sums run by Horner's rule:
    sum_{i<t} md^i m0 m^i = m0 + md (sum_{i<t-1} md^i m0 m^i) m."""
    left = right = m0
    for _ in range(terms - 1):
        left = m0 + md @ left @ m
        right = m0 + m @ right @ md
    proj = RealMatrix.identity(m.rows) - m @ md
    md2 = md @ md
    return md2 @ left @ proj + proj @ right @ md2 - md @ m0 @ md


def wddi(a: DualMatrix) -> DualMatrix:
    """Weak dual Drazin inverse; always exists for square input."""
    _square(a)
    cn = core_nilpotent(a.std)
    md = cn.drazin()
    return DualMatrix(md, _weak_drazin_dual_part(a.std, a.dual, md, cn.k))


def ddi(a: DualMatrix) -> DualMatrix:
    """Dual Drazin inverse; DoesNotExist carries the obstruction witness."""
    _square(a)
    cn = core_nilpotent(a.std)
    md = cn.drazin()
    obstruction, _ = _obstruction(a, cn.k, md)
    if not obstruction.is_zero:
        raise DoesNotExist("dual Drazin inverse does not exist", obstruction)
    return DualMatrix(md, _weak_drazin_dual_part(a.std, a.dual, md, cn.k))


def wdgi(a: DualMatrix) -> DualMatrix:
    """Weak dual group inverse; needs aind = 1 but always exists then.

    Dual part: (M#)^2 M0 (I - M M#) + (I - M M#) M0 (M#)^2 - M# M0 M#; it is
    computed as P^ diag(C^^(-1), 0) P^^(-1) from the block diagonalization.
    """
    _square(a)
    cn = core_nilpotent(a.std)
    if cn.k != 1:
        raise IndexTooLarge(f"group inverse needs index 1, matrix has index {cn.k}")
    return _decompose(a, cn).weak_group_inverse()


def dgi(a: DualMatrix) -> DualMatrix:
    """Dual group inverse.

    Raises IndexTooLarge when aind > 1 and DoesNotExist (with the witness
    (I - M M+) M0 (I - M+ M)) when the index-1 existence test fails.  When
    it exists it coincides with the WDGI.
    """
    _square(a)
    cn = core_nilpotent(a.std)
    if cn.k != 1:
        raise IndexTooLarge(f"dual group inverse needs aind 1, got {cn.k}")
    mp = moore_penrose(a.std)
    eye = RealMatrix.identity(a.rows)
    witness = (eye - a.std @ mp) @ a.dual @ (eye - mp @ a.std)
    if not witness.is_zero:
        raise DoesNotExist("dual group inverse does not exist", witness)
    return _decompose(a, cn).weak_group_inverse()


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of checking the three defining equations of an inverse kind."""

    kind: str
    exponent: int
    equations: tuple[tuple[str, bool], ...]
    all_hold: bool


VERIFY_KINDS = ("group", "drazin-k", "wddi-t", "wdgi")


def verify(a: DualMatrix, x: DualMatrix, kind: str) -> VerificationReport:
    """Check X^ against the equations defining an inverse of kind ``kind``.

    group:    A X A   = A,    X A X = X,  A X = X A
    drazin-k: A X A^k = A^k   (k = aind), same trailing two
    wddi-t:   A X A^t = A^t   (t = dind), same trailing two
    wdgi:     A X A^2 = A^2,  same trailing two

    All equations are tested exactly; nothing is assumed about where X came
    from.
    """
    _square(a)
    if x.shape != a.shape:
        raise DimensionError("candidate inverse has the wrong shape")
    if kind not in VERIFY_KINDS:
        raise ValueError(f"unknown verification kind {kind!r}")
    if kind == "wddi-t":
        e, a_e = _dual_index(a, index(a.std))
    else:
        e = index(a.std) if kind == "drazin-k" else 1 if kind == "group" else 2
        a_e, _ = dual_power(a, e)
    checks = (
        (f"A X A^{e} = A^{e}", a @ x @ a_e == a_e),
        ("X A X = X", x @ a @ x == x),
        ("A X = X A", a @ x == x @ a),
    )
    return VerificationReport(kind, e, checks, all(ok for _, ok in checks))
