"""Rank and index invariants of dual matrices.

The appreciable rank of M + eps*M0 is rank(M).  The dual rank adds the
defect carried by the dual part:

    drank = rank([[M0, M], [M, 0]]) - rank(M)

which is computed as the rank of the doubled form [[M, 0], [M0, M]] minus
rank(M), since swapping block rows turns one matrix into the other.  The
appreciable index is the index of M; the dual index is the smallest power t
at which the two ranks of A^t agree.  That t always lands in [aind, 2*aind].

index_profile reads all four off the dual core-nilpotent form
A^ = P^ diag(C^, N^) P^^(-1) of block_decomposition.  P^ and the r x r block
C^ are dual-invertible and the doubling map is multiplicative, so

    rank(M) = r + rank(N),  rank(doubled(A^)) = 2r + rank(doubled(N^)),

and the two ranks are r plus those of N^, an (n - r) x (n - r) matrix.  aind
is the index of M; dind, like the K22 of the DDI obstruction, is read off
the same N^: the first t >= aind with N^^t = 0.
"""

from __future__ import annotations

from .exceptions import InternalInvariantViolation
from .matrices import DualMatrix, _Value
from .elimination import rank
from .dual_linear import doubled
from .block_decomposition import _analysis


def rank_profile(a: DualMatrix) -> tuple[int, int]:
    """(appreciable rank, dual rank) of a dual matrix of any shape.

    A zero dual part doubles nothing: rank([[M, 0], [0, M]]) = 2 rank(M),
    so the dual rank is the appreciable one.
    """
    arank = rank(a.std)
    if a.dual.is_zero:
        return arank, arank
    drank = rank(doubled(a)) - arank
    if drank < arank:
        raise InternalInvariantViolation("dual rank fell below appreciable rank")
    return arank, drank


class DualIndexProfile(_Value):
    __slots__ = ("arank", "drank", "aind", "dind")

    def __init__(self, *values, **named):
        super().__init__(*values, **named)
        if self.drank < self.arank:
            raise InternalInvariantViolation("dual rank below appreciable rank")
        if not (self.aind <= self.dind <= 2 * self.aind):
            raise InternalInvariantViolation("dual index outside [aind, 2*aind]")


def index_profile(a: DualMatrix) -> DualIndexProfile:
    """All four invariants of a square dual matrix."""
    analysis = _analysis(a)
    r = analysis.cn.r
    arank, drank = rank_profile(analysis.e_nhat[1])
    return DualIndexProfile(r + arank, r + drank, analysis.aind, analysis.bottom[1])
