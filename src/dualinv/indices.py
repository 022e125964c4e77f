"""Rank and index invariants of dual matrices.

The appreciable rank of M + eps*M0 is rank(M).  The dual rank adds the
defect carried by the dual part:

    drank = rank([[M0, M], [M, 0]]) - rank(M)

which is computed as the rank of the doubled form [[M, 0], [M0, M]] minus
rank(M), since swapping block rows turns one matrix into the other.  The
appreciable index is the index of M; the dual index is the smallest power t
at which the two ranks of A^t agree.  That t always lands in [aind, 2*aind].

index_profile reads all four off the shared analysis of block_decomposition:
rank(M) is taken once for arank and the index, the index and the
core-nilpotent form of M come from one rank sequence, and dind is the first
t >= aind with N^^t = 0 in the dual core-nilpotent form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import DimensionError, InternalInvariantViolation
from .matrices import DualMatrix
from .elimination import rank
from .block_decomposition import _analysis, _rank_profile


def rank_profile(a: DualMatrix) -> tuple[int, int]:
    """(appreciable rank, dual rank) of a dual matrix of any shape."""
    return _rank_profile(a, rank(a.std))


@dataclass(frozen=True)
class DualIndexProfile:
    arank: int
    drank: int
    aind: int
    dind: int

    def __post_init__(self):
        if self.drank < self.arank:
            raise InternalInvariantViolation("dual rank below appreciable rank")
        if not (self.aind <= self.dind <= 2 * self.aind):
            raise InternalInvariantViolation("dual index outside [aind, 2*aind]")


def index_profile(a: DualMatrix) -> DualIndexProfile:
    """All four invariants of a square dual matrix."""
    if not a.std.is_square:
        raise DimensionError("index of a non-square dual matrix")
    analysis = _analysis(a)
    return DualIndexProfile(*analysis.rank_profile, analysis.aind, analysis.bottom[1])
