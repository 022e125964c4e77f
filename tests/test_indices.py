"""Appreciable/dual rank and index invariants."""

import random

import pytest

from dualinv import (
    DimensionError,
    DualMatrix,
    RealMatrix,
    block2x2,
    doubled,
    dual_power,
    index_profile,
    rank,
    rank_profile,
)

import cases
import support


class TestRankProfile:
    def test_real_identity(self):
        for n in (1, 3):
            assert rank_profile(DualMatrix.identity(n)) == (n, n)

    def test_eps_identity(self):
        # oracle: the bordered matrix [[M0, M], [M, 0]] for eps*I is
        # [[I, 0], [0, 0]], whose rank is n, so the dual rank is n - 0
        n = 3
        a = DualMatrix.eps(RealMatrix.identity(n))
        bordered = block2x2(
            a.dual, a.std, a.std, RealMatrix.zeros(n, n)
        )
        assert rank(bordered) == n
        assert rank_profile(a) == (0, n)

    def test_fixture_values(self):
        assert rank_profile(cases.DDI_ABSENT) == (3, 4)
        assert rank_profile(cases.DDI_PRESENT) == (3, 3)

    def test_non_square_accepted(self):
        wide = DualMatrix.of([[1, 0, 0]], [[0, 1, 0]])
        arank, drank = rank_profile(wide)
        assert arank == 1
        assert drank >= arank
        # a zero dual part skips the doubled matrix; its rank still decides
        rng = random.Random(61)
        for rows, cols in ((1, 3), (3, 1), (2, 5), (5, 2), (4, 6), (6, 4), (0, 3), (3, 0)):
            r = rng.randint(0, min(rows, cols))
            for draw in (support.rand_int_matrix, support.rand_matrix):
                a = DualMatrix.from_real(draw(rng, rows, r) @ draw(rng, r, cols))
                direct = rank(doubled(a)) - rank(a.std)
                assert rank_profile(a) == (rank(a.std), direct), a


class TestIndexProfile:
    def test_fixture_values(self):
        p = index_profile(cases.DDI_ABSENT)
        assert (p.aind, p.dind) == (2, 4)
        q = index_profile(cases.DDI_PRESENT)
        assert (q.aind, q.dind) == (2, 2)
        assert index_profile(cases.DGI_ABSENT).dind == 2
        assert index_profile(cases.DGI_PRESENT).dind == 1

    def test_eps_identity_needs_second_power(self):
        # (eps*I)^2 = 0 exactly, so both ranks vanish at t = 2 but differ
        # at t = 1
        a = DualMatrix.eps(RealMatrix.identity(2))
        p = index_profile(a)
        assert (p.aind, p.dind) == (1, 2)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            index_profile(DualMatrix.zeros(2, 3))

    def test_bracket_and_minimality(self):
        rng = random.Random(73)
        for n in support.size_mix(rng, 40, small=(1, 2, 3, 4), large=(5,)):
            a = support.rand_dual(rng, n, bound=4)
            p = index_profile(a)
            assert p.aind <= p.dind <= 2 * p.aind
            # the dual index is the first t where the two ranks agree
            for t in range(p.aind, p.dind):
                ar, dr = rank_profile(dual_power(a, t))
                assert ar != dr
            ar, dr = rank_profile(dual_power(a, p.dind))
            assert ar == dr

    def test_profile_of_zero_matrix(self):
        p = index_profile(DualMatrix.zeros(2, 2))
        assert (p.arank, p.drank, p.aind, p.dind) == (0, 0, 1, 1)


def _special(rng):
    yield DualMatrix.zeros(0, 0)
    for n in (1, 2, 3, 5):
        yield DualMatrix.zeros(n, n)
        yield DualMatrix.eps(support.rand_matrix(rng, n, n))
        yield DualMatrix.eps(support.rand_low_rank(rng, n, rng.randint(0, n - 1)))
        yield support.rand_dual_invertible_std(rng, n)


def _low_rank(rng):
    for n in support.size_mix(rng, 60, small=(1, 2, 3, 4), large=(5, 6)):
        yield DualMatrix(
            support.rand_low_rank(rng, n, rng.randint(0, n)),
            support.rand_low_rank(rng, n, rng.randint(0, n)),
        )


def _nilpotent(rng):
    for n in support.size_mix(rng, 40, small=(1, 2, 3, 4), large=(5, 6)):
        yield DualMatrix(support.rand_nilpotent(rng, n), support.rand_matrix(rng, n, n))


def _high_index(rng):
    for aind in (2, 3, 4):
        for present in (True, False):
            for n in range(aind, aind + 3):
                yield support.rand_high_index(rng, n, aind, present)


class TestIndexProfileRanksAgainstDoubled:
    """index_profile's (arank, drank) against rank_profile, which takes the
    ranks of M and of the whole 2n x 2n doubled matrix directly."""

    @pytest.mark.parametrize(
        "kind, seed",
        [(_special, 401), (_low_rank, 402), (_nilpotent, 403), (_high_index, 404)],
        ids=["special", "low_rank", "nilpotent", "high_index"],
    )
    def test_ranks_match_the_direct_route(self, kind, seed):
        for a in kind(random.Random(seed)):
            p = index_profile(a)
            assert (p.arank, p.drank) == rank_profile(a), (a.std, a.dual)
