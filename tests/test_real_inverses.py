"""Index, core-nilpotent form, Drazin, group, and Moore-Penrose inverses."""

import random
import re
from fractions import Fraction

import pytest

from dualinv import real_inverses
from dualinv.elimination import _inverse_of_bordered
from dualinv import (
    DimensionError,
    IndexTooLarge,
    InternalInvariantViolation,
    NotInvertible,
    RealMatrix,
    core_nilpotent,
    drazin,
    group_inverse,
    index,
    inverse,
    moore_penrose,
    rank,
    rref,
)

import cases
import support


def _penrose_conditions(m, mp):
    return (
        m @ mp @ m == m,
        mp @ m @ mp == mp,
        (m @ mp).T == m @ mp,
        (mp @ m).T == mp @ m,
    )


class TestIndex:
    def test_known_values(self):
        assert index(cases.DDI_ABSENT.std) == cases.DDI_ABSENT_AIND
        assert index(cases.DDI_PRESENT.std) == cases.DDI_PRESENT_AIND
        assert index(RealMatrix.identity(3)) == 1
        assert index(RealMatrix.zeros(2, 2)) == 1
        assert index(RealMatrix.identity(0)) == 1

    def test_full_shift_block(self):
        j3 = RealMatrix.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        assert index(j3) == 3

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            index(RealMatrix.zeros(2, 3))

    def test_rank_sequence_stabilizes_exactly_at_index(self):
        rng = random.Random(21)
        for _ in range(30):
            n = rng.randint(1, 5)
            m = support.rand_square(rng, n, bound=3)
            k = index(m)
            ranks = [rank(m**j) for j in range(1, k + 3)]
            # strictly decreasing before k, constant afterwards
            for j in range(1, k):
                assert ranks[j - 1] > ranks[j]
            assert ranks[k - 1] == ranks[k] == ranks[k + 1]


class TestMoorePenrose:
    def test_projector_is_its_own_pseudoinverse(self):
        d = RealMatrix.from_rows([[1, 0], [0, 0]])
        assert moore_penrose(d) == d

    def test_rank_one_known_value(self):
        m = RealMatrix.from_rows([[1, 2], [2, 4]])
        mp = moore_penrose(m)
        # oracle first: the four defining conditions pin mp uniquely
        assert all(_penrose_conditions(m, mp))
        assert mp == RealMatrix.from_rows(
            [[Fraction(1, 25), Fraction(2, 25)], [Fraction(2, 25), Fraction(4, 25)]]
        )

    def test_identity(self):
        assert moore_penrose(RealMatrix.identity(4)) == RealMatrix.identity(4)

    def test_zero_matrix(self):
        assert moore_penrose(RealMatrix.zeros(2, 3)) == RealMatrix.zeros(3, 2)

    def test_one_inverse_per_call(self, monkeypatch):
        calls = []

        def counted(m):
            calls.append(m.shape)
            return inverse(m)

        monkeypatch.setattr(real_inverses, "inverse", counted)
        m = RealMatrix.from_rows([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
        assert all(_penrose_conditions(m, moore_penrose(m)))
        assert calls == [(2, 2)]

    def test_penrose_conditions_hold_on_random_matrices(self):
        rng = random.Random(23)
        checked = 0
        for _ in range(500):
            rows_n = rng.randint(1, 6)
            cols_n = rng.randint(1, 6)
            if rng.random() < 0.5:
                r = rng.randint(0, min(rows_n, cols_n))
                m = support.rand_int_matrix(rng, rows_n, r) @ support.rand_int_matrix(
                    rng, r, cols_n
                )
            else:
                m = support.rand_matrix(rng, rows_n, cols_n)
            assert all(_penrose_conditions(m, moore_penrose(m)))
            checked += 1
        assert checked == 500


def _index_power_inputs():
    rng = random.Random(47)
    for n in range(6):
        yield support.rand_invertible(rng, n)
        yield RealMatrix.zeros(n, n)
        yield support.rand_nilpotent(rng, n)
        yield support.rand_aind1(rng, n).std
    for aind in range(1, 8):
        for dind in range(aind, 2 * aind + 1):
            for n in (aind, aind + 2):
                yield support.rand_high_index(rng, n, aind, dind=dind).std
    # p/q entries: dense, low rank, and a high index in a rational basis
    for n in (6, 7, 8):
        yield support.rand_matrix(rng, n, n)
        r = rng.randint(1, n - 1)
        yield support.rand_matrix(rng, n, r) @ support.rand_matrix(rng, r, n)
        q = support.rand_matrix(rng, n, n)
        m = support.rand_high_index(rng, n, n - 3, dind=n - 3).std
        yield q @ m @ inverse(q)


def _factors(mk, echelon):
    """(F, (G, pivots)) of M^k = F G, read off M^k and echelon = rref(M^k):
    F = M^k[:, pivots] and G the nonzero rows of the reduced form."""
    reduced, pivots = echelon
    return mk.columns_at(pivots), (reduced.submatrix(0, len(pivots), 0, mk.cols), pivots)


def test_index_power_matches_the_rref_of_every_power():
    # the index and the factors F, G of that power read off the reduced
    # form of every power, against row bases and one back pass; an
    # invertible M also hands on the forward pass of [M | I], whose back
    # pass is M^(-1)
    seen = set()
    for m in _index_power_inputs():
        *result, bordered = real_inverses._index_power(m)
        k, mk, echelon = support.index_power_reference(m)
        assert tuple(result) == (k, *_factors(mk, echelon)), m
        if len(echelon[1]) < m.rows:
            assert bordered is None
        else:
            assert _inverse_of_bordered(*bordered) == support.inverse_reference(m)
        seen.add(result[0])
    assert seen == {1, 2, 3, 4, 5, 6, 7}


class TestCoreNilpotent:
    def test_already_block_diagonal(self):
        d = core_nilpotent(RealMatrix.from_rows([[2, 0], [0, 0]]))
        # the similarity scales the pivot column but keeps the blocks exact
        assert d.p == RealMatrix.from_rows([[2, 0], [0, 1]])
        assert d.c == RealMatrix.from_rows([[2]])
        assert d.n == RealMatrix.from_rows([[0]])
        assert d.r == 1 and d.k == 1

    def test_invertible_input(self):
        rng = random.Random(29)
        m = support.rand_invertible(rng, 3)
        d = core_nilpotent(m)
        assert d.r == 3 and d.n.shape == (0, 0)
        assert d.p == d.p_inv == RealMatrix.identity(3) and d.c == m
        assert d.assemble() == m

    def test_reconstruction_and_block_properties(self):
        rng = random.Random(31)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = support.rand_square(rng, n, bound=3)
            d = core_nilpotent(m)
            assert d.assemble() == m
            assert d.p_inv == inverse(d.p)
            assert d.r == rank(m**d.k)
            assert rank(d.c) == d.r
            assert (d.n**d.k).is_zero

    def test_the_core_inverse_matches_the_reference(self):
        # C^(-1) against the right block of rref([C | I]): at r = n it is
        # M^(-1), read off the index's forward pass, and below n it is the
        # inverse of C = G M[:, pivots], whose power C^(-k) for P^(-1) is
        # longest at the highest index and whose entries are largest on dense
        # rank-deficient p/q inputs
        rng = random.Random(53)
        inputs = []
        for n in range(9):
            m = support.rand_matrix(rng, n, n)
            while rank(m) < n:
                m = support.rand_matrix(rng, n, n)
            inputs.append(m)
            inputs.append(support.rand_aind1(rng, n).std)
        for aind in (1, 2, 3, 4):
            for n in (aind, aind + 2, aind + 4):
                inputs.append(support.rand_high_index(rng, n, aind, dind=aind).std)
        for aind in (5, 6, 7):
            for dind in (aind, 2 * aind):
                inputs.append(support.rand_high_index(rng, aind + 3, aind, dind=dind).std)
        for n in (12, 16):
            inputs.append(support.rand_matrix(rng, n, n - 2) @ support.rand_matrix(rng, n - 2, n))
        kinds = set()
        for m in inputs:
            d = core_nilpotent(m)
            assert d.c_inv == support.inverse_reference(d.c), m
            if d.r == m.rows:
                assert d.c_inv == support.inverse_reference(m)
            kinds.add("r = 0" if d.r == 0 else "r = n" if d.r == m.rows else "0 < r < n")
        assert kinds == {"r = 0", "0 < r < n", "r = n"}

    def test_deterministic(self):
        m = cases.DDI_ABSENT.std
        assert core_nilpotent(m) == core_nilpotent(m)

    CORE_GUARD = re.escape("C^k is not G F")
    BLOCK_DIAGONAL_GUARD = "similarity transform is not block diagonal"
    # (m, M^k, message) at k = 1 for pairs that do not belong together, each
    # failing one guard; the guards are those of the test oracle, which
    # conftest installs as real_inverses._core_nilpotent_at
    GUARD_CASES = {
        "upper-block-nonzero": ([[1, 1], [0, 0]], [[1, 0], [1, 0]], BLOCK_DIAGONAL_GUARD),
        # P = I, so the similar matrix is M: its one nonzero off-diagonal
        # entry, (0, 2), is in row 0 of the upper block
        "upper-block-row-0": (
            [[1, 0, 1], [0, 1, 0], [0, 0, 0]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            BLOCK_DIAGONAL_GUARD,
        ),
        # C = G M[:, pivots] = [0] is singular and G F = [1], so C^k = G F
        # fails before C is inverted
        "lower-block-nonzero": ([[0, 0], [1, 0]], [[1, 0], [0, 0]], CORE_GUARD),
        "singular-core": ([[1, 0], [0, 0]], [[0, 0], [0, 1]], CORE_GUARD),
        # P = I and C = [2], which is invertible, but C^k = [2] is not G F = [1]
        "core-power-mismatch": ([[2, 0], [0, 0]], [[1, 0], [0, 0]], CORE_GUARD),
        # P = I, so the similar matrix is M, whose nilpotent block is not the
        # N = 0 that the form takes at k = 1
        "nilpotent-survives": (
            [[1, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            re.escape("similarity transform's blocks are not C and N"),
        ),
    }
    # the same at k = 2
    GUARD_CASES_K2 = {
        "upper-block-nonzero": ([[1, 1], [0, 0]], [[1, 0], [1, 0]], BLOCK_DIAGONAL_GUARD),
        # C = [2], so C^k = [4] is not G F = [1]
        "core-power-mismatch": ([[2, 0], [0, 0]], [[1, 0], [0, 0]], CORE_GUARD),
        # M^2 != 0, so r = 0, P = I and N = M, whose square is not 0
        "nilpotent-survives": (
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            "nilpotent block survives power k",
        ),
    }
    ALL_GUARD_CASES = [(1, case) for case in sorted(GUARD_CASES)]
    ALL_GUARD_CASES += [(2, case) for case in sorted(GUARD_CASES_K2)]

    def _guard_case(self, k, case):
        rows, power_rows, message = (self.GUARD_CASES if k == 1 else self.GUARD_CASES_K2)[case]
        m, mk = RealMatrix.from_rows(rows), RealMatrix.from_rows(power_rows)
        return m, _factors(mk, rref(mk)), message

    @pytest.mark.parametrize("k, case", ALL_GUARD_CASES)
    def test_each_invariant_guard_fires_on_a_mismatched_power(self, k, case):
        m, factors, message = self._guard_case(k, case)
        with pytest.raises(InternalInvariantViolation, match=f"^{message}$"):
            real_inverses._core_nilpotent_at(m, k, *factors, None)

    @pytest.mark.parametrize("k, case", ALL_GUARD_CASES)
    def test_production_reads_the_blocks_off_the_factors_with_no_guard(self, k, case):
        # the production function runs no guard, so none sees the mismatch:
        # C is G M[:, pivots], N is 0 at k = 1 and the free rows of M Z above
        # it, whatever M is, and only a singular C raises, as NotInvertible
        m, (f, (g, pivots)), _ = self._guard_case(k, case)
        c = g @ m.columns_at(pivots)
        if rank(c) < c.rows:
            with pytest.raises(NotInvertible):
                support.core_nilpotent_production(m, k, f, (g, pivots), None)
            return
        form = support.core_nilpotent_production(m, k, f, (g, pivots), None)
        size, r = m.rows, len(pivots)
        free = [j for j in range(size) if j not in pivots]
        m_z = (m @ form.p.submatrix(0, size, r, size)).entries
        n = RealMatrix.from_rows([m_z[j] for j in free], size - r)
        assert (form.c, form.c_inv) == (c, inverse(c))
        assert form.n == (RealMatrix.zeros(size - r, size - r) if k == 1 else n)

    def test_a_power_below_the_index_leaves_p_singular(self):
        # M^1 = M has index 2: its column space lies in its null space, so
        # P = [F | Z] is singular, and so is C = G M[:, pivots] = [0], which
        # passes the oracle's C^k = G F = [0]
        m = RealMatrix.from_rows([[0, 1], [0, 0]])
        with pytest.raises(NotInvertible, match="^matrix of rank 0 is singular$"):
            real_inverses._core_nilpotent_at(m, 1, *_factors(m, rref(m)), None)


class TestDrazin:
    def test_known_values(self):
        assert drazin(cases.DDI_ABSENT.std) == cases.DDI_ABSENT_DRAZIN
        assert drazin(cases.DDI_PRESENT.std) == cases.DDI_PRESENT_DRAZIN
        assert drazin(RealMatrix.identity(3)) == RealMatrix.identity(3)
        assert drazin(RealMatrix.zeros(2, 2)) == RealMatrix.zeros(2, 2)

    def test_defining_equations(self):
        rng = random.Random(37)
        for _ in range(40):
            n = rng.randint(1, 5)
            m = support.rand_square(rng, n, bound=3)
            md = drazin(m)
            k = index(m)
            assert m @ md == md @ m
            assert md @ m @ md == md
            assert m ** (k + 1) @ md == m**k

    def test_invertible_gives_plain_inverse(self):
        rng = random.Random(41)
        m = support.rand_invertible(rng, 4)
        assert drazin(m) == inverse(m)


class TestGroupInverse:
    def test_projector(self):
        d = RealMatrix.from_rows([[1, 0], [0, 0]])
        assert group_inverse(d) == d

    def test_idempotent_is_self_inverse(self):
        # oracle: for idempotent M the three group equations with X = M
        # read M M M = M, M M M = M, M M = M M; so group(M) must be M
        p = RealMatrix.from_rows([[1, 1], [0, 0]])
        assert p @ p == p
        g = group_inverse(p)
        assert p @ g @ p == p and g @ p @ g == g and p @ g == g @ p
        assert g == p

    def test_index_two_rejected(self):
        j2 = RealMatrix.from_rows([[0, 1], [0, 0]])
        with pytest.raises(IndexTooLarge):
            group_inverse(j2)

    def test_agrees_with_drazin_at_index_one(self):
        rng = random.Random(43)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = support.rand_aind1(rng, n)
            assert group_inverse(a.std) == drazin(a.std)
