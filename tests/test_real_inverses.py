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
        # M^(-1), read off the index's forward pass, and below n it is
        # C^(k-1) (G F)^(-1), whose chain is longest at the highest index and
        # whose entries are largest on dense rank-deficient p/q inputs
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

    CORE_GUARD = re.escape("C^(k-1) (G F)^(-1) does not invert the core block")
    # (m, M^k) pairs at k = 1 that do not belong together, each failing one
    # guard; at k = 1 the guards run only in checked mode, which the test
    # turns on itself
    GUARD_CASES = {
        "upper-block-nonzero": (
            [[1, 1], [0, 0]],
            [[1, 0], [1, 0]],
            "similarity transform is not block diagonal",
        ),
        # P = I, so the similar matrix is M: its one nonzero off-diagonal
        # entry, (0, 2), is in row 0 of the upper block
        "upper-block-row-0": (
            [[1, 0, 1], [0, 1, 0], [0, 0, 0]],
            [[1, 0, 0], [0, 1, 0], [0, 0, 0]],
            "similarity transform is not block diagonal",
        ),
        "lower-block-nonzero": (
            [[0, 0], [1, 0]],
            [[1, 0], [0, 0]],
            "similarity transform is not block diagonal",
        ),
        "singular-core": ([[1, 0], [0, 0]], [[0, 0], [0, 1]], CORE_GUARD),
        # P = I and C = [2], which is invertible, but C^k = [2] is not G F = [1]
        "core-power-mismatch": ([[2, 0], [0, 0]], [[1, 0], [0, 0]], CORE_GUARD),
        "nilpotent-survives": (
            [[1, 0, 0], [0, 0, 1], [0, 0, 0]],
            [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
            "nilpotent block survives power k",
        ),
    }

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_each_invariant_guard_fires_on_a_mismatched_power(self, case, monkeypatch):
        monkeypatch.setattr(real_inverses, "_checked", True)
        rows, power_rows, message = self.GUARD_CASES[case]
        m, mk = RealMatrix.from_rows(rows), RealMatrix.from_rows(power_rows)
        with pytest.raises(InternalInvariantViolation, match=f"^{message}$"):
            real_inverses._core_nilpotent_at(m, 1, *_factors(mk, rref(mk)), None)

    @pytest.mark.parametrize("case", sorted(GUARD_CASES))
    def test_at_index_1_production_takes_diag_g_f_0_unchecked(self, case, monkeypatch):
        # with checked mode off, k = 1 forms no similarity, so no guard sees
        # the mismatch: C is G F and N is 0, whatever M is
        monkeypatch.setattr(real_inverses, "_checked", False)
        rows, power_rows, _ = self.GUARD_CASES[case]
        m, mk = RealMatrix.from_rows(rows), RealMatrix.from_rows(power_rows)
        f, (g, pivots) = _factors(mk, rref(mk))
        form = real_inverses._core_nilpotent_at(m, 1, f, (g, pivots), None)
        r = len(pivots)
        assert (form.c, form.c_inv) == (g @ f, inverse(g @ f))
        assert form.n == RealMatrix.zeros(m.rows - r, m.rows - r)

    # (m, M^k, message, runs in production) at k = 2
    GUARD_CASES_K2 = {
        "upper-block-nonzero": (
            [[1, 1], [0, 0]],
            [[1, 0], [1, 0]],
            "similarity transform is not block diagonal",
            True,
        ),
        # C = [2], so C^(-1) = C (G F)^(-1) = [2] and C C^(-1) = [4]
        "core-power-mismatch": ([[2, 0], [0, 0]], [[1, 0], [0, 0]], CORE_GUARD, True),
        # M^2 != 0, so r = 0, P = I and N = M, whose square is not 0
        "nilpotent-survives": (
            [[0, 1, 0], [0, 0, 1], [0, 0, 0]],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            "nilpotent block survives power k",
            False,
        ),
    }

    @pytest.mark.parametrize("checked", [False, True])
    @pytest.mark.parametrize("case", sorted(GUARD_CASES_K2))
    def test_above_index_1_only_the_nilpotency_guard_waits_for_checked_mode(
        self, case, checked, monkeypatch
    ):
        monkeypatch.setattr(real_inverses, "_checked", checked)
        rows, power_rows, message, in_production = self.GUARD_CASES_K2[case]
        m, mk = RealMatrix.from_rows(rows), RealMatrix.from_rows(power_rows)
        factors = _factors(mk, rref(mk))
        if checked or in_production:
            with pytest.raises(InternalInvariantViolation, match=f"^{message}$"):
                real_inverses._core_nilpotent_at(m, 2, *factors, None)
        else:
            assert real_inverses._core_nilpotent_at(m, 2, *factors, None).n == m

    def test_a_power_below_the_index_leaves_p_singular(self):
        # M^1 = M has index 2: its column space lies in its null space, so
        # P = [F | Z] is singular, and so is G F = [0]
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
