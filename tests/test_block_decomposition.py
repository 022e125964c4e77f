"""Index-1 block diagonalization and decomposition-based weak inverses."""

import random

import pytest

from dualinv import (
    DimensionError,
    DualMatrix,
    IndexTooLarge,
    NotInvertible,
    RealMatrix,
    block2x2,
    block_diagonalize_ind1,
    core_nilpotent,
    dual_inverse,
    wddi,
    wdgi,
)
from dualinv.block_decomposition import _decompose, _e_nhat
from support import (
    PreconditionViolated,
    dual_block_diag,
    is_dual_nilpotent,
    wddi_from_given_decomposition,
)

import cases
import support


def _t_blocks(d, cn):
    """The blocks T12 = T[:r, r:] and T21 = T[r:, :r] of T, read off the form
    as P^(-1) times the dual part of P^ = P (I + eps*T)."""
    t = cn.p_inv @ d.phat.dual
    n, r = t.rows, d.r
    return t.submatrix(0, r, r, n), t.submatrix(r, n, 0, r)


class TestBlockDiagonalize:
    def test_fixture_decomposition(self):
        d = block_diagonalize_ind1(cases.DGI_ABSENT)
        assert d.r == 1
        assert d.phat == DualMatrix.of([[1, 0], [0, 1]], [[0, 0], [1, 0]])
        assert d.chat == DualMatrix.of([[1]], [[0]])
        assert d.nblock == RealMatrix.from_rows([[1]])
        assert d.assemble() == cases.DGI_ABSENT

    def test_real_identity(self):
        d = block_diagonalize_ind1(DualMatrix.identity(3))
        assert d.r == 3
        assert d.phat == DualMatrix.identity(3)
        assert d.chat == DualMatrix.identity(3)
        assert d.nblock.shape == (0, 0)

    def test_invertible_standard_part_takes_the_identity_basis(self):
        # the range of an invertible M is everything, so P^ = I and C^ = A^
        for a in (
            DualMatrix.of([[2]], [[1]]),
            DualMatrix.of([[1, 2], [3, 4]], [[0, 1], [5, -2]]),
        ):
            d = block_diagonalize_ind1(a)
            n = a.rows
            assert d.r == n
            assert d.phat == d.phat_inv == DualMatrix.identity(n)
            assert d.chat == a and d.chat_inv == dual_inverse(a)
            assert d.nhat.shape == (0, 0)
            cn = core_nilpotent(a.std)
            t12, t21 = _t_blocks(d, cn)
            assert t12.shape == (n, 0) and t21.shape == (0, n)
            assert d == _decompose(a, cn, _e_nhat(a, cn))

    def test_pure_eps_matrix(self):
        m0 = RealMatrix.from_rows([[1, 2], [3, 4]])
        d = block_diagonalize_ind1(DualMatrix.eps(m0))
        assert d.r == 0
        assert d.phat == DualMatrix.identity(2)
        assert d.chat.shape == (0, 0)
        assert d.nblock == m0

    def test_high_index_rejected(self):
        with pytest.raises(IndexTooLarge):
            block_diagonalize_ind1(cases.DDI_ABSENT)

    def test_reconstruction_on_random_input(self):
        rng = random.Random(109)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = support.rand_aind1(rng, n)
            d = block_diagonalize_ind1(a)
            assert d.assemble() == a
            assert d.phat_inv == dual_inverse(d.phat)
            assert d.chat_inv == dual_inverse(d.chat)
            # bottom block of the transformed matrix is purely eps
            assert d.chat.rows == d.r


class TestAnyIndex:
    """The block form of A^ at appreciable index 2 to 4."""

    @staticmethod
    def inputs():
        rng = random.Random(251)
        for aind, n in ((2, 3), (2, 5), (3, 4), (3, 6), (4, 5), (4, 7)):
            for present in (True, False):
                yield support.rand_high_index(rng, n, aind, present)

    def test_round_trip(self):
        for a in self.inputs():
            cn = core_nilpotent(a.std)
            assert cn.k >= 2
            d = _decompose(a, cn, _e_nhat(a, cn))
            assert d.assemble() == a
            assert d.phat_inv == dual_inverse(d.phat)
            assert d.chat_inv == dual_inverse(d.chat)
            assert is_dual_nilpotent(d.nhat)
            assert d.nhat.std == cn.n

    def test_off_diagonal_blocks_solve_their_sylvester_equations(self):
        for a in self.inputs():
            cn = core_nilpotent(a.std)
            d = _decompose(a, cn, _e_nhat(a, cn))
            n, r = a.rows, cn.r
            e = cn.p_inv @ a.dual @ cn.p
            t12, t21 = _t_blocks(d, cn)
            assert cn.c @ t12 - t12 @ cn.n == -e.submatrix(0, r, r, n)
            assert cn.n @ t21 - t21 @ cn.c == -e.submatrix(r, n, 0, r)
            assert d.phat.dual == cn.p @ block2x2(
                RealMatrix.zeros(r, r), t12, t21, RealMatrix.zeros(n - r, n - r)
            )

    def test_weak_drazin_inverse_matches_the_consumed_decomposition(self):
        for a in self.inputs():
            cn = core_nilpotent(a.std)
            d = _decompose(a, cn, _e_nhat(a, cn))
            x = d.weak_drazin_inverse()
            assert x == wddi(a)
            assert x == wddi_from_given_decomposition(d.phat, d.chat, d.nhat)

    def test_index1_entry_point_still_rejects_them(self):
        for a in self.inputs():
            k = core_nilpotent(a.std).k
            with pytest.raises(
                IndexTooLarge, match=f"^block diagonalization needs aind 1, got {k}$"
            ):
                block_diagonalize_ind1(a)


class TestWdgiViaDecomposition:
    # wdgi reads the inverse off the block decomposition; the closed form
    # built from the real group inverse is the reference route
    def test_fixture(self):
        assert wdgi(cases.DGI_ABSENT) == cases.DGI_ABSENT_WEAK
        assert support.wdgi_closed_form(cases.DGI_ABSENT) == cases.DGI_ABSENT_WEAK

    def test_routes_agree(self):
        rng = random.Random(113)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = support.rand_aind1(rng, n)
            assert wdgi(a) == support.wdgi_closed_form(a)

    def test_identity(self):
        assert wdgi(DualMatrix.identity(2)) == DualMatrix.identity(2)
        assert support.wdgi_closed_form(DualMatrix.identity(2)) == DualMatrix.identity(2)


class TestSharpOfWeakGroup:
    """The sharp of the index-1 form, block_diagonalize_ind1(a).sharp()."""

    def test_fixture_with_generator(self):
        sharp = block_diagonalize_ind1(cases.DGI_ABSENT).sharp()
        assert sharp == DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [1, 0]])
        assert cases.DGI_ABSENT - sharp == DualMatrix.of([[0, 0], [0, 0]], [[0, 0], [0, 1]])

    def test_identity_and_pure_eps(self):
        assert block_diagonalize_ind1(DualMatrix.identity(2)).sharp() == DualMatrix.identity(2)
        m0 = RealMatrix.from_rows([[5]])
        assert block_diagonalize_ind1(DualMatrix.eps(m0)).sharp() == DualMatrix.zeros(1, 1)

    def test_group_equations_against_weak_inverse(self):
        # oracle: the returned matrix must be the group inverse of the weak
        # group inverse, i.e. satisfy the three index-1 equations with it
        rng = random.Random(127)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = support.rand_aind1(rng, n)
            w = wdgi(a)
            sharp = block_diagonalize_ind1(a).sharp()
            assert w @ sharp @ w == w
            assert sharp @ w @ sharp == sharp
            assert w @ sharp == sharp @ w
            # the generator A^ - sharp is P^ diag(0, eps*N) P^^(-1)
            d = block_diagonalize_ind1(a)
            expected = support.assemble_decomposition(
                d.phat, DualMatrix.zeros(d.r, d.r), DualMatrix.eps(d.nblock)
            )
            assert a - sharp == expected


class TestDualNilpotency:
    def test_eps_scalar_needs_power_beyond_dimension(self):
        a = DualMatrix.eps(RealMatrix.from_rows([[1]]))
        assert (a @ a).is_zero
        assert is_dual_nilpotent(a)

    def test_nilpotent_standard_part_suffices(self):
        j = RealMatrix.from_rows([[0, 1], [0, 0]])
        assert is_dual_nilpotent(DualMatrix(j, RealMatrix.identity(2)))

    def test_invertible_part_is_not_nilpotent(self):
        assert not is_dual_nilpotent(DualMatrix.identity(2))

    def test_empty_matrix(self):
        assert is_dual_nilpotent(DualMatrix.zeros(0, 0))


class TestConsumedDecomposition:
    def test_scalar_core_with_eps_block(self):
        # (2 + eps)^(-1) = 1/2 - eps/4 sits in the top block
        phat = DualMatrix.identity(2)
        chat = DualMatrix.of([[2]], [[1]])
        nhat = DualMatrix.of([[0]], [[1]])
        result = wddi_from_given_decomposition(phat, chat, nhat)
        assert result == DualMatrix.of(
            [["1/2", 0], [0, 0]], [["-1/4", 0], [0, 0]]
        )

    def test_identity_blocks(self):
        result = wddi_from_given_decomposition(
            DualMatrix.identity(2), DualMatrix.identity(2), DualMatrix.zeros(0, 0)
        )
        assert result == DualMatrix.identity(2)

    def test_singular_blocks_rejected(self):
        good_p = DualMatrix.identity(2)
        bad = DualMatrix.of([[0]], [[1]])
        with pytest.raises(NotInvertible):
            wddi_from_given_decomposition(good_p, bad, DualMatrix.zeros(1, 1))
        singular_p = DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [0, 0]])
        with pytest.raises(NotInvertible):
            wddi_from_given_decomposition(
                singular_p, DualMatrix.identity(1), DualMatrix.zeros(1, 1)
            )

    def test_non_nilpotent_bottom_rejected(self):
        with pytest.raises(PreconditionViolated):
            wddi_from_given_decomposition(
                DualMatrix.identity(2),
                DualMatrix.identity(1),
                DualMatrix.identity(1),
            )

    def test_mismatched_block_sizes_rejected(self):
        with pytest.raises(DimensionError):
            wddi_from_given_decomposition(
                DualMatrix.identity(3),
                DualMatrix.identity(1),
                DualMatrix.zeros(1, 1),
            )

    def test_random_decompositions_match_direct_route(self):
        rng = random.Random(131)
        for _ in range(25):
            n = rng.randint(1, 4)
            r = rng.randint(0, n)
            phat = DualMatrix(
                support.rand_invertible(rng, n), support.rand_int_matrix(rng, n, n)
            )
            chat = DualMatrix(
                support.rand_invertible(rng, r), support.rand_int_matrix(rng, r, r)
            )
            nhat = DualMatrix(
                support.rand_nilpotent(rng, n - r),
                support.rand_int_matrix(rng, n - r, n - r),
            )
            assembled = support.assemble_decomposition(phat, chat, nhat)
            result = wddi_from_given_decomposition(phat, chat, nhat)
            assert result == wddi(assembled)
            inner = dual_block_diag(
                dual_inverse(chat), DualMatrix.zeros(n - r, n - r)
            )
            assert result == phat @ inner @ dual_inverse(phat)


ORACLE_PAIRS = [(aind, dind) for aind in range(1, 6) for dind in range(aind, 2 * aind + 1)]


class TestBlockProductsAgainstPaddedConjugation:
    """The WDDI, the sharp and the reassembly of the form against the padded
    n x n conjugation P^ diag(U^, V^) P^^(-1), the route that
    support.wddi_from_given_decomposition takes: at r = 0, at
    r = n, and at every (aind, dind) with aind from 1 to 5."""

    CASES = ["r=0", "r=n", *ORACLE_PAIRS]

    @staticmethod
    def inputs(case):
        if case == "r=0":
            rng = random.Random(263)
            yield DualMatrix.zeros(2, 2)
            yield DualMatrix.eps(support.rand_int_matrix(rng, 3, 3))
            for aind in (1, 2, 3, 4):
                dind = rng.randint(aind, 2 * aind)
                yield support.rand_high_index(rng, aind, aind, dind=dind)
        elif case == "r=n":
            rng = random.Random(269)
            yield DualMatrix.identity(2)
            for n in (1, 2, 3, 5):
                yield support.rand_dual_invertible_std(rng, n)
        else:
            aind, dind = case
            rng = random.Random(2000 * aind + dind)
            for extra in (0, 1, 3):
                yield support.rand_high_index(rng, aind + extra, aind, dind=dind)

    @pytest.mark.parametrize(
        "case", CASES, ids=[c if isinstance(c, str) else "aind{}-dind{}".format(*c) for c in CASES]
    )
    def test_block_products_match_the_padded_route(self, case):
        for a in self.inputs(case):
            cn = core_nilpotent(a.std)
            d = _decompose(a, cn, _e_nhat(a, cn))
            n, r = a.rows, d.r
            assert r == {"r=0": 0, "r=n": n}.get(case, r)
            zero = DualMatrix.zeros(n - r, n - r)

            def padded(top, bottom):
                return d.phat @ dual_block_diag(top, bottom) @ d.phat_inv

            x = d.weak_drazin_inverse()
            assert x == padded(d.chat_inv, zero)
            assert x == wddi(a) == wddi_from_given_decomposition(d.phat, d.chat, d.nhat)
            assert d.sharp() == padded(d.chat, zero)
            assert d.assemble() == padded(d.chat, d.nhat) == a
