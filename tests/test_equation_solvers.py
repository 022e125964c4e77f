"""Consistency tests and parametric solution families."""

import random

import pytest

from dualinv import (
    DimensionError,
    DualMatrix,
    Inconsistent,
    InconsistentDualPart,
    InconsistentStandardPart,
    IndexTooLarge,
    RealMatrix,
    block2x2,
    block_diagonalize_ind1,
    column_space_contains,
    dual_power,
    dual_vstack,
    index_profile,
    inverse,
    solve_general,
    solve_restricted,
)
from support import DualAffineSet, block_diag, dual_solve, in_range, solve_ind1_corollaries

import cases
import support


def _random_member(rng, sols):
    return sols.member(
        tuple(support.rand_dual_parameter(rng, g.cols) for g in sols.generators)
    )


def _consistent_instance(rng, n, force_restricted):
    """(A, b) with aind(A) = 1 and b guaranteed solvable.

    Multiplying twice keeps b reachable for the restricted problem too; a
    single multiply only guarantees the unrestricted kind.
    """
    a = support.rand_aind1(rng, n)
    y = support.rand_dual_parameter(rng, n)
    if force_restricted:
        return a, a @ (a @ y)
    return a, a @ y


def _block_rhs(rng, d, kind):
    """b^ = P^ (c1; c2) with c2 picked by kind: "zero", "in-range" (eps N y),
    "dual-range" (eps v, v outside the range of N), "standard-part" or
    "random"; None when N leaves no such c2."""
    r, m = d.r, d.nblock.rows
    c1 = support.rand_dual_parameter(rng, r)
    v = support.rand_dual_parameter(rng, m)
    if kind == "zero":
        c2 = DualMatrix.zeros(m, 1)
    elif kind == "in-range":
        c2 = DualMatrix.eps(d.nblock @ v.std)
    elif kind == "dual-range":
        if column_space_contains(d.nblock, v.dual):
            return None
        c2 = DualMatrix.eps(v.dual)
    elif kind == "standard-part":
        if v.std.is_zero:
            return None
        c2 = v
    else:
        return support.rand_dual_parameter(rng, d.phat.rows)
    return d.phat @ dual_vstack(c1, c2)


class TestResidualFormOracle:
    def test_outcomes_match_residual_form_conditions(self):
        # aind-1 systems P (diag(C, 0) + eps*E) P^(-1) whose E22 (the block N)
        # is often singular, so that every outcome class is reachable
        rng = random.Random(229)
        errors = {
            InconsistentStandardPart: "standard-part",
            InconsistentDualPart: "dual-range",
            Inconsistent: "residual",
        }
        reached = set()
        for _ in range(40):
            n = rng.randint(1, 5)
            r = rng.randint(0, n - 1)
            p = support.rand_invertible(rng, n)
            core = block_diag(
                support.rand_invertible(rng, r), RealMatrix.zeros(n - r, n - r)
            )
            e = block2x2(
                support.rand_int_matrix(rng, r, r),
                support.rand_int_matrix(rng, r, n - r),
                support.rand_int_matrix(rng, n - r, r),
                support.rand_low_rank(rng, n - r, rng.randint(0, n - r)),
            )
            p_inv = inverse(p)
            a = DualMatrix(p @ core @ p_inv, p @ e @ p_inv)
            d = block_diagonalize_ind1(a)
            for kind in ("zero", "in-range", "dual-range", "standard-part", "random"):
                b = _block_rhs(rng, d, kind)
                if b is None:
                    continue
                for restricted in (False, True):
                    solver = solve_restricted if restricted else solve_general
                    expected = support.solver_outcome_residual(a, b, restricted)
                    try:
                        sols = solver(a, b)
                    except tuple(errors) as exc:
                        outcome = errors[type(exc)]
                    else:
                        outcome = "ok"
                        assert a @ sols.particular == b
                        if restricted:
                            w = support.wdgi_closed_form(a)
                            assert sols.particular == w @ b
                    assert outcome == expected, (kind, restricted)
                    reached.add(outcome)
        assert reached == {"ok", "standard-part", "dual-range", "residual"}


class TestSolveGeneral:
    def test_known_one_parameter_family(self):
        sols = solve_general(cases.DGI_ABSENT, cases.RHS_MIXED)
        family = DualAffineSet.from_solutions(sols)
        assert family.contains_vector(cases.RHS_SOLUTION_A)
        assert family.contains_vector(cases.RHS_SOLUTION_B)
        assert not family.contains_vector(DualMatrix.of([[1], [1]], [[0], [0]]))
        assert cases.DGI_ABSENT @ sols.particular == cases.RHS_MIXED

    def test_matches_doubled_system_solver(self):
        sols = solve_general(cases.DGI_ABSENT, cases.RHS_MIXED)
        oracle = dual_solve(cases.DGI_ABSENT, cases.RHS_MIXED)
        assert DualAffineSet.from_solutions(sols).same_set(
            DualAffineSet.from_solutions(oracle)
        )

    def test_standard_part_failure(self):
        eps_eye = DualMatrix.eps(RealMatrix.identity(2))
        with pytest.raises(InconsistentStandardPart):
            solve_general(eps_eye, DualMatrix.of([[1], [0]], [[0], [0]]))

    def test_dual_range_failure(self):
        a = DualMatrix.eps(RealMatrix.from_rows([[1, 0], [0, 0]]))
        b = DualMatrix.eps(RealMatrix.from_rows([[0], [1]]))
        with pytest.raises(InconsistentDualPart):
            solve_general(a, b)

    def test_high_index_rejected(self):
        with pytest.raises(IndexTooLarge):
            solve_general(cases.DDI_ABSENT, DualMatrix.zeros(4, 1))

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            solve_general(cases.DGI_ABSENT, DualMatrix.zeros(3, 1))

    def test_soundness_on_random_systems(self):
        rng = random.Random(137)
        for _ in range(15):
            n = rng.randint(1, 4)
            a, b = _consistent_instance(rng, n, force_restricted=False)
            sols = solve_general(a, b)
            for _ in range(20):
                x = _random_member(rng, sols)
                assert a @ x == b

    def test_completeness_against_doubled_system(self):
        rng = random.Random(139)
        for _ in range(20):
            n = rng.randint(1, 4)
            a, b = _consistent_instance(rng, n, force_restricted=False)
            mine = DualAffineSet.from_solutions(solve_general(a, b))
            oracle = DualAffineSet.from_solutions(dual_solve(a, b))
            assert mine.same_set(oracle)


class TestSolveRestricted:
    def test_known_family_contains_both_solutions(self):
        sols = solve_restricted(cases.DGI_ABSENT, cases.RHS_MIXED)
        assert sols.particular == cases.RHS_SOLUTION_A
        assert len(sols.generators) == 1
        family = DualAffineSet.from_solutions(sols)
        assert family.contains_vector(cases.RHS_SOLUTION_A)
        assert family.contains_vector(cases.RHS_SOLUTION_B)

    def test_members_stay_in_range(self):
        rng = random.Random(149)
        sols = solve_restricted(cases.DGI_ABSENT, cases.RHS_MIXED)
        for _ in range(10):
            x = _random_member(rng, sols)
            assert cases.DGI_ABSENT @ x == cases.RHS_MIXED
            assert in_range(cases.DGI_ABSENT, x)

    def test_projector_rejects_unreachable_rhs(self):
        a = DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [0, 0]])
        with pytest.raises(Inconsistent):
            solve_restricted(a, DualMatrix.of([[0], [1]], [[0], [0]]))

    def test_identity_gives_unique_solution(self):
        b = DualMatrix.of([[2], [3]], [[1], [0]])
        sols = solve_restricted(DualMatrix.identity(2), b)
        assert sols.particular == b
        assert all(g.is_zero for g in sols.generators)

    def test_restriction_property_on_random_systems(self):
        rng = random.Random(151)
        for _ in range(15):
            n = rng.randint(1, 4)
            a, b = _consistent_instance(rng, n, force_restricted=True)
            sols = solve_restricted(a, b)
            for _ in range(20):
                x = _random_member(rng, sols)
                assert a @ x == b
                assert in_range(a, x)

    def test_set_equals_general_set_cut_by_range(self):
        rng = random.Random(157)
        for _ in range(15):
            n = rng.randint(1, 4)
            a, b = _consistent_instance(rng, n, force_restricted=True)
            restricted = DualAffineSet.from_solutions(solve_restricted(a, b))
            unrestricted = DualAffineSet.from_solutions(dual_solve(a, b))
            meet = unrestricted.intersect(DualAffineSet.range_of(a))
            assert meet is not None
            assert restricted.same_set(meet)

    @staticmethod
    def _assert_generator_is_a_minus_sharp(a):
        # oracle: the generator A^ - A_sharp through the sharp of the form
        zero = DualMatrix.zeros(a.rows, 1)
        try:
            expected = a - block_diagonalize_ind1(a).sharp()
        except IndexTooLarge:
            with pytest.raises(IndexTooLarge):
                solve_restricted(a, zero)
            return None
        assert solve_restricted(a, zero).generators == (expected,)
        return block_diagonalize_ind1(a).r

    @pytest.mark.parametrize("name", ["DDI_ABSENT", "DDI_PRESENT", "DGI_ABSENT", "DGI_PRESENT"])
    def test_generator_is_a_minus_sharp_on_fixtures(self, name):
        self._assert_generator_is_a_minus_sharp(getattr(cases, name))

    def test_generator_is_a_minus_sharp_on_random_input(self):
        rng = random.Random(163)
        inputs = [support.rand_aind1(rng, rng.randint(1, 5)) for _ in range(20)]
        inputs += [support.rand_dual_invertible_std(rng, n) for n in (1, 3, 5)]
        inputs += [DualMatrix.eps(support.rand_int_matrix(rng, n, n)) for n in (1, 3)]
        ranks = [(a.rows, self._assert_generator_is_a_minus_sharp(a)) for a in inputs]
        kinds = {"r = 0" if r == 0 else "r = n" if r == n else "0 < r < n" for n, r in ranks}
        assert kinds == {"r = 0", "0 < r < n", "r = n"}


class TestCorollaries:
    def test_restricted_unique_solution(self):
        b = cases.DGI_PRESENT @ DualMatrix.of([[1], [1]], [[0], [0]])
        sols = solve_ind1_corollaries(cases.DGI_PRESENT, b, restricted=True)
        assert sols.generators == ()
        assert cases.DGI_PRESENT @ sols.particular == b

    def test_projector_matrix_cases(self):
        a = DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [0, 0]])
        good = DualMatrix.of([[1], [0]], [[0], [0]])
        sols = solve_ind1_corollaries(a, good, restricted=True)
        assert sols.particular == good
        with pytest.raises(Inconsistent):
            solve_ind1_corollaries(
                a, DualMatrix.of([[0], [1]], [[0], [0]]), restricted=True
            )

    def test_unrestricted_generator_is_complementary_projector(self):
        a = DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [0, 0]])
        b = DualMatrix.of([[1], [0]], [[0], [0]])
        sols = solve_ind1_corollaries(a, b, restricted=False)
        assert len(sols.generators) == 1
        assert sols.generators[0] == DualMatrix.of([[0, 0], [0, 1]], [[0, 0], [0, 0]])

    def test_dual_index_above_one_rejected(self):
        assert index_profile(cases.DGI_ABSENT).dind == 2
        with pytest.raises(IndexTooLarge):
            solve_ind1_corollaries(
                cases.DGI_ABSENT, DualMatrix.zeros(2, 1), restricted=False
            )

    def test_specialization_matches_general_solvers(self):
        rng = random.Random(163)
        built = 0
        while built < 12:
            n = rng.randint(1, 4)
            r = rng.randint(0, n)
            phat = DualMatrix(
                support.rand_invertible(rng, n), support.rand_int_matrix(rng, n, n)
            )
            chat = DualMatrix(
                support.rand_invertible(rng, r), support.rand_int_matrix(rng, r, r)
            )
            nhat = DualMatrix.zeros(n - r, n - r)
            a = support.assemble_decomposition(phat, chat, nhat)
            if index_profile(a).dind != 1:
                continue
            built += 1
            y = support.rand_dual_parameter(rng, n)
            b = a @ y
            for restricted in (False, True):
                sols = solve_ind1_corollaries(a, b, restricted)
                assert a @ sols.particular == b
                for _ in range(5):
                    x = _random_member(rng, sols)
                    assert a @ x == b
                general = solve_restricted(a, b) if restricted else solve_general(a, b)
                if restricted:
                    assert sols.particular == general.particular
                assert DualAffineSet.from_solutions(sols).same_set(
                    DualAffineSet.from_solutions(general)
                )


class TestSquareOfMatrixReachesRestrictedRhs:
    def test_power_products_always_satisfy_strong_condition(self):
        # oracle behind _consistent_instance's restricted branch: b = A^2 y
        # always passes the restricted consistency test
        rng = random.Random(167)
        for _ in range(10):
            n = rng.randint(1, 4)
            a = support.rand_aind1(rng, n)
            y = support.rand_dual_parameter(rng, n)
            b = dual_power(a, 2) @ y
            sols = solve_restricted(a, b)
            assert a @ sols.particular == b
