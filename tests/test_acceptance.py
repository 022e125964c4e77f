"""Acceptance gate: ten criteria, one test and one printed line each.

The first four criteria pin known-answer regressions entry for entry; the
remaining six are randomized property checks with fixed seeds and stated
minimum instance counts.  Every comparison is exact rational equality.
"""

import random
from contextlib import contextmanager

import pytest

from dualinv import (
    DoesNotExist,
    DualMatrix,
    Inconsistent,
    block_diagonalize_ind1,
    ddi,
    ddi_obstruction,
    dgi,
    drazin,
    dual_power,
    index_profile,
    rank_profile,
    solve_general,
    solve_restricted,
    verify,
    wddi,
    wdgi,
)
from support import DualAffineSet, dual_solve, in_range
from support import solve_ind1_corollaries, wddi_from_given_decomposition
from support import weak_drazin_dual_part_horner as _weak_drazin_dual_part

import cases
import support


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL: {label}")
        raise
    print(f"[criterion {number}] PASS: {label}")


def test_criterion_01_obstructed_drazin_regression():
    with criterion(1, "4x4 obstructed case: indices, powers, weak inverse"):
        a = cases.DDI_ABSENT
        profile = index_profile(a)
        assert profile.aind == 2
        assert profile.dind == 4
        assert dual_power(a, profile.aind).dual == cases.DDI_ABSENT_POWER2_DUAL
        assert drazin(a.std) == cases.DDI_ABSENT_DRAZIN
        assert ddi_obstruction(a) == cases.DDI_ABSENT_OBSTRUCTION
        assert wddi(a) == DualMatrix(
            cases.DDI_ABSENT_DRAZIN, cases.DDI_ABSENT_WEAK_DUAL_PART
        )
        with pytest.raises(DoesNotExist) as exc_info:
            ddi(a)
        assert exc_info.value.witness == cases.DDI_ABSENT_OBSTRUCTION


def test_criterion_02_unobstructed_drazin_regression():
    with criterion(2, "4x4 solvable case: inverse exists and matches"):
        a = cases.DDI_PRESENT
        assert ddi_obstruction(a).is_zero
        assert drazin(a.std) == cases.DDI_PRESENT_DRAZIN
        result = ddi(a)
        assert result == DualMatrix(cases.DDI_PRESENT_DRAZIN, cases.DDI_PRESENT_S)
        assert result == wddi(a)


def test_criterion_03_group_flavor_regressions():
    with criterion(3, "2x2 group cases: witness, weak form, coincidence"):
        with pytest.raises(DoesNotExist) as exc_info:
            dgi(cases.DGI_ABSENT)
        assert exc_info.value.witness == cases.DGI_ABSENT_WITNESS
        assert wdgi(cases.DGI_ABSENT) == cases.DGI_ABSENT_WEAK
        present = dgi(cases.DGI_PRESENT)
        assert present == wdgi(cases.DGI_PRESENT)
        assert present == cases.DGI_PRESENT_INVERSE


def test_criterion_04_restricted_family_regression():
    with criterion(4, "2x2 restricted system: consistent, non-unique family"):
        a, b = cases.DGI_ABSENT, cases.RHS_MIXED
        w = wdgi(a)
        residual = (DualMatrix.identity(a.rows) - w @ a) @ b
        assert residual.is_zero
        family = DualAffineSet.from_solutions(solve_restricted(a, b))
        assert family.contains_vector(cases.RHS_SOLUTION_A)
        assert family.contains_vector(cases.RHS_SOLUTION_B)
        assert in_range(a, cases.RHS_SOLUTION_A)
        assert in_range(a, cases.RHS_SOLUTION_B)


def test_criterion_05_weak_inverse_defining_equations():
    with criterion(5, "500 random matrices satisfy the defining equations"):
        rng = random.Random(501)
        checked = 0
        for n in support.size_mix(rng, 500):
            a = support.rand_dual(rng, n)
            assert verify(a, wddi(a), "wddi-t").all_hold
            checked += 1
        assert checked == 500


def test_criterion_06_dual_part_uniqueness_oracle():
    with criterion(6, "100 instances: dual part equals the unique solution"):
        rng = random.Random(601)
        checked = 0
        for n in support.size_mix(rng, 100, large=(5,)):
            a = support.rand_dual(rng, n)
            t = index_profile(a).dind
            assert support.weak_dual_part_oracle(a, t) == wddi(a).dual
            checked += 1
        assert checked == 100


def test_criterion_07_existence_characterizations_agree():
    with criterion(7, "200 instances: three existence tests coincide"):
        rng = random.Random(701)
        checked = 0
        for n in support.size_mix(rng, 200):
            a = support.rand_dual(rng, n)
            profile = index_profile(a)
            obstruction_zero = ddi_obstruction(a).is_zero
            indices_equal = profile.dind == profile.aind
            arank_k, drank_k = rank_profile(dual_power(a, profile.aind))
            assert obstruction_zero == indices_equal == (arank_k == drank_k)
            checked += 1
        assert checked == 200


def test_criterion_08_decomposition_cross_checks():
    with criterion(8, "100+100 decompositions reassemble and agree"):
        rng = random.Random(801)
        for _ in range(100):
            a = support.rand_aind1(rng, rng.randint(1, 4))
            d = block_diagonalize_ind1(a)
            assert d.assemble() == a
            assert wdgi(a) == support.wdgi_closed_form(a)
        for _ in range(100):
            r = rng.randint(0, 3)
            m = rng.randint(max(0, 1 - r), 3)
            phat = support.rand_dual_invertible_std(rng, r + m)
            chat = support.rand_dual_invertible_std(rng, r)
            nhat = DualMatrix(
                support.rand_nilpotent(rng, m), support.rand_int_matrix(rng, m, m)
            )
            assembled = support.assemble_decomposition(phat, chat, nhat)
            assert wddi_from_given_decomposition(phat, chat, nhat) == wddi(assembled)


def test_criterion_09_solver_completeness():
    with criterion(9, "100 consistent systems: families match the full set"):
        rng = random.Random(901)
        corollary_hits = 0
        for _ in range(100):
            n = rng.randint(1, 4)
            a = support.rand_aind1(rng, n)
            y = support.rand_dual_parameter(rng, n)
            b = a @ y
            general = DualAffineSet.from_solutions(solve_general(a, b))
            full = DualAffineSet.from_solutions(dual_solve(a, b))
            assert general.same_set(full)
            window = full.intersect(DualAffineSet.range_of(a))
            try:
                restricted = solve_restricted(a, b)
            except Inconsistent:
                assert window is None
            else:
                assert window is not None
                assert DualAffineSet.from_solutions(restricted).same_set(window)
            # a right-hand side reachable from the range is always restricted-
            # consistent, so this branch exercises the nonempty intersection
            b2 = a @ (a @ y)
            restricted2 = DualAffineSet.from_solutions(solve_restricted(a, b2))
            full2 = DualAffineSet.from_solutions(dual_solve(a, b2))
            window2 = full2.intersect(DualAffineSet.range_of(a))
            assert window2 is not None
            assert restricted2.same_set(window2)
            if index_profile(a).dind == 1:
                corollary_hits += 1
                short = solve_ind1_corollaries(a, b, restricted=False)
                assert DualAffineSet.from_solutions(short).same_set(general)
                short2 = solve_ind1_corollaries(a, b2, restricted=True)
                assert short2.generators == ()
                assert short2.particular == solve_restricted(a, b2).particular
                assert DualAffineSet.from_solutions(short2).same_set(window2)
        assert corollary_hits > 0


def test_criterion_10_truncation_identity():
    with criterion(10, "200 instances: long and short sums coincide"):
        rng = random.Random(1001)
        checked = 0
        for n in support.size_mix(rng, 200):
            a = support.rand_dual(rng, n)
            profile = index_profile(a)
            md = drazin(a.std)
            long_form = _weak_drazin_dual_part(a.std, a.dual, md, profile.dind)
            short_form = _weak_drazin_dual_part(a.std, a.dual, md, profile.aind)
            assert long_form == short_form
            checked += 1
        assert checked == 200
