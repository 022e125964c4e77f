"""Dual inversion, dual linear systems, range membership, affine sets."""

import random

import pytest

from dualinv import (
    DimensionError,
    DualMatrix,
    Inconsistent,
    NotInvertible,
    ParametricDualSolutions,
    RealMatrix,
    doubled,
    dual_inverse,
    rank,
    hstack,
)
from support import DualAffineSet, dual_solve, in_range, stack_vector, unstack_vector

import cases
import support


class TestDualInverse:
    def test_identity_plus_eps(self):
        m0 = RealMatrix.from_rows([[1, 2], [3, 4]])
        a = DualMatrix(RealMatrix.identity(2), m0)
        assert dual_inverse(a) == DualMatrix(RealMatrix.identity(2), -m0)

    def test_scalar_cases(self):
        assert dual_inverse(DualMatrix.of([[2]], [[0]])) == DualMatrix.of(
            [["1/2"]], [[0]]
        )
        # oracle: candidate inverse of [[1]] + eps[[3]] must multiply to 1
        candidate = dual_inverse(DualMatrix.of([[1]], [[3]]))
        assert candidate @ DualMatrix.of([[1]], [[3]]) == DualMatrix.identity(1)
        assert candidate == DualMatrix.of([[1]], [[-3]])

    def test_two_sided_identity_on_random_input(self):
        rng = random.Random(47)
        for _ in range(30):
            n = rng.randint(1, 4)
            a = support.rand_dual_invertible_std(rng, n)
            eye = DualMatrix.identity(n)
            assert a @ dual_inverse(a) == eye
            assert dual_inverse(a) @ a == eye

    def test_singular_standard_part_rejected(self):
        with pytest.raises(NotInvertible):
            dual_inverse(DualMatrix.of([[0]], [[1]]))
        with pytest.raises(DimensionError):
            dual_inverse(DualMatrix.zeros(2, 3))


class TestParametricDualSolutions:
    def test_member_adds_each_generator_times_its_parameter(self):
        rng = random.Random(67)
        n = 3
        particular = support.rand_dual_parameter(rng, n)
        generators = tuple(
            DualMatrix(support.rand_int_matrix(rng, n, w), support.rand_int_matrix(rng, n, w))
            for w in (1, 2)
        )
        ys = tuple(support.rand_dual_parameter(rng, g.cols) for g in generators)
        expected = particular + generators[0] @ ys[0] + generators[1] @ ys[1]
        assert ParametricDualSolutions(particular, generators).member(ys) == expected


class TestDualSolve:
    def test_identity_system_unique(self):
        b = DualMatrix.of([[1], [2]], [[3], [4]])
        sols = dual_solve(DualMatrix.identity(2), b)
        assert sols.particular == b
        assert sols.generators == ()

    def test_known_two_parameter_family(self):
        sols = dual_solve(cases.DGI_ABSENT, cases.RHS_MIXED)
        family = DualAffineSet.from_solutions(sols)
        assert family.contains_vector(cases.RHS_SOLUTION_A)
        assert family.contains_vector(cases.RHS_SOLUTION_B)
        # members really solve the system
        rng = random.Random(53)
        for _ in range(10):
            x = sols.member(
                tuple(support.rand_dual_parameter(rng, g.cols) for g in sols.generators)
            )
            assert cases.DGI_ABSENT @ x == cases.RHS_MIXED

    def test_pure_dual_matrix_cannot_reach_standard_rhs(self):
        eps_eye = DualMatrix.eps(RealMatrix.identity(2))
        with pytest.raises(Inconsistent):
            dual_solve(eps_eye, DualMatrix.of([[1], [0]], [[0], [0]]))

    def test_solutions_satisfy_random_systems(self):
        rng = random.Random(59)
        for _ in range(25):
            n = rng.randint(1, 4)
            a = support.rand_dual(rng, n, bound=3)
            x_true = support.rand_dual_parameter(rng, n)
            b = a @ x_true
            sols = dual_solve(a, b)
            for _ in range(5):
                x = sols.member(
                    tuple(
                        support.rand_dual_parameter(rng, g.cols)
                        for g in sols.generators
                    )
                )
                assert a @ x == b

    def test_shape_checks(self):
        with pytest.raises(DimensionError):
            dual_solve(DualMatrix.identity(2), DualMatrix.zeros(3, 1))
        with pytest.raises(DimensionError):
            dual_solve(DualMatrix.identity(2), DualMatrix.zeros(2, 2))


class TestInRange:
    def test_zero_vector_always_inside(self):
        rng = random.Random(61)
        a = support.rand_dual(rng, 3)
        assert in_range(a, DualMatrix.zeros(3, 1))

    def test_known_member(self):
        assert in_range(cases.DGI_ABSENT, cases.RHS_SOLUTION_A)

    def test_eps_projector_misses_eps_vector(self):
        # oracle by hand: the doubled system of eps*diag(1,0) has columns
        # spanning {[0;0;*;0]}, so eps*[0;1] stacked as [0;0;0;1] is outside
        a = DualMatrix.eps(RealMatrix.from_rows([[1, 0], [0, 0]]))
        v = DualMatrix.eps(RealMatrix.from_rows([[0], [1]]))
        d = doubled(a)
        assert rank(d) == rank(hstack(d, stack_vector(v))) - 1
        assert not in_range(a, v)


class TestStacking:
    def test_round_trip(self):
        v = DualMatrix.of([[1], [2]], [[3], [4]])
        assert unstack_vector(stack_vector(v)) == v

    def test_doubling_is_multiplicative(self):
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(1, 4)
            a = support.rand_dual(rng, n, bound=3)
            b = support.rand_dual(rng, n, bound=3)
            assert doubled(a) @ doubled(b) == doubled(a @ b)


class TestDualAffineSet:
    def test_membership_and_equality(self):
        sols = dual_solve(cases.DGI_ABSENT, cases.RHS_MIXED)
        s1 = DualAffineSet.from_solutions(sols)
        assert s1.same_set(s1)
        shifted = DualAffineSet(s1.point + s1.span.submatrix(0, s1.span.rows, 0, 1), s1.span)
        assert s1.same_set(shifted)

    def test_range_set(self):
        r = DualAffineSet.range_of(cases.DGI_ABSENT)
        assert r.contains_vector(cases.DGI_ABSENT @ cases.RHS_SOLUTION_A)

    def test_intersection_of_crossing_lines(self):
        # x-axis and y-axis of the stacked plane meet at the origin only
        point = RealMatrix.zeros(2, 1)
        x_axis = DualAffineSet(point, RealMatrix.from_rows([[1], [0]]))
        y_axis = DualAffineSet(point, RealMatrix.from_rows([[0], [1]]))
        meet = x_axis.intersect(y_axis)
        assert meet is not None
        assert meet.point == point
        assert rank(meet.span) == 0

    def test_intersection_of_parallel_lines_is_empty(self):
        direction = RealMatrix.from_rows([[1], [0]])
        a = DualAffineSet(RealMatrix.zeros(2, 1), direction)
        b = DualAffineSet(RealMatrix.from_rows([[0], [1]]), direction)
        assert a.intersect(b) is None

    def test_intersection_against_bruteforce_membership(self):
        rng = random.Random(71)
        for _ in range(15):
            a = support.rand_dual(rng, 2, bound=2)
            x_true = support.rand_dual_parameter(rng, 2)
            b = a @ x_true
            sols = dual_solve(a, b)
            sol_set = DualAffineSet.from_solutions(sols)
            range_set = DualAffineSet.range_of(a)
            meet = sol_set.intersect(range_set)
            if meet is None:
                assert not (
                    sol_set.contains_vector(x_true) and in_range(a, x_true)
                )
                continue
            assert sol_set.contains_set(meet)
            assert range_set.contains_set(meet)
