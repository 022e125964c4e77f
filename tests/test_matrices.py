"""Dual and rational matrix arithmetic."""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualinv import (
    DimensionError,
    DualMatrix,
    NotInvertible,
    RealMatrix,
    block2x2,
    block_diag,
    dual_inverse,
    dual_power,
    hstack,
    vstack,
)

import cases
import support

fractions_st = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=4)
)


@st.composite
def square_dual_triple(draw, max_n=3):
    n = draw(st.integers(min_value=1, max_value=max_n))

    def grid():
        return [[draw(fractions_st) for _ in range(n)] for _ in range(n)]

    return tuple(DualMatrix.of(grid(), grid()) for _ in range(3))


class TestRealMatrix:
    def test_from_rows_infers_shape(self):
        m = RealMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.shape == (2, 3)
        assert m[1, 2] == 6
        assert all(isinstance(x, Fraction) for row in m.entries for x in row)

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            RealMatrix.from_rows([[1, 2], [3]])

    def test_zero_dimension_matrices(self):
        empty = RealMatrix.zeros(0, 3)
        assert empty.shape == (0, 3)
        assert (empty.T @ empty).shape == (3, 3)
        assert (empty.T @ empty).is_zero
        assert RealMatrix.identity(0) ** 5 == RealMatrix.identity(0)

    def test_addition_and_negation(self):
        a = RealMatrix.from_rows([[1, 2], [3, 4]])
        b = RealMatrix.from_rows([[Fraction(1, 2), 0], [0, 1]])
        assert a + b == RealMatrix.from_rows([[Fraction(3, 2), 2], [3, 5]])
        assert a - a == RealMatrix.zeros(2, 2)
        assert -a == RealMatrix.zeros(2, 2) - a

    def test_matmul_shapes(self):
        a = RealMatrix.from_rows([[1, 2, 3]])
        b = RealMatrix.from_rows([[1], [0], [1]])
        assert (a @ b)[0, 0] == 4
        with pytest.raises(DimensionError):
            b @ b

    def test_power(self):
        j = RealMatrix.from_rows([[0, 1], [0, 0]])
        assert j**0 == RealMatrix.identity(2)
        assert (j**2).is_zero
        with pytest.raises(ValueError):
            j ** (-1)

    def test_stacking(self):
        a = RealMatrix.from_rows([[1, 2]])
        b = RealMatrix.from_rows([[3, 4]])
        assert vstack(a, b) == RealMatrix.from_rows([[1, 2], [3, 4]])
        assert hstack(a.T, b.T) == RealMatrix.from_rows([[1, 3], [2, 4]])
        c = RealMatrix.from_rows([[Fraction(3, 2)], [2]])
        assert hstack(a.T, c, a.T) == RealMatrix.from_rows([[1, Fraction(3, 2), 1], [2, 2, 2]])
        assert block_diag(a, b).shape == (2, 4)
        assert block2x2(
            RealMatrix.identity(1),
            RealMatrix.zeros(1, 1),
            RealMatrix.zeros(1, 1),
            RealMatrix.identity(1),
        ) == RealMatrix.identity(2)

    def test_columns_at_and_submatrix(self):
        m = RealMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
        assert m.columns_at((2, 0)) == RealMatrix.from_rows([[3, 1], [6, 4]])
        assert m.submatrix(0, 1, 1, 3) == RealMatrix.from_rows([[2, 3]])


def dual_number(std, dual) -> DualMatrix:
    """The dual number std + eps*dual as a 1x1 dual matrix."""
    return DualMatrix.of([[std]], [[dual]])


class TestDualNumbers:
    # dual-number arithmetic, carried by 1x1 dual matrices and by dual
    # multiples of the identity
    def test_product_rule(self):
        a = dual_number(2, 3)
        b = dual_number(5, -1)
        assert a @ b == dual_number(10, 2 * -1 + 3 * 5)

    def test_inverse_of_unit(self):
        # (1 + 3eps)^(-1) = 1 - 3eps
        x = dual_number(1, 3)
        assert dual_inverse(x) == dual_number(1, -3)
        assert x @ dual_inverse(x) == dual_number(1, 0)

    def test_division_requires_appreciable_divisor(self):
        with pytest.raises(NotInvertible):
            dual_inverse(dual_number(0, 5))

    def test_division_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            a = dual_number(support.rand_fraction(rng), support.rand_fraction(rng))
            b = dual_number(support.rand_fraction(rng), support.rand_fraction(rng))
            if b.std.is_zero:
                continue
            assert (a @ dual_inverse(b)) @ b == a

    def test_entry_access(self):
        assert cases.DDI_ABSENT.std[0, 2] == 0
        assert cases.DDI_ABSENT.dual[0, 2] == 1

    def test_scale_by_dual_scalar(self):
        # (2 + eps) * A is the product with (2 + eps) * I
        a = cases.DGI_ABSENT
        two_eps = DualMatrix.of([[2, 0], [0, 2]], [[1, 0], [0, 1]])
        scaled = two_eps @ a
        assert scaled == a @ two_eps
        assert scaled.std == a.std + a.std
        assert scaled.dual == a.std + a.dual + a.dual


class TestDualMatrix:
    def test_parts_must_share_shape(self):
        with pytest.raises(DimensionError):
            DualMatrix(RealMatrix.identity(2), RealMatrix.zeros(2, 3))

    def test_identity_is_neutral(self):
        x = cases.DDI_ABSENT
        assert DualMatrix.identity(4) @ x == x
        assert x @ DualMatrix.identity(4) == x

    def test_known_product_reaches_rhs(self):
        # the 2x2 fixture maps [1;0]+eps[0;1] to itself
        assert cases.DGI_ABSENT @ cases.RHS_SOLUTION_A == cases.RHS_SOLUTION_A

    def test_square_of_shift_plus_eps_identity(self):
        # ([[0,1],[0,0]] + eps*I)^2, expanded by hand with eps^2 = 0:
        # std J^2 = 0; dual J*I + I*J = 2J
        j = RealMatrix.from_rows([[0, 1], [0, 0]])
        a = DualMatrix(j, RealMatrix.identity(2))
        expect_dual = j @ RealMatrix.identity(2) + RealMatrix.identity(2) @ j
        assert a @ a == DualMatrix(j @ j, expect_dual)
        assert a @ a == DualMatrix.of([[0, 0], [0, 0]], [[0, 2], [0, 0]])

    @given(square_dual_triple())
    @settings(max_examples=60, deadline=None)
    def test_mul_associative_and_distributive(self, triple):
        a, b, c = triple
        assert (a @ b) @ c == a @ (b @ c)
        assert a @ (b + c) == a @ b + a @ c
        assert (a + b) @ c == a @ c + b @ c


def _part(rng, rows: int, cols: int, style: str) -> RealMatrix:
    """A random real matrix: zero, small p/q, ints, or large p/q entries
    whose denominators share nothing with those of another part."""
    if style == "zero":
        return RealMatrix.zeros(rows, cols)
    entry = {
        "large": lambda: Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**15)),
        "int": lambda: Fraction(rng.randint(-4, 4)),
        "small": lambda: support.rand_fraction(rng),
    }[style]
    return RealMatrix(rows, cols, tuple(tuple(entry() for _ in range(cols)) for _ in range(rows)))


def _rand_dual_part_styles(rng, rows: int, cols: int) -> DualMatrix:
    styles = ("zero", "small", "int", "large")
    return DualMatrix(
        _part(rng, rows, cols, rng.choice(styles)), _part(rng, rows, cols, rng.choice(styles))
    )


def _canonical(m: RealMatrix) -> bool:
    """Ints over one positive denominator in lowest terms."""
    return m.den > 0 and gcd(m.den, *chain.from_iterable(m.nums)) == 1


class TestDualProduct:
    # the dual half M B0 + M0 B against the product of the stacked factors
    def test_matches_the_stacked_product(self):
        rng = random.Random(2027)
        for _ in range(800):
            rows, inner, cols = (rng.randint(0, 5) for _ in range(3))
            a = _rand_dual_part_styles(rng, rows, inner)
            b = _rand_dual_part_styles(rng, inner, cols)
            product = a @ b
            assert product == support.dual_matmul_stacked(a, b), (a, b)
            assert _canonical(product.std) and _canonical(product.dual)

    def test_inner_dimension_zero(self):
        for rows, cols in ((0, 0), (3, 0), (0, 2), (3, 2)):
            product = DualMatrix.zeros(rows, 0) @ DualMatrix.zeros(0, cols)
            assert product == DualMatrix.zeros(rows, cols)
            assert product == support.dual_matmul_stacked(
                DualMatrix.zeros(rows, 0), DualMatrix.zeros(0, cols)
            )

    def test_zero_parts(self):
        rng = random.Random(2028)
        m, m0 = _part(rng, 3, 4, "large"), _part(rng, 4, 2, "large")
        # eps * eps = 0, and a real factor passes the other's dual part through
        assert (DualMatrix.eps(m) @ DualMatrix.eps(m0)).is_zero
        assert DualMatrix.from_real(m) @ DualMatrix.eps(m0) == DualMatrix.eps(m @ m0)
        assert DualMatrix.eps(m) @ DualMatrix.from_real(m0) == DualMatrix.eps(m @ m0)
        product = DualMatrix.from_real(m) @ DualMatrix.from_real(m0)
        assert product.dual == RealMatrix.zeros(3, 2)


class TestDualPower:
    def test_power_one_returns_input(self):
        a = cases.DDI_PRESENT
        assert dual_power(a, 1) == a

    def test_known_second_power_duals(self):
        assert dual_power(cases.DDI_ABSENT, 2).dual == cases.DDI_ABSENT_POWER2_DUAL
        assert dual_power(cases.DDI_PRESENT, 2).dual == cases.DDI_PRESENT_POWER2_DUAL

    def test_both_paths_agree_on_random_input(self):
        # repeated products against the closed form, across sizes and powers
        rng = random.Random(11)
        for n in support.size_mix(rng, 40):
            a = support.rand_dual(rng, n, bound=4)
            for t in range(1, 7):
                assert dual_power(a, t) == support.dual_power_closed_form(a, t)

    def test_rejects_bad_arguments(self):
        a = DualMatrix.zeros(2, 3)
        with pytest.raises(DimensionError):
            dual_power(a, 2)
        with pytest.raises(ValueError):
            dual_power(DualMatrix.identity(2), 0)
