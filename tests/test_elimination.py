"""Row reduction, rank, null spaces, linear solving, inversion."""

import random
import tracemalloc
from fractions import Fraction

import pytest

from dualinv import (
    DimensionError,
    NotInvertible,
    RealMatrix,
    column_space_contains,
    hstack,
    inverse,
    nullspace,
    rank,
    rref,
)
from support import solve

import cases
import support


def test_rref_of_known_matrix():
    m = RealMatrix.from_rows([[0, 2, 4], [1, 1, 1], [2, 2, 2]])
    reduced, pivots = rref(m)
    assert pivots == (0, 1)
    assert reduced == RealMatrix.from_rows([[1, 0, -1], [0, 1, 2], [0, 0, 0]])


def test_rref_is_idempotent():
    rng = random.Random(3)
    for _ in range(30):
        m = support.rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), bound=5)
        reduced, pivots = rref(m)
        again, pivots2 = rref(reduced)
        assert again == reduced
        assert pivots2 == pivots


def test_rank_basics():
    assert rank(RealMatrix.identity(4)) == 4
    assert rank(RealMatrix.zeros(3, 3)) == 0
    assert rank(RealMatrix.zeros(0, 5)) == 0


def test_empty_matrix_with_a_huge_side_allocates_nothing_in_proportion():
    cols = 10**6
    tracemalloc.start()
    try:
        built = (
            RealMatrix(0, cols, ()),
            RealMatrix.from_rows([], cols=cols),
            RealMatrix.zeros(0, cols),
        )
        results = [(rref(m), rank(m)) for m in built]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for (reduced, pivots), r in results:
        assert reduced.shape == (0, cols) and pivots == () and r == 0
    assert peak < 2**20


def test_rank_of_fixture_standard_part():
    # row 1 equals row 3 plus row 4, so the rank drops to 3
    m = cases.DDI_ABSENT.std
    assert m.entries[0] == tuple(
        a + b for a, b in zip(m.entries[2], m.entries[3])
    )
    assert rank(m) == cases.DDI_ABSENT_ARANK


def test_nullspace_annihilates_and_has_right_width():
    rng = random.Random(5)
    for _ in range(30):
        rows_n, cols_n = rng.randint(1, 5), rng.randint(1, 5)
        m = support.rand_low_rank(rng, max(rows_n, cols_n), rng.randint(0, min(rows_n, cols_n))).submatrix(
            0, rows_n, 0, cols_n
        )
        basis = nullspace(m)
        assert basis.cols == m.cols - rank(m)
        assert (m @ basis).is_zero
        # basis columns are independent by construction (unit free variables)
        assert rank(basis) == basis.cols


def test_nullspace_unit_in_free_positions():
    m = RealMatrix.from_rows([[1, 2, 0, 3]])
    basis = nullspace(m)
    assert basis.cols == 3
    reduced, pivots = rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    for idx, f in enumerate(free):
        assert basis[f, idx] == 1


def test_solve_consistent_and_inconsistent():
    a = RealMatrix.from_rows([[1, 1], [2, 2]])
    b_good = RealMatrix.from_rows([[3], [6]])
    b_bad = RealMatrix.from_rows([[3], [7]])
    outcome = solve(a, b_good)
    assert outcome is not None
    particular, basis = outcome
    assert a @ particular == b_good
    assert basis.cols == 1
    assert solve(a, b_bad) is None


def test_solve_multicolumn_rhs():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = support.rand_matrix(rng, n, n, bound=4)
        x = support.rand_matrix(rng, n, 2, bound=4)
        outcome = solve(a, a @ x)
        assert outcome is not None
        particular, _ = outcome
        assert a @ particular == a @ x


def test_solve_shape_mismatch():
    with pytest.raises(DimensionError):
        solve(RealMatrix.identity(2), RealMatrix.zeros(3, 1))


def test_inverse_round_trip_and_failure():
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = support.rand_invertible(rng, n)
        assert m @ inverse(m) == RealMatrix.identity(n)
        assert inverse(m) @ m == RealMatrix.identity(n)
    with pytest.raises(NotInvertible):
        inverse(RealMatrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(DimensionError):
        inverse(RealMatrix.zeros(2, 3))
    assert inverse(RealMatrix.identity(0)) == RealMatrix.identity(0)


def test_inverse_known_value():
    m = RealMatrix.from_rows([[2, 1], [1, 1]])
    assert inverse(m) == RealMatrix.from_rows([[1, -1], [-1, 2]])


def test_column_space_contains():
    a = RealMatrix.from_rows([[1, 0], [0, 0]])
    inside = RealMatrix.from_rows([[5], [0]])
    outside = RealMatrix.from_rows([[0], [1]])
    assert column_space_contains(a, inside)
    assert not column_space_contains(a, outside)
    assert column_space_contains(a, hstack(inside, inside))
    with pytest.raises(DimensionError):
        column_space_contains(a, RealMatrix.zeros(3, 1))


def test_fraction_exactness_survives_elimination():
    # a matrix engineered to produce awkward intermediate fractions
    m = RealMatrix.from_rows(
        [
            [Fraction(1, 3), Fraction(1, 7), 1],
            [Fraction(2, 5), Fraction(3, 11), 0],
            [Fraction(5, 9), Fraction(7, 13), 2],
        ]
    )
    assert m @ inverse(m) == RealMatrix.identity(3)
