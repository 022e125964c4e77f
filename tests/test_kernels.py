"""The integer kernels of ``RealMatrix.__matmul__`` and ``rref`` against the
Fraction loops they replaced (``support.matmul_reference`` and
``support.rref_reference``) and against sympy's ``Matrix.rref``."""

import random
from fractions import Fraction

import pytest

from dualinv import RealMatrix, rref

import support


def _entry(rng, style: str) -> Fraction:
    if style == "sparse" and rng.random() < 0.6:
        return Fraction(0)
    if style == "int":
        return Fraction(rng.randint(-4, 4))
    if style == "large":
        return Fraction(rng.randint(-10**20, 10**20), rng.randint(1, 10**15))
    return support.rand_fraction(rng, 9)


def _matrix(rng, rows: int, cols: int) -> RealMatrix:
    """Random matrix with, now and then, zero rows, rows that are
    combinations of earlier ones, and a negated copy of a row so that
    negative pivots come up."""
    style = rng.choice(("small", "int", "large", "sparse"))
    grid = [[_entry(rng, style) for _ in range(cols)] for _ in range(rows)]
    for i in range(1, rows):
        roll = rng.random()
        if roll < 0.15:
            grid[i] = [Fraction(0)] * cols
        elif roll < 0.35:
            j, k = rng.randrange(i), rng.randrange(i)
            s, t = support.rand_fraction(rng, 5), support.rand_fraction(rng, 5)
            grid[i] = [s * x + t * y for x, y in zip(grid[j], grid[k])]
        elif roll < 0.45:
            grid[i] = [-x for x in grid[rng.randrange(i)]]
    rng.shuffle(grid)
    return RealMatrix(rows, cols, tuple(tuple(r) for r in grid))


def _all_fractions(m: RealMatrix) -> bool:
    return all(type(x) is Fraction for row in m.entries for x in row)


def test_rref_matches_fraction_reference():
    rng = random.Random(2024)
    for _ in range(2500):
        m = _matrix(rng, rng.randint(0, 7), rng.randint(0, 8))
        reduced, pivots = rref(m)
        assert (reduced, pivots) == support.rref_reference(m), m
        assert _all_fractions(reduced)


def test_matmul_matches_fraction_reference():
    rng = random.Random(2025)
    for _ in range(2500):
        rows, inner, cols = (rng.randint(0, 6) for _ in range(3))
        a, b = _matrix(rng, rows, inner), _matrix(rng, inner, cols)
        product = a @ b
        assert product == support.matmul_reference(a, b), (a, b)
        assert _all_fractions(product)


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    for _ in range(300):
        m = _matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        expected, expected_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries]
        ).rref()
        reduced, pivots = rref(m)
        assert pivots == tuple(expected_pivots)
        assert reduced.entries == tuple(
            tuple(Fraction(int(x.p), int(x.q)) for x in expected.row(i))
            for i in range(m.rows)
        )
