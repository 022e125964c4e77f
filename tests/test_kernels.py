"""The integer kernels of ``RealMatrix.__matmul__`` and ``rref`` against the
Fraction loops they replaced (``support.matmul_reference`` and
``support.rref_reference``), and ``rref``, ``rank``, ``nullspace``,
``inverse`` and ``moore_penrose`` against sympy as an independent oracle;
``drazin`` is checked against its defining equations in sympy arithmetic.
``inverse`` is also checked against the right block of ``rref([M | I])``
(``support.inverse_reference``), the route it took before it read the
inverse off the back-substituted rows.

Every kernel result must be in the canonical form that ``==`` and ``hash``
rely on: ints over one positive denominator in lowest terms.  Dense p/q
inputs at n = 24, where a shared denominator grows to hundreds of bits,
check the kernels and the WDDI where bit size is large.
"""

import random
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest

from dualinv import (
    DualMatrix,
    NotInvertible,
    drazin,
    RealMatrix,
    dual_power,
    hstack,
    index_profile,
    inverse,
    moore_penrose,
    nullspace,
    rank,
    rref,
    vstack,
    wddi,
)
from support import solve

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


def _to_sympy(sympy, m: RealMatrix):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries]
    )


def _from_sympy(s) -> RealMatrix:
    return RealMatrix(
        s.rows,
        s.cols,
        tuple(tuple(Fraction(int(x.p), int(x.q)) for x in s.row(i)) for i in range(s.rows)),
    )


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2026)
    for _ in range(300):
        m = _matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        expected, expected_pivots = _to_sympy(sympy, m).rref()
        reduced, pivots = rref(m)
        assert pivots == tuple(expected_pivots)
        assert reduced == _from_sympy(expected)


def test_rank_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2027)
    for _ in range(300):
        m = _matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        assert rank(m) == _to_sympy(sympy, m).rank(), m


def test_nullspace_matches_sympy():
    # sympy also sets one free variable to 1 at a time, in column order, so
    # the bases agree column for column
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2028)
    for _ in range(300):
        m = _matrix(rng, rng.randint(1, 6), rng.randint(1, 7))
        basis = _to_sympy(sympy, m).nullspace()
        expected = (
            _from_sympy(sympy.Matrix.hstack(*basis)) if basis else RealMatrix.zeros(m.cols, 0)
        )
        assert nullspace(m) == expected, m


def test_inverse_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2029)
    singular = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        m = _matrix(rng, n, n)
        s = _to_sympy(sympy, m)
        if s.det() == 0:
            singular += 1
            with pytest.raises(NotInvertible):
                inverse(m)
        else:
            assert inverse(m) == _from_sympy(s.inv()), m
    # both outcomes are exercised
    assert 0 < singular < 300


def test_inverse_matches_the_right_block_of_the_reduced_bordered_matrix():
    rng = random.Random(2036)
    singular = 0
    for n in range(9):
        for _ in range(40):
            m = _matrix(rng, n, n)
            try:
                expected = support.inverse_reference(m)
            except NotInvertible as exc:
                singular += 1
                with pytest.raises(NotInvertible) as raised:
                    inverse(m)
                assert str(raised.value) == str(exc)
            else:
                assert inverse(m) == expected, m
    # both outcomes are exercised
    assert 0 < singular < 9 * 40


def test_moore_penrose_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2030)
    for _ in range(300):
        m = _matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert moore_penrose(m) == _from_sympy(_to_sympy(sympy, m).pinv()), m


def test_drazin_satisfies_its_equations_in_sympy_arithmetic():
    # sympy has no Drazin inverse; its own products check X M X = X,
    # M X = X M and M^(k+1) X = M^k at k = aind, and its ranks check that k
    # is the index: rank(M^k) = rank(M^(k+1)) < rank(M^(k-1))
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2035)
    for aind in (2, 3, 4):
        for n in range(aind, aind + 5):
            for present in (True, False):
                m = support.rand_high_index(rng, n, aind, present).std
                s, x = _to_sympy(sympy, m), _to_sympy(sympy, drazin(m))
                assert x * s * x == x, m
                assert s * x == x * s, m
                assert s ** (aind + 1) * x == s**aind, m
                ranks = [(s**t).rank() for t in (aind - 1, aind, aind + 1)]
                assert ranks[0] > ranks[1] == ranks[2], m


def _canonical(m: RealMatrix) -> bool:
    """ints over a positive denominator with no common factor (so a zero
    matrix has denominator 1)."""
    return (
        m.den > 0
        and gcd(m.den, *chain.from_iterable(m.nums)) == 1
        and all(type(x) is int for x in chain.from_iterable(m.nums))
    )


def test_every_kernel_result_is_in_lowest_terms():
    rng = random.Random(2031)
    for _ in range(400):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        a, b = _matrix(rng, rows, cols), _matrix(rng, rows, cols)
        c = _matrix(rng, cols, rng.randint(0, 5))
        results = [
            a, a + b, a - b, a - a, -a, a @ c, a.T, rref(a)[0], nullspace(a), moore_penrose(a),
            a.submatrix(0, rows // 2, cols // 2, cols), a.columns_at(range(0, cols, 2)),
            hstack(a, b), vstack(a, b), RealMatrix.zeros(rows, cols), RealMatrix.identity(cols),
        ]
        if rows == cols and rank(a) == rows:
            results.append(inverse(a))
        outcome = solve(a, _matrix(rng, rows, 2))
        if outcome is not None:
            results.extend(outcome)
        for m in results:
            assert _canonical(m), m


def test_equal_values_built_by_different_routes_are_equal_and_hash_equal():
    rng = random.Random(2032)
    for _ in range(200):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a, b = _matrix(rng, rows, cols), _matrix(rng, rows, cols)
        half = RealMatrix.from_rows([[Fraction(1, 2)] * cols] * rows)
        routes = [
            RealMatrix(rows, cols, a.entries),
            RealMatrix.from_rows([[str(x) for x in row] for row in a.entries]),
            (a + b) - b,
            -(-a),
            a @ RealMatrix.identity(cols),
            (a + half) - half,
            a.T.T,
            hstack(a, b).submatrix(0, rows, 0, cols),
            vstack(b, a).submatrix(rows, 2 * rows, 0, cols),
            hstack(b, a).columns_at(range(cols, 2 * cols)),
        ]
        for m in routes:
            assert m == a and hash(m) == hash(a), (m, a)
    zero = RealMatrix.zeros(2, 3)
    half = RealMatrix.from_rows([[Fraction(1, 2), 0, 0], [0, 0, Fraction(-7, 9)]])
    for m in (half - half, RealMatrix.from_rows([[0] * 3] * 2), half @ RealMatrix.zeros(3, 3)):
        assert m == zero and hash(m) == hash(zero) and m.den == 1


def _dense(rng, n: int, cols: int) -> RealMatrix:
    return RealMatrix(
        n, cols, tuple(tuple(support.rand_fraction(rng, 9) for _ in range(cols)) for _ in range(n))
    )


def test_dense_n24_kernels_match_fraction_references():
    rng = random.Random(2033)
    a, b = _dense(rng, 24, 24), _dense(rng, 24, 24)
    product = a @ b
    assert product == support.matmul_reference(a, b)
    assert _canonical(product)
    assert rref(product) == support.rref_reference(product)
    # 12 dense columns and 12 combinations of them: rank 12
    singular = hstack(a.submatrix(0, 24, 0, 12), a.submatrix(0, 24, 0, 12) @ _dense(rng, 12, 12))
    reduced, pivots = rref(singular)
    assert (reduced, pivots) == support.rref_reference(singular)
    assert pivots == tuple(range(12))
    inv = inverse(product)
    assert _canonical(inv)
    eye = RealMatrix.identity(24)
    assert support.matmul_reference(product, inv) == eye
    assert inv == support.rref_reference(hstack(product, eye))[0].submatrix(0, 24, 24, 48)
    # the inverse's denominator runs to hundreds of bits
    assert inv.den.bit_length() > 500


def test_wddi_n24_satisfies_its_defining_equations():
    rng = random.Random(2034)
    aind = 3
    a = support.rand_high_index(rng, 24, aind, ddi_present=False)
    # a dense p/q similarity keeps the index structure and fills every entry
    s = _dense(rng, 24, 24)
    s_inv = inverse(s)
    a = DualMatrix(s @ a.std @ s_inv, s @ a.dual @ s_inv)
    profile = index_profile(a)
    assert (profile.aind, profile.dind) == (aind, 2 * aind)
    x = wddi(a)
    a_t = dual_power(a, profile.dind)
    assert a @ x @ a_t == a_t
    assert x @ a @ x == x
    assert a @ x == x @ a
