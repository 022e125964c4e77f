"""The WDDI, the dual index, the DDI's existence, the DGI's existence and
witness, verify's report and rank_profile against sympy, through no code
of the library's form; and the form's P^(-1) against the inverse of P
taken by eliminating [P | I].

Doubling A^ = M + eps*M0 to D = [[M, 0], [M0, M]] is an injective algebra
homomorphism that maps the dual core-nilpotent form of A^ to a real one, so
D(wddi(A^)) is the Drazin inverse of D, dind(A^) is the index of D, and the
DDI exists exactly when that index is aind.  Here D, both indices (from the
ranks of the powers) and D^D = D^k (D^(2k+1))^+ D^k (Campbell and Meyer)
are all taken in sympy arithmetic from the entries of A^.  So unlike
``support.wddi_doubled``, which runs the library's ``drazin`` on D, this
route shares nothing with ``_index_power``, ``_core_nilpotent_at`` or
``_conjugate``; a defect in those would show on one side only.

The form reads P^(-1) off the factorization M^k = F G; ``inverse_reference``
is the route it replaced, the right block of rref([P | I]).  The form takes
C = G M[:, pivots] and N without forming P^(-1) M P; sympy forms that
similarity from the library's P, and G M[:, pivots] from its own reduced
echelon form of M^k.

At aind 1 the DGI exists exactly when the index of D is 1, and the
witness dgi raises otherwise is sympy's (I - M M+) M0 (I - M+ M), with
sympy's pinv.

verify is checked on every input of that route, for every kind: its
exponent and its three booleans are those sympy finds for the same
equations on D(A^) and D(X^), since D is multiplicative and injective.  And
rank_profile, of any shape, is (rank(M), rank(D) - rank(M)), both ranks
taken in sympy.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from dualinv import (
    DoesNotExist,
    DualMatrix,
    RealMatrix,
    core_nilpotent,
    ddi,
    dgi,
    existence_profile,
    index_profile,
    parse_matrix,
    rank,
    rank_profile,
    verify,
    wddi,
)
from dualinv.matrices import VERIFY_KINDS

import support

HIGH_INDEX = [
    (n, aind, dind) for n, aind in ((5, 2), (6, 3), (7, 3)) for dind in range(aind, 2 * aind + 1)
]


def _high_index(n, aind, dind):
    return support.rand_high_index(random.Random(100 * n + 10 * aind + dind), n, aind, dind=dind)


def _general():
    """rand_dual at n 3-5 and rand_aind1 at n = 6."""
    rng = random.Random(2411)
    return [support.rand_dual(rng, n) for n in (3, 3, 4, 4, 5, 5)] + [
        support.rand_aind1(rng, 6) for _ in range(3)
    ]


def _sympy(sympy, m: RealMatrix):
    entries = [sympy.Rational(x.numerator, x.denominator) for row in m.entries for x in row]
    return sympy.Matrix(m.rows, m.cols, entries)


def _doubled(sympy, a):
    std, dual = _sympy(sympy, a.std), _sympy(sympy, a.dual)
    return sympy.Matrix.vstack(
        sympy.Matrix.hstack(std, sympy.zeros(*std.shape)), sympy.Matrix.hstack(dual, std)
    )


def _index(s) -> int:
    """The smallest k >= 1 with rank(S^(k+1)) = rank(S^k)."""
    k, power, rank = 1, s, s.rank()
    while True:
        power = power * s
        rank_next = power.rank()
        if rank_next == rank:
            return k
        k, rank = k + 1, rank_next


def _real(s) -> RealMatrix:
    """The RealMatrix of a sympy matrix of rationals."""
    rows = [[Fraction(int(x.p), int(x.q)) for x in s.row(i)] for i in range(s.rows)]
    return RealMatrix.from_rows(rows, cols=s.cols)


def _undoubled(d) -> DualMatrix:
    """The dual matrix whose doubled form is the sympy matrix d."""
    n = d.rows // 2
    assert d[:n, n:].is_zero_matrix and d[n:, n:] == d[:n, :n]
    return DualMatrix(_real(d[:n, :n]), _real(d[n:, :n]))


def _check_verify(sympy, a, d, d_drazin, aind, dind) -> None:
    """verify's exponent and its three equations against sympy's, on the
    doubled matrices, for every kind.  The candidates are sympy's D^D as a
    dual X, and X + E and X + eps*E for the unit entry E at (0, 0).  The
    Drazin equations of D at its index have one solution, D^D, so wddi-t
    holds for X and for neither perturbed candidate."""
    x = _undoubled(d_drazin)
    unit = RealMatrix.from_rows([[int(i == j == 0) for j in range(a.cols)] for i in range(a.rows)])
    candidates = {
        "X": x, "X + E": x + DualMatrix.from_real(unit), "X + eps*E": x + DualMatrix.eps(unit)
    }
    exponents = {"group": 1, "wdgi": 2, "drazin-k": aind, "wddi-t": dind}
    held = {}
    for name, candidate in candidates.items():
        dx = _doubled(sympy, candidate)
        da_dx, dx_da = d * dx, dx * d
        for kind in VERIFY_KINDS:
            d_e = d ** exponents[kind]
            expected = (da_dx * d_e == d_e, dx_da * dx == dx, da_dx == dx_da)
            report = verify(a, candidate, kind)
            assert report.exponent == exponents[kind], (name, kind)
            assert tuple(ok for _, ok in report.equations) == expected, (name, kind)
            assert report.all_hold == all(expected), (name, kind)
            held[name, kind] = report.all_hold
    assert held["X", "wddi-t"] and held["X", "drazin-k"] == (dind == aind)
    assert not held["X + E", "wddi-t"] and not held["X + eps*E", "wddi-t"]


def _check_against_sympy(sympy, a) -> tuple[int, int]:
    """Check a against the sympy route, verify included; return
    (aind, dind) as sympy found them."""
    d = _doubled(sympy, a)
    k = _index(d)
    d_k = d**k
    d_drazin = d_k * (d ** (2 * k + 1)).pinv() * d_k
    assert _doubled(sympy, wddi(a)) == d_drazin
    aind = _index(_sympy(sympy, a.std))
    profile = index_profile(a)
    assert (profile.aind, profile.dind) == (aind, k)
    exists = k == aind
    assert existence_profile(a).ddi_exists == exists
    if exists:
        assert ddi(a) == wddi(a)
    else:
        with pytest.raises(DoesNotExist):
            ddi(a)
    _check_verify(sympy, a, d, d_drazin, aind, k)
    return aind, k


@pytest.mark.parametrize(
    "n, aind, dind", HIGH_INDEX, ids=[f"n{n}-aind{k}-dind{t}" for n, k, t in HIGH_INDEX]
)
def test_high_index_inputs_match_sympy(n, aind, dind):
    sympy = pytest.importorskip("sympy")
    assert _check_against_sympy(sympy, _high_index(n, aind, dind)) == (aind, dind)


def test_general_inputs_match_sympy():
    sympy = pytest.importorskip("sympy")
    found = {_check_against_sympy(sympy, a) for a in _general()}
    # the DDI is present on some inputs and absent on others
    assert len({aind == dind for aind, dind in found}) == 2


def _zero_and_nilpotent():
    rng = random.Random(2412)
    for n in range(8):
        yield RealMatrix.zeros(n, n)
        yield support.rand_nilpotent(rng, n)


def _dense():
    """Products of n x r and r x n matrices of p/q entries, |p|, q <= 9."""
    rng = random.Random(2413)
    for n, r in ((12, 10), (16, 13)):
        yield support.rand_matrix(rng, n, r) @ support.rand_matrix(rng, r, n)


def _real_inputs():
    yield from (_high_index(*case).std for case in HIGH_INDEX)
    yield from (a.std for a in _general())
    yield from _zero_and_nilpotent()
    yield from _dense()


def test_p_inv_is_the_inverse_of_p():
    for m in _real_inputs():
        form = core_nilpotent(m)
        assert form.p_inv == support.inverse_reference(form.p), m
        if form.r == 0:
            assert form.p == form.p_inv == RealMatrix.identity(m.rows)


def _form_inputs():
    """rand_high_index standard parts at index k from 1 to 4 and n from k
    to 7, each at r = 0, at the largest r, n - k, and at a random r between
    them where there is room; each is drawn until its r is the one sought."""
    rng = random.Random(2414)
    for k in (1, 2, 3, 4):
        for n in range(k, 8):
            for r in sorted({0, n - k, rng.randrange(1, n - k) if n - k > 1 else 0}):
                m = support.rand_high_index(rng, n, k, dind=k).std
                while rank(m**k) != r:
                    m = support.rand_high_index(rng, n, k, dind=k).std
                yield m


def test_the_form_is_read_off_the_factors_at_every_index():
    sympy = pytest.importorskip("sympy")
    kinds = set()
    for m in _form_inputs():
        n = m.rows
        form = core_nilpotent(m)
        k, r = form.k, form.r
        m_s, p_s = _sympy(sympy, m), _sympy(sympy, form.p)
        c_s, n_s = _sympy(sympy, form.c), _sympy(sympy, form.n)
        assert (k, r) == (_index(m_s), (m_s**k).rank()), m
        assert p_s.inv() * m_s * p_s == sympy.diag(c_s, n_s), m
        # M^k = F G: F the pivot columns of M^k, G the nonzero rows of its
        # reduced form, and C = G M[:, pivots]
        reduced, pivots = (m_s**k).rref()
        assert p_s.extract(list(range(n)), list(range(r))) == (m_s**k).extract(
            list(range(n)), list(pivots)
        )
        assert c_s == reduced.extract(list(range(r)), list(range(n))) * m_s.extract(
            list(range(n)), list(pivots)
        )
        assert _sympy(sympy, form.c_inv) == c_s.inv()
        if k == 1:
            assert form.n == RealMatrix.zeros(n - r, n - r)
        kinds.add((k, "r = 0" if r == 0 else "r = n - 1" if r == n - 1 else "0 < r < n - 1"))
    assert {k for k, _ in kinds} == {1, 2, 3, 4}
    assert {(1, "r = 0"), (1, "r = n - 1"), (1, "0 < r < n - 1")} <= kinds
    assert {(k, "r = 0") for k in (2, 3, 4)} <= kinds
    assert {(k, "0 < r < n - 1") for k in (2, 3)} <= kinds


def _dgi_inputs():
    """The dgi_* fixtures; rand_aind1 and rand_aind1_with_dgi at r = 0,
    0 < r < n and r = n, and at n = 7, r = 4, the shape of index1_solve;
    each random input is drawn until its r is the one sought."""
    fixtures = Path(__file__).parent / "fixtures"
    for name in ("dgi_absent_2x2", "dgi_absent_aind1_5x5", "dgi_present_2x2"):
        yield parse_matrix((fixtures / f"{name}.json").read_bytes())
    rng = random.Random(2415)
    for draw in (support.rand_aind1, support.rand_aind1_with_dgi):
        for n, r in ((3, 0), (4, 0), (4, 2), (5, 3), (3, 3), (7, 4)):
            a = draw(rng, n)
            while rank(a.std) != r:
                a = draw(rng, n)
            yield a


def test_dgi_and_its_witness_match_sympy():
    sympy = pytest.importorskip("sympy")
    outcomes = set()
    for a in _dgi_inputs():
        aind, dind = _check_against_sympy(sympy, a)
        assert aind == 1, a
        exists = dind == 1
        m, m0 = _sympy(sympy, a.std), _sympy(sympy, a.dual)
        m_plus, eye = m.pinv(), sympy.eye(a.rows)
        witness = (eye - m * m_plus) * m0 * (eye - m_plus * m)
        assert witness.is_zero_matrix == exists, a
        if exists:
            assert dgi(a) == wddi(a), a
        else:
            with pytest.raises(DoesNotExist) as info:
                dgi(a)
            assert _sympy(sympy, info.value.witness) == witness, a
        r, n = m.rank(), a.rows
        outcomes.add((exists, "r = 0" if r == 0 else "r = n" if r == n else "0 < r < n"))
    assert outcomes == {
        (False, "r = 0"), (False, "0 < r < n"),
        (True, "r = 0"), (True, "0 < r < n"), (True, "r = n"),
    }


def _rank_profile_inputs():
    """Every fixture file (the square ones and the four rhs_* columns);
    rank-1 and full-rank p/q standard parts with p/q dual parts at 2 x 5,
    5 x 2 and 3 x 4; and a rank-1 standard part with a zero dual part."""
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.json")):
        yield path.stem, parse_matrix(path.read_bytes())
    rng = random.Random(2416)
    for rows, cols in ((2, 5), (5, 2), (3, 4)):
        rank_1 = support.rand_matrix(rng, rows, 1) @ support.rand_matrix(rng, 1, cols)
        for name, std in (("rank_1", rank_1), ("dense", support.rand_matrix(rng, rows, cols))):
            yield f"{name}_{rows}x{cols}", DualMatrix(std, support.rand_matrix(rng, rows, cols))
    std = support.rand_matrix(rng, 4, 1) @ support.rand_matrix(rng, 1, 3)
    yield "zero_dual_4x3", DualMatrix(std, RealMatrix.zeros(4, 3))


def test_rank_profile_matches_sympy():
    # arank = rank(M) and drank = rank(D) - rank(M), both ranks in sympy
    sympy = pytest.importorskip("sympy")
    names, excess = set(), set()
    for name, a in _rank_profile_inputs():
        arank = _sympy(sympy, a.std).rank()
        drank = _doubled(sympy, a).rank() - arank
        assert rank_profile(a) == (arank, drank), name
        names.add(name.split("_")[0])
        excess.add(drank > arank)
    assert {"rhs", "rank", "dense", "zero"} <= names
    assert excess == {True, False}
