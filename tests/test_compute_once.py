"""Each dual matrix is analysed once: the index, the core-nilpotent form,
(K22, dind), the dual block form and the rank profile are built on first use
and kept in an analysis that later calls on the very same object share.

A single call computes only what its formulas need: the WDDI and DDI
compute no rank profile, and the solvers read their conditions off
P^^(-1) b^ = (b1; b2) with no range test.  solve_general reads "b2.dual lies
in the range of N" as N (N+ b2.dual) = b2.dual, off the N+ its solution
family needs anyway, so on a kept analysis it eliminates only what N+
does, and nothing at r = n.  verify forms A X and X A once each and reads
all three equations off them.  Only index_profile takes the two ranks of a
dual matrix, once; existence_profile reads its rank equality off K22 and,
like the inverses and solvers, forms no dual power.  ddi decides existence
off K22 as well and forms the obstruction only as its witness.

A sequence of calls on one object builds each part once.  A value-equal but
distinct object gets an analysis of its own (nothing is keyed on value),
analysing another object releases the first (memory stays bounded), and a
part whose construction raised is built again on the next call.  No form
inverts the n x n P: it reads P^(-1) off M^k = F G and inverts the r x r
C alone.  An invertible standard part forms no power of M and no G F, and no
call, the real drazin and group_inverse included, multiplies a RealMatrix
by an identity factor there, where P = I, or by an empty block of P.
At every index the form reads C and N off the factors and takes no
similarity P^(-1) M P and no guard product; only checked mode forms them,
and only checked mode powers N.

The index reads each rank off a forward elimination alone: its first pass
is that of [M | I], with pivots sought in M's columns, so on an invertible
M it runs that one forward pass and no back pass, and the form reads
C^(-1) = M^(-1) off it with one back pass and no inverse; on a singular M
the index runs exactly one back pass, on the r_k rows of a basis of the
row space of M^k.  It forms no power of M: each product it takes is a row
basis r_j x n times M, or M times an n x r block of columns.  The real form
keeps C^(-1), so its Drazin inverse and the dual form's C^^(-1) invert
nothing more, and dgi's witness takes M+ from the form's P and P^(-1).

index_profile takes its two ranks from the bottom block N^ of the form, so
the doubled matrix it reduces has n - r rows, not n, and none when N^ has
a zero dual part; the dual index is read off that same N^.  N^ is kept
apart from the rest of the form, so
index_profile, ddi_obstruction and verify's wddi-t exponent form no
C^^(-1) (though the real form they build holds the r x r C^(-1)); a later
WDDI forms it once.

The counted index and core-nilpotent functions are the private workers that
the public index, core_nilpotent and the analysis all run through; the
counted rank_profile is the public one.  The counted range test is the
doubled-system one in ``support``; no library module binds it, so it is
counted there.
"""

import gc
import random
from math import gcd
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import dualinv
from dualinv import DualMatrix, RealMatrix, ddi, solve_general, solve_restricted, wddi
from dualinv import ddi_obstruction, dgi, existence_profile, index_profile
from dualinv import parse_matrix, verify, wdgi
from dualinv import block_decomposition, dual_linear, elimination, indices, matrices
from dualinv import real_inverses

import cases
import support

FIXTURE_DIR = Path(__file__).parent / "fixtures"

COUNTED = {
    "index": (real_inverses, "_index_power"),
    "core_nilpotent": (real_inverses, "_core_nilpotent_at"),
    "bottom_block_powers": (block_decomposition, "_bottom_block_powers"),
    "decompose": (block_decomposition, "_decompose"),
    "rank_profile": (indices, "rank_profile"),
    "in_range": (support, "in_range"),
    "dual_power": (matrices, "dual_power"),
}

FIXTURES = {
    "ddi_absent_4x4": (cases.DDI_ABSENT, DualMatrix.zeros(4, 1)),
    "ddi_present_4x4": (cases.DDI_PRESENT, DualMatrix.zeros(4, 1)),
    "dgi_absent_2x2": (cases.DGI_ABSENT, cases.RHS_MIXED),
    "dgi_present_2x2": (cases.DGI_PRESENT, cases.RHS_MIXED),
}

CALLS = {
    "wddi": lambda a, b: wddi(a),
    "ddi": lambda a, b: ddi(a),
    "solve_general": lambda a, b: solve_general(a, b),
    "solve_restricted": lambda a, b: solve_restricted(a, b),
}

MORE_CALLS = {
    "index_profile": lambda a, b: index_profile(a),
    "existence_profile": lambda a, b: existence_profile(a),
    "ddi_obstruction": lambda a, b: ddi_obstruction(a),
    "verify_wddi_t": lambda a, b: verify(a, a, "wddi-t"),
    "wdgi": lambda a, b: wdgi(a),
    "dgi": lambda a, b: dgi(a),
}

# rank profiles each call takes: of N^ in index_profile; none elsewhere
RANK_PROFILES = {"index_profile": 1}

SEQUENCES = {
    "square_task": ("index_profile", "wddi", "ddi"),
    "index1_task": ("wdgi", "dgi", "solve_general", "solve_restricted"),
    "every_call": tuple(sorted({**CALLS, **MORE_CALLS})),
}


@pytest.fixture
def counts(monkeypatch):
    """Count calls to the counted functions under every name that binds them."""
    seen = Counter()
    for label, (home, name) in COUNTED.items():
        original = getattr(home, name)

        def counting(*args, _label=label, _original=original, **kwargs):
            seen[_label] += 1
            return _original(*args, **kwargs)

        _patch_everywhere(monkeypatch, original, counting)
    return seen


def _patch_everywhere(monkeypatch, original, replacement):
    """Bind replacement under every name in dualinv and support that binds
    original."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name.startswith("dualinv") or module is support):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, replacement)


def _fresh(fixture):
    """The fixture's matrix as a new object, so no earlier analysis applies."""
    a, b = FIXTURES[fixture]
    return DualMatrix(a.std, a.dual), b


# the real inverses of the standard part, which take no analysis
REAL_CALLS = {
    "drazin": lambda a, b: real_inverses.drazin(a.std),
    "group_inverse": lambda a, b: real_inverses.group_inverse(a.std),
}


def _call(name, a, b):
    try:
        {**CALLS, **MORE_CALLS, **REAL_CALLS}[name](a, b)
    except (dualinv.DoesNotExist, dualinv.IndexTooLarge, dualinv.Inconsistent):
        pass


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_index_and_core_nilpotent_run_at_most_once(counts, call, fixture):
    _call(call, *_fresh(fixture))
    assert counts["index"] <= 1, dict(counts)
    assert counts["core_nilpotent"] <= 1, dict(counts)
    # the patch reached the call: every call needs the index of the
    # (singular) standard part
    assert counts["index"] == 1


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_no_dual_index_and_no_range_test(counts, call, fixture):
    _call(call, *_fresh(fixture))
    assert counts["rank_profile"] == 0, dict(counts)
    assert counts["in_range"] == 0, dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(MORE_CALLS))
def test_block_form_calls_run_core_nilpotent_at_most_once(counts, call, fixture):
    _call(call, *_fresh(fixture))
    assert counts["core_nilpotent"] <= 1, dict(counts)
    assert counts["index"] <= 1, dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(MORE_CALLS))
def test_rank_profile_only_where_the_ranks_are_asked_for(counts, call, fixture):
    _call(call, *_fresh(fixture))
    assert counts["rank_profile"] == RANK_PROFILES.get(call, 0), dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize(
    "call",
    sorted(
        set(CALLS)
        | {"ddi_obstruction", "dgi", "existence_profile", "wdgi"}
    ),
)
def test_inverses_and_solvers_form_no_dual_power(counts, call, fixture):
    _call(call, *_fresh(fixture))
    assert counts["dual_power"] == 0, dict(counts)
    assert counts["rank_profile"] == 0, dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_the_support_corollary_solver_shares_the_analysis(counts, fixture):
    # the second route reads dind off index_profile (its one rank profile)
    # and G off wddi, both on the same object, so it forms the analysis once
    a, b = _fresh(fixture)
    try:
        support.solve_ind1_corollaries(a, b, False)
    except (dualinv.IndexTooLarge, dualinv.Inconsistent):
        pass
    assert counts["index"] == 1, dict(counts)
    assert counts["core_nilpotent"] == 1, dict(counts)
    assert counts["rank_profile"] == 1, dict(counts)
    assert counts["dual_power"] == 0, dict(counts)
    assert counts["in_range"] == 0, dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
def test_a_sequence_on_one_object_analyses_it_once(counts, sequence, fixture):
    a, b = _fresh(fixture)
    for call in SEQUENCES[sequence]:
        _call(call, a, b)
    assert counts["index"] == 1, dict(counts)
    assert counts["core_nilpotent"] == 1, dict(counts)
    assert counts["decompose"] <= 1, dict(counts)
    assert counts["bottom_block_powers"] <= 1, dict(counts)
    if sequence == "index1_task" and not fixture.startswith("dgi"):
        # at aind > 1 the index-1 calls stop at the real form, before any dual part
        assert counts["decompose"] == counts["bottom_block_powers"] == 0, dict(counts)
    wanted = {"every_call": 1, "square_task": 1}.get(sequence, 0)
    assert counts["rank_profile"] == wanted, dict(counts)


def test_the_square_task_builds_each_part_once(counts):
    a, _ = _fresh("ddi_present_4x4")
    index_profile(a)
    wddi(a)
    ddi(a)
    assert counts == Counter(
        index=1, core_nilpotent=1, bottom_block_powers=1, decompose=1, rank_profile=1
    )


def test_an_equal_copy_gets_its_own_analysis(counts):
    a, _ = _fresh("ddi_absent_4x4")
    copy = DualMatrix.of(a.std.entries, a.dual.entries)
    assert copy == a and copy is not a
    assert wddi(a) == wddi(copy)
    assert counts["index"] == 2 and counts["core_nilpotent"] == 2, dict(counts)
    # and going back to the first object analyses it again: only one is kept
    wddi(a)
    assert counts["index"] == 3, dict(counts)


def test_analysing_another_object_releases_the_first():
    a, _ = _fresh("ddi_present_4x4")
    wddi(a)
    ref = weakref.ref(a)
    del a
    gc.collect()
    assert ref() is not None  # still held as the last object analysed
    wddi(_fresh("dgi_present_2x2")[0])
    gc.collect()
    assert ref() is None


def test_verify_at_a_fixed_exponent_keeps_the_analysis(counts):
    # group and wdgi need no index, so a verify of another object of those
    # kinds neither analyses it nor drops the kept analysis
    a, _ = _fresh("ddi_absent_4x4")
    b, _ = _fresh("dgi_present_2x2")
    x = wddi(a)
    for kind in ("group", "wdgi"):
        verify(b, b, kind)
    assert wddi(a) is x
    assert counts["index"] == 1, dict(counts)
    with pytest.raises(dualinv.DimensionError, match="^operation needs a square dual matrix$"):
        verify(DualMatrix.zeros(2, 3), DualMatrix.zeros(2, 3), "group")


def test_index_too_large_does_not_spoil_a_later_wddi(counts):
    a, _ = _fresh("ddi_absent_4x4")
    with pytest.raises(dualinv.IndexTooLarge):
        wdgi(a)
    with pytest.raises(dualinv.IndexTooLarge):
        dgi(a)
    x = wddi(a)
    assert verify(a, x, "wddi-t").all_hold
    assert x == wddi(_fresh("ddi_absent_4x4")[0])
    assert counts["index"] == 2 and counts["core_nilpotent"] == 2, dict(counts)


def test_a_part_that_raised_is_built_again(monkeypatch):
    original = block_decomposition._decompose
    calls = Counter()

    def fails_once(*args):
        calls["decompose"] += 1
        if calls["decompose"] == 1:
            raise dualinv.InternalInvariantViolation("injected")
        return original(*args)

    monkeypatch.setattr(block_decomposition, "_decompose", fails_once)
    a, _ = _fresh("ddi_present_4x4")
    with pytest.raises(dualinv.InternalInvariantViolation):
        wddi(a)
    x = wddi(a)
    assert ddi(a) == x
    assert calls["decompose"] == 2
    assert verify(a, x, "drazin-k").all_hold


def _recording(original, seen):
    def recording(*args):
        seen.append(args)
        return original(*args)

    return recording


def _recording_forward(seen):
    """A stand-in for ``elimination._forward`` that records the rows, the
    width and the pivot search of each forward pass."""
    original = elimination._forward

    def recording(work, search):
        seen.append((len(work), len(work[0]) if work else 0, search))
        return original(work, search)

    return recording


def test_invertible_standard_part_skips_the_index(counts, monkeypatch):
    # one forward pass runs on M, that of [M | I] (its rank ends the index
    # at 1 with no power of M), and one back pass, which reads
    # C^(-1) = M^(-1) off it; inverse, which only C needs below r = n,
    # never runs
    rng = random.Random(131)
    inputs = [support.rand_dual_invertible_std(rng, n) for n in (1, 3, 5)]
    references = [dual_linear.dual_inverse(a) for a in inputs]
    forward, bordered, back, reduced, inverted = [], [], [], [], []
    monkeypatch.setattr(elimination, "_forward", _recording_forward(forward))
    monkeypatch.setattr(
        elimination, "_back_substitute", _recording(elimination._back_substitute, back)
    )
    for original, seen in (
        (elimination._eliminate_bordered, bordered),
        (elimination._reduce, reduced),
        (elimination.inverse, inverted),
    ):
        _patch_everywhere(monkeypatch, original, _recording(original, seen))
    for a, reference in zip(inputs, references):
        n = a.rows
        forward.clear()
        profile = index_profile(a)
        assert (profile.arank, profile.aind, profile.dind) == (n, 1, 1)
        x = wddi(a)
        assert ddi(a) == wdgi(a) == dgi(a) == x == reference
        assert ddi_obstruction(a).is_zero
        form = block_decomposition.block_diagonalize_ind1(a)
        assert form.phat == DualMatrix.identity(n) and form.chat == a
        # besides [M | I], only the rank of the empty N^ runs a forward pass
        assert forward == [(n, 2 * n, n), (0, 0, 0)], forward
    assert [args[0] for args in bordered] == [a.std for a in inputs]
    assert all(args[0] is a.std for args, a in zip(bordered, inputs))
    assert [len(args[1]) for args in back] == [a.rows for a in inputs]
    assert reduced == []
    assert inverted == []
    assert counts["index"] == counts["core_nilpotent"] == 3, dict(counts)
    assert counts["rank_profile"] == 3, dict(counts)


def test_the_index_of_an_invertible_matrix_runs_one_forward_pass_and_no_back_pass(
    monkeypatch,
):
    # the pass of [M | I]; the back pass that reads M^(-1) off it is left
    # to the form, which index() does not build
    forward, back = [], []
    monkeypatch.setattr(elimination, "_forward", _recording_forward(forward))
    monkeypatch.setattr(
        elimination, "_back_substitute", _recording(elimination._back_substitute, back)
    )
    rng = random.Random(167)
    inputs = [support.rand_invertible(rng, n) for n in (1, 2, 4, 6)]
    inputs += [support.rand_matrix(rng, n, n) for n in (3, 5, 8)]
    for m in inputs:
        n = m.rows
        forward.clear()
        assert real_inverses.index(m) == 1
        assert forward == [(n, 2 * n, n)], (n, forward)
    assert back == []


def test_the_index_of_a_singular_matrix_runs_one_back_pass_on_a_row_basis(monkeypatch):
    # R_j M for j = 1..k, each R_j the r_j = rank(M^j) rows of a row basis,
    # then k - 1 products M (M^j[:, pivots]); one back pass, on R_k
    rng = random.Random(133)
    singular = [support.rand_aind1(rng, 4).std, support.rand_nilpotent(rng, 4)]
    singular += [support.rand_high_index(rng, 6, aind, dind=aind).std for aind in (2, 3, 4)]
    singular += [RealMatrix.zeros(3, 3)]
    rank_sequences = []
    for m in singular:
        k = support.index_power_reference(m)[0]
        rank_sequences.append([elimination.rank(m**j) for j in range(1, k + 1)])
    back_passes, reduced, products = [], [], []
    original = elimination._back_substitute
    monkeypatch.setattr(elimination, "_back_substitute", _recording(original, back_passes))
    original = real_inverses._reduce
    monkeypatch.setattr(real_inverses, "_reduce", _recording(original, reduced))
    original = RealMatrix.__matmul__
    monkeypatch.setattr(RealMatrix, "__matmul__", _recording(original, products))
    for m, ranks in zip(singular, rank_sequences):
        back_passes.clear()
        reduced.clear()
        products.clear()
        k, _, (g, pivots), bordered = real_inverses._index_power(m)
        assert bordered is None
        n, r = m.rows, len(pivots)
        assert k == len(ranks) and r == ranks[-1] < n
        assert len(back_passes) == 1 and len(back_passes[0][1]) == r
        assert len(reduced) == 1 and reduced[0][0].shape == (r, n) == g.shape
        rows = [(left.rows, right is m) for left, right in products[:k]]
        assert rows == [(rank_j, True) for rank_j in ranks]
        # R_1, the left block of the pass of [M | I], has each row divided
        # by the gcd of its ints
        assert all(gcd(*row) == 1 for row in products[0][0].nums)
        columns = [(left is m, right.shape) for left, right in products[k:]]
        assert columns == [(True, (n, r))] * (k - 1)


def test_the_form_inverts_only_the_r_x_r_block(monkeypatch):
    # P^(-1) is read off M^k = F G, so inverse sees the r x r core block
    # C = G M[:, pivots] once, at every index, and never P or G F:
    # (G F)^(-1) is C^(-k); at r = 0 C is empty.  The form keeps C^(-1), so
    # its Drazin inverse inverts nothing
    inverted = []
    original = real_inverses.inverse
    monkeypatch.setattr(real_inverses, "inverse", _recording(original, inverted))
    rng = random.Random(151)
    singular = [support.rand_high_index(rng, 6, aind, dind=aind).std for aind in (1, 2, 3)]
    singular += [support.rand_low_rank(rng, n, n - 2) for n in (3, 5, 7)]
    singular += [support.rand_nilpotent(rng, n) for n in (1, 3, 5)]
    singular += [RealMatrix.zeros(n, n) for n in (1, 4)]
    empty, seen_k = 0, set()
    for m in singular:
        inverted.clear()
        form = real_inverses.core_nilpotent(m)
        r = form.r
        assert r < m.rows
        assert len(inverted) == 1 and inverted[0][0] is form.c
        assert form.c.shape == (r, r)
        seen_k.add(form.k)
        inverted.clear()
        form.drazin()
        assert inverted == []
        real_inverses.drazin(m)
        # C of the form drazin builds
        assert [args[0].shape for args in inverted] == [(r, r)]
        empty += r == 0
    assert empty >= 5
    assert {1, 2, 3} <= seen_k


def _aind1_inputs():
    """Inputs whose standard part has index 1 below r = n: M = 0 (r = 0),
    0 < r < n, and the dgi_* fixtures."""
    yield DualMatrix.of([[0, 0, 0]] * 3, [[1, 2, 0], [0, 0, 1], [0, 0, 0]])
    yield from (parse_matrix(path.read_bytes()) for path in sorted(FIXTURE_DIR.glob("dgi_*.json")))
    rng = random.Random(173)
    yield from (_index1_with_bottom_block(rng, 5, r, 1) for r in (1, 2, 4))


@pytest.fixture
def form_products(monkeypatch):
    """Record (left shape, right shape, right is M) for each RealMatrix
    product taken inside the real form of M."""
    seen, inside = [], []
    original_form = real_inverses._core_nilpotent_at

    def form(m, *args):
        inside.append(m)
        try:
            return original_form(m, *args)
        finally:
            inside.pop()

    _patch_everywhere(monkeypatch, original_form, form)
    original = RealMatrix.__matmul__

    def recording(left, right):
        if inside:
            seen.append((left.shape, right.shape, right is inside[-1]))
        return original(left, right)

    monkeypatch.setattr(RealMatrix, "__matmul__", recording)
    return seen


def _form_inputs():
    """Inputs whose standard part has index 1 to 4 below r = n, at r = 0
    and 0 < r < n."""
    yield from _aind1_inputs()
    rng = random.Random(181)
    for n, aind in ((5, 2), (6, 3), (7, 4), (4, 2), (6, 2), (5, 3), (6, 4)):
        yield support.rand_high_index(rng, n, aind, dind=aind)


@pytest.mark.parametrize("checked", [False, True])
def test_only_checked_mode_forms_the_similarity(form_products, monkeypatch, checked):
    # the form reads C and N off the factors, so production takes no
    # n x n by n x n product but N = M Z at r = 0 above index 1, where
    # Z = I; checked mode forms P^(-1) M P once and checks it, and at r = 0
    # its k - 1 products for N^k are n x n too.  The r x r products are the
    # k - 1 of C^(-k), and checked mode's k - 1 of C^k
    monkeypatch.setattr(real_inverses, "_checked", checked)
    seen = set()
    for a in _form_inputs():
        n = a.rows
        for call in (wddi, lambda a: real_inverses.drazin(a.std)):
            form_products.clear()
            call(a)
            cn = block_decomposition._analysis(a).cn
            k, r = cn.k, cn.r
            assert r < n
            square = [p for p in form_products if p[:2] == ((n, n), (n, n))]
            expected = [((n, n), (n, n), False)] if r == 0 and k > 1 else []
            if checked:
                expected += [((n, n), (n, n), True), ((n, n), (n, n), False)]
                expected += [((n, n), (n, n), False)] * (k - 1) * (r == 0)
            assert square == expected, form_products
            if 2 * r != n:
                core = [p for p in form_products if p[:2] == ((r, r), (r, r))]
                assert len(core) == (k - 1) * (2 if checked else 1), form_products
        seen.add((k, "r = 0" if r == 0 else "0 < r < n"))
    assert {k for k, _ in seen} == {1, 2, 3, 4}
    assert {(1, "r = 0"), (1, "0 < r < n"), (2, "0 < r < n")} <= seen
    assert any(k > 1 and kind == "r = 0" for k, kind in seen), seen


@pytest.mark.parametrize("checked", [False, True])
def test_above_index_1_only_checked_mode_powers_the_nilpotent_block(
    form_products, monkeypatch, checked
):
    # N^k = 0 takes k - 1 products of the (n - r) x (n - r) block N
    monkeypatch.setattr(real_inverses, "_checked", checked)
    rng = random.Random(179)
    seen_k = set()
    for n, aind in ((5, 2), (6, 3), (7, 4), (7, 2)):
        m = support.rand_high_index(rng, n, aind, dind=aind).std
        form_products.clear()
        form = real_inverses.core_nilpotent(m)
        size = n - form.r
        assert form.k == aind and 2 * form.r != n
        powers = [p for p in form_products if p[:2] == ((size, size), (size, size))]
        assert len(powers) == (aind - 1 if checked else 0), form_products
        seen_k.add(form.k)
    assert seen_k == {2, 3, 4}


def _index_profile_inputs():
    rng = random.Random(137)
    yield from (_fresh(f)[0] for f in sorted(FIXTURES))
    for n in (3, 4, 5):
        yield support.rand_dual_invertible_std(rng, n)
        yield support.rand_aind1(rng, n)
    for aind, present in ((2, True), (2, False), (3, False)):
        yield support.rand_high_index(rng, aind + 2, aind, present)


def test_index_profile_doubles_only_the_bottom_block(monkeypatch):
    # and only when that block has a nonzero dual part: the doubled form of
    # a zero one has twice the rank of N
    doubled_rows = []
    original = dual_linear.doubled
    _patch_everywhere(monkeypatch, original, _recording(original, doubled_rows))
    cores, zero_duals = 0, set()
    for a in _index_profile_inputs():
        doubled_rows.clear()
        index_profile(a)
        form = block_decomposition._analysis(a).form
        zero_dual = form.nhat.dual.is_zero
        assert [args[0].rows for args in doubled_rows] == ([] if zero_dual else [a.rows - form.r])
        cores += form.r > 0
        zero_duals.add(zero_dual)
    # the bottom block is smaller than A^ on most inputs, and both cases occur
    assert cores >= 6
    assert zero_duals == {True, False}


def test_the_dual_index_is_read_off_the_forms_bottom_block(monkeypatch):
    seen = []
    original = block_decomposition._bottom_block_powers
    _patch_everywhere(monkeypatch, original, _recording(original, seen))
    for a in _index_profile_inputs():
        seen.clear()
        index_profile(a)
        analysis = block_decomposition._analysis(a)
        assert len(seen) == 1
        assert seen[0][0] is analysis.form.nhat
        assert seen[0][1] == analysis.aind


@pytest.mark.parametrize("call", ["index_profile", "ddi_obstruction", "verify_wddi_t"])
def test_a_lone_call_reading_only_the_bottom_block_inverts_nothing(monkeypatch, call):
    # neither a dual inverse nor the C^^(-1) of the form, which shares its formula
    inverted = []
    for original in (dual_linear.dual_inverse, dual_linear._dual_inverse_from):
        _patch_everywhere(monkeypatch, original, _recording(original, inverted))
    for a in _index_profile_inputs():
        _call(call, a, None)
        assert inverted == [], call


def test_the_square_task_inverts_the_core_block_once(monkeypatch):
    # C^^(-1) = C^(-1) - eps C^(-1) E11 C^(-1) is formed once, from the
    # C^(-1) that the real form keeps; no dual matrix is inverted afresh
    formed, inverted = [], []
    for original, seen in (
        (dual_linear._dual_inverse_from, formed), (dual_linear.dual_inverse, inverted)
    ):
        _patch_everywhere(monkeypatch, original, _recording(original, seen))
    for a in _index_profile_inputs():
        formed.clear()
        for call in SEQUENCES["square_task"]:
            _call(call, a, None)
        analysis = block_decomposition._analysis(a)
        form = analysis.form
        assert len(formed) == 1
        assert formed[0][0] is analysis.cn.c_inv
        assert formed[0][1] == form.chat.dual
        assert form.chat @ form.chat_inv == DualMatrix.identity(form.r)
    assert inverted == []


def _index1_with_bottom_block(rng, n, r, n_rank):
    """P (diag(C, 0) + eps*E) P^(-1) with aind 1, C r x r and E22, the block N
    of the form, of rank n_rank."""
    p = support.rand_invertible(rng, n)
    core = support.block_diag(support.rand_invertible(rng, r), RealMatrix.zeros(n - r, n - r))
    e = matrices.block2x2(
        support.rand_int_matrix(rng, r, r),
        support.rand_int_matrix(rng, r, n - r),
        support.rand_int_matrix(rng, n - r, r),
        support.rand_low_rank(rng, n - r, n_rank),
    )
    p_inv = elimination.inverse(p)
    return DualMatrix(p @ core @ p_inv, p @ e @ p_inv)


def _solver_inputs():
    """(A^, b^) pairs: the fixtures and index-1 inputs with N = 0, a
    rank-deficient N, an invertible N and no N at all (r = n), each with
    right-hand sides P^ (c1; c2) for c2 zero, eps N y, eps v and random."""
    yield from FIXTURES.values()
    rng = random.Random(157)
    inputs = [_index1_with_bottom_block(rng, 5, 2, n_rank) for n_rank in (0, 0, 1, 2, 3, 3)]
    inputs += [support.rand_dual_invertible_std(rng, n) for n in (2, 4)]
    for a in inputs:
        d = block_decomposition.block_diagonalize_ind1(a)
        m = a.rows - d.r
        c1 = support.rand_dual_parameter(rng, d.r)
        v = support.rand_dual_parameter(rng, m)
        in_range, outside = DualMatrix.eps(d.nblock @ v.std), DualMatrix.eps(v.dual)
        for c2 in (DualMatrix.zeros(m, 1), in_range, outside, v):
            yield a, d.phat @ matrices.dual_vstack(c1, c2)


def test_the_general_solver_eliminates_only_what_the_pseudo_inverse_of_n_does(monkeypatch):
    # the range condition is read off N+ b2.dual, so no elimination of
    # [N | b2.dual] runs beside the one of N+, and none runs at r = n;
    # matrices are compared, as an (n-r) x (n-r+1) one can have the shape of
    # the r' x 2r' block that N+ inverts
    eliminated = []
    original = elimination._eliminate
    _patch_everywhere(monkeypatch, original, _recording(original, eliminated))
    outcomes = Counter()
    for a, b in _solver_inputs():
        d = block_decomposition._analysis(a).form  # the kept analysis, at any index
        eliminated.clear()
        try:
            solve_general(a, b)
        except dualinv.IndexTooLarge:
            outcome = "index"
        except dualinv.InconsistentStandardPart:
            outcome = "standard-part"
        except dualinv.InconsistentDualPart:
            outcome = "dual-range"
        else:
            outcome = "ok"
        seen = [args[0] for args in eliminated]
        eliminated.clear()
        if outcome in ("ok", "dual-range") and d.r < a.rows:
            real_inverses.moore_penrose(d.nblock)
        assert seen == [args[0] for args in eliminated], (outcome, d.r, a.rows)
        n_rank = elimination.rank(d.nblock)
        if d.r == a.rows:
            n_kind = "empty"
        else:
            n_kind = {0: "zero", d.nblock.rows: "invertible"}.get(n_rank, "singular")
        outcomes[outcome, n_kind] += 1
    assert set(outcomes) >= {
        ("ok", "empty"), ("ok", "zero"), ("ok", "singular"), ("ok", "invertible"),
        ("dual-range", "zero"), ("dual-range", "singular"),
    }, outcomes
    assert {"standard-part", "index"} <= {outcome for outcome, _ in outcomes}, outcomes


@pytest.mark.parametrize("kind", matrices.VERIFY_KINDS)
def test_verify_forms_e_plus_3_dual_products(monkeypatch, kind):
    # e - 1 for A^e, then A X, X A, (A X) A^e and (X A) X
    products = []
    original = DualMatrix.__matmul__
    monkeypatch.setattr(DualMatrix, "__matmul__", _recording(original, products))
    for fixture in sorted(FIXTURES):
        a, _ = _fresh(fixture)
        x = wddi(a)
        existence_profile(a)
        products.clear()
        report = verify(a, x, kind)
        assert len(products) == report.exponent + 3, (fixture, kind, report.exponent)


def test_a_dgi_witness_on_a_kept_analysis_reduces_no_m(monkeypatch):
    # at aind 1 the form holds M = F C G with F = P[:, :r], G = P^(-1)[:r, :],
    # so M+ in the witness (I - M M+) M0 (I - M+ M) eliminates only the
    # r x r F^T M G^T
    rng = random.Random(163)
    inputs = [_fresh("dgi_absent_2x2")[0]]
    inputs += [_index1_with_bottom_block(rng, 5, 2, n_rank) for n_rank in (1, 2, 3)]
    inputs += [_index1_with_bottom_block(rng, 4, 1, 2), _index1_with_bottom_block(rng, 3, 0, 1)]
    reduced, bordered, eliminated = [], [], []
    for original, seen in (
        (elimination.rref, reduced),
        (elimination._eliminate_bordered, bordered),
        (elimination._eliminate, eliminated),
    ):
        _patch_everywhere(monkeypatch, original, _recording(original, seen))
    for a in inputs:
        wdgi(a)
        r = block_decomposition._analysis(a).cn.r
        reduced.clear()
        bordered.clear()
        eliminated.clear()
        with pytest.raises(dualinv.DoesNotExist) as info:
            dgi(a)
        assert reduced == [] and eliminated == []
        # inverse returns a 0 x 0 matrix with no elimination
        assert [args[0].shape for args in bordered] == [(r, r)] * (r > 0)
        with pytest.raises(dualinv.DoesNotExist) as witness_first:
            support.dgi_witness_first(a)
        assert info.value.witness == witness_first.value.witness


def test_ddi_forms_the_obstruction_only_as_its_witness(monkeypatch):
    # after index_profile and wddi, ddi multiplies only to form the witness
    products = []
    original = RealMatrix.__matmul__
    monkeypatch.setattr(RealMatrix, "__matmul__", _recording(original, products))
    rng = random.Random(149)
    inputs = [(support.rand_dual_invertible_std(rng, n), True) for n in (3, 5)]
    for aind, present in ((2, True), (3, True), (2, False), (3, False)):
        inputs.append((support.rand_high_index(rng, aind + 3, aind, present), present))
    for a, present in inputs:
        index_profile(a)
        wddi(a)
        products.clear()
        try:
            ddi(a)
        except dualinv.DoesNotExist:
            assert not present
        else:
            assert present
        assert len(products) == (0 if present else 2)


def test_the_form_takes_four_products_per_horner_step(monkeypatch):
    # at r < n: 4 per step of the two Horner sums (aind - 1 steps), 2 for T12
    # and T21, 4 for P T and T P^(-1), 2 for C^^(-1) off C^(-1); at r = n only
    # the last 2
    products = []
    original = RealMatrix.__matmul__
    monkeypatch.setattr(RealMatrix, "__matmul__", _recording(original, products))
    rng = random.Random(151)
    inputs = [(support.rand_dual_invertible_std(rng, 4), 1)]
    for aind in (1, 2, 3, 4):
        for present in (True, False):
            inputs.append((support.rand_high_index(rng, aind + 3, aind, present), aind))
    for a, aind in inputs:
        analysis = block_decomposition._analysis(a)
        cn, e_nhat = analysis.cn, analysis.e_nhat
        assert cn.k == aind
        products.clear()
        block_decomposition._decompose(a, cn, e_nhat)
        assert len(products) == (2 if cn.r == a.rows else 4 * aind + 4)


# Inputs whose form takes P = I: invertible standard parts (r = n).
IDENTITY_BASIS = {
    "invertible_3": (
        support.rand_dual_invertible_std(random.Random(139), 3),
        support.rand_dual_parameter(random.Random(141), 3),
    ),
    "invertible_5": (
        support.rand_dual_invertible_std(random.Random(143), 5),
        support.rand_dual_parameter(random.Random(145), 5),
    ),
}

IDENTITY_GUARDED_CALLS = (
    "index_profile", "wddi", "ddi", "wdgi", "dgi", "solve_general", "solve_restricted",
    "existence_profile", "ddi_obstruction", "drazin", "group_inverse",
)


def _is_identity(m):
    return m.rows == m.cols > 0 and m == RealMatrix.identity(m.rows)


@pytest.fixture
def trivial_factors(monkeypatch):
    """Record the shapes of every RealMatrix product with an identity factor
    and, apart, of every one with an empty factor (a dimension 0), such as
    the column block P[:, r:] of P at r = n."""
    seen = {"identity": [], "empty": []}
    original = RealMatrix.__matmul__

    def recording(left, right):
        if _is_identity(left) or _is_identity(right):
            seen["identity"].append((left.shape, right.shape))
        if 0 in left.shape or 0 in right.shape:
            seen["empty"].append((left.shape, right.shape))
        return original(left, right)

    monkeypatch.setattr(RealMatrix, "__matmul__", recording)
    return seen


@pytest.mark.parametrize("fixture", sorted(IDENTITY_BASIS))
@pytest.mark.parametrize("call", IDENTITY_GUARDED_CALLS)
def test_no_product_has_an_identity_factor(trivial_factors, call, fixture):
    a, b = IDENTITY_BASIS[fixture]
    _call(call, DualMatrix(a.std, a.dual), b)
    assert trivial_factors["identity"] == []


@pytest.mark.parametrize("fixture", sorted(IDENTITY_BASIS))
@pytest.mark.parametrize("call", IDENTITY_GUARDED_CALLS)
def test_no_product_has_an_empty_factor(trivial_factors, call, fixture):
    a, b = IDENTITY_BASIS[fixture]
    _call(call, DualMatrix(a.std, a.dual), b)
    assert trivial_factors["empty"] == []


def test_the_identity_guard_sees_the_padded_route(trivial_factors):
    # the padded conjugation of the support route does multiply by P^ = I
    a, _ = IDENTITY_BASIS["invertible_3"]
    d = block_decomposition.block_diagonalize_ind1(a)
    assert d.phat == DualMatrix.identity(3)
    support.wddi_from_given_decomposition(d.phat, d.chat, d.nhat)
    assert trivial_factors["identity"]


def test_the_empty_factor_guard_sees_an_empty_block(trivial_factors):
    # the bottom-block product of P^ diag(0, N^) P^^(-1) at r = n, written out
    a, _ = IDENTITY_BASIS["invertible_3"]
    d = block_decomposition.block_diagonalize_ind1(a)
    d.phat.submatrix(0, 3, 3, 3) @ d.nhat @ d.phat_inv.submatrix(3, 3, 0, 3)
    assert trivial_factors["empty"] == [((3, 0), (0, 0)), ((3, 0), (0, 3))]
