"""Each dual matrix is analysed once: the index, the core-nilpotent form,
(K22, dind), the dual block form and the rank profile are built on first use
and kept in an analysis that later calls on the very same object share.

A single call computes only what its formulas need: the WDDI and DDI
compute no rank profile, and the solvers read their conditions off
P^^(-1) b^ with no range test.  Only index_profile takes the two ranks of a
dual matrix, once; existence_profile reads its rank equality off K22 and,
like the inverses and solvers, forms no dual power.  ddi decides existence
off K22 as well and forms the obstruction only as its witness.

A sequence of calls on one object builds each part once.  A value-equal but
distinct object gets an analysis of its own (nothing is keyed on value),
analysing another object releases the first (memory stays bounded), and a
part whose construction raised is built again on the next call.  An
invertible standard part forms no power of M and no inverse of P, and no
call multiplies a RealMatrix by an identity factor there, where P = I.

The index reads each rank off a forward elimination alone: on an invertible
M it runs one forward pass, on M itself, and no back pass, and on a
singular M exactly one back pass, on M^k.

index_profile takes its two ranks from the bottom block N^ of the form, so
the doubled matrix it reduces has n - r rows, not n, and the dual index is
read off that same N^.  N^ is kept apart from the rest of the form, so
index_profile, ddi_obstruction and verify's wddi-t exponent invert no core
block C^; a later WDDI inverts it once.

The counted index and core-nilpotent functions are the private workers that
the public index, core_nilpotent and the analysis all run through; the
counted rank_profile is the public one.  The counted range test is the
doubled-system one in ``support``; no library module binds it, so it is
counted there.
"""

import gc
import random
import sys
import weakref
from collections import Counter

import pytest

import dualinv
from dualinv import DualMatrix, RealMatrix, ddi, solve_general, solve_restricted, wddi
from dualinv import ddi_obstruction, dgi, existence_profile, index_profile
from dualinv import solve_ind1_corollaries, verify, wdgi
from dualinv import block_decomposition, dual_linear, elimination, indices, matrices
from dualinv import real_inverses

import cases
import support

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
    "solve_ind1_corollaries": lambda a, b: solve_ind1_corollaries(a, b, False),
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


def _call(name, a, b):
    try:
        {**CALLS, **MORE_CALLS}[name](a, b)
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
        | {"ddi_obstruction", "dgi", "existence_profile", "solve_ind1_corollaries", "wdgi"}
    ),
)
def test_inverses_and_solvers_form_no_dual_power(counts, call, fixture):
    _call(call, *_fresh(fixture))
    assert counts["dual_power"] == 0, dict(counts)
    assert counts["rank_profile"] == 0, dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("sequence", sorted(SEQUENCES))
def test_a_sequence_on_one_object_analyses_it_once(counts, sequence, fixture):
    a, b = _fresh(fixture)
    for call in SEQUENCES[sequence]:
        _call(call, a, b)
    assert counts["index"] == 1, dict(counts)
    aind1 = fixture.startswith("dgi")
    # at aind > 1 the index-1 calls stop at the index, before the form
    expected_forms = int(aind1 or sequence != "index1_task")
    assert counts["core_nilpotent"] == expected_forms, dict(counts)
    assert counts["decompose"] <= 1, dict(counts)
    assert counts["bottom_block_powers"] <= 1, dict(counts)
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


def test_invertible_standard_part_skips_the_index(counts, monkeypatch):
    # inside real_inverses one forward pass runs, on M itself (its rank ends
    # the index at 1 with no power of M); no back pass runs there, and
    # inverse, which only P needs, never
    forward, reduced, inverted = [], [], []
    for name, seen in (("_eliminate", forward), ("_reduce", reduced), ("inverse", inverted)):
        original = getattr(real_inverses, name)
        monkeypatch.setattr(real_inverses, name, _recording(original, seen))
    rng = random.Random(131)
    stds = []
    for n in (1, 3, 5):
        a = support.rand_dual_invertible_std(rng, n)
        stds.append(a.std)
        profile = index_profile(a)
        assert (profile.arank, profile.aind, profile.dind) == (n, 1, 1)
        x = wddi(a)
        assert ddi(a) == wdgi(a) == dgi(a) == x == dual_linear.dual_inverse(a)
        assert ddi_obstruction(a).is_zero
        form = block_decomposition.block_diagonalize_ind1(a)
        assert form.phat == DualMatrix.identity(n) and form.chat == a
    assert len(forward) == len(stds), len(forward)
    assert all(args[0] is m for args, m in zip(forward, stds))
    assert reduced == []
    assert inverted == []
    assert counts["index"] == counts["core_nilpotent"] == 3, dict(counts)
    assert counts["rank_profile"] == 3, dict(counts)


def test_the_index_of_a_singular_matrix_runs_one_back_pass_on_its_power(monkeypatch):
    back_passes, reduced = [], []
    original = elimination._back_substitute
    monkeypatch.setattr(elimination, "_back_substitute", _recording(original, back_passes))
    original = real_inverses._reduce
    monkeypatch.setattr(real_inverses, "_reduce", _recording(original, reduced))
    rng = random.Random(133)
    singular = [support.rand_aind1(rng, 4).std, support.rand_nilpotent(rng, 4)]
    singular += [support.rand_high_index(rng, 6, aind, dind=aind).std for aind in (2, 3, 4)]
    for m in singular:
        back_passes.clear()
        reduced.clear()
        _, mk, echelon = real_inverses._index_power(m)
        assert len(echelon[1]) < m.rows
        assert len(back_passes) == 1
        assert len(reduced) == 1 and reduced[0][0] is mk


def _index_profile_inputs():
    rng = random.Random(137)
    yield from (_fresh(f)[0] for f in sorted(FIXTURES))
    for n in (3, 4, 5):
        yield support.rand_dual_invertible_std(rng, n)
        yield support.rand_aind1(rng, n)
    for aind, present in ((2, True), (2, False), (3, False)):
        yield support.rand_high_index(rng, aind + 2, aind, present)


def test_index_profile_doubles_only_the_bottom_block(monkeypatch):
    doubled_rows = []
    original = dual_linear.doubled
    _patch_everywhere(monkeypatch, original, _recording(original, doubled_rows))
    cores = 0
    for a in _index_profile_inputs():
        doubled_rows.clear()
        index_profile(a)
        r = block_decomposition._analysis(a).form.r
        assert [args[0].rows for args in doubled_rows] == [a.rows - r]
        cores += r > 0
    # the bottom block is smaller than A^ on most inputs
    assert cores >= 6


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
    inverted = []
    original = dual_linear.dual_inverse
    _patch_everywhere(monkeypatch, original, _recording(original, inverted))
    for a in _index_profile_inputs():
        _call(call, a, None)
        assert inverted == [], call


def test_the_square_task_inverts_the_core_block_once(monkeypatch):
    inverted = []
    original = dual_linear.dual_inverse
    _patch_everywhere(monkeypatch, original, _recording(original, inverted))
    for a in _index_profile_inputs():
        inverted.clear()
        for call in SEQUENCES["square_task"]:
            _call(call, a, None)
        form = block_decomposition._analysis(a).form
        assert [args[0] for args in inverted] == [form.chat]


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
    # and T21, 4 for P T and T P^(-1), 2 in dual_inverse(C^); at r = n only
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
    "index_profile", "wddi", "ddi", "wdgi", "dgi", "solve_general", "solve_restricted"
)


def _is_identity(m):
    return m.rows == m.cols > 0 and m == RealMatrix.identity(m.rows)


@pytest.fixture
def identity_factors(monkeypatch):
    """Record the shapes of every RealMatrix product with an identity factor."""
    seen = []
    original = RealMatrix.__matmul__

    def recording(left, right):
        if _is_identity(left) or _is_identity(right):
            seen.append((left.shape, right.shape))
        return original(left, right)

    monkeypatch.setattr(RealMatrix, "__matmul__", recording)
    return seen


@pytest.mark.parametrize("fixture", sorted(IDENTITY_BASIS))
@pytest.mark.parametrize("call", IDENTITY_GUARDED_CALLS)
def test_no_product_has_an_identity_factor(identity_factors, call, fixture):
    a, b = IDENTITY_BASIS[fixture]
    _call(call, DualMatrix(a.std, a.dual), b)
    assert identity_factors == []


def test_the_identity_guard_sees_the_padded_route(identity_factors):
    # the padded conjugation kept for external forms does multiply by P^ = I
    a, _ = IDENTITY_BASIS["invertible_3"]
    d = block_decomposition.block_diagonalize_ind1(a)
    assert d.phat == DualMatrix.identity(3)
    block_decomposition.wddi_from_given_decomposition(d.phat, d.chat, d.nhat)
    assert identity_factors

