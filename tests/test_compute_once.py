"""Each public entry point computes the index and the core-nilpotent form
once, and skips the work its formulas make unnecessary: the WDDI and DDI
compute no dual index (no rank profile), and the solvers read their
conditions off P^^(-1) b^ with no range test.  Every call reads the dual
index and the obstruction off the block form, so only index_profile (for
A^ itself) and existence_profile (for A^^aind, its second route) take the
two ranks of a dual matrix, once each, and the inverses and solvers form no
dual power."""

import sys
from collections import Counter

import pytest

import dualinv
from dualinv import DualMatrix, ddi, solve_general, solve_restricted, wddi
from dualinv import ddi_obstruction, dgi, existence_profile, index_profile
from dualinv import solve_ind1_corollaries, verify, wdgi
from dualinv import dual_linear, indices, matrices, real_inverses

import cases

COUNTED = {
    "index": real_inverses,
    "core_nilpotent": real_inverses,
    "rank_profile": indices,
    "in_range": dual_linear,
    "dual_power": matrices,
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

# rank profiles each call takes: of A^ in index_profile, of A^^aind in
# existence_profile; none elsewhere
RANK_PROFILES = {"index_profile": 1, "existence_profile": 1}


@pytest.fixture
def counts(monkeypatch):
    """Count calls to the counted functions under every name that binds them."""
    seen = Counter()
    for name, home in COUNTED.items():
        original = getattr(home, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            seen[_name] += 1
            return _original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("dualinv"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return seen


def _call(name, fixture):
    a, b = FIXTURES[fixture]
    try:
        {**CALLS, **MORE_CALLS}[name](a, b)
    except (dualinv.DoesNotExist, dualinv.IndexTooLarge, dualinv.Inconsistent):
        pass


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_index_and_core_nilpotent_run_at_most_once(counts, call, fixture):
    _call(call, fixture)
    assert counts["index"] <= 1, dict(counts)
    assert counts["core_nilpotent"] <= 1, dict(counts)
    # the patch reached the call: every call needs the index of M
    assert counts["index"] == 1


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_no_dual_index_and_no_range_test(counts, call, fixture):
    _call(call, fixture)
    assert counts["rank_profile"] == 0, dict(counts)
    assert counts["in_range"] == 0, dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(MORE_CALLS))
def test_block_form_calls_run_core_nilpotent_at_most_once(counts, call, fixture):
    _call(call, fixture)
    assert counts["core_nilpotent"] <= 1, dict(counts)
    assert counts["index"] <= 1, dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(MORE_CALLS))
def test_rank_profile_only_where_the_ranks_are_asked_for(counts, call, fixture):
    _call(call, fixture)
    assert counts["rank_profile"] == RANK_PROFILES.get(call, 0), dict(counts)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize(
    "call",
    sorted(set(CALLS) | {"ddi_obstruction", "dgi", "solve_ind1_corollaries", "wdgi"}),
)
def test_inverses_and_solvers_form_no_dual_power(counts, call, fixture):
    _call(call, fixture)
    assert counts["dual_power"] == 0, dict(counts)
    assert counts["rank_profile"] == 0, dict(counts)
