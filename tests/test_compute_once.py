"""Each public entry point computes the index and the core-nilpotent form
once, and skips the work its formulas make unnecessary: the WDDI and DDI
compute no dual index (no rank profile), and the solvers read their
conditions off P^^(-1) b^ with no range test."""

import sys
from collections import Counter

import pytest

import dualinv
from dualinv import DualMatrix, ddi, solve_general, solve_restricted, wddi
from dualinv import dual_linear, indices, real_inverses

import cases

COUNTED = {
    "index": real_inverses,
    "core_nilpotent": real_inverses,
    "rank_profile": indices,
    "in_range": dual_linear,
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
        CALLS[name](a, b)
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
