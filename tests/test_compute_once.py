"""Each public entry point computes the index and the core-nilpotent form once."""

import sys
from collections import Counter

import pytest

import dualinv
from dualinv import DualMatrix, ddi, solve_general, wddi
from dualinv import real_inverses

import cases

COUNTED = ("index", "core_nilpotent")

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
}


@pytest.fixture
def counts(monkeypatch):
    """Count calls to the counted functions under every name that binds them."""
    seen = Counter()
    for name in COUNTED:
        original = getattr(real_inverses, name)

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


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
@pytest.mark.parametrize("call", sorted(CALLS))
def test_index_and_core_nilpotent_run_at_most_once(counts, call, fixture):
    a, b = FIXTURES[fixture]
    try:
        CALLS[call](a, b)
    except (dualinv.DoesNotExist, dualinv.IndexTooLarge):
        pass
    assert counts["index"] <= 1, dict(counts)
    assert counts["core_nilpotent"] <= 1, dict(counts)
    # the patch reached the call: every call needs the index of M
    assert counts["index"] == 1
