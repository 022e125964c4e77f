"""Checked mode changes no result, and a fresh process runs without it.

``real_inverses._checked`` makes the real form also take the similarity
P^(-1) M P at index 1 and the powers N^k at every index, only to check them.
So with it on and off, the real form, the WDDI, the WDGI, the DGI and both
solvers give equal results, or raise the same error with the same message
and witness, on every fixture file and every square dual matrix of
``cases``.  The test suite turns checked mode on in ``conftest``; a plain
``import dualinv`` leaves it off.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dualinv
from dualinv import DualMatrix, parse_matrix, real_inverses

import cases

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


def _matrices():
    """(name, matrix) for every fixture file and every dual matrix of cases."""
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.name, parse_matrix(path.read_bytes())
    for name, value in sorted(vars(cases).items()):
        if isinstance(value, DualMatrix):
            yield name, value


MATRICES = dict(_matrices())
SQUARE = sorted(name for name, a in MATRICES.items() if a.rows == a.cols)


def _right_hand_sides(n):
    """Every matrix of n rows and one column, and one more of its own."""
    yield from (b for b in MATRICES.values() if b.shape == (n, 1))
    yield DualMatrix.of([[j + 1] for j in range(n)], [[(-1) ** j] for j in range(n)])


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except (dualinv.DoesNotExist, dualinv.IndexTooLarge, dualinv.Inconsistent) as error:
        return type(error), str(error), getattr(error, "witness", None)


def _results(a):
    """Every result of the calls on a new copy of a, so no earlier analysis
    applies."""
    a = DualMatrix(a.std, a.dual)
    results = [_outcome(real_inverses.core_nilpotent, a.std)]
    results += [_outcome(call, a) for call in (dualinv.wddi, dualinv.wdgi, dualinv.dgi)]
    for b in _right_hand_sides(a.rows):
        results.append(_outcome(dualinv.solve_general, a, b))
        results.append(_outcome(dualinv.solve_restricted, a, b))
    return results


@pytest.mark.parametrize("name", SQUARE)
def test_checked_mode_changes_no_result(name, monkeypatch):
    a = MATRICES[name]
    monkeypatch.setattr(real_inverses, "_checked", False)
    unchecked = _results(a)
    monkeypatch.setattr(real_inverses, "_checked", True)
    assert _results(a) == unchecked


def test_the_inputs_reach_every_kind_of_form():
    kinds = set()
    for name in SQUARE:
        form = real_inverses.core_nilpotent(MATRICES[name].std)
        kinds.add("r = n" if form.r == form.p.rows else f"k = {min(form.k, 2)}")
    assert kinds == {"r = n", "k = 1", "k = 2"}


def test_a_fresh_import_leaves_checked_mode_off():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "import dualinv.real_inverses as r; print(r._checked)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "False\n"


def test_the_suite_runs_in_checked_mode():
    assert real_inverses._checked is True
