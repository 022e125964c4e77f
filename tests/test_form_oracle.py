"""The test oracle of the real form returns the production form, and the
suite runs with it installed.

``support.core_nilpotent_oracle`` wraps ``real_inverses._core_nilpotent_at``
in the guards of the form (C^k = G F, P^(-1) M P = diag(C, N) and N^k = 0),
which production does not run, and ``conftest`` installs it in place of the
production function before any test module is collected.  So on every
fixture file, every square dual matrix of ``cases`` and ``rand_high_index``
inputs at index 3 and 4 its form equals the production function's, and
those inputs reach r = n and every index from 1 to 4.  A plain
``import dualinv`` installs no oracle: it runs the production function.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dualinv import DualMatrix, parse_matrix, real_inverses

import cases
import support

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
# the form this module's collection ran, and its inputs built at import
INSTALLED_AT_COLLECTION = real_inverses._core_nilpotent_at


def _matrices():
    """(name, matrix) for every fixture file, every dual matrix of cases and
    rand_high_index inputs at index 3 and 4, with the DDI and without."""
    for path in sorted(FIXTURES.glob("*.json")):
        yield path.name, parse_matrix(path.read_bytes())
    for name, value in sorted(vars(cases).items()):
        if isinstance(value, DualMatrix):
            yield name, value
    rng = random.Random(197)
    for aind in (3, 4):
        for present in (True, False):
            a = support.rand_high_index(rng, aind + 3, aind, present)
            yield f"high_index_{aind}_{present}", a


MATRICES = dict(_matrices())
SQUARE = sorted(name for name, a in MATRICES.items() if a.rows == a.cols)


@pytest.mark.parametrize("name", SQUARE)
def test_the_oracle_returns_the_production_form(name):
    # each call takes an index record of its own: at r = n the form reduces
    # the record's forward pass in place
    m = MATRICES[name].std
    oracle = support.core_nilpotent_oracle(m, *real_inverses._index_power(m))
    assert oracle == support.core_nilpotent_production(m, *real_inverses._index_power(m))


def test_the_inputs_reach_every_kind_of_form():
    kinds = set()
    for name in SQUARE:
        form = real_inverses.core_nilpotent(MATRICES[name].std)
        kinds.add("r = n" if form.r == form.p.rows else f"k = {form.k}")
    assert kinds == {"r = n", "k = 1", "k = 2", "k = 3", "k = 4"}


def test_the_suite_runs_with_the_oracle_installed():
    assert INSTALLED_AT_COLLECTION is support.core_nilpotent_oracle
    assert real_inverses._core_nilpotent_at is support.core_nilpotent_oracle


def test_a_fresh_import_runs_the_production_form():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = (
        "import dualinv.real_inverses as r; f = r._core_nilpotent_at; "
        "print(f.__module__, f.__qualname__, hasattr(r, '_checked'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "dualinv.real_inverses _core_nilpotent_at False\n"
    production = support.core_nilpotent_production
    assert (production.__module__, production.__qualname__) == (
        "dualinv.real_inverses",
        "_core_nilpotent_at",
    )
