"""Golden output of ``scripts/worked_examples.py``, byte for byte.

The script prints the existence profile, the obstruction, ``verify``
reports and the block decomposition of its examples, which no CLI command
on the fixtures covers.  Regenerate the file (only when an output is meant
to change) with

    PYTHONPATH=src python scripts/worked_examples.py > tests/golden/worked_examples.txt

The script runs once as a process of its own, on the production form, and
once in this process, where the suite has installed the form's test oracle
(see ``conftest``).
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import dualinv

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "worked_examples.py"
GOLDEN = ROOT / "tests" / "golden" / "worked_examples.txt"


def test_worked_examples_match_golden_bytes():
    env = dict(os.environ, PYTHONPATH=str(Path(dualinv.__file__).parent.parent))
    out = subprocess.run(
        [sys.executable, str(SCRIPT)], env=env, capture_output=True, check=True
    ).stdout
    assert out == GOLDEN.read_bytes()


def test_worked_examples_match_golden_bytes_under_the_form_oracle(capsys):
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert capsys.readouterr().out.encode() == GOLDEN.read_bytes()
