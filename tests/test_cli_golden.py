"""Golden command line output: every command on the fixtures, byte for byte.

``golden/cli_outputs.json`` maps each command line to the exit code and the
exact stdout that ``dualinv`` printed for it.  The commands are run from the
fixtures directory, so the recorded input paths are bare file names.
Regenerate the file (only when an output is meant to change) with

    PYTHONPATH=src python tests/test_cli_golden.py

The module does not import pytest (the parametrization comes from the
pytest_generate_tests hook), so that command runs on an interpreter without
it.
"""

import json
import os
from functools import cache
from itertools import product
from pathlib import Path

from dualinv import parse_matrix
from dualinv.cli import COMPUTE_KINDS, run
from dualinv.dual_inverses import VERIFY_KINDS

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"


def golden_commands() -> list[list[str]]:
    """info and every compute kind on each fixture, every verify kind on each
    ordered pair of same-shape fixtures, and both solvers on each ordered
    pair of fixtures with equal row counts."""
    paths = sorted(FIXTURES.glob("*.json"))
    names = [p.name for p in paths]
    shapes = {p.name: parse_matrix(p.read_bytes()).shape for p in paths}
    commands = []
    for name in names:
        commands.append(["info", name])
        commands.extend(["compute", "--kind", kind, name] for kind in COMPUTE_KINDS)
    for a, x in product(names, repeat=2):
        if shapes[a] == shapes[x]:
            commands.extend(["verify", "--kind", kind, a, x] for kind in VERIFY_KINDS)
    for a, b in product(names, repeat=2):
        if shapes[a][0] == shapes[b][0]:
            commands.append(["solve", a, b])
            commands.append(["solve", "--restricted", a, b])
    return commands


def _replay(argv: list[str]) -> dict:
    code, document = run(argv)
    return {"exit_code": code, "stdout": document.to_json()}


@cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def pytest_generate_tests(metafunc):
    if "argv" in metafunc.fixturenames:
        metafunc.parametrize("argv", golden_commands(), ids=" ".join)


def test_golden_file_covers_every_command():
    assert list(_golden()) == [" ".join(c) for c in golden_commands()]


def test_cli_output_matches_golden_bytes(argv, monkeypatch):
    monkeypatch.chdir(FIXTURES)
    assert _replay(argv) == _golden()[" ".join(argv)]


if __name__ == "__main__":
    os.chdir(FIXTURES)
    table = {" ".join(c): _replay(c) for c in golden_commands()}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table)} commands to {GOLDEN}")
