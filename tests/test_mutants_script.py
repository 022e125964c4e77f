"""``scripts/mutants.py`` finds every one-token mutant of code, and none in
an annotation or a docstring; each mutant changes that one token and parses.
The script itself runs the suite once per mutant, so it is run by hand, not
here."""

import ast
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "mutants.py"
spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)

SOURCE = '''from __future__ import annotations


def f(x: int | None, y: int = 1) -> tuple[int, int]:
    """2 + 2 is left alone."""
    if x is not None and y > 1:
        x += -y
    return x * 2, not y
'''


def test_sites_cover_code_and_skip_annotations_and_docstrings():
    found = [(start[0], old, new) for start, _, old, new in mutants.sites(SOURCE)]
    assert found == [
        (4, "1", "0"), (4, "1", "2"),
        (6, "is not", "is"), (6, "and", "or"), (6, ">", ">="), (6, "1", "0"), (6, "1", "2"),
        (7, "+=", "-="), (7, "-", ""),
        (8, "*", "//"), (8, "2", "1"), (8, "2", "3"), (8, "not", ""),
    ]


def test_each_mutant_changes_one_token_and_parses():
    lines = SOURCE.splitlines()
    for site in mutants.sites(SOURCE):
        mutant = mutants.mutate(SOURCE, site)
        ast.parse(mutant)
        (line, col), (_, end_col), old, new = site
        changed = [i for i, (a, b) in enumerate(zip(lines, mutant.splitlines())) if a != b]
        assert changed == [line - 1]
        text = lines[line - 1]
        assert text[col:end_col] == old
        assert mutant.splitlines()[line - 1] == text[:col] + new + text[end_col:]


def test_lines_are_picked_by_number_and_range():
    assert mutants._lines("") is None
    assert mutants._lines("12,40-42") == {12, 40, 41, 42}
