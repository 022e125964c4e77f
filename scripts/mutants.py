"""One-token mutants of the library, each run against the tier-1 tests.

    python3 scripts/mutants.py --scratch DIR MODULE[:LINES] ...

MODULE names a file in src/dualinv (``real_inverses.py``) and LINES picks
lines of it, as ``12,40-45``; with no LINES every line is mutated.  Each
mutant changes one token of code: a comparison (``==``/``!=``, ``<``/``<=``,
``>``/``>=``, ``is``/``is not``, ``in``/``not in``), an arithmetic operator
(``+``/``-``, ``*`` to ``//`` and back, ``**`` to ``*``), ``+=``/``-=``,
``and``/``or``, a dropped ``not`` or unary minus, ``True``/``False``, or an
int constant moved by one.  Annotations, which ``from __future__ import
annotations`` never evaluates, and docstrings are left alone.

The repository is copied into DIR once for each of two workers, and each
mutant runs the tier-1 suite there with ``-x``, so the first failing test
kills it and only a survivor runs the whole suite, about 40 s.  The suite
runs without ``-W error``: where ``libcst`` is installed a failing hypothesis
test would otherwise end the session with INTERNALERROR.  The unmutated
suite runs first and must pass.  Each mutant prints one line, and the run
ends with the survivors.  The library has 493 sites; 44 of them, 19
survivors among them, took 8 minutes on two cores.  Run it by hand, not in
CI.

A survivor is either a gap in the tests or an equivalent mutant, one that no
input can tell from the original.  These 18 are equivalent; they sit at the
sites of the 14 that an earlier pilot with fewer operators found:

- the ``g > 1`` test before a gcd division, as ``g >= 1``, ``g > 0`` and,
  in elimination, ``g > 2``: a row divided by 1, a zero row (g = 0) or a
  row left a multiple of 2 gives the same reduced form, at
  real_inverses.py:86 (``>=`` and ``0`` only), elimination.py:79 and
  elimination.py:97;
- the lowest-terms and rescale shortcuts, which only skip a division or a
  product by 1: ``g == 0`` at matrices.py:226, ``g != 0`` at matrices.py:229
  and documents.py:132, and ``f == 0`` at matrices.py:252;
- the print chunk size, ``_CHUNK_DIGITS`` 999 or 1001 at documents.py:113,
  and its loop bound, ``n > _CHUNK`` at documents.py:122;
- the hand parser's length check at cli.py:126, as ``len(rest) <= 2``,
  ``< 1`` and ``< 3``: a command line the check lets through falls back to
  argparse, which gives the same result.
"""

from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "dualinv"
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--continue-on-collection-errors"]
TIMEOUT_S = 900
WORKERS = 2

BINARY = {ast.Add: {"+": "-"}, ast.Sub: {"-": "+"}, ast.Mult: {"*": "//"},
          ast.FloorDiv: {"//": "*"}, ast.Pow: {"**": "*"}}
COMPARE = {ast.Eq: "!=", ast.NotEq: "==", ast.Lt: "<=", ast.LtE: "<", ast.Gt: ">=",
           ast.GtE: ">", ast.Is: "is not", ast.IsNot: "is", ast.In: "not in",
           ast.NotIn: "in"}
COMPARE_TEXT = {ast.Eq: "==", ast.NotEq: "!=", ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">",
                ast.GtE: ">=", ast.Is: "is", ast.IsNot: "is not", ast.In: "in",
                ast.NotIn: "not in"}


def _tokens(source: str) -> list:
    """The (string, start, end) of every token but comments and layout."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    lines = iter(source.splitlines(keepends=True))
    return [(t.string, t.start, t.end) for t in tokenize.generate_tokens(lambda: next(lines, ""))
            if t.type not in skip]


def _between(tokens, after, before, text: str):
    """(start, end) of the tokens spelling ``text`` (one word or two) that
    lie after position ``after`` and before position ``before``."""
    words = text.split()
    for i, (string, start, _) in enumerate(tokens):
        if start >= after and start < before and string == words[0]:
            if [t[0] for t in tokens[i:i + len(words)]] == words:
                return start, tokens[i + len(words) - 1][2]
    raise ValueError(f"no {text!r} between {after} and {before}")


def _start(node):
    return node.lineno, node.col_offset


def _end(node):
    return node.end_lineno, node.end_col_offset


def sites(source: str) -> list[tuple[tuple, tuple, str, str]]:
    """Every one-token mutant of ``source`` as (start, end, old, new)."""
    tree, tokens = ast.parse(source), _tokens(source)
    skipped = set()
    for node in ast.walk(tree):
        annotations = [getattr(node, "returns", None), getattr(node, "annotation", None)]
        for annotation in filter(None, annotations):
            skipped.update(map(id, ast.walk(annotation)))
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            left, right = (node.left, node.right) if isinstance(node, ast.BinOp) else (
                node.target, node.value)
            suffix = "=" if isinstance(node, ast.AugAssign) else ""
            for old, new in BINARY.get(type(node.op), {}).items():
                start, end = _between(tokens, _end(left), _start(right), old + suffix)
                found.append((start, end, old + suffix, new + suffix))
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                start, end = _between(tokens, _end(left), _start(right), COMPARE_TEXT[type(op)])
                found.append((start, end, COMPARE_TEXT[type(op)], COMPARE[type(op)]))
        elif isinstance(node, ast.BoolOp):
            old = "and" if isinstance(node.op, ast.And) else "or"
            for left, right in zip(node.values, node.values[1:]):
                start, end = _between(tokens, _end(left), _start(right), old)
                found.append((start, end, old, "or" if old == "and" else "and"))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Not, ast.USub)):
            old = "not" if isinstance(node.op, ast.Not) else "-"
            start, end = _between(tokens, _start(node), _start(node.operand), old)
            found.append((start, end, old, ""))
        elif isinstance(node, ast.Constant) and type(node.value) in (bool, int):
            old = source.splitlines()[node.lineno - 1][node.col_offset:node.end_col_offset]
            if isinstance(node.value, bool):
                news = [str(not node.value)]
            else:
                news = [str(node.value + 1)] + ([str(node.value - 1)] if node.value else [])
            found.extend((_start(node), _end(node), old, new) for new in news)
    return sorted(found)


def mutate(source: str, site) -> str:
    """``source`` with the one token of ``site`` replaced."""
    (line, col), (end_line, end_col), _, new = site
    lines = source.splitlines(keepends=True)
    assert line == end_line, site
    text = lines[line - 1]
    lines[line - 1] = text[:col] + new + text[end_col:]
    return "".join(lines)


def _lines(spec: str) -> set[int] | None:
    if not spec:
        return None
    picked = set()
    for part in spec.split(","):
        low, _, high = part.partition("-")
        picked.update(range(int(low), int(high or low) + 1))
    return picked


def _run_suite(copy: Path) -> str:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "killed (timeout)"
    return "survived" if done.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="MODULE[:LINES], as real_inverses.py:12,40-45")
    parser.add_argument("--scratch", type=Path, required=True, help="where the copies go")
    args = parser.parse_args(argv)
    mutants = []
    for target in args.targets:
        name, _, spec = target.partition(":")
        source = (ROOT / PACKAGE / name).read_text(encoding="utf-8")
        picked = _lines(spec)
        for site in sites(source):
            if picked is None or site[0][0] in picked:
                mutant = mutate(source, site)
                ast.parse(mutant)
                mutants.append((name, site, mutant))
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache")
    copies = queue.Queue()
    for worker in range(WORKERS):
        copy = args.scratch / f"worker-{worker}"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(ROOT, copy, ignore=ignore)
        copies.put(copy)
    if _run_suite(copy) != "survived":
        print(f"the unmutated suite fails in {copy}; nothing was run")
        return 2
    print(f"{len(mutants)} mutants, {WORKERS} workers", flush=True)

    def run(mutant):
        name, site, text = mutant
        copy = copies.get()
        path = copy / PACKAGE / name
        original = path.read_text(encoding="utf-8")
        try:
            path.write_text(text, encoding="utf-8")
            outcome = _run_suite(copy)
        finally:
            path.write_text(original, encoding="utf-8")
            copies.put(copy)
        (line, _), _, old, new = site
        report = f"{outcome:16} {name}:{line}  {old!r} -> {new!r}"
        print(report, flush=True)
        return outcome, report

    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(run, mutants))
    survivors = [report for outcome, report in results if outcome == "survived"]
    print(f"{len(results) - len(survivors)} killed, {len(survivors)} survived")
    print("\n".join(survivors))
    return 0


if __name__ == "__main__":
    sys.exit(main())
