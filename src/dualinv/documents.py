"""Reading and writing exact matrix documents.

A matrix document is JSON-shaped text with every rational carried as a
string, never as a number, so exactness survives any JSON parser:

    {"rows": 2, "cols": 2,
     "std":  [["1", "1/2"], ["0", "-3"]],
     "dual": [["0", "0"],   ["2/7", "1"]]}

Strings must match -?[0-9]+(/[1-9][0-9]*)?; a zero denominator therefore
fails at the syntax level, and rows and cols are each at most MAX_SIDE.
Output documents always print each entry in lowest terms (reduced from the
matrix's ints over its one denominator at print time), row-major, with
sorted keys, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .exceptions import ParseError
from .matrices import DualMatrix, RealMatrix, _Value

RATIONAL_PATTERN = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

DOCUMENT_KEYS = ("rows", "cols", "std", "dual")

# An empty matrix costs time in proportion to its other side, not to the
# size of its document.  Measured in process on a 2-core host, the slowest of
# info and compute took 27 ms on a 4096 x 0 document and 0.68 s on 100,000 x 0.
MAX_SIDE = 4096


def _parse_rational(value, location: str) -> Fraction:
    if not isinstance(value, str):
        raise ParseError("rational entries must be strings", location)
    if not RATIONAL_PATTERN.fullmatch(value):
        raise ParseError(f"not a rational literal: {value!r}", location)
    try:
        return Fraction(value)
    except ValueError as exc:
        # the literal is well formed, so only Python's limit on the digits of
        # an int parsed from a string can refuse it
        raise ParseError(
            f"rational literal of {len(value)} characters exceeds the digit limit",
            location,
        ) from exc


def _parse_grid(value, rows: int, cols: int, name: str) -> RealMatrix:
    if not isinstance(value, list) or len(value) != rows:
        raise ParseError(f"expected {rows} rows", name)
    entries = []
    for i, row in enumerate(value):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"expected {cols} entries", f"{name}[{i}]")
        entries.append(
            tuple(
                _parse_rational(cell, f"{name}[{i}][{j}]")
                for j, cell in enumerate(row)
            )
        )
    return RealMatrix(rows, cols, tuple(entries))


def parse_matrix(text: bytes | str) -> DualMatrix:
    """Parse a matrix document; ParseError names the offending field."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8: {exc}", "document") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}", "document") from exc
    except ValueError as exc:
        # well-formed JSON whose integer exceeds Python's limit on the digits
        # of an int parsed from a string
        raise ParseError(f"number past the digit limit: {exc}", "document") from exc
    except RecursionError as exc:
        raise ParseError(f"nesting too deep: {exc}", "document") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object", "document")
    missing = [k for k in DOCUMENT_KEYS if k not in data]
    extra = [k for k in data if k not in DOCUMENT_KEYS]
    if missing or extra:
        raise ParseError(
            f"object must have exactly the keys {list(DOCUMENT_KEYS)}"
            f" (missing {missing}, unexpected {extra})",
            "document",
        )
    rows, cols = data["rows"], data["cols"]
    for label, value in (("rows", rows), ("cols", cols)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise ParseError("must be a nonnegative integer", label)
        if value > MAX_SIDE:
            raise ParseError(f"{value} is past the limit of {MAX_SIDE} per side", label)
    return DualMatrix(
        _parse_grid(data["std"], rows, cols, "std"),
        _parse_grid(data["dual"], rows, cols, "dual"),
    )


# str() refuses ints of more than 4300 digits by default; an int is printed
# as decimal chunks of _CHUNK_DIGITS digits instead, without touching the
# process-wide limit
_CHUNK_DIGITS = 1000
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(n: int) -> str:
    """Exact decimal text of an int of any size, as str(n) would print it."""
    if n < 0:
        return "-" + _decimal(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(low)
    return str(n) + "".join(f"{c:0{_CHUNK_DIGITS}d}" for c in reversed(chunks))


def _rational_text(p: int, q: int) -> str:
    """str(Fraction(p, q)) for ints of any size with q > 0: the reduced
    numerator, or numerator/denominator."""
    g = gcd(p, q)
    if g != 1:
        p, q = p // g, q // g
    if q == 1:
        return _decimal(p)
    return f"{_decimal(p)}/{_decimal(q)}"


def _grid(m: RealMatrix) -> list[list[str]]:
    """Each entry nums[i][j] / den reduced on its own, as printed text."""
    den = m.den
    return [[_rational_text(x, den) for x in row] for row in m.nums]


def matrix_to_document(m: DualMatrix) -> dict:
    return {"rows": m.rows, "cols": m.cols, "std": _grid(m.std), "dual": _grid(m.dual)}


def real_to_document(m: RealMatrix) -> dict:
    """Real matrices travel as dual documents with a zero dual part."""
    return matrix_to_document(DualMatrix.from_real(m))


def print_matrix(m: DualMatrix) -> str:
    """Canonical text form of one matrix; parse_matrix inverts it."""
    return json.dumps(matrix_to_document(m), sort_keys=True, indent=2) + "\n"


class ResultDocument(_Value):
    """What one command invocation reports.

    status is one of ok / does-not-exist / inconsistent / error /
    internal-error; inputs records each input file with its content digest;
    payload carries the matrices and diagnostics, rationals always as
    strings, and for internal-error the message and the exception type.
    A document given no payload gets an empty dict of its own.
    """

    __slots__ = ("status", "operation", "inputs", "payload")

    def __init__(
        self,
        status: str,
        operation: str,
        inputs: tuple[dict, ...] = (),
        payload: dict | None = None,
    ):
        self.status, self.operation, self.inputs = status, operation, inputs
        self.payload = {} if payload is None else payload

    def to_json(self) -> str:
        body = {
            "status": self.status,
            "operation": self.operation,
            "inputs": list(self.inputs),
            "payload": self.payload,
        }
        return json.dumps(body, sort_keys=True, indent=2) + "\n"
