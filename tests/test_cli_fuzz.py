"""Property tests of the command line on generated input files.

Whatever bytes a matrix file holds, a command prints exactly one JSON result
document and exits with a code from the README table.  A valid matrix
document never ends in an internal error (exit 5).

Declared dimensions go up to the parse-time limit MAX_SIDE on each side and
one past it.  An empty matrix costs time in proportion to its longer side,
so the valid-document property always runs on 0 x MAX_SIDE and MAX_SIDE x 0
matrices, and the generated near-documents declare MAX_SIDE and MAX_SIDE + 1;
the latter must be refused like any other malformed document.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dualinv import DualMatrix, print_matrix
from dualinv.cli import COMPUTE_KINDS, main
from dualinv.documents import MAX_SIDE
from dualinv.dual_inverses import VERIFY_KINDS

STATUS_OF_EXIT = {
    0: "ok",
    2: "does-not-exist",
    3: "inconsistent",
    4: "error",
    5: "internal-error",
}

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def commands(a: str, x: str, b: str) -> list[list[str]]:
    """Every command line, with a the matrix, x a candidate inverse and b a
    right-hand side."""
    return [
        ["info", a],
        *(["compute", "--kind", kind, a] for kind in COMPUTE_KINDS),
        *(["verify", "--kind", kind, a, x] for kind in VERIFY_KINDS),
        ["solve", a, b],
        ["solve", "--restricted", a, b],
    ]


N_COMMANDS = len(commands("a", "x", "b"))


def run_main(argv) -> tuple[int, dict]:
    """Exit code and the one JSON document main printed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    # json.loads refuses trailing data, so this is exactly one document
    document = json.loads(out.getvalue())
    assert set(document) == {"status", "operation", "inputs", "payload"}
    assert document["status"] == STATUS_OF_EXIT.get(code), (code, document)
    event(f"exit {code}")
    return code, document


# --- arbitrary bytes -------------------------------------------------------

small_ints = st.integers(min_value=-2, max_value=4)
sides_at_the_limit = st.sampled_from([MAX_SIDE, MAX_SIDE + 1])
literals = st.one_of(
    st.sampled_from(["0", "1", "-1", "1/2", "-3/4", "2/0", "1/-2", "", "-", "1.5"]),
    st.just("9" * 5000),  # past the 4300-digit limit on parsing an int
    st.text(max_size=5),
)
json_scalars = st.one_of(st.none(), st.booleans(), small_ints, st.floats(), literals)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.one_of(st.sampled_from(["rows", "cols", "std", "dual"]), st.text(max_size=3)),
            inner,
            max_size=5,
        ),
    ),
    max_leaves=12,
)


@st.composite
def grids(draw):
    rows = draw(st.integers(min_value=0, max_value=3))
    cols = draw(st.integers(min_value=0, max_value=3))
    return [[draw(literals) for _ in range(cols)] for _ in range(rows)]


near_documents = st.fixed_dictionaries(
    {
        "rows": st.one_of(small_ints, sides_at_the_limit, json_values),
        "cols": st.one_of(small_ints, sides_at_the_limit, json_values),
        "std": st.one_of(grids(), json_values),
        "dual": st.one_of(grids(), json_values),
    }
)


def _encode(value) -> bytes:
    return json.dumps(value).encode()


@st.composite
def mutated_documents(draw):
    text = print_matrix(draw(dual_matrices())).encode()
    i = draw(st.integers(min_value=0, max_value=len(text)))
    j = draw(st.integers(min_value=i, max_value=len(text)))
    return text[:i] + draw(st.binary(max_size=3)) + text[j:]


any_bytes = st.one_of(
    st.binary(max_size=80),
    json_values.map(_encode),
    near_documents.map(_encode),
    mutated_documents(),
)


# --- valid documents -------------------------------------------------------

# mostly zeros and units, so that singular, high-index and obstructed
# matrices come up often
entries = st.sampled_from(
    [Fraction(0)] * 4 + [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]
)


@st.composite
def dual_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(min_value=0, max_value=4)) if rows is None else rows
    cols = draw(st.sampled_from([rows, rows, rows, 1, 2])) if cols is None else cols
    grid = st.lists(
        st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )
    return DualMatrix.of(draw(grid), draw(grid)) if rows else DualMatrix.zeros(0, cols)


@st.composite
def valid_triples(draw):
    a = draw(dual_matrices())
    x = draw(dual_matrices(a.rows, a.cols))
    b = draw(dual_matrices(a.rows, draw(st.integers(min_value=1, max_value=2))))
    return a, x, b


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_fuzz")
    (path / "valid.json").write_text(print_matrix(DualMatrix.identity(2)))
    return path


@FUZZ
@given(
    raw=any_bytes,
    which=st.integers(min_value=0, max_value=N_COMMANDS - 1),
    partner=st.booleans(),
)
def test_any_bytes_give_one_document_with_a_documented_exit(workdir, raw, which, partner):
    fuzzed = workdir / "fuzzed.json"
    fuzzed.write_bytes(raw)
    other = str(workdir / "valid.json" if partner else fuzzed)
    argv = commands(str(fuzzed), other, other)[which]
    run_main(argv)


def _not_a_side(value) -> bool:
    return isinstance(value, bool) or not isinstance(value, int) or value < 0


@st.composite
def mistyped_headers(draw):
    """An object with exactly the four keys whose rows or cols is not a
    nonnegative JSON integer."""
    label = draw(st.sampled_from(["rows", "cols"]))
    return {**draw(near_documents), label: draw(json_values.filter(_not_a_side))}


@FUZZ
@given(document=mistyped_headers(), which=st.integers(min_value=0, max_value=N_COMMANDS - 1))
def test_a_mistyped_header_exits_4(workdir, document, which):
    fuzzed = workdir / "header.json"
    fuzzed.write_bytes(_encode(document))
    valid = str(workdir / "valid.json")
    code, _ = run_main(commands(str(fuzzed), valid, valid)[which])
    assert code == 4, document


def empty_at_the_limit(rows, cols):
    """An empty matrix with the longest side a document may declare, as its
    own candidate inverse, with a zero right-hand side."""
    a = DualMatrix.zeros(rows, cols)
    return a, a, DualMatrix.zeros(rows, 1)


@settings(FUZZ, max_examples=80)
@given(triple=valid_triples())
@example(triple=empty_at_the_limit(0, MAX_SIDE))
@example(triple=empty_at_the_limit(MAX_SIDE, 0))
def test_valid_documents_never_give_an_internal_error(workdir, triple):
    paths = []
    for name, matrix in zip("axb", triple):
        path = workdir / f"{name}.json"
        path.write_text(print_matrix(matrix))
        paths.append(str(path))
    for argv in commands(*paths):
        code, document = run_main(argv)
        assert code != 5, (argv, triple, document)
