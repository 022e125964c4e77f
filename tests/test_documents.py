"""Matrix document parsing and printing."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualinv import (
    DualMatrix,
    ParseError,
    matrix_to_document,
    parse_matrix,
    print_matrix,
)
from dualinv.documents import MAX_SIDE

import cases
import support

FIXTURES = Path(__file__).parent / "fixtures"


def test_parse_minimal_document():
    text = json.dumps(
        {
            "rows": 1,
            "cols": 2,
            "std": [["1", "1/2"]],
            "dual": [["0", "-3"]],
        }
    )
    m = parse_matrix(text)
    assert m == DualMatrix.of([[1, "1/2"]], [[0, -3]])


def test_parse_accepts_bytes():
    raw = (FIXTURES / "ddi_absent_4x4.json").read_bytes()
    assert parse_matrix(raw) == cases.DDI_ABSENT


def test_fixture_files_round_trip():
    for path in sorted(FIXTURES.glob("*.json")):
        m = parse_matrix(path.read_text())
        assert parse_matrix(print_matrix(m)) == m
        # the fixtures are printed documents, so the layout is pinned too
        assert print_matrix(m) == path.read_text()


def test_print_then_parse_on_random_matrices():
    rng = random.Random(173)
    for _ in range(40):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        m = DualMatrix(
            support.rand_matrix(rng, rows, cols),
            support.rand_matrix(rng, rows, cols),
        )
        assert parse_matrix(print_matrix(m)) == m


def test_output_rationals_are_reduced_strings():
    m = DualMatrix.of([["2/4"]], [["-6/4"]])
    doc = matrix_to_document(m)
    assert doc["std"] == [["1/2"]]
    assert doc["dual"] == [["-3/2"]]


def _doc(**overrides):
    base = {"rows": 1, "cols": 1, "std": [["1"]], "dual": [["0"]]}
    base.update(overrides)
    return json.dumps(base)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("{not json", "invalid JSON"),
        ("[1, 2]", "top level"),
        (_doc(std=[["1/0"]]), "std[0][0]"),
        (_doc(std=[["0.5"]]), "std[0][0]"),
        (_doc(std=[[5]]), "must be strings"),
        (_doc(std=[["1", "2"]]), "expected 1 entries"),
        (_doc(std=[]), "expected 1 rows"),
        (_doc(rows=-1), "rows"),
        (_doc(rows=True), "rows"),
        (json.dumps({"rows": 1, "cols": 1, "std": [["1"]]}), "missing"),
        (_doc(extra=1), "unexpected"),
    ],
)
def test_malformed_documents_rejected(text, fragment):
    with pytest.raises(ParseError) as info:
        parse_matrix(text)
    assert fragment in str(info.value)


@pytest.mark.parametrize("label", ["rows", "cols"])
@pytest.mark.parametrize("value", [True, "2", 2.0, None, -1])
def test_a_mistyped_header_names_its_key(label, value):
    with pytest.raises(ParseError) as info:
        parse_matrix(_doc(**{label: value}))
    assert str(info.value) == f"{label}: must be a nonnegative integer"


def _zeros_document(rows, cols):
    grid = [["0"] * cols] * rows
    return json.dumps({"rows": rows, "cols": cols, "std": grid, "dual": grid})


@pytest.mark.parametrize("label", ["rows", "cols"])
def test_each_side_is_bounded(label):
    assert MAX_SIDE == 4096  # the limit README states
    def shape(side):
        return (side, 0) if label == "rows" else (0, side)

    assert parse_matrix(_zeros_document(*shape(MAX_SIDE))).shape == shape(MAX_SIDE)
    with pytest.raises(ParseError) as info:
        parse_matrix(_zeros_document(*shape(MAX_SIDE + 1)))
    assert info.value.location == label
    assert str(MAX_SIDE) in str(info.value)


def test_literal_past_the_int_digit_limit_rejected():
    # Python refuses to parse an int of more than 4300 digits from a string
    with pytest.raises(ParseError) as info:
        parse_matrix(_doc(dual=[["1" * 5000]]))
    assert info.value.location == "dual[0][0]"


def test_denominator_past_the_int_digit_limit_rejected_like_a_numerator():
    # both literals have 5002 characters, so the messages match in full
    refusals = []
    for literal in ("9" * 5002, "1/" + "9" * 5000):
        with pytest.raises(ParseError) as info:
            parse_matrix(_doc(dual=[[literal]]))
        refusals.append((info.value.location, str(info.value)))
    assert refusals[0] == refusals[1]
    assert refusals[0][0] == "dual[0][0]"


# the literal grammar -?[0-9]+(/[1-9][0-9]*)?, with leading zeros, and sides
# of just under the 4300 digits Python parses an int from
_numerators = st.one_of(
    st.text("0123456789", min_size=1, max_size=30),
    st.integers(10**4289, 10**4300 - 1).map(str),
)
_denominators = st.one_of(
    st.integers(1, 10**30).map(str),
    st.integers(10**4289, 10**4300 - 1).map(str),
)
_literals = st.builds(
    lambda sign, num, den: sign + num + ("" if den is None else "/" + den),
    st.sampled_from(["", "-"]),
    _numerators,
    st.none() | _denominators,
)


@given(st.lists(_literals, min_size=1, max_size=3))
@example(["-0", "0/7", "6/4"])
@example(["007", "-00/3", "-12/8"])
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
def test_parsed_entries_equal_fraction_of_the_literal(literals):
    m = parse_matrix(
        json.dumps(
            {"rows": 1, "cols": len(literals), "std": [literals], "dual": [literals[::-1]]}
        )
    )
    assert m.std.entries == (tuple(Fraction(x) for x in literals),)
    assert m.dual.entries == (tuple(Fraction(x) for x in reversed(literals)),)


def test_json_integer_past_the_int_digit_limit_rejected():
    # json.loads raises a plain ValueError, not a JSONDecodeError, for it
    text = '{"rows": ' + "1" * 5000 + ', "cols": 1, "std": [["1"]], "dual": [["0"]]}'
    with pytest.raises(ParseError) as info:
        parse_matrix(text)
    assert info.value.location == "document"


def test_deeply_nested_json_rejected():
    # json.loads raises RecursionError, not a JSONDecodeError, for it
    with pytest.raises(ParseError) as info:
        parse_matrix("[" * 100000 + "]" * 100000)
    assert info.value.location == "document"


def test_rejects_plus_signs_and_spaces():
    for bad in ("+3", " 1", "1 ", "2/-3", "1/+2"):
        with pytest.raises(ParseError):
            parse_matrix(_doc(std=[[bad]]))


def test_non_utf8_bytes_rejected():
    with pytest.raises(ParseError):
        parse_matrix(b"\xff\xfe{}")


def test_location_attribute_set():
    with pytest.raises(ParseError) as info:
        parse_matrix(_doc(dual=[["1/0"]]))
    assert info.value.location == "dual[0][0]"
