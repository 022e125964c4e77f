"""Command line behaviour: dispatch, payloads, exit codes, stability."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from dualinv import (
    DoesNotExist,
    DualMatrix,
    InternalInvariantViolation,
    drazin,
    moore_penrose,
    parse_matrix,
    print_matrix,
    wddi,
)
from dualinv.cli import COMPUTE_KINDS, _build_parser, _parse, _UsageError, main, run
from dualinv.documents import MAX_SIDE, matrix_to_document, real_to_document
from dualinv.matrices import VERIFY_KINDS

import cases

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).parent / "golden" / "cli_outputs.json"

ABSENT = str(FIXTURES / "ddi_absent_4x4.json")
PRESENT = str(FIXTURES / "ddi_present_4x4.json")
GROUP_ABSENT = str(FIXTURES / "dgi_absent_2x2.json")
GROUP_PRESENT = str(FIXTURES / "dgi_present_2x2.json")
RHS = str(FIXTURES / "rhs_mixed_2x1.json")


def test_info_reports_all_invariants():
    code, doc = run(["info", ABSENT])
    assert code == 0
    assert doc.status == "ok"
    assert doc.payload == {
        "rows": 4,
        "cols": 4,
        "arank": 3,
        "drank": 4,
        "aind": 2,
        "dind": 4,
    }
    assert doc.inputs[0]["path"] == ABSENT
    assert len(doc.inputs[0]["sha256"]) == 64


def test_info_on_rectangular_input(tmp_path):
    target = tmp_path / "wide.json"
    target.write_text(print_matrix(DualMatrix.of([[1, 0, 2]], [[0, 1, 0]])))
    code, doc = run(["info", str(target)])
    assert code == 0
    assert doc.payload == {"rows": 1, "cols": 3, "arank": 1, "drank": 1}


def test_compute_missing_inverse_reports_witness():
    code, doc = run(["compute", "--kind", "ddi", ABSENT])
    assert code == 2
    assert doc.status == "does-not-exist"
    witness = parse_matrix(json.dumps(doc.payload["witness"]))
    assert witness.std == cases.DDI_ABSENT_OBSTRUCTION
    assert witness.dual.is_zero


def test_compute_weak_inverse_round_trips():
    code, doc = run(["compute", "--kind", "wddi", ABSENT])
    assert code == 0
    result = parse_matrix(json.dumps(doc.payload["result"]))
    assert result == wddi(cases.DDI_ABSENT)


def test_compute_present_inverse():
    code, doc = run(["compute", "--kind", "ddi", PRESENT])
    assert code == 0
    result = parse_matrix(json.dumps(doc.payload["result"]))
    assert result.dual == cases.DDI_PRESENT_S


def test_compute_real_kinds_use_standard_part():
    code, doc = run(["compute", "--kind", "drazin-real", ABSENT])
    assert code == 0
    assert doc.payload["result"] == real_to_document(drazin(cases.DDI_ABSENT.std))
    code, doc = run(["compute", "--kind", "mp-real", GROUP_ABSENT])
    assert code == 0
    assert doc.payload["result"] == real_to_document(
        moore_penrose(cases.DGI_ABSENT.std)
    )


def test_compute_group_kind_on_high_index_input():
    code, doc = run(["compute", "--kind", "wdgi", ABSENT])
    assert code == 2
    assert doc.status == "does-not-exist"
    assert "index" in doc.payload["reason"]


def test_compute_group_witness():
    code, doc = run(["compute", "--kind", "dgi", GROUP_ABSENT])
    assert code == 2
    witness = parse_matrix(json.dumps(doc.payload["witness"]))
    assert witness.std == cases.DGI_ABSENT_WITNESS


def test_verify_round_trip(tmp_path):
    xfile = tmp_path / "candidate.json"
    xfile.write_text(print_matrix(wddi(cases.DDI_ABSENT)))
    code, doc = run(["verify", "--kind", "wddi-t", ABSENT, str(xfile)])
    assert code == 0
    assert doc.payload["all_hold"] is True
    assert doc.payload["exponent"] == 4
    assert len(doc.payload["equations"]) == 3
    assert all(eq["holds"] for eq in doc.payload["equations"])


def test_verify_failing_candidate(tmp_path):
    xfile = tmp_path / "candidate.json"
    xfile.write_text(print_matrix(DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [0, 0]])))
    code, doc = run(["verify", "--kind", "group", GROUP_ABSENT, str(xfile)])
    assert code == 0
    assert doc.payload["all_hold"] is False
    assert [eq["holds"] for eq in doc.payload["equations"]] == [False, True, False]


def test_solve_restricted_known_family():
    code, doc = run(["solve", "--restricted", GROUP_ABSENT, RHS])
    assert code == 0
    particular = parse_matrix(json.dumps(doc.payload["particular"]))
    assert particular == cases.RHS_SOLUTION_A
    assert len(doc.payload["generators"]) == 1
    generator = parse_matrix(json.dumps(doc.payload["generators"][0]))
    assert generator == DualMatrix.of([[0, 0], [0, 0]], [[0, 0], [0, 1]])


def test_solve_general_known_family():
    code, doc = run(["solve", GROUP_ABSENT, RHS])
    assert code == 0
    particular = parse_matrix(json.dumps(doc.payload["particular"]))
    assert cases.DGI_ABSENT @ particular == cases.RHS_MIXED
    assert len(doc.payload["generators"]) == 2


def test_solve_inconsistent_standard_part(tmp_path):
    afile = tmp_path / "eps_eye.json"
    afile.write_text(
        print_matrix(DualMatrix.of([[0, 0], [0, 0]], [[1, 0], [0, 1]]))
    )
    bfile = tmp_path / "b.json"
    bfile.write_text(print_matrix(DualMatrix.of([[1], [0]], [[0], [0]])))
    code, doc = run(["solve", str(afile), str(bfile)])
    assert code == 3
    assert doc.status == "inconsistent"
    assert doc.payload["condition"] == "standard-part"


def test_solve_inconsistent_dual_range(tmp_path):
    afile = tmp_path / "a.json"
    afile.write_text(
        print_matrix(DualMatrix.of([[0, 0], [0, 0]], [[1, 0], [0, 0]]))
    )
    bfile = tmp_path / "b.json"
    bfile.write_text(print_matrix(DualMatrix.of([[0], [0]], [[0], [1]])))
    code, doc = run(["solve", str(afile), str(bfile)])
    assert code == 3
    assert doc.payload["condition"] == "dual-range"


def test_solve_restricted_inconsistent(tmp_path):
    afile = tmp_path / "proj.json"
    afile.write_text(
        print_matrix(DualMatrix.of([[1, 0], [0, 0]], [[0, 0], [0, 0]]))
    )
    bfile = tmp_path / "b.json"
    bfile.write_text(print_matrix(DualMatrix.of([[0], [1]], [[0], [0]])))
    code, doc = run(["solve", "--restricted", str(afile), str(bfile)])
    assert code == 3
    assert doc.payload["condition"] == "residual"


def test_solve_high_index_rejected(tmp_path):
    bfile = tmp_path / "b.json"
    bfile.write_text(print_matrix(DualMatrix.zeros(4, 1)))
    code, doc = run(["solve", ABSENT, str(bfile)])
    assert code == 2
    assert doc.status == "does-not-exist"


def test_missing_file_is_a_parse_error():
    code, doc = run(["info", "no-such-file.json"])
    assert code == 4
    assert doc.status == "error"


def test_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1, "cols": 1, "std": [["1/0"]], "dual": [["0"]]}')
    code, doc = run(["info", str(bad)])
    assert code == 4
    assert "std[0][0]" in doc.payload["message"]


def test_overlong_entry_is_a_parse_error(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"rows": 1, "cols": 1, "std": [["1" * 5000]], "dual": [["0"]]})
    )
    assert main(["info", str(big)]) == 4
    body = json.loads(capsys.readouterr().out)
    assert body["status"] == "error"
    assert body["payload"]["message"].startswith("std[0][0]")


def test_side_past_the_limit_is_a_parse_error(tmp_path):
    wide = tmp_path / "wide.json"
    for cols, expected in ((MAX_SIDE, 0), (MAX_SIDE + 1, 4)):
        wide.write_text(json.dumps({"rows": 0, "cols": cols, "std": [], "dual": []}))
        code, doc = run(["compute", "--kind", "mp-real", str(wide)])
        assert code == expected, doc
    assert doc.payload["message"].startswith("cols")
    assert str(MAX_SIDE) in doc.payload["message"]


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000)
    assert main(["info", str(deep)]) == 4
    body = json.loads(capsys.readouterr().out)
    assert body["status"] == "error"
    assert body["payload"]["message"].startswith("document")


def test_result_entry_past_the_int_digit_limit_is_printed(tmp_path, capsys):
    # the WDDI of a + eps*1 is 1/a - eps/a^2, and a^2 has about 8000 digits,
    # past the 4300 that str() prints by default
    a = int("1" * 4000)
    big = tmp_path / "big.json"
    big.write_text(
        json.dumps({"rows": 1, "cols": 1, "std": [[str(a)]], "dual": [["1"]]})
    )
    assert main(["compute", "--kind", "wddi", str(big)]) == 0
    result = json.loads(capsys.readouterr().out)["payload"]["result"]
    assert result["std"] == [["1/" + str(a)]]
    numerator, denominator = result["dual"][0][0].split("/")
    assert numerator == "-1"
    value = 0
    for i in range(0, len(denominator), 1000):
        chunk = denominator[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert value == a * a


def test_usage_errors(tmp_path):
    code, doc = run(["compute", "--kind", "nonsense", GROUP_ABSENT])
    assert code == 4
    assert doc.status == "error"
    code, _ = run([])
    assert code == 4
    code, _ = run(["frobnicate"])
    assert code == 4


def test_dimension_mismatch_is_usage_error(tmp_path):
    bfile = tmp_path / "b.json"
    bfile.write_text(print_matrix(DualMatrix.zeros(3, 1)))
    code, doc = run(["solve", GROUP_ABSENT, str(bfile)])
    assert code == 4
    assert doc.status == "error"


def test_output_is_byte_stable():
    first = run(["compute", "--kind", "wddi", ABSENT])[1].to_json()
    second = run(["compute", "--kind", "wddi", ABSENT])[1].to_json()
    assert first == second
    # and it is genuinely canonical JSON: reserializing changes nothing
    assert (
        json.dumps(json.loads(first), sort_keys=True, indent=2) + "\n" == first
    )


@pytest.mark.parametrize(
    "code, command",
    [
        (0, "info ddi_absent_4x4.json"),
        (2, "compute --kind ddi ddi_absent_4x4.json"),
        (3, "solve dgi_absent_2x2.json rhs_std_2x1.json"),
        (4, "compute --kind drazin-real rhs_5x1.json"),
    ],
)
def test_process_exit_code_and_stdout_match_golden(code, command):
    """One golden command per documented exit code, run as a real process."""
    expected = json.loads(GOLDEN.read_text())[command]
    assert expected["exit_code"] == code
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "dualinv.cli", *command.split()],
        capture_output=True,
        text=True,
        cwd=FIXTURES,
        env=env,
    )
    assert {"exit_code": proc.returncode, "stdout": proc.stdout} == expected


def test_main_returns_exit_code(capsys):
    code = main(["info", ABSENT])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out)["status"] == "ok"


@pytest.mark.parametrize(
    "error",
    [
        InternalInvariantViolation("existence characterizations disagree"),
        ZeroDivisionError("division by zero"),
        KeyError("missing"),
    ],
    ids=lambda e: type(e).__name__,
)
def test_unexpected_exception_is_an_internal_error_document(error, monkeypatch, capsys):
    def broken(a):
        raise error

    # info imports index_profile from dualinv.indices when it runs
    monkeypatch.setattr("dualinv.indices.index_profile", broken)
    code, doc = run(["info", ABSENT])
    assert code == 5
    assert doc.status == "internal-error"
    assert doc.operation == "info"
    assert doc.payload == {"message": str(error), "type": type(error).__name__}
    # main prints the same document, not a traceback
    assert main(["info", ABSENT]) == 5
    assert json.loads(capsys.readouterr().out) == json.loads(doc.to_json())


def test_a_refusal_that_cannot_be_reported_is_an_internal_error(monkeypatch):
    def no_witness(a):
        raise DoesNotExist("dual Drazin inverse does not exist")

    # compute looks the dual kinds up on dualinv.dual_inverses when it runs
    monkeypatch.setattr("dualinv.dual_inverses.ddi", no_witness)
    code, doc = run(["compute", "--kind", "ddi", ABSENT])
    assert code == 5
    assert doc.status == "internal-error"
    assert doc.operation == "compute"
    assert doc.payload["type"] == "AttributeError"


# --- the command-line parser -------------------------------------------------

_TOKENS = (
    "info", "compute", "verify", "solve", "frobnicate",
    "--kind", "--kind=wddi", "--k", "--restricted",
    *COMPUTE_KINDS, *VERIFY_KINDS, "nonsense",
    "-h", "--help", "-", "--", "",
    ABSENT, PRESENT, "-dash.json",
)
_COMMANDS = ("info", "compute", "verify", "solve")
_SHAPES = (
    ("info", ABSENT),
    ("compute", "--kind", "wddi", ABSENT),
    ("verify", "--kind", "wdgi", ABSENT, PRESENT),
    ("solve", "--restricted", ABSENT, PRESENT),
    ("solve", ABSENT, PRESENT),
)
_token = st.sampled_from(_TOKENS)


def _near(drawn):
    """A well-formed command line with at most one token redrawn and at
    most one more token at the end."""
    shape, at, token, extra = drawn
    argv = list(shape)
    if at < len(argv):
        argv[at] = token
    return argv + extra


def _parsed(parse, argv):
    """What parse makes of argv: its attributes, the usage error's text, or
    the exit code and text of a help exit."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            return "args", vars(parse(argv))
    except _UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


@given(
    st.one_of(
        st.lists(_token, max_size=6),
        # a command first, so that most draws reach a subparser
        st.tuples(st.sampled_from(_COMMANDS), st.lists(_token, max_size=5)).map(
            lambda drawn: [drawn[0], *drawn[1]]
        ),
        st.tuples(
            st.sampled_from(_SHAPES),
            st.integers(0, 5),
            _token,
            st.lists(_token, max_size=1),
        ).map(_near),
    )
)
@example(["info", "--restricted"])
@example(["solve", ABSENT, "--restricted", PRESENT])
@example(["compute", ABSENT, "--kind", "wddi"])
@example(["verify", "--kind", "wdgi", ABSENT])
@example(["info", ABSENT])
@example(["compute", "--kind", "wddi", ABSENT])
@example(["verify", "--kind", "wdgi", ABSENT, PRESENT])
@example(["solve", "--restricted", ABSENT, PRESENT])
@example(["solve", ABSENT, PRESENT])
@settings(derandomize=True, database=None, deadline=None, max_examples=400)
def test_parse_agrees_with_argparse(argv):
    reference = _parsed(lambda a: _build_parser().parse_args(a), argv)
    assert _parsed(_parse, argv) == reference
    event(reference[0])


@pytest.mark.parametrize("argv", [["--help"], *([cmd, "-h"] for cmd in _COMMANDS)])
def test_help_is_the_one_output_that_is_not_a_result_document(argv, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("usage: dualinv")
