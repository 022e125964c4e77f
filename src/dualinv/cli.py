"""Command line front-end.

Commands:
    info FILE                      rank and index invariants of a matrix
    compute --kind K FILE          K in {drazin-real, mp-real, ddi, wddi,
                                   dgi, wdgi}; the -real kinds act on the
                                   standard part only
    verify --kind K FILE XFILE     K in {group, drazin-k, wddi-t, wdgi}
    solve [--restricted] A B       solution family of A x = b

Exit codes: 0 ok, 2 requested object does not exist, 3 inconsistent system,
4 parse or usage error, 5 internal error (any other exception, a bug).
Exactly one JSON result document goes to stdout.  run alone picks the code
and builds the document; the handlers return only the payload of success,
and the refusals (2 and 3) go through the one table _REFUSALS.

Each command imports the layers it computes with when it runs, so a process
loads only those: info needs no dual inverse or solver, and the -real kinds
of compute no dual layer at all.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .exceptions import (
    DimensionError,
    DoesNotExist,
    Inconsistent,
    InconsistentDualPart,
    InconsistentStandardPart,
    IndexTooLarge,
    ParseError,
)
from .matrices import VERIFY_KINDS, DualMatrix
from .documents import (
    ResultDocument,
    matrix_to_document,
    parse_matrix,
    real_to_document,
)

# The interpreter's built-in SHA-256 (_sha2 from 3.12, _sha256 before); it
# gives hashlib.sha256's digests without hashlib's load of OpenSSL.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

COMPUTE_KINDS = ("drazin-real", "mp-real", "ddi", "wddi", "dgi", "wdgi")


class _UsageError(Exception):
    pass


def _build_parser():
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(prog="dualinv", description=__doc__, add_help=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="rank and index invariants")
    p_info.add_argument("file")

    p_compute = sub.add_parser("compute", help="compute a generalized inverse")
    p_compute.add_argument("--kind", required=True, choices=COMPUTE_KINDS)
    p_compute.add_argument("file")

    p_verify = sub.add_parser("verify", help="check defining equations")
    p_verify.add_argument("--kind", required=True, choices=VERIFY_KINDS)
    p_verify.add_argument("file")
    p_verify.add_argument("xfile")

    p_solve = sub.add_parser("solve", help="solve A x = b")
    p_solve.add_argument("--restricted", action="store_true")
    p_solve.add_argument("afile")
    p_solve.add_argument("bfile")

    return parser


# the file operands of each command, in order
_OPERANDS = {
    "info": ("file",),
    "compute": ("file",),
    "verify": ("file", "xfile"),
    "solve": ("afile", "bfile"),
}
_KINDS = {"compute": COMPUTE_KINDS, "verify": VERIFY_KINDS}


def _parse(argv):
    """The parsed command line: attributes command and those of its command.

    The four well-formed shapes are read here by hand, since importing
    argparse and building the parser cost a few milliseconds of a process
    that runs one command: info F, compute --kind K F, verify --kind K F X
    (K one of the command's kinds) and solve [--restricted] A B.  A flag
    counts only at exactly that position, and no other token may start with
    "-".  Any other command line, --help and every usage error included,
    goes to argparse, so its attributes, usage errors and help texts are
    argparse's own.
    """
    fields = _hand_parsed(argv)
    if fields is None:
        return _build_parser().parse_args(argv)
    return SimpleNamespace(**fields)


def _hand_parsed(argv) -> dict | None:
    """The attributes of a well-formed command line (see _parse), else None."""
    command, *rest = argv or ("",)
    fields = {"command": command}
    if command == "solve":
        fields["restricted"] = rest[:1] == ["--restricted"]
        if fields["restricted"]:
            rest = rest[1:]
    elif command in _KINDS:
        if len(rest) < 2 or rest[0] != "--kind" or rest[1] not in _KINDS[command]:
            return None
        fields["kind"], rest = rest[1], rest[2:]
    names = _OPERANDS.get(command, ())
    if not names or len(rest) != len(names) or any(t.startswith("-") for t in rest):
        return None
    fields.update(zip(names, rest))
    return fields


def _load(path: str, inputs: list) -> DualMatrix:
    """Parse the matrix at path and append its provenance to inputs."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(str(exc), path) from exc
    matrix = parse_matrix(raw)
    inputs.append({"path": path, "sha256": _sha256(raw).hexdigest()})
    return matrix


def _run_info(args, inputs: list) -> dict:
    from .indices import index_profile, rank_profile

    a = _load(args.file, inputs)
    payload: dict = {"rows": a.rows, "cols": a.cols}
    if a.std.is_square:
        profile = index_profile(a)
        payload.update(
            arank=profile.arank,
            drank=profile.drank,
            aind=profile.aind,
            dind=profile.dind,
        )
    else:
        arank, drank = rank_profile(a)
        payload.update(arank=arank, drank=drank)
    return payload


def _run_compute(args, inputs: list) -> dict:
    a = _load(args.file, inputs)
    if args.kind == "drazin-real":
        from .real_inverses import drazin

        return {"result": real_to_document(drazin(a.std))}
    if args.kind == "mp-real":
        from .real_inverses import moore_penrose

        return {"result": real_to_document(moore_penrose(a.std))}
    from . import dual_inverses

    return {"result": matrix_to_document(getattr(dual_inverses, args.kind)(a))}


def _run_verify(args, inputs: list) -> dict:
    from .dual_inverses import verify

    report = verify(_load(args.file, inputs), _load(args.xfile, inputs), args.kind)
    return {
        "kind": report.kind,
        "exponent": report.exponent,
        "equations": [
            {"label": label, "holds": holds} for label, holds in report.equations
        ],
        "all_hold": report.all_hold,
    }


def _run_solve(args, inputs: list) -> dict:
    from .equation_solvers import solve_general, solve_restricted

    solve = solve_restricted if args.restricted else solve_general
    sols = solve(_load(args.afile, inputs), _load(args.bfile, inputs))
    return {
        "particular": matrix_to_document(sols.particular),
        "generators": [matrix_to_document(g) for g in sols.generators],
    }


_DISPATCH = {
    "info": _run_info,
    "compute": _run_compute,
    "verify": _run_verify,
    "solve": _run_solve,
}

# The exit-code table of the refusals: exit code, status and the condition
# (if any) reported for each family; a subclass takes its nearest entry.
_REFUSALS = {
    DoesNotExist: (2, "does-not-exist", None),
    IndexTooLarge: (2, "does-not-exist", None),
    InconsistentStandardPart: (3, "inconsistent", "standard-part"),
    InconsistentDualPart: (3, "inconsistent", "dual-range"),
    Inconsistent: (3, "inconsistent", "residual"),
}


def run(argv) -> tuple[int, ResultDocument]:
    """Execute one command line; returns (exit code, result document)."""
    try:
        args = _parse(argv)
    except _UsageError as exc:
        return 4, ResultDocument("error", "usage", (), {"message": str(exc)})
    operation = args.command
    if args.command == "solve":
        operation += ":restricted" if args.restricted else ":general"
    elif args.command != "info":
        operation += f":{args.kind}"
    inputs: list[dict] = []
    try:
        # nested, so that a refusal that cannot be reported is still exit 5
        try:
            code, status, payload = 0, "ok", _DISPATCH[args.command](args, inputs)
        except (DoesNotExist, IndexTooLarge, Inconsistent) as exc:
            code, status, condition = next(
                _REFUSALS[cls] for cls in type(exc).__mro__ if cls in _REFUSALS
            )
            payload = {"reason": str(exc)}
            if condition is not None:
                payload["condition"] = condition
            if isinstance(exc, DoesNotExist):
                payload["witness"] = real_to_document(exc.witness)
    except (ParseError, DimensionError) as exc:
        return 4, ResultDocument("error", args.command, (), {"message": str(exc)})
    except Exception as exc:
        payload = {"message": str(exc), "type": type(exc).__name__}
        return 5, ResultDocument("internal-error", args.command, (), payload)
    return code, ResultDocument(status, operation, tuple(inputs), payload)


def main(argv=None) -> int:
    try:
        code, document = run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits directly for --help; keep its code
        return int(exc.code or 0)
    sys.stdout.write(document.to_json())
    return code


if __name__ == "__main__":
    sys.exit(main())
