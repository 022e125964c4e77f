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
Exactly one JSON result document goes to stdout.

Each command imports the layers it computes with when it runs, so a process
loads only those: info needs no dual inverse or solver, and the -real kinds
of compute no dual layer at all.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

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

COMPUTE_KINDS = ("drazin-real", "mp-real", "ddi", "wddi", "dgi", "wdgi")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
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


def _load(path: str) -> tuple[DualMatrix, dict]:
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(str(exc), path) from exc
    return parse_matrix(raw), {
        "path": path,
        "sha256": hashlib.sha256(raw).hexdigest(),
    }


def _run_info(args) -> tuple[int, ResultDocument]:
    from .indices import index_profile, rank_profile

    a, provenance = _load(args.file)
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
    return 0, ResultDocument("ok", "info", (provenance,), payload)


def _run_compute(args) -> tuple[int, ResultDocument]:
    operation = f"compute:{args.kind}"
    a, provenance = _load(args.file)
    inputs = (provenance,)
    try:
        if args.kind == "drazin-real":
            from .real_inverses import drazin

            payload = {"result": real_to_document(drazin(a.std))}
        elif args.kind == "mp-real":
            from .real_inverses import moore_penrose

            payload = {"result": real_to_document(moore_penrose(a.std))}
        else:
            from . import dual_inverses

            fn = getattr(dual_inverses, args.kind)
            payload = {"result": matrix_to_document(fn(a))}
    except DoesNotExist as exc:
        payload = {"reason": str(exc), "witness": real_to_document(exc.witness)}
        return 2, ResultDocument("does-not-exist", operation, inputs, payload)
    except IndexTooLarge as exc:
        return 2, ResultDocument(
            "does-not-exist", operation, inputs, {"reason": str(exc)}
        )
    return 0, ResultDocument("ok", operation, inputs, payload)


def _run_verify(args) -> tuple[int, ResultDocument]:
    from .dual_inverses import verify

    a, prov_a = _load(args.file)
    x, prov_x = _load(args.xfile)
    report = verify(a, x, args.kind)
    payload = {
        "kind": report.kind,
        "exponent": report.exponent,
        "equations": [
            {"label": label, "holds": holds} for label, holds in report.equations
        ],
        "all_hold": report.all_hold,
    }
    return 0, ResultDocument("ok", f"verify:{args.kind}", (prov_a, prov_x), payload)


def _run_solve(args) -> tuple[int, ResultDocument]:
    from .equation_solvers import solve_general, solve_restricted

    mode = "restricted" if args.restricted else "general"
    operation = f"solve:{mode}"
    a, prov_a = _load(args.afile)
    b, prov_b = _load(args.bfile)
    inputs = (prov_a, prov_b)
    try:
        if args.restricted:
            sols = solve_restricted(a, b)
        else:
            sols = solve_general(a, b)
    except InconsistentStandardPart as exc:
        payload = {"condition": "standard-part", "reason": str(exc)}
        return 3, ResultDocument("inconsistent", operation, inputs, payload)
    except InconsistentDualPart as exc:
        payload = {"condition": "dual-range", "reason": str(exc)}
        return 3, ResultDocument("inconsistent", operation, inputs, payload)
    except Inconsistent as exc:
        payload = {"condition": "residual", "reason": str(exc)}
        return 3, ResultDocument("inconsistent", operation, inputs, payload)
    except IndexTooLarge as exc:
        return 2, ResultDocument(
            "does-not-exist", operation, inputs, {"reason": str(exc)}
        )
    payload = {
        "particular": matrix_to_document(sols.particular),
        "generators": [matrix_to_document(g) for g in sols.generators],
    }
    return 0, ResultDocument("ok", operation, inputs, payload)


_DISPATCH = {
    "info": _run_info,
    "compute": _run_compute,
    "verify": _run_verify,
    "solve": _run_solve,
}


def run(argv) -> tuple[int, ResultDocument]:
    """Execute one command line; returns (exit code, result document)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return 4, ResultDocument("error", "usage", (), {"message": str(exc)})
    operation = args.command
    try:
        return _DISPATCH[args.command](args)
    except (ParseError, DimensionError) as exc:
        return 4, ResultDocument("error", operation, (), {"message": str(exc)})
    except Exception as exc:
        payload = {"message": str(exc), "type": type(exc).__name__}
        return 5, ResultDocument("internal-error", operation, (), payload)


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
