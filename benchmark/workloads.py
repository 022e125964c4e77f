"""The four workloads: how each input is made, run and checked.

A *task* is one input pushed through a workload's call sequence.  Input i
of a run is drawn from ``random.Random`` seeded with (seed, i); its size
and outcome class follow a fixed cycle, so every seed runs the same mix and
only the entries change.  Each task's outcome is checked right after it
ends, outside the timed region, with the benchmark's own arithmetic.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import exact as X
import generators as G

CLI_TIMEOUT_S = 60


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(":".join(str(s) for s in (seed, *salt)))


def plain(m) -> tuple[list, list]:
    """A library ``DualMatrix`` as a pair of row lists."""
    return [list(r) for r in m.std.entries], [list(r) for r in m.dual.entries]


def _dual_equations(a, x, t: int) -> str | None:
    """None when ``A X A^t = A^t``, ``X A X = X`` and ``A X = X A`` hold."""
    a_t = X.dpow(a, t)
    if X.dmul(X.dmul(a, x), a_t) != a_t:
        return f"A X A^{t} != A^{t}"
    if X.dmul(X.dmul(x, a), x) != x:
        return "X A X != X"
    if X.dmul(a, x) != X.dmul(x, a):
        return "A X != X A"
    return None


def _same(x, y) -> bool:
    """Entry-wise equality of two matrices given as rows of any sequence type."""
    return [list(r) for r in x] == [list(r) for r in y]


def _dsame(x, y) -> bool:
    return _same(x[0], y[0]) and _same(x[1], y[1])


# ---------------------------------------------------------------- checks


def check_square(sq: G.Square, profile, wddi, ddi) -> str | None:
    """Invariants, WDDI equations at t = dind, and the DDI or its witness."""
    got = (profile.arank, profile.drank, profile.aind, profile.dind)
    want = (sq.arank, sq.drank, sq.aind, sq.dind)
    if got != want:
        return f"index profile {got} != {want}"
    problem = _dual_equations(sq.a, wddi, sq.dind)
    if problem:
        return f"WDDI: {problem}"
    if sq.ddi:
        if not isinstance(ddi, tuple):
            return "DDI missing although the obstruction vanishes"
        problem = _dual_equations(sq.a, ddi, sq.aind)
        return f"DDI: {problem}" if problem else None
    if isinstance(ddi, tuple):
        return "DDI returned although the obstruction is nonzero"
    if X.is_zero(ddi) or not _same(ddi, sq.obstruction):
        return "DoesNotExist witness is not the obstruction"
    return None


def _family_error(a, generators, restricted: bool) -> str | None:
    """None when every generator is homogeneous and together they span the family.

    Generators take dual parameters, so each spans the columns of its doubled
    form in stacked coordinates.  The general family's directions are the
    null space of the doubled A; the restricted family's are that null space
    intersected with the range of the doubled A.
    """
    for g in generators:
        if not X.dzero(X.dmul(a, g)):
            return "a generator g has A g != 0"
    da = X.doubled(a)
    spans = [X.doubled(g) for g in generators]
    got = X.rank(X.hstack(*spans)) if spans else 0
    null = X.nullspace(da)
    null_rank = len(null[0])
    if restricted:
        range_rank = X.rank(da)
        if any(X.rank(X.hstack(da, g)) != range_rank for g in spans):
            return "a restricted generator leaves the range of A"
        both = X.rank(X.hstack(null, da)) if null_rank else range_rank
        want = null_rank + range_rank - both
    else:
        want = null_rank
    return None if got == want else f"generators span dimension {got}, the family has {want}"


def _solution_error(s: G.Index1System, result, restricted: bool) -> str | None:
    """``result`` is a condition name or ``(particular, generators)``."""
    want = s.restricted if restricted else s.general
    if isinstance(result, str):
        return None if result == want else f"outcome {result} != {want}"
    if want != "ok":
        return f"solved although the class is {want}"
    particular, generators = result
    if not _dsame(X.dmul(s.a, particular), s.b):
        return "A x != b for the particular solution"
    if restricted and X.rank(X.hstack(X.doubled(s.a), X.vstack(*particular))) != X.rank(
        X.doubled(s.a)
    ):
        return "restricted particular solution leaves the range of A"
    return _family_error(s.a, generators, restricted)


def check_index1(s: G.Index1System, wdgi, dgi, general, restricted) -> str | None:
    """WDGI equations, DGI or witness, and both solution families by class."""
    problem = _dual_equations(s.a, wdgi, 2)
    if problem:
        return f"WDGI: {problem}"
    if s.dgi != isinstance(dgi, tuple):
        return "DGI existence differs from its construction"
    if isinstance(dgi, tuple):
        if not _dsame(dgi, wdgi) or _dual_equations(s.a, dgi, 1):
            return "DGI fails A X A = A or differs from the WDGI"
    elif X.is_zero(dgi):
        return "DGI witness is zero"
    for result, restricted_ in ((general, False), (restricted, True)):
        problem = _solution_error(s, result, restricted_)
        if problem:
            return f"{'restricted' if restricted_ else 'general'}: {problem}"
    return None


# ------------------------------------------------------------ workloads


@dataclass
class Context:
    """What a task may touch: the library module and, for the CLI, a process."""

    lib: object
    root: Path
    workdir: Path
    cli_prefix: list[str]
    env: dict = field(default_factory=dict)


@dataclass
class Result:
    label: str
    error: str | None
    outputs: list


class Workload:
    name = ""
    why = ""
    mix = ""
    classes: tuple[str, ...] = ()
    cycle = 1  # inputs per period of the size and class mix
    trace_tasks = 0

    def make(self, seed: int, i: int, ctx: Context):
        raise NotImplementedError

    def call(self, ctx: Context, inp):
        raise NotImplementedError

    def check(self, inp, out) -> Result:
        raise NotImplementedError


def _expected(lib, fn, *args):
    """Call ``fn``; a documented negative outcome comes back as the exception."""
    try:
        return fn(*args)
    except (lib.DoesNotExist, lib.Inconsistent) as exc:
        return exc


def _inverse_or_witness(out):
    """A returned dual matrix as plain rows, or a DoesNotExist witness's rows."""
    if isinstance(out, Exception):
        return [list(r) for r in out.witness.entries]
    return plain(out)


# the CLI's names for the three inconsistency exceptions
CONDITIONS = {
    "InconsistentStandardPart": "standard-part",
    "InconsistentDualPart": "dual-range",
    "Inconsistent": "residual",
}


def _square_tasks(lib, a):
    return lib.index_profile(a), lib.wddi(a), _expected(lib, lib.ddi, a)


def _square_result(sq: G.Square, out) -> Result:
    profile, x, y = out
    wddi, ddi = plain(x), _inverse_or_witness(y)
    outputs = [*wddi, *ddi] if isinstance(ddi, tuple) else [*wddi, ddi]
    return Result(sq.label, check_square(sq, profile, wddi, ddi), outputs)


class SquareWorkload(Workload):
    """Task: ``index_profile``, ``wddi`` and ``ddi`` on one square dual matrix."""

    def call(self, ctx, sq):
        lib = ctx.lib
        return _square_tasks(lib, lib.DualMatrix.of(*sq.a))

    def check(self, sq, out):
        return _square_result(sq, out)


class Invertible(SquareWorkload):
    name = "invertible"
    why = (
        "invertible standard part, aind = dind = 1: RREF, bordered ranks and"
        " matmul dominate; the control for compute-once work and where a faster"
        " kernel shows"
    )
    sizes = (6, 7, 8)
    mix = "n cycles 6, 7, 8; entries p/q with |p|, q <= 9; task = index_profile, wddi, ddi"
    classes = ("aind=1,dind=1,ddi=present",)
    cycle = 3
    trace_tasks = 6

    def make(self, seed, i, ctx):
        return G.invertible(_rng(seed, i), self.sizes[i % len(self.sizes)])


class HighIndex(SquareWorkload):
    name = "high_index"
    why = (
        "P diag(C, N) P^-1 with aind 3-4, with a DDI (dind = aind) or without"
        " (dind = 2*aind): index, drazin, dual_power and bordered 2n x 2n ranks dominate"
    )
    # (n, aind, DDI present) in cycle order.  At the reference speed
    # (6,3,present) costs about 170 ms, and (7,4,present), (6,4,absent) and
    # (7,3,absent) cost 300-530 ms each, overlapping.  With six of seven
    # tasks in that heavy group, both the median and the highest percentile
    # with ten tasks beyond it fall well inside it, not in a gap between two
    # costs.  A cycle is cheap enough for a 30 s run to hold four of them.
    cycle_shapes = (
        (6, 3, True), (6, 4, False), (7, 4, True), (6, 4, False), (7, 3, False),
        (6, 4, False), (7, 4, True),
    )
    mix = (
        "(n, aind, DDI) cycles (6,3,present) (6,4,absent) (7,4,present)"
        " (6,4,absent) (7,3,absent) (6,4,absent) (7,4,present); present means"
        " dind = aind, absent dind = 2*aind with a nonzero obstruction;"
        " task = index_profile, wddi, ddi"
    )
    classes = (
        "aind=3,dind=3,ddi=present",
        "aind=3,dind=6,ddi=absent",
        "aind=4,dind=4,ddi=present",
        "aind=4,dind=8,ddi=absent",
    )
    cycle = 7
    trace_tasks = 7

    def make(self, seed, i, ctx):
        n, k, present = self.cycle_shapes[i % self.cycle]
        return G.high_index(_rng(seed, i), n, k, present)


class Index1Solve(Workload):
    name = "index1_solve"
    why = (
        "aind-1 matrices with right-hand sides of all five solver outcomes:"
        " block_decomposition, dual_linear and moore_penrose dominate"
    )
    # DGI present (N4 = 0) per matrix.  Every matrix has n = 7: tasks on the
    # two kinds of matrix cost about 180 and 155 ms at the reference speed,
    # with overlapping ranges, so neither the median nor the tail can fall
    # in a gap between two costs.
    n = 7
    dgi_cycle = (True, False, True, False, True)
    mix = (
        "one matrix per 4 tasks, n = 7 with a 3 x 3 N4; N4 = 0 (DGI present)"
        " for three matrices of five, rank(N4) = 1 for the other two; right-hand"
        " sides cycle zero, in-range, standard-part, dual-range (in-range"
        " becomes zero when N4 = 0); task = wdgi, dgi, solve_general,"
        " solve_restricted"
    )
    classes = tuple(
        f"general={g},restricted={r}"
        for g, r in (("ok", "ok"), ("ok", "residual"),
                     ("standard-part", "residual"), ("dual-range", "residual"))
    )
    cycle = 20
    trace_tasks = 20

    def make(self, seed, i, ctx):
        j = i // 4
        with_dgi = self.dgi_cycle[j % len(self.dgi_cycle)]
        r = self.n - 3
        a, phat, n4 = G.index1_matrix(_rng(seed, "matrix", j), self.n, r, 0 if with_dgi else 1)
        kind = G.RHS_KINDS[i % 4]
        if with_dgi and kind == "in-range":
            kind = "zero"
        b = G.index1_rhs(_rng(seed, i), phat, r, n4, kind)
        general, restricted = G.RHS_CLASSES[kind]
        return G.Index1System(a, b, general, restricted, with_dgi)

    def call(self, ctx, s):
        lib = ctx.lib
        a, b = lib.DualMatrix.of(*s.a), lib.DualMatrix.of(*s.b)
        return (
            lib.wdgi(a),
            _expected(lib, lib.dgi, a),
            _expected(lib, lib.solve_general, a, b),
            _expected(lib, lib.solve_restricted, a, b),
        )

    def check(self, s, out):
        w, d, gen, res = out
        dgi = _inverse_or_witness(d)
        outputs = [*plain(w), *(dgi if isinstance(dgi, tuple) else [dgi])]
        families = []
        for sols in (gen, res):
            if isinstance(sols, Exception):
                families.append(CONDITIONS[type(sols).__name__])
            else:
                pieces = (plain(sols.particular), [plain(g) for g in sols.generators])
                outputs += [*pieces[0]] + [m for g in pieces[1] for m in g]
                families.append(pieces)
        error = check_index1(s, plain(w), dgi, *families)
        return Result(s.label, error, outputs)


# ------------------------------------------------------------------ cli


def _doc(a) -> str:
    rows, cols = len(a[0]), len(a[0][0])
    grid = [[[str(Fraction(x)) for x in row] for row in part] for part in a]
    return json.dumps({"rows": rows, "cols": cols, "std": grid[0], "dual": grid[1]})


def _grid(doc) -> tuple[list, list]:
    return (
        [[Fraction(x) for x in row] for row in doc["std"]],
        [[Fraction(x) for x in row] for row in doc["dual"]],
    )


@dataclass
class CliJob:
    """One ``dualinv`` command line, its expected exit code and payload check."""

    command: str
    args: list[str]
    code: int
    check: object  # payload dict -> error message or None


def _scale_for(rng, cycle: int) -> Fraction:
    """Every third cycle of commands gets multi-digit entries from a rational scale."""
    if cycle % 3 != 2:
        return Fraction(1)
    return Fraction(rng.choice((1013, 27183, 999983)), rng.choice((1, 7, 101)))


def _dscale(a, c) -> tuple[list, list]:
    return X.scale(a[0], c), X.scale(a[1], c)


def _result_equations(a, t: int):
    return lambda p: _dual_equations(a, _grid(p["result"]), t)


def _square_job(command: str, sq: G.Square, a, scale) -> tuple[int, object]:
    """Expected exit code and check for a command on a high-index matrix."""
    if command == "info":
        want = {"arank": sq.arank, "drank": sq.drank, "aind": sq.aind, "dind": sq.dind}
        return 0, lambda p: None if {k: p.get(k) for k in want} == want else "wrong invariants"
    if command == "compute:drazin-real":
        expected = X.scale(sq.drazin, 1 / scale)

        def check(p):
            std, dual = _grid(p["result"])
            return None if _same(std, expected) and X.is_zero(dual) else "wrong Drazin inverse"

        return 0, check
    if command == "compute:wddi":
        return 0, _result_equations(a, sq.dind)
    if sq.ddi:
        return 0, _result_equations(a, sq.aind)
    # the obstruction is homogeneous of degree aind in the matrix
    witness = X.scale(sq.obstruction, scale**sq.aind)
    return 2, lambda p: None if _same(_grid(p["witness"])[0], witness) else "wrong witness"


def _index1_job(kind: str, a, with_dgi: bool) -> tuple[int, object]:
    """Expected exit code and check for ``compute --kind`` on an index-1 matrix."""
    if kind == "mp-real":
        m = a[0]

        def check(p):
            x = _grid(p["result"])[0]
            mx, xm = X.matmul(m, x), X.matmul(x, m)
            ok = (
                _same(X.matmul(mx, m), m)
                and _same(X.matmul(xm, x), x)
                and _same(mx, X.transpose(mx))
                and _same(xm, X.transpose(xm))
            )
            return None if ok else "Penrose equations fail"

        return 0, check
    if kind == "dgi" and not with_dgi:
        return 2, lambda p: "zero witness" if X.is_zero(_grid(p["witness"])[0]) else None
    return 0, _result_equations(a, 1 if kind == "dgi" else 2)


def _all_hold_check(holds: bool):
    return lambda p: None if p["all_hold"] == holds else "wrong all_hold"


def _solve_check(s: G.Index1System, restricted: bool):
    want = s.restricted if restricted else s.general

    def check(p):
        if want != "ok":
            return None if p.get("condition") == want else f"condition {p.get('condition')}"
        family = (_grid(p["particular"]), [_grid(g) for g in p["generators"]])
        return _solution_error(s, family, restricted)

    return (0 if want == "ok" else 3), check


class Cli(Workload):
    name = "cli"
    why = (
        "one dualinv process per command on 2x2 to 8x8 documents: interpreter"
        " start, import, document parsing and JSON printing dominate"
    )
    commands = (
        "info", "compute:ddi", "compute:wddi", "compute:dgi", "compute:wdgi",
        "compute:drazin-real", "compute:mp-real", "verify", "solve:general",
        "solve:restricted",
    )
    mix = (
        "commands cycle info, compute --kind ddi/wddi/dgi/wdgi/drazin-real/"
        "mp-real, verify, solve, solve --restricted; high-index documents"
        " n 4-6 (aind 2-3, DDI present and absent), index-1 documents n 3-8,"
        " invertible n 2-8; every third cycle scaled to multi-digit entries"
    )
    classes = ("exit=0", "exit=2", "exit=3")
    cycle = 10
    trace_tasks = 20

    def make(self, seed, i, ctx):
        rng = _rng(seed, i)
        cycle = i // len(self.commands)
        scale = _scale_for(rng, cycle)
        command = self.commands[i % len(self.commands)]
        verb, _, kind = command.partition(":")

        def put(label, matrix) -> str:
            # the seed keeps the warm-up input's files apart from the run's
            path = ctx.workdir / f"{seed}-{i}-{label}.json"
            path.write_text(_doc(matrix))
            return str(path)

        if command in ("info", "compute:ddi", "compute:wddi", "compute:drazin-real"):
            n = rng.choice((4, 5, 6))
            k = 3 if n == 6 and rng.random() < 0.5 else 2
            sq = G.high_index(rng, n, k, present=cycle % 2 == 0)
            a = _dscale(sq.a, scale)
            code, check = _square_job(command, sq, a, scale)
            args = (["compute", "--kind", kind] if kind else ["info"]) + [put("a", a)]
        elif verb == "compute":
            n = rng.choice((3, 4, 5, 6, 7, 8))
            r = rng.randint(max(1, n // 2), n - 2)
            with_dgi = cycle % 2 == 1
            base, _, _ = G.index1_matrix(rng, n, r, 0 if with_dgi else 1)
            a = _dscale(base, scale)
            code, check = _index1_job(kind, a, with_dgi)
            args = ["compute", "--kind", kind, put("a", a)]
        elif verb == "verify":
            a = _dscale(G.invertible(rng, rng.choice((2, 3, 4, 5, 6, 7, 8))).a, scale)
            x = X.dinverse(a)
            holds = cycle % 2 == 0
            if not holds:
                x = (x[0], [[v + (r == c == 0) for c, v in enumerate(row)]
                            for r, row in enumerate(x[1])])
            kind = rng.choice(("group", "drazin-k", "wddi-t", "wdgi"))
            code, check = 0, _all_hold_check(holds)
            args = ["verify", "--kind", kind, put("a", a), put("x", x)]
        else:
            n = rng.choice((3, 4, 5, 6, 7, 8))
            r = rng.randint(max(1, n // 2), n - 2)
            a, phat, n4 = G.index1_matrix(rng, n, r, rng.randint(1, n - r - 1))
            # general and restricted solves of one cycle get different classes
            rhs = G.RHS_KINDS[(cycle + (kind == "restricted")) % 4]
            b = G.index1_rhs(rng, phat, r, n4, rhs)
            s = G.Index1System(_dscale(a, scale), _dscale(b, scale), *G.RHS_CLASSES[rhs], False)
            restricted = kind == "restricted"
            code, check = _solve_check(s, restricted)
            args = ["solve", *(["--restricted"] if restricted else []), put("a", s.a), put("b", s.b)]
        return CliJob(command, args, code, check)

    def call(self, ctx, job):
        return subprocess.run(
            ctx.cli_prefix + job.args,
            capture_output=True,
            env=ctx.env,
            cwd=ctx.root,
            timeout=CLI_TIMEOUT_S,
        )

    def check(self, job, proc):
        label = f"exit={proc.returncode}"
        if proc.returncode != job.code:
            return Result(label, f"{job.command}: exit {proc.returncode} != {job.code}", [])
        try:
            doc = json.loads(proc.stdout)
        except ValueError:
            return Result(label, f"{job.command}: stdout is not one JSON document", [])
        payload = doc.get("payload", {})
        outputs = []
        for key in ("result", "witness", "particular"):
            if key in payload:
                outputs += _grid(payload[key])
        for g in payload.get("generators", []):
            outputs += _grid(g)
        try:
            error = job.check(payload)
        except (KeyError, TypeError, ValueError) as exc:
            error = f"malformed payload: {exc!r}"
        return Result(label, error and f"{job.command}: {error}", outputs)


WORKLOADS = {w.name: w for w in (Invertible(), HighIndex(), Index1Solve(), Cli())}


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env.pop("PYTHONSTARTUP", None)
    return env


CLI_MAIN = "import sys; from dualinv.cli import main; sys.exit(main())"


def cli_prefix(traced: bool) -> list[str]:
    if traced:
        return [sys.executable, str(Path(__file__).with_name("traced_cli.py"))]
    return [sys.executable, "-c", CLI_MAIN]
