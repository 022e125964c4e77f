"""The dualinv benchmark: one client, closed loop, every output checked.

    python3 benchmark/run.py --workload high_index --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py                   # every workload, one after another
    python3 benchmark/run.py --write-spec      # rewrite BENCHMARK.json from SPEC

Each task starts when the previous one ends.  Inputs come from ``--seed``
only (see ``workloads.py``); the library receives nothing else.  With
``--trace 0`` the run measures for ``--seconds`` and reports the end-to-end
metrics; with ``--trace 1`` it runs a fixed set of tasks both untraced and
with span wrappers installed (``tracing.py``), and reports the per-layer
metrics plus the tracing overhead.  Every time is scaled to a reference
speed of the host (``hostspeed.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The library is imported from ``src/`` beside the benchmark directory;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from contextlib import contextmanager, nullcontext
from pathlib import Path

import exact
import hostspeed
from tracing import Tracer, patched_names
from workloads import WORKLOADS, Context, cli_env, cli_prefix

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 11
AGREE = 0.25
ATTEMPTS = 2
# Far past the index of any task a run reaches, and a multiple of 12, so a
# redrawn cli input keeps the phase of the mix's 2-, 3- and 4-cycle turns.
REDRAW_STRIDE = 12 * 10**5

# Public functions whose calls and self time the traced run reports.
LAYER_FUNCTIONS = (
    "matrices.matmul",
    "matrices.dual_power",
    "elimination.rref",
    "elimination.rank",
    "elimination.inverse",
    "elimination.nullspace",
    "elimination.solve",
    "elimination.column_space_contains",
    "real_inverses.index",
    "real_inverses.core_nilpotent",
    "real_inverses.drazin",
    "real_inverses.group_inverse",
    "real_inverses.moore_penrose",
    "indices.rank_profile",
    "indices.index_profile",
    "dual_inverses.ddi_obstruction",
    "dual_inverses.wddi",
    "dual_inverses.ddi",
    "dual_inverses.wdgi",
    "dual_inverses.dgi",
    "dual_inverses.verify",
    "dual_linear.doubled",
    "dual_linear.dual_inverse",
    "dual_linear.in_range",
    "block_decomposition.block_diagonalize_ind1",
    "equation_solvers.solve_general",
    "equation_solvers.solve_restricted",
    "documents.parse_matrix",
    "documents.matrix_to_document",
    "documents.to_json",
    "cli.run",
)

WORK_COUNTS = ("matrices.matmul.madds", "elimination.rref.cells")

SPEC = {
    "command": ["python3", "benchmark/run.py"],
    "paths": ["benchmark"],
    "run_seconds": 30,
    "end_to_end": [
        {"name": "task_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "task_ms_tail", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "tasks_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    ],
    "per_layer": (
        [
            {"name": f"{fn}.{kind}", "unit": unit, "better": "lower"}
            for fn in LAYER_FUNCTIONS
            for kind, unit in (("calls", "count"), ("self_s", "s"))
        ]
        + [{"name": name, "unit": "count", "better": "lower"} for name in WORK_COUNTS]
        + [
            {"name": "matrices.max_entry_bits", "unit": "bits", "better": "lower"},
            {"name": "trace.overhead_ms", "unit": "ms", "better": "lower"},
        ]
    ),
}


def load_library():
    """Import ``dualinv`` from ``src/`` beside the benchmark, and only from there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        lib = importlib.import_module("dualinv")
        problem = None if src in Path(lib.__file__).resolve().parents else (
            f"dualinv was found at {lib.__file__}, not under {src}"
        )
    except ImportError as exc:
        problem = f"cannot import dualinv from {src}: {exc}"
    if problem:
        print(f"benchmark: {problem}", file=sys.stderr)
        raise SystemExit(2)
    return lib


def fresh_import():
    for name in [m for m in sys.modules if m == "dualinv" or m.startswith("dualinv.")]:
        del sys.modules[name]
    return importlib.import_module("dualinv")


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists; the maximum stands
    in and the percentile reads 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def whole_cycles(latencies: list[float], cycle: int) -> list[float]:
    """The latencies of the completed cycles of the mix, so every run weighs
    each size and class the same; all of them when not one cycle completed."""
    keep = len(latencies) - len(latencies) % cycle
    return latencies[:keep] if keep else latencies


class Run:
    """Tasks attempted so far, their latencies, outcome classes and errors."""

    def __init__(self, workload, ctx):
        self.workload, self.ctx = workload, ctx
        self.latencies: list[float] = []
        self.scales: list[float] = []  # host-speed factor per latency
        self.labels: Counter = Counter()
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.max_bits = 0
        self.warmup_errors: list[str] = []

    def attempt(self, inp) -> tuple[float, object, Exception | None, object]:
        """One timed call: its seconds, its output or exception, its input."""
        start = time.perf_counter()
        try:
            out = self.workload.call(self.ctx, inp)
        except Exception as exc:  # a crashing task is a failed task, not a crashed run
            return time.perf_counter() - start, None, exc, inp
        return time.perf_counter() - start, out, None, inp

    def record(self, inp, elapsed: float, out, exc, scale: float, tracer=None,
               kept: bool = True) -> None:
        """Count and check one attempted task; keep its latency and
        host-speed factor unless ``steady`` set its timing aside."""
        self.attempted += 1
        if kept:
            self.latencies.append(elapsed)
            self.scales.append(scale)
        if exc is not None:
            self._fail(f"{type(exc).__name__}: {exc}")
            return
        if tracer is not None:
            tracer.collect(scale)
            stderr = getattr(out, "stderr", None)
            if stderr:
                tracer.merge(json.loads(stderr.decode().splitlines()[-1]), scale)
        result = self.workload.check(inp, out)
        self.labels[result.label] += 1
        if result.error:
            self._fail(result.error)
        self.max_bits = max(self.max_bits, exact.max_bits(result.outputs))

    def scaled(self) -> list[float]:
        """Latencies at the reference speed."""
        return [x * f for x, f in zip(self.latencies, self.scales)]

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def missing_classes(self) -> list[str]:
        return [c for c in self.workload.classes if not self.labels[c]]


def setup(workload, ctx, warm_input) -> tuple[float, str | None]:
    """One set-up: a fresh ``import dualinv`` plus an untimed warm-up task.

    Returns the time it took and the warm-up output's check error, if any.
    """
    start = time.perf_counter()
    ctx.lib = fresh_import()
    out = workload.call(ctx, warm_input)
    elapsed = time.perf_counter() - start
    return elapsed, workload.check(warm_input, out).error


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def redraw(workload, i: int, k: int) -> int:
    """Index of the input for attempt k of task i: a fresh draw of the same
    size and class each time, so that a cache keyed on whole inputs never
    sees a repeat."""
    return i + k * REDRAW_STRIDE * workload.cycle


def reference_for(workload) -> hostspeed.Reference:
    """The cli workload's tasks are process starts, so its reference is one."""
    return hostspeed.IN_CHILD if workload.name == "cli" else hostspeed.IN_PROCESS


def steady(timed, before: float, ref: hostspeed.Reference, attempts: int = ATTEMPTS):
    """Call ``timed(k)`` for attempt k = 0, 1, ... between timings of ``ref``,
    again while the two timings around a call differ by more than AGREE of
    the smaller, ``attempts`` times at most.  ``timed`` returns a tuple
    whose first item is the seconds its call took.

    The host switches between a fast and a slow state every few seconds; a
    call that spans a switch cannot be scaled by the timings around it, so
    it is timed again.  Returns every attempt's result and host-speed
    factor, the index of the attempt with the closest reference timings,
    and the last reference timing.
    """
    results, scales, gaps = [], [], []
    for k in range(attempts):
        results.append(timed(k))
        after = ref.timed()
        scales.append(ref.scale(before, after))
        gaps.append(abs(after - before) / min(after, before))
        before = after
        if gaps[-1] <= AGREE:
            break
    return results, scales, gaps.index(min(gaps)), before


def measure(workload, ctx, seed: int, seconds: float, warm_input) -> tuple[Run, list[float]]:
    """Closed loop for ``seconds``, with SETUPS set-ups spread evenly over it.

    Spreading the set-ups lets their median sample the host over the whole
    run, as the task latencies do, instead of over its first second.  Each
    set-up ends with a warm-up task, so timing resumes warm.  Every task and
    set-up is timed by ``steady`` and scaled to the reference speed.
    Returns the run and the scaled set-up times.
    """
    run, ref = Run(workload, ctx), reference_for(workload)
    setups: list[float] = []
    before = ref.timed()
    start = time.perf_counter()
    i = 0
    while True:
        now = time.perf_counter()
        if len(setups) < SETUPS and now >= start + len(setups) * seconds / SETUPS:
            results, scales, best, before = steady(
                lambda _: setup(workload, ctx, warm_input), before, ref)
            setups.append(results[best][0] * scales[best])
            run.warmup_errors += [error for _, error in results if error]
        elif i > 0 and now >= start + seconds:
            return run, setups
        else:
            results, scales, best, before = steady(
                lambda k: run.attempt(workload.make(seed, redraw(workload, i, k), ctx)),
                before, ref)
            for k, ((elapsed, out, exc, inp), scale) in enumerate(zip(results, scales)):
                run.record(inp, elapsed, out, exc, scale, kept=k == best)
            i += 1


@contextmanager
def tracing_on(workload, ctx, tracer):
    """Span wrappers in this process, or the traced entry point for CLI children."""
    if workload.name == "cli":
        ctx.cli_prefix = cli_prefix(traced=True)
        try:
            yield
        finally:
            ctx.cli_prefix = cli_prefix(traced=False)
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.restore()
    left = patched_names()
    if left:
        raise RuntimeError(f"span wrappers left installed: {left}")


def trace(workload, ctx, seed: int) -> tuple[Run, Run, object]:
    """Each of a fixed set of inputs untraced and traced, in alternating order,
    so that drift in host speed falls on both sides of the overhead alike.

    Each call is scaled by the reference timings around it but timed only
    once, so that the counts repeat exactly.
    """
    inputs = [workload.make(seed, i, ctx) for i in range(workload.trace_tasks)]
    plain_run, traced_run, tracer = Run(workload, ctx), Run(workload, ctx), Tracer()
    ref = reference_for(workload)
    before = ref.timed()
    for i, inp in enumerate(inputs):
        for traced in (False, True) if i % 2 == 0 else (True, False):
            run = traced_run if traced else plain_run
            with tracing_on(workload, ctx, tracer) if traced else nullcontext():
                [(elapsed, out, exc, _)], [scale], _, before = steady(
                    lambda _: run.attempt(inp), before, ref, attempts=1)
                run.record(inp, elapsed, out, exc, scale, tracer if traced else None)
    return plain_run, traced_run, tracer


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    workload = WORKLOADS[name]
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        ctx = Context(None, ROOT, workdir, cli_prefix(traced=False), cli_env(ROOT))
        warm_input = workload.make(-1, 0, ctx)
        if traced:
            _, warm_error = setup(workload, ctx, warm_input)
            plain_run, run, tracer = trace(workload, ctx, seed)
            plain_run.warmup_errors += [warm_error] if warm_error else []
            runs = [plain_run, run]
        else:
            run, setups = measure(workload, ctx, seed, seconds, warm_input)
            runs = [run]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    errors = [f"warm-up: {e}" for r in runs for e in r.warmup_errors]
    errors += [e for r in runs for e in r.errors]
    missing = run.missing_classes()
    lat_ms = [x * 1000 for x in whole_cycles(run.scaled(), workload.cycle)]
    p50 = statistics.median(lat_ms)
    tail_ms, tail_pct = tail(lat_ms)

    print(f"== {name}  seed {seed}  {'traced' if traced else 'untraced'}")
    print(f"   mix: {workload.mix}")
    for label, count in sorted(run.labels.items()):
        print(f"   reached {label}: {count}")
    for label in missing:
        print(f"   MISSING class {label}")
    for error in errors:
        print(f"   FAILED {error}")
    if traced:
        # both runs timed the same inputs in the same order: pair them
        overhead = 1000 * statistics.median(
            t - p for t, p in zip(run.scaled(), plain_run.scaled()))
        metrics = {"trace.overhead_ms": (overhead, "ms")}
        for fn in LAYER_FUNCTIONS:
            metrics[f"{fn}.calls"] = (tracer.calls.get(fn, 0), "count")
            metrics[f"{fn}.self_s"] = (tracer.self_s.get(fn, 0.0), "s")
        for key in WORK_COUNTS:
            metrics[key] = (tracer.work.get(key, 0), "count")
        metrics["matrices.max_entry_bits"] = (run.max_bits, "bits")
        print(f"   traced task_ms_p50 {p50:.3f} ms, overhead {overhead:.3f} ms"
              f" over {len(run.latencies)} tasks")
    else:
        metrics = {
            "task_ms_p50": (p50, "ms"),
            "task_ms_tail": (tail_ms, "ms"),
            "tasks_per_s": (len(lat_ms) / (sum(lat_ms) / 1000), "1/s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb(name == "cli"), "MB"),
        }
        raw_ms = [x * 1000 for x in whole_cycles(run.latencies, workload.cycle)]
        print(f"   raw wall-clock task_ms_p50 {statistics.median(raw_ms):.3f} ms; host"
              f" speed factor median {statistics.median(run.scales):.3f}")
        print(f"   task_ms_tail is p{tail_pct:.1f} of {len(lat_ms)} tasks"
              f" ({len(lat_ms) // workload.cycle} whole cycles of {workload.cycle})")
        print(f"   failed_frac {failed / attempted:.4f} ({failed}/{attempted})")
    for key, (value, unit) in metrics.items():
        print(f"   {key:<48} {value:>14.6g} {unit}")
    return {
        "correct": failed == 0 and not errors and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def write_spec() -> None:
    spec = dict(SPEC)
    spec["workloads"] = [{"name": w.name, "why": w.why} for w in WORKLOADS.values()]
    order = ("command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer")
    text = json.dumps({k: spec[k] for k in order}, indent=2) + "\n"
    (ROOT / "BENCHMARK.json").write_text(text)


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS and import is its own."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        print(proc.stdout, end="", flush=True)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    args = parser.parse_args(argv)
    if args.write_spec:
        write_spec()
        return 0
    load_library()
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {list(WORKLOADS)} or all")
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
