"""Tests of the benchmark itself: generators, output checks, tracing, spec.

    python3 -m pytest benchmark/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import dualinv
import exact as X
import hostspeed
import run
import tracing
import workloads as W


def _aind(m) -> int:
    k, power = 1, m
    while X.rank(power) != X.rank(X.matmul(power, m)):
        k, power = k + 1, X.matmul(power, m)
    return k


def _dind(a, aind: int) -> int:
    for t in range(aind, 2 * aind + 1):
        power = X.dpow(a, t)
        ar = X.rank(power[0])
        if X.bordered_rank(power) - ar == ar:
            return t
    raise AssertionError("no dual index in [aind, 2*aind]")


@pytest.mark.parametrize("i", range(7))
def test_high_index_generator_reaches_its_declared_class(i):
    sq = W.WORKLOADS["high_index"].make(7, i, None)
    aind = _aind(sq.a[0])
    assert (aind, _dind(sq.a, aind)) == (sq.aind, sq.dind)
    assert sq.dind == (sq.aind if sq.ddi else 2 * sq.aind)
    assert X.is_zero(sq.obstruction) == sq.ddi
    # the constructed obstruction is the library's definition of it
    m, k = sq.a[0], sq.aind
    proj = X.sub(X.identity(len(m)), X.matmul(m, sq.drazin))
    assert X.matmul(X.matmul(proj, X.dpow(sq.a, k)[1]), proj) == sq.obstruction


def test_invertible_generator_has_index_one():
    sq = W.WORKLOADS["invertible"].make(7, 0, None)
    assert X.rank(sq.a[0]) == sq.n and _aind(sq.a[0]) == 1 == sq.dind


@pytest.mark.parametrize("i", range(20))
def test_index1_generator_reaches_its_declared_class(i):
    s = W.WORKLOADS["index1_solve"].make(7, i, None)
    assert _aind(s.a[0]) == 1
    da = X.doubled(s.a)
    consistent = X.rank(X.hstack(da, X.vstack(*s.b))) == X.rank(da)
    assert consistent == (s.general == "ok")
    a, b = dualinv.DualMatrix.of(*s.a), dualinv.DualMatrix.of(*s.b)
    for solver, want in ((dualinv.solve_general, s.general), (dualinv.solve_restricted, s.restricted)):
        try:
            solver(a, b)
            got = "ok"
        except dualinv.Inconsistent as exc:
            got = W.CONDITIONS[type(exc).__name__]
        assert got == want


def test_index1_mix_covers_all_five_outcomes():
    seen = set()
    for i in range(W.WORKLOADS["index1_solve"].cycle):
        s = W.WORKLOADS["index1_solve"].make(3, i, None)
        seen |= {("general", s.general), ("restricted", s.restricted)}
    assert seen == {("general", "ok"), ("general", "standard-part"), ("general", "dual-range"),
                    ("restricted", "ok"), ("restricted", "residual")}


def _square_outputs(sq):
    a = dualinv.DualMatrix.of(*sq.a)
    return W._square_result(sq, W._square_tasks(dualinv, a))


def test_square_check_accepts_library_and_rejects_a_flipped_entry():
    for i in (0, 4):  # DDI present, then absent
        sq = W.WORKLOADS["high_index"].make(11, i, None)
        assert _square_outputs(sq).error is None
        profile = dualinv.index_profile(dualinv.DualMatrix.of(*sq.a))
        x = W.plain(dualinv.wddi(dualinv.DualMatrix.of(*sq.a)))
        x[1][0][0] += 1
        assert W.check_square(sq, profile, x, sq.obstruction if not sq.ddi else x) is not None


def test_square_check_rejects_a_zero_witness():
    sq = W.WORKLOADS["high_index"].make(11, 4, None)
    assert not sq.ddi
    a = dualinv.DualMatrix.of(*sq.a)
    wddi = W.plain(dualinv.wddi(a))
    assert W.check_square(sq, dualinv.index_profile(a), wddi, X.zeros(sq.n, sq.n))


def test_solution_check_rejects_a_dropped_generator():
    # input 4: n = 6 with rank(N4) = 1, where no generator is redundant
    s = W.WORKLOADS["index1_solve"].make(5, 4, None)
    assert s.general == "ok" and not s.dgi
    sols = dualinv.solve_general(dualinv.DualMatrix.of(*s.a), dualinv.DualMatrix.of(*s.b))
    family = (W.plain(sols.particular), [W.plain(g) for g in sols.generators])
    assert W._solution_error(s, family, False) is None
    assert W._solution_error(s, (family[0], family[1][:-1]), False) is not None
    moved = (X.sub(family[0][0], [[1]] + [[0]] * (s.n - 1)), family[0][1])
    assert W._solution_error(s, (moved, family[1]), False) is not None


def test_tracer_counts_spans_and_restores_every_function():
    original = dualinv.RealMatrix.__matmul__
    sq = W.WORKLOADS["high_index"].make(2, 0, None)
    totals = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            assert tracing.patched_names()
            W._square_tasks(dualinv, dualinv.DualMatrix.of(*sq.a))
        finally:
            tracer.restore()
        tracer.collect()
        assert tracing.patched_names() == []
        assert dualinv.RealMatrix.__matmul__ is original
        assert tracer.calls["dual_inverses.wddi"] == 1
        assert all(v >= 0 for v in tracer.self_s.values())
        totals.append((dict(tracer.calls), dict(tracer.work)))
    assert totals[0] == totals[1]
    assert totals[0][1]["matrices.matmul.madds"] > 0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(30))) == (19, 100.0 * 20 / 30)
    assert run.tail([3, 1, 2]) == (3, 100.0)
    assert run.whole_cycles(list(range(10)), 4) == list(range(8))


def test_latencies_scale_to_the_reference_speed():
    ref = hostspeed.IN_PROCESS
    assert ref.scale(ref.nominal_s, ref.nominal_s) == 1
    # a host running at half speed doubles every raw time; scaling undoes it
    assert ref.scale(2 * ref.nominal_s, 2 * ref.nominal_s) == 0.5
    r = run.Run(W.WORKLOADS["invertible"], None)
    r.latencies, r.scales = [0.2, 0.4], [0.5, 2.0]
    assert r.scaled() == [0.1, 0.8]
    assert hostspeed.IN_PROCESS.timed() > 0 and hostspeed.IN_CHILD.timed() > 0
    assert run.reference_for(W.WORKLOADS["cli"]) is hostspeed.IN_CHILD


def test_steady_times_again_only_when_the_references_disagree():
    refs = iter([0.010, 0.0105])  # the host sped up during the first attempt
    ref = hostspeed.Reference(lambda: next(refs), 0.016)
    results, scales, best, last = run.steady(lambda k: (0.1, k), 0.020, ref)
    assert results == [(0.1, 0), (0.1, 1)] and best == 1
    assert scales[best] == ref.scale(0.010, 0.0105) and last == 0.0105
    refs = iter([0.0205])
    assert run.steady(lambda k: (0.1, k), 0.020, ref)[0] == [(0.1, 0)]


@pytest.mark.parametrize("name", ["high_index", "index1_solve", "cli"])
def test_a_redrawn_input_is_new_but_of_the_same_class(name, tmp_path):
    ctx = W.Context(dualinv, run.ROOT, tmp_path, W.cli_prefix(traced=False), W.cli_env(run.ROOT))
    workload = W.WORKLOADS[name]
    for i in range(0, 60, 7):
        first = workload.make(3, i, ctx)
        again = workload.make(3, run.redraw(workload, i, 1), ctx)
        if name == "cli":
            assert (first.command, first.code) == (again.command, again.code)
            assert first.args != again.args
        else:
            assert first.a != again.a
            keys = ("aind", "dind", "ddi") if name == "high_index" else ("general", "restricted")
            assert [getattr(first, k) for k in keys] == [getattr(again, k) for k in keys]


def test_spec_file_matches_the_benchmark():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == run.SPEC["end_to_end"]
    assert spec["per_layer"] == run.SPEC["per_layer"]
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_cli_warm_up_input_survives_the_run(tmp_path):
    """Set-ups repeat mid-run, so the warm-up's files must not be overwritten."""
    ctx = W.Context(dualinv, run.ROOT, tmp_path, W.cli_prefix(traced=False), W.cli_env(run.ROOT))
    cli = W.WORKLOADS["cli"]
    warm = cli.make(-1, 0, ctx)
    cli.make(1, 0, ctx)
    assert cli.check(warm, cli.call(ctx, warm)).error is None
