"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests
"""
from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import avebounds as ab  # noqa: E402
import measure  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402


# ------------------------------------------------------------ seeded inputs


GENERATORS = {
    "planted_easy": lambda rng: wl.planted_problem(rng, 40, ab.TYPE_TWO, False),
    "planted_hard": lambda rng: wl.planted_problem(rng, 40, ab.TYPE_ONE, True),
    "regular_family": lambda rng: wl.regular_family(rng, 11, ab.TYPE_ONE),
    "singular_vertex": lambda rng: wl.singular_vertex_family(rng, 10, ab.TYPE_TWO),
    "w_pair": lambda rng: wl.w_pair(rng, 10),
    "p_matrix": lambda rng: wl.p_matrix(rng, 12, True),
}


def _arrays(obj):
    if isinstance(obj, ab.AveProblem):
        return [obj.A, obj.B, obj.b]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in _arrays(item)]
    if obj is None:
        return []
    return [np.asarray(obj)]


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_same_seed_gives_identical_inputs(name):
    make = GENERATORS[name]
    first = _arrays(make(wl._rng(7, 3)))
    again = _arrays(make(wl._rng(7, 3)))
    other = _arrays(make(wl._rng(8, 3)))
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not all(np.array_equal(a, b) for a, b in zip(first, other))


def test_query_setup_files_repeat_per_seed(tmp_path):
    def files(seed, sub):
        stream = wl.QueryStream(seed, str(tmp_path / sub))
        stream.setup()
        return {os.path.basename(p): open(p).read()
                for paths, _, _ in stream.files.values() for p in paths.values()}
    first = files(5, "a")
    assert first == files(5, "b")
    assert first != files(6, "c")


# ---------------------------------------------------------------- tail rule


@pytest.mark.parametrize("n", [1, 2, 10, 11, 20, 21, 22, 100, 1000])
def test_tail_is_highest_order_statistic_with_ten_above(n):
    idx = measure.tail_index(n)
    if n >= 21:
        assert n - 1 - idx == 10
        assert idx >= (n - 1) // 2
    else:
        assert idx is None
        summary = measure.latency_summary(list(range(n)))
        assert summary["tail_ms"] == summary["p50_ms"]
        assert summary["tail_percentile"] == 50.0


def test_latency_summary_reports_tail_percentile():
    lat = list(range(1, 1001))             # 1..1000 ns
    summary = measure.latency_summary(lat)
    assert summary["samples"] == 1000
    assert summary["tail_ms"] == 990 / 1e6
    assert summary["tail_percentile"] == pytest.approx(99.0)
    assert summary["p50_ms"] == 500.5 / 1e6


# ------------------------------------------------------- self-time arithmetic


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, None, None]


def test_self_times_on_overlapping_threads():
    spans = [
        _span("op", 0, 100, None),          # 0
        _span("a", 10, 60, 0),              # 1  main thread
        _span("b", 20, 50, 1),              # 2  pool thread 1
        _span("c", 30, 55, 1),              # 3  pool thread 2, overlaps b
        _span("d", 25, 35, 2),              # 4
        _span("e", 70, 90, 0),              # 5
    ]
    self_ns, excess = tr.self_times(spans)
    assert self_ns == [30, 15, 20, 25, 10, 20]
    assert excess == [0, 20, 0, 0, 0, 0]
    by_name, ops = tr.layer_table(spans)
    assert ops[0] == {"wall_ns": 100, "untraced_ns": 30, "excess_ns": 20, "self_sum_ns": 120}
    assert by_name["a"]["self_ns"] == 15 and by_name["a"]["calls"] == 1


def test_cell_overlap_on_synthetic_table():
    spans = [
        _span("op", 0, 100, None),
        _span("harness.run_experiment", 0, 100, 0),
        _span("perturbation.perturbation_experiment", 0, 80, 1),
        _span("perturbation.perturbation_experiment", 10, 90, 1),
    ]
    assert tr.cell_overlap(spans) == pytest.approx(1.6)


def test_tracer_attaches_pool_cells_and_restores_originals():
    original = ab.perturbation.upper_factor
    lu_factor = ab.solver.lu_factor
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert ab.perturbation.upper_factor is not original
        assert ab.solver.lu_factor is not lu_factor
        tracer.begin_op(0)
        try:
            ab.reproduce_table(1)
        finally:
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert ab.perturbation.upper_factor is original
    assert ab.solver.lu_factor is lu_factor
    names = [s[tr.NAME] for s in tracer.spans]
    cells = [s for s in tracer.spans if s[tr.NAME] == "perturbation.perturbation_experiment"]
    assert len(cells) == 5
    assert all(names[s[tr.PARENT]] == "harness.run_experiment" for s in cells)
    metrics = tr.per_layer_metrics(tracer.spans, 1, 0.0)   # checks the self-time sum
    assert metrics["solver.picard_solve.calls"] == 10
    assert metrics["bounds.upper_factor.neumann.calls"] == 5
    assert metrics["linalg.lu_factor.calls"] == 10
    assert metrics["solver.iterations"] > 0


# --------------------------------------------------------- failure accounting


def _op(run, check=lambda result: None, outcomes=()):
    return measure.Op("kind", run, check, outcomes)


def _raise(exc):
    def run():
        raise exc
    return run


def _reject(result):
    raise measure.CheckFailed("wrong_answer")


def test_raising_and_failed_checks_count_as_errors():
    tally = measure.Tally()
    measure.execute(_op(lambda: 1), tally)
    measure.execute(_op(_raise(ValueError("boom"))), tally)
    measure.execute(_op(lambda: 2, _reject), tally)
    measure.execute(_op(_raise(ab.InapplicableBoundError("no", "x")),
                        outcomes=(ab.InapplicableBoundError,)), tally)
    assert tally.attempted == 4
    assert tally.failures == {"kind:raised:ValueError": 1, "wrong_answer": 1}
    assert tally.failed == 2
    assert len(tally.latencies_ns) == 4
    assert not tally.correct


def test_known_defects_fail_but_keep_run_correct():
    tally = measure.Tally()
    op = measure.Op("picard", _raise(ValueError("array must not contain infs or NaNs")),
                    lambda r: None, raised_tag=wl._picard_tag)
    measure.execute(op, tally)
    assert tally.failures == {"picard_nonfinite_valueerror": 1}
    assert tally.correct


# -------------------------------------------------------------- entry point


def _run(*args):
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_run_prints_the_registered_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        tr.per_layer_spec()
    common = ["--workload", "query-stream", "--seed", "1", "--seconds", "1"]
    timed = _run(*common, "--trace", "0")
    assert set(timed) == {"correct", "attempted", "failed", "metrics"}
    repeat = _run(*common, "--trace", "0")
    assert (repeat["attempted"], repeat["failed"]) == (timed["attempted"], timed["failed"])
    assert {k: v["unit"] for k, v in timed["metrics"].items()} == \
        {m["name"]: m["unit"] for m in bench["end_to_end"]}
    traced = _run(*common, "--trace", "1")
    assert list(traced["metrics"]) == [m["name"] for m in bench["per_layer"]]
    again = _run(*common, "--trace", "1")
    for name, metric in traced["metrics"].items():
        if metric["unit"] in ("calls/op", "iter/op", "matrices/op", "MB/op"):
            assert again["metrics"][name]["value"] == metric["value"], name
