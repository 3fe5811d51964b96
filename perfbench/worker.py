"""One workload process of the benchmark; ``run.py`` starts it.

Modes:

* ``setup``  -- import, generate set-up inputs, warm up, print the time at
  which the first op could start, exit;
* ``timed``  -- set up, then run the closed loop (one client, one op in
  flight) over a fixed list of ops sized to take about ``--seconds`` and
  print the end-to-end figures;
* ``traced`` -- set up, then run a fixed list of ops, each twice on identical
  fresh inputs, once untraced and once traced (alternating which goes first),
  and print the per-layer figures.

The last line of standard output is a JSON object for ``run.py``.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import shutil
import sys
import time
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import numpy  # noqa: E402
import scipy  # noqa: E402

import avebounds  # noqa: E402
import measure  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment():
    """Thread and build configuration the figures were taken under."""
    harness = avebounds.harness
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "AVE_BOUNDS_THREADS": os.environ.get("AVE_BOUNDS_THREADS"),
        "harness_workers": harness._thread_count(len(harness.BENCH_EPSILONS)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


# A timed run stops early, with fewer ops than its list holds, only when the
# host is this much slower than the workload's nominal rate.
STOP_FACTOR = 1.25


def timed_op_count(workload, seconds):
    """Length of the timed op list: a seed fixes every op, so ``attempted``
    and ``failed`` repeat exactly for a seed however fast the host runs."""
    return max(1, round(seconds * workload.timed_ops_per_s))


def run_timed(workload, seconds):
    tally = measure.Tally()
    n_ops = timed_op_count(workload, seconds)
    stop = time.perf_counter() + STOP_FACTOR * seconds
    for i in range(n_ops):
        measure.execute(workload.op(i), tally)
        if time.perf_counter() >= stop:
            break
    summary = measure.latency_summary(tally.latencies_ns)
    return tally, {
        **summary,
        "ops_per_s": tally.attempted / (sum(tally.latencies_ns) / 1e9),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "planned_ops": n_ops,
    }


def run_traced(workload, seconds, spans_path):
    n_ops = max(1, int(seconds * workload.trace_ops_per_s / 2))
    recorder = tracer.Tracer()
    tally = measure.Tally()
    plain_ns = traced_ns = 0
    for i in range(n_ops):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            op = workload.op(i)
            if traced:
                op.run = _under(recorder, i, op.run)
                traced_ns += measure.execute(op, tally)
            else:
                plain_ns += measure.execute(op, tally)
    metrics = tracer.per_layer_metrics(recorder.spans, n_ops, traced_ns / plain_ns - 1.0)
    with gzip.open(spans_path, "wt") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "error", "extra"],
                   "spans": recorder.spans}, fh)
    return tally, metrics


def _under(recorder, op_id, run):
    def traced_run():
        recorder.install()
        recorder.begin_op(op_id)
        try:
            return run()
        finally:
            recorder.end_op()
            recorder.uninstall()
    return traced_run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    if not os.path.abspath(avebounds.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"avebounds was imported from {avebounds.__file__}, not {SRC}")
    warnings.simplefilter("ignore")     # beta_factor warns on singular members
    os.makedirs(args.workdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.workdir)
        workload.setup()
        result = {"ready": time.monotonic()}
        if args.mode == "timed":
            tally, result["metrics"] = run_timed(workload, args.seconds)
        elif args.mode == "traced":
            spans_path = f"{args.workdir}.spans.json.gz"
            tally, result["metrics"] = run_traced(workload, args.seconds, spans_path)
            result["spans_file"] = spans_path
        if args.mode != "setup":
            result.update(attempted=tally.attempted, failures=tally.failures,
                          correct=tally.correct, env=environment())
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
