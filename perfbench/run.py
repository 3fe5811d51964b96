"""Benchmark of the avebounds package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Each invocation measures one workload (``lattice-t4`` or ``query-stream``;
see BENCHMARK.json for why each exists) in processes of its own, as a closed
loop with one client and one op in flight.  Thread and BLAS
settings are left as the caller has them and recorded.

``--trace 0`` starts the workload process three times: twice only to set up,
and once to set up and then run a fixed list of ops sized to take about S
seconds (S times the workload's nominal rate, ``timed_ops_per_s``).  A seed
thus fixes every op of the run, and with it ``attempted`` and ``failed``,
however fast the host is; the list is cut short only when it has not ended
after 1.25 S (``worker.STOP_FACTOR``), which the output then says.
``setup_s`` is the median over the three of the time from process start to
the moment the first op could start.  ``--trace 1`` runs a fixed list of ops (its length follows
from S) twice, untraced and traced, and reports the per-layer figures; the
spans are written to ``.bench_out/``.

End-to-end metrics: ``setup_s``; ``ops_per_s``, ops per second of op time
(input generation and output checks run outside the clock); ``op_p50_ms``;
``op_tail_ms``, the highest order statistic with at least ten samples above
it (the median under 21 samples); ``peak_rss_mb`` of the timed process; and
``error_rate`` = failed / attempted, which is printed but not registered in
BENCHMARK.json because it is 0 on a healthy lattice-t4.

Every op's output is checked against answers known by construction.  An op
fails when it raises something outside its documented outcomes or its check
fails; failures are counted in ``failed`` and printed by tag.  ``correct`` is
false when a failure is not one of the program's known defects listed in
``measure.KNOWN_DEFECTS``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lattice-t4", "query-stream")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def _spawn(args, mode, tag, started):
    """Run one worker process; return its result and its set-up time."""
    workdir = os.path.join(ROOT, ".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}-{tag}")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--workdir", workdir]
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, DEADLINE_S - (spawned - started)))
    if proc.returncode != 0:
        raise SystemExit(f"{mode} worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, result["ready"] - spawned


def _describe_failures(failures):
    from measure import KNOWN_DEFECTS
    for tag, count in sorted(failures.items()):
        known = "known defect" if tag in KNOWN_DEFECTS else "NEW"
        print(f"failed op: {tag} x{count} ({known})")


def main(argv=None):
    parser = argparse.ArgumentParser(description="avebounds benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "avebounds", "__init__.py")):
        raise SystemExit(f"no avebounds sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)

    if args.trace:
        result, _ = _spawn(args, "traced", "traced", started)
        metrics = result["metrics"]
        from tracer import per_layer_spec
        shown = {name: {"value": metrics[name], "unit": unit}
                 for name, unit, _ in per_layer_spec()}
        print(f"spans: {os.path.relpath(result['spans_file'], ROOT)}")
    else:
        setups = [_spawn(args, "setup", f"setup{k}", started)[1]
                  for k in range(SETUP_SAMPLES - 1)]
        result, setup = _spawn(args, "timed", "timed", started)
        setups.append(setup)
        m = result["metrics"]
        print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
        print(f"op latency samples: {m['samples']}; tail is p{m['tail_percentile']:.2f}")
        if m["samples"] < m["planned_ops"]:
            print(f"stopped early: {m['samples']} of {m['planned_ops']} ops ran in time, "
                  "so attempted and failed are not comparable")
        shown = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": m["ops_per_s"], "unit": "1/s"},
            "op_p50_ms": {"value": m["p50_ms"], "unit": "ms"},
            "op_tail_ms": {"value": m["tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        }
    attempted = result["attempted"]
    failed = sum(result["failures"].values())
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed}: {attempted} ops, {failed} failed")
    _describe_failures(result["failures"])
    print(f"error_rate = {failed / attempted:.6g} (failed/attempted)")
    for name, metric in shown.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["correct"], "attempted": attempted,
                      "failed": failed, "metrics": shown}))


if __name__ == "__main__":
    main()
