"""Op execution, failure accounting and the latency summary."""
from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

# Defects of the program that the workloads are known to expose.  They count
# as failed ops like any other; a failure whose tag is not listed here marks
# the run as incorrect.
KNOWN_DEFECTS = {
    "picard_nonfinite_valueerror":
        "picard_solve raises numpy's ValueError on a diverging iteration "
        "instead of returning converged=False",
    "lower_factor_p1_type2":
        "lower_factor(p=1) on type-2 problems is below max ||A - D B||_1 over "
        "the sign box, so the 'exact' p = 1 lower end can exceed the true error",
    "false_singular_witness":
        "solvability_report's absolute determinant floor 1e-12*scale**n flags a "
        "regular sign family as having a singular member",
    "column_w_rounding_sign":
        "column_w_property compares determinant signs without a singularity "
        "tolerance, so a representative with two identical columns, whose "
        "computed determinant is rounding noise of the common sign, passes",
}


class CheckFailed(Exception):
    """An op's output contradicts what any correct implementation returns."""

    def __init__(self, tag, detail=""):
        super().__init__(f"{tag}: {detail}" if detail else tag)
        self.tag = tag


@dataclass
class Op:
    """One closed-loop operation: ``run`` is timed, the rest is not.

    ``outcomes`` are exception types the called function documents as
    results; ``check`` receives the return value, or the documented exception,
    and raises CheckFailed when it is wrong.  Any other exception fails the
    op, tagged by ``raised_tag``.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    outcomes: tuple = ()
    raised_tag: Callable[[BaseException], str] | None = None


@dataclass
class Tally:
    latencies_ns: list = field(default_factory=list)
    attempted: int = 0
    failures: dict = field(default_factory=dict)    # tag -> count

    @property
    def failed(self):
        return sum(self.failures.values())

    @property
    def correct(self):
        return all(tag in KNOWN_DEFECTS for tag in self.failures)


def execute(op, tally):
    """Run ``op`` once, time it, check its output and record the outcome.

    Returns the op's wall time in ns.
    """
    start = time.perf_counter_ns()
    try:
        result = op.run()
    except Exception as exc:       # any escape is an outcome to classify
        result = exc
    elapsed = time.perf_counter_ns() - start
    tally.attempted += 1
    tally.latencies_ns.append(elapsed)
    tag = None
    if isinstance(result, Exception) and not isinstance(result, op.outcomes):
        tag = op.raised_tag(result) if op.raised_tag else None
        tag = tag or f"{op.kind}:raised:{type(result).__name__}"
    else:
        try:
            op.check(result)
        except CheckFailed as exc:
            tag = exc.tag
    if tag is not None:
        tally.failures[tag] = tally.failures.get(tag, 0) + 1
    return elapsed


def tail_index(n):
    """Index, in ascending order, of the tail sample among ``n`` samples, or None.

    The tail is the highest order statistic with at least ten samples above
    it.  Under 21 samples that statistic would lie below the median, so there
    is none and the tail is reported as the median.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    return n - 11 if n >= 21 else None


def latency_summary(latencies_ns):
    """Median, tail and the tail's percentile (share of samples at or below)."""
    ordered = sorted(latencies_ns)
    n = len(ordered)
    idx = tail_index(n)
    p50 = statistics.median(ordered) / 1e6
    return {
        "samples": n,
        "p50_ms": p50,
        "tail_ms": p50 if idx is None else ordered[idx] / 1e6,
        "tail_percentile": 50.0 if idx is None else 100.0 * (idx + 1) / n,
    }
