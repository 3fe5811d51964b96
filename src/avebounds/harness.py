"""Benchmark problem families, experiment grids, and table emission.

Two LCP families are built in:

* ``tridiag``: M is the n x n tridiagonal matrix with subdiagonal 1,
  diagonal 4, superdiagonal -2, and q = -4 * ones.
* ``lattice``: M is the m^2 x m^2 block tridiagonal matrix with
  tridiag(-1, 4, -1) blocks on the diagonal, -I off it, plus 4 I, and q
  chosen so the known alternating vector (1, 2, 1, 2, ...) solves the LCP.

Each family carries a matching structured perturbation scaled by epsilon.
The four built-in benchmark tables run these families at fixed sizes over
a fixed epsilon grid.
"""
from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .complementarity import LcpProblem, lcp_to_ave
from .exceptions import AveBoundsError
from .perturbation import Perturbation, perturbation_experiment
from .solver import picard_solve

FAMILIES = ("tridiag", "lattice")
FORMATS = ("csv", "json", "markdown")

#: table id -> (family, size parameter).  For the lattice family the size
#: is the grid side m and the problem dimension is m**2.
BENCH_TABLES = {
    1: ("tridiag", 30),
    2: ("tridiag", 40),
    3: ("lattice", 15),
    4: ("lattice", 20),
}
BENCH_EPSILONS = (0.01, 0.015, 0.02, 0.025, 0.03)

_RECORD_FIELDS = ("n", "epsilon", "r", "w", "tau", "upsilon", "nu", "delta")


def tridiagonal(n, sub, diag, sup):
    """Dense n x n tridiagonal matrix from its three constant bands."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = np.diag(np.full(n, float(diag)))
    if n > 1:
        out += np.diag(np.full(n - 1, float(sub)), -1)
        out += np.diag(np.full(n - 1, float(sup)), 1)
    return out


def gen_tridiag_lcp(n):
    if n < 2:
        raise ValueError("tridiag family needs n >= 2")
    return LcpProblem(tridiagonal(n, 1, 4, -2), -4.0 * np.ones(n))


def gen_lattice_lcp(m):
    """Five-point lattice family on an m x m grid (dimension n = m**2)."""
    if m < 2:
        raise ValueError("lattice family needs m >= 2")
    n = m * m
    S = tridiagonal(m, -1, 4, -1)
    M = np.zeros((n, n))
    for i in range(m):
        lo, hi = i * m, (i + 1) * m
        M[lo:hi, lo:hi] = S
        if i + 1 < m:
            M[lo:hi, hi:hi + m] = -np.eye(m)
            M[hi:hi + m, lo:hi] = -np.eye(m)
    M += 4.0 * np.eye(n)
    z_star = np.tile([1.0, 2.0], n // 2 + 1)[:n]
    return LcpProblem(M, -M @ z_star)


def gen_problem(family, size):
    if family == "tridiag":
        return gen_tridiag_lcp(size)
    if family == "lattice":
        return gen_lattice_lcp(size)
    raise ValueError(f"unknown family {family!r}; use one of {FAMILIES}")


def gen_perturbation(family, n, epsilon):
    """The structured perturbation each family pairs with, at scale epsilon.

    These act on the AVE-form matrices (A, B) of the transformed LCP, not
    on M itself.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if family == "tridiag":
        dA = epsilon * tridiagonal(n, 1, 2, -1)
        dB = epsilon * tridiagonal(n, 1, 1, 1)
    elif family == "lattice":
        dA = epsilon * tridiagonal(n, -1, 2, -1)
        dB = epsilon * tridiagonal(n, 1, -1, 1)
    else:
        raise ValueError(f"unknown family {family!r}; use one of {FAMILIES}")
    return Perturbation(dA, dB, epsilon * np.ones(n), epsilon=epsilon)


@dataclass
class ExperimentSpec:
    family: str
    sizes: list
    epsilons: list
    options: object = None          # SolveOptions or None
    fmt: str = "markdown"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; use one of {FAMILIES}")
        if not self.sizes or any(s < 1 for s in self.sizes):
            raise ValueError("sizes must be a non-empty list of positive integers")
        if any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if self.fmt not in FORMATS:
            raise ValueError(f"unknown format {self.fmt!r}; use one of {FORMATS}")


@dataclass
class TableOutput:
    rows: list = field(default_factory=list)        # ExperimentRecord, ordered
    failures: list = field(default_factory=list)    # (n, epsilon, message)
    meta: dict = field(default_factory=dict)


def _thread_count(n_jobs):
    raw = os.environ.get("AVE_BOUNDS_THREADS", "0").strip() or "0"
    try:
        requested = int(raw)
    except ValueError:
        raise ValueError(f"AVE_BOUNDS_THREADS must be an integer, got {raw!r}") from None
    if requested < 0:
        raise ValueError("AVE_BOUNDS_THREADS must be >= 0")
    if requested == 0:
        return max(1, min(n_jobs, os.cpu_count() or 1))
    return requested


def run_experiment(spec):
    """Run the full (size x epsilon) grid of a spec.

    Rows come back ordered by (size, epsilon).  A failing cell (solver or
    bound trouble) is recorded in ``failures`` instead of aborting the
    rest of the grid.  Each base problem is solved once, before the cells
    of its size start.  Cells run on a thread pool sized by the
    AVE_BOUNDS_THREADS environment variable (0 or unset = one per CPU, up
    to the number of cells).
    """
    problems = {}
    bases = {}
    for size in spec.sizes:
        lcp = gen_problem(spec.family, size)
        problems[size] = lcp_to_ave(lcp)
        try:
            bases[size] = picard_solve(problems[size], spec.options)
        except (AveBoundsError, ValueError) as exc:
            bases[size] = exc

    jobs = [(si, ei, size, eps)
            for si, size in enumerate(spec.sizes)
            for ei, eps in enumerate(spec.epsilons)]

    def cell(job):
        _, _, size, eps = job
        problem, base = problems[size], bases[size]
        if isinstance(base, Exception):
            return base     # every cell of this size fails with the base error
        pert = gen_perturbation(spec.family, problem.n, eps)
        return perturbation_experiment(problem, pert, spec.options, base=base)

    def guarded(job):
        try:
            return cell(job)
        except (AveBoundsError, ValueError) as exc:
            return exc

    results = {}
    failures = {}
    workers = _thread_count(len(jobs))
    if workers == 1 or len(jobs) == 1:
        outcomes = [guarded(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(guarded, jobs))

    for job, outcome in zip(jobs, outcomes):
        si, ei, size, eps = job
        if isinstance(outcome, Exception):
            failures[(si, ei)] = (problems[size].n, eps, str(outcome))
        else:
            results[(si, ei)] = outcome

    out = TableOutput(meta={
        "family": spec.family,
        "sizes": list(spec.sizes),
        "epsilons": list(spec.epsilons),
        "norm": 2,      # every table quantity is a 2-norm
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "tool_version": __version__,
    })
    for key in sorted(results.keys() | failures.keys()):
        if key in results:
            out.rows.append(results[key])
        else:
            out.failures.append(failures[key])
    return out


def reproduce_table(table, options=None):
    """Run one of the built-in benchmark tables (1-4)."""
    if table not in BENCH_TABLES:
        raise ValueError(f"table must be one of {sorted(BENCH_TABLES)}, got {table!r}")
    family, size = BENCH_TABLES[table]
    spec = ExperimentSpec(family, [size], list(BENCH_EPSILONS), options=options)
    out = run_experiment(spec)
    out.meta["table"] = table
    return out


def _fmt_cell(value, digits=None):
    if value is None:
        return ""
    if digits is None:
        return repr(float(value))
    return f"{value:.{digits}f}"


def _emit_csv(table):
    lines = [",".join(_RECORD_FIELDS)]
    for row in table.rows:
        lines.append(",".join(_fmt_cell(getattr(row, f)) for f in _RECORD_FIELDS))
    return ("\n".join(lines) + "\n").encode()


def _emit_json(table):
    doc = {
        "meta": table.meta,
        "rows": [
            {f: getattr(row, f) for f in _RECORD_FIELDS}
            for row in table.rows
        ],
        "failures": [
            {"n": n, "epsilon": eps, "error": msg}
            for n, eps, msg in table.failures
        ],
    }
    return (json.dumps(doc, indent=2) + "\n").encode()


def _emit_markdown(table):
    lines = []
    meta = table.meta
    title_bits = []
    if meta.get("table"):
        title_bits.append(f"benchmark table {meta['table']}")
    if meta.get("family"):
        title_bits.append(f"{meta['family']} family")
    lines.append("# " + (", ".join(title_bits) or "experiment"))
    lines.append("")

    by_n = {}
    for row in table.rows:
        by_n.setdefault(row.n, []).append(row)
    for n in sorted(by_n):
        rows = by_n[n]
        lines.append(f"## n = {n}")
        lines.append("")
        header = ["quantity"] + [f"eps={_fmt_cell(r.epsilon, 4)}" for r in rows]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "---|" * len(header))
        for f in ("r", "tau", "upsilon", "nu", "delta"):
            cells = [_fmt_cell(getattr(r, f), 4) or "-" for r in rows]
            lines.append("| " + " | ".join([f] + cells) + " |")
        lines.append("")
    if table.failures:
        lines.append("## failed cells")
        lines.append("")
        for n, eps, msg in table.failures:
            lines.append(f"- n={n}, eps={eps}: {msg}")
        lines.append("")
    return "\n".join(lines).encode()


def emit(table, fmt="markdown"):
    """Serialise a TableOutput to bytes.

    markdown rounds to 4 decimals and mirrors the benchmark layout
    (quantities as rows, epsilon as columns); csv and json carry full
    float precision.  Output is deterministic for identical table data.
    """
    if fmt == "csv":
        return _emit_csv(table)
    if fmt == "json":
        return _emit_json(table)
    if fmt == "markdown":
        return _emit_markdown(table)
    raise ValueError(f"unknown format {fmt!r}; use one of {FORMATS}")
