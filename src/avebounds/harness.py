"""Benchmark problem families, experiment grids, and table emission.

Two LCP families are built in:

* ``tridiag``: M is the n x n tridiagonal matrix with subdiagonal 1,
  diagonal 4, superdiagonal -2, and q = -4 * ones.
* ``lattice``: M is the m^2 x m^2 block tridiagonal matrix with
  tridiag(-1, 4, -1) blocks on the diagonal, -I off it, plus 4 I, and q
  chosen so the known alternating vector (1, 2, 1, 2, ...) solves the LCP.

Each family also has a unit structured perturbation, which a table cell
scales by epsilon.  The four built-in benchmark tables run these families
at fixed sizes over a fixed epsilon grid.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field

import numpy as np

from . import __version__, numerics
from .bounds import ESTIMATORS
from .complementarity import LcpProblem, lcp_to_ave
from .exceptions import AveBoundsError
from .perturbation import Perturbation, _componentwise_delta, _experiment_cell, _require_converged
from .solver import sign_accord_solve

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

_BOUND_FIELDS = tuple(est.field for est in ESTIMATORS.values())
_RECORD_FIELDS = ("n", "epsilon", "r", "w", *_BOUND_FIELDS, "delta")


def tridiagonal(n, sub, diag, sup):
    """Dense n x n tridiagonal matrix from its three constant bands, written
    into one zeroed array."""
    if n < 1:
        raise ValueError("n must be at least 1")
    out = np.zeros((n, n))
    flat = out.reshape(-1)
    flat[::n + 1], flat[n::n + 1], flat[1::n + 1] = diag, sub, sup
    return out


def gen_tridiag_lcp(n):
    if n < 2:
        raise ValueError("tridiag family needs n >= 2")
    return LcpProblem(tridiagonal(n, 1, 4, -2), -4.0 * np.ones(n))


def gen_lattice_lcp(m):
    """Five-point lattice family on an m x m grid (dimension n = m**2)."""
    if m < 2:
        raise ValueError("lattice family needs m >= 2")
    n, eye = m * m, np.eye(m)
    M = np.kron(eye, tridiagonal(m, -1, 4, -1)) - np.kron(tridiagonal(m, 1, 0, 1), eye)
    M += 4.0 * np.eye(n)
    z_star = np.tile([1.0, 2.0], n // 2 + 1)[:n]
    return LcpProblem(M, -M @ z_star)


#: family -> (LCP generator, (sub, diag, sup) bands of dA, bands of dB).
FAMILIES = {
    "tridiag": (gen_tridiag_lcp, (1, 2, -1), (1, 1, 1)),
    "lattice": (gen_lattice_lcp, (-1, 2, -1), (1, -1, 1)),
}


def _family(name):
    if isinstance(name, str) and name in FAMILIES:
        return FAMILIES[name]
    raise ValueError(f"unknown family {name!r}; use one of {tuple(FAMILIES)}")


def gen_problem(family, size):
    return _family(family)[0](size)


def _scaled_bands(family, n, epsilon):
    """epsilon times the dA and dB of the family's unit perturbation, each
    band scaled before it is written."""
    return tuple(tridiagonal(n, *(epsilon * band for band in bands))
                 for bands in _family(family)[1:])


def gen_perturbation(family, n, epsilon):
    """The family's unit perturbation (dA, dB from its bands, db = ones)
    times epsilon.

    These act on the AVE-form matrices (A, B) of the transformed LCP, not
    on M itself.
    """
    return Perturbation(*_scaled_bands(family, n, epsilon), epsilon * np.ones(n),
                        epsilon=epsilon)


@dataclass
class ExperimentSpec:
    family: str
    sizes: list
    epsilons: list

    def __post_init__(self):
        _family(self.family)
        message = f"sizes must be a non-empty list of integers >= 2, got {self.sizes!r}"
        try:
            self.sizes = [operator.index(s) for s in self.sizes]
        except TypeError:
            raise ValueError(message) from None
        if not self.sizes or any(s < 2 for s in self.sizes):
            raise ValueError(message)
        try:
            valid = bool(self.epsilons) and all(0 < e < np.inf for e in self.epsilons)
        except TypeError:
            valid = False
        if not valid:
            raise ValueError("epsilons must be a non-empty list of finite positive numbers, "
                             f"got {self.epsilons!r}")


@dataclass
class TableOutput:
    rows: list = field(default_factory=list)        # ExperimentRecord, ordered
    failures: list = field(default_factory=list)    # (n, epsilon, message)
    meta: dict = field(default_factory=dict)


def _thread_count(n_jobs):
    """1: the cells run on the calling thread.  ``perfbench/worker.py``
    records this value with its timings."""
    return 1


def run_experiment(spec):
    """Run the full (size x epsilon) grid of a spec.

    Rows come back ordered by (size, epsilon).  A failing cell (solver,
    bound or delta trouble) is recorded in ``failures`` instead of aborting
    the rest of the grid.  Each size solves its base problem once, by
    ``sign_accord_solve`` (a failure fails every cell of the size), and
    takes ||dA||_2 and ||dB||_2 of its unit perturbation once, as numbers
    that each cell's w scales.  A cell's matrices die with it, and the
    size's delta column, which builds the base problem's kernel, follows
    its last cell.  Cells run in order on the calling thread; OpenBLAS
    threads inside each call.
    """
    out = TableOutput(meta={
        "family": spec.family,
        "sizes": list(spec.sizes),
        "epsilons": list(spec.epsilons),
        "norm": 2,      # every table quantity is a 2-norm
        "tool_version": __version__,
    })
    for size in spec.sizes:
        problem = lcp_to_ave(gen_problem(spec.family, size))
        n = problem.n
        try:
            base = _require_converged(sign_accord_solve(problem), "base")
        except (AveBoundsError, ValueError) as exc:    # every cell of this size fails with it
            out.failures += [(n, eps, str(exc)) for eps in spec.epsilons]
            continue
        norms = numerics.pair_norms(*_scaled_bands(spec.family, n, 1.0), 2)
        rows = []
        for eps in spec.epsilons:
            try:    # no name holds the perturbed problem: it dies with the cell
                db = eps * np.ones(n)
                rows.append(_experiment_cell(
                    problem, base, problem.perturbed(*_scaled_bands(spec.family, n, eps), db),
                    db, [eps * norm for norm in norms], eps))
            except (AveBoundsError, ValueError) as exc:
                out.failures.append((n, eps, str(exc)))
        for row in rows:
            try:
                row.delta = _componentwise_delta(problem, base.x, row.epsilon)
                out.rows.append(row)
            except (AveBoundsError, ValueError) as exc:
                out.failures.append((n, row.epsilon, str(exc)))
    return out


def reproduce_table(table):
    """Run one of the built-in benchmark tables, given by an integer 1-4."""
    try:
        family, size = BENCH_TABLES[operator.index(table)]
    except (TypeError, KeyError):
        raise ValueError(f"table must be one of {sorted(BENCH_TABLES)}, got {table!r}") from None
    spec = ExperimentSpec(family, [size], list(BENCH_EPSILONS))
    out = run_experiment(spec)
    out.meta["table"] = operator.index(table)
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
        for f in ("r", *_BOUND_FIELDS, "delta"):
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
