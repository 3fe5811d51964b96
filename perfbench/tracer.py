"""In-memory span recorder for the traced benchmark run.

The recorder patches module attributes from the outside: every public
function of each ``avebounds`` module (wherever the package re-imports it,
for example ``perturbation.upper_factor`` or ``harness.perturbation_experiment``)
and the numpy/scipy linear-algebra entry points the package calls
(``np.linalg.svd`` ... and ``solver.lu_factor`` / ``solver.lu_solve``).
Nothing in the package itself is edited.  ``install`` swaps the wrappers in,
``uninstall`` restores the originals, so untraced ops run the unpatched code.

A span is ``[name, start_ns, end_ns, parent, op, error, extra]`` where
``parent`` is the index of the enclosing span.  A span opened on a thread with
no open span of its own (a harness pool worker) is attached to the innermost
open span of the thread that started the op in flight.
"""
from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

NAME, START, END, PARENT, OP, ERROR, EXTRA = range(7)

LAYER_MODULES = (
    "numerics", "core", "solver", "bounds", "perturbation",
    "complementarity", "harness", "cli", "matrixio",
)
# Input validators run several times per norm evaluation; wrapping them would
# mostly measure the wrapper.
UNWRAPPED = {"as_vector", "as_matrix", "as_square", "check_norm"}
LINALG = {
    "svd": np.linalg, "norm": np.linalg, "cond": np.linalg, "eigvals": np.linalg,
    "inv": np.linalg, "det": np.linalg,
    "lu_factor": scipy.linalg, "lu_solve": scipy.linalg,
}
BATCHED = {"svd", "inv", "det"}


def _upper_factor_name(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "neumann")
    return f"bounds.upper_factor.{method}"


def _p_norm_name(args, kwargs):
    p = args[1] if len(args) > 1 else kwargs.get("p", 2)
    matrix = np.ndim(args[0]) == 2
    return "numerics.p_norm_matrix2" if matrix and p in (2, 2.0, "2") else "numerics.p_norm"


def _batch(args):
    arr = args[0] if args else None
    if isinstance(arr, np.ndarray) and arr.ndim >= 3:
        return (int(np.prod(arr.shape[:-2])), arr.nbytes)
    return None


def _solve_outcome(result):
    return (result.iterations, result.converged)


NAMERS = {"bounds.upper_factor": _upper_factor_name, "numerics.p_norm": _p_norm_name}
AFTER = {"solver.picard_solve": _solve_outcome}


class Tracer:
    """Records spans of one op at a time; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._root = None
        self._main = None
        self._lock = threading.Lock()
        self._stacks = {}
        self._patches = []
        self._wrappers = self._build()

    # ---------------------------------------------------------- recording

    def _open(self, name, extra=None):
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        if stack:
            parent = stack[-1]
        else:
            top = (self._stacks.get(self._main) or [])[-1:]
            parent = top[0] if top else self._root
        record = [name, time.perf_counter_ns(), None, parent, self.op, None, extra]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(record)
        stack.append(sid)
        return sid

    def _close(self, sid, error=None, extra=None):
        record = self.spans[sid]
        record[END] = time.perf_counter_ns()
        record[ERROR] = error
        if extra is not None:
            record[EXTRA] = extra
        self._stacks[threading.get_ident()].pop()

    def begin_op(self, op_id):
        """Open the root span of op ``op_id`` on the calling thread."""
        self._main = threading.get_ident()
        self.op = op_id
        self._root = None
        self._root = self._open("op")

    def end_op(self):
        self._close(self._root)
        self.op = None

    # ----------------------------------------------------------- patching

    def _wrap(self, name, fn):
        namer = NAMERS.get(name)
        after = AFTER.get(name)
        batched = name.startswith("linalg.") and name[7:] in BATCHED
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            sid = tracer._open(namer(args, kwargs) if namer else name,
                               _batch(args) if batched else None)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, type(exc).__name__)
                raise
            tracer._close(sid, None, after(out) if after else None)
            return out

        return wrapper

    def _build(self):
        wrappers = {}
        for short in LAYER_MODULES:
            mod = importlib.import_module(f"avebounds.{short}")
            for attr, val in vars(mod).items():
                if (callable(val) and not isinstance(val, type) and not attr.startswith("_")
                        and attr not in UNWRAPPED
                        and getattr(val, "__module__", None) == mod.__name__):
                    wrappers[id(val)] = (val, self._wrap(f"{short}.{attr}", val))
        for attr, mod in LINALG.items():
            fn = getattr(mod, attr)
            wrappers[id(fn)] = (fn, self._wrap(f"linalg.{attr}", fn))
        return wrappers

    def install(self):
        """Swap every wrapped function in wherever the package refers to it."""
        if self._patches:
            return
        targets = [importlib.import_module("avebounds"), np.linalg]
        targets += [importlib.import_module(f"avebounds.{m}") for m in LAYER_MODULES]
        for mod in targets:
            for attr, val in list(vars(mod).items()):
                hit = self._wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches = []


# ---------------------------------------------------------------- analysis


def _union_ns(intervals):
    """Total length covered by a list of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per-span self time and per-parent parallel excess, in ns.

    A span's self time is its duration minus the part of its interval that
    its children cover (children on other threads may overlap each other;
    the covered part is the union).  ``excess[i]`` is the sum of child
    durations minus that covered part, so for every op

        sum(self over its spans) == root duration + sum(excess over its spans)
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            children[s[PARENT]].append(i)
    self_ns = [0] * len(spans)
    excess = [0] * len(spans)
    for i, s in enumerate(spans):
        start, end = s[START], s[END]
        kids = children.get(i, ())
        clipped = [(max(spans[k][START], start), min(spans[k][END], end)) for k in kids]
        covered = _union_ns([c for c in clipped if c[1] > c[0]])
        self_ns[i] = (end - start) - covered
        excess[i] = sum(spans[k][END] - spans[k][START] for k in kids) - covered
    return self_ns, excess


def layer_table(spans):
    """Aggregate spans into per-name totals plus per-op identities.

    Returns ``(by_name, ops)`` where ``by_name[name]`` holds calls, ns,
    self_ns, errors (by exception name) and extras, and ``ops[op]`` holds the
    op's wall, untraced (root self) and parallel-excess time and the sum of
    self times of its spans.
    """
    self_ns, excess = self_times(spans)
    by_name = defaultdict(lambda: {"calls": 0, "ns": 0, "self_ns": 0,
                                   "errors": defaultdict(int), "extras": []})
    ops = defaultdict(lambda: {"wall_ns": 0, "untraced_ns": 0, "excess_ns": 0, "self_sum_ns": 0})
    for i, s in enumerate(spans):
        op = ops[s[OP]]
        op["self_sum_ns"] += self_ns[i]
        op["excess_ns"] += excess[i]
        if s[PARENT] is None:
            op["wall_ns"] = s[END] - s[START]
            op["untraced_ns"] = self_ns[i]
            continue
        row = by_name[s[NAME]]
        row["calls"] += 1
        row["ns"] += s[END] - s[START]
        row["self_ns"] += self_ns[i]
        if s[ERROR] is not None:
            row["errors"][s[ERROR]] += 1
        if s[EXTRA] is not None:
            row["extras"].append(s[EXTRA])
    return by_name, ops


def cell_overlap(spans):
    """Sum of table-cell span durations over table wall time.

    A cell is a ``perturbation.perturbation_experiment`` span whose parent is
    a ``harness.run_experiment`` span.  Returns 0.0 when no table ran.
    """
    cells = 0
    tables = 0
    for s in spans:
        if s[NAME] == "harness.run_experiment":
            tables += s[END] - s[START]
        elif (s[NAME] == "perturbation.perturbation_experiment" and s[PARENT] is not None
              and spans[s[PARENT]][NAME] == "harness.run_experiment"):
            cells += s[END] - s[START]
    return cells / tables if tables else 0.0


# ------------------------------------------------------- per-layer metrics

# span name -> the fields reported for it, each normalized per traced op.
SPAN_FIELDS = {
    "harness.run_experiment": ("ms", "self_ms"),
    "perturbation.perturbation_experiment": ("calls", "ms", "self_ms"),
    "perturbation.general_relative_bound": ("calls", "ms", "self_ms"),
    "perturbation.componentwise_bound": ("calls", "ms", "self_ms"),
    "solver.picard_solve": ("calls", "ms", "self_ms"),
    "bounds.upper_factor.neumann": ("calls", "ms", "inapplicable_frac"),
    "bounds.upper_factor.singular_gap": ("calls", "ms", "inapplicable_frac"),
    "bounds.upper_factor.norm_ratio": ("calls", "ms", "inapplicable_frac"),
    "bounds.lower_factor": ("calls", "ms"),
    "bounds.brute_force_alpha": ("calls", "ms"),
    "bounds.error_interval": ("ms", "self_ms"),
    "bounds.error_bound_report": ("ms", "self_ms"),
    "numerics.inverse": ("calls", "ms"),
    "numerics.extreme_singulars": ("calls", "ms"),
    "numerics.spectral_radius_nonneg": ("calls", "ms"),
    "numerics.p_norm_matrix2": ("calls", "ms"),
    "core.solvability_report": ("calls", "ms", "self_ms"),
    "core.residual": ("calls", "ms"),
    "complementarity.column_w_property": ("calls", "ms"),
    "complementarity.beta_factor": ("calls", "ms"),
    "complementarity.lcp_to_ave": ("ms",),
    "cli.main": ("calls", "ms", "self_ms"),
    "matrixio.load_matrix": ("calls", "ms"),
    "matrixio.load_vector": ("calls", "ms"),
    **{f"linalg.{name}": ("calls", "ms") for name in LINALG},
}
FIELD_UNITS = {"calls": "calls/op", "ms": "ms/op", "self_ms": "ms/op", "inapplicable_frac": "frac"}
DERIVED_UNITS = {
    "harness.cell_overlap": ("ratio", "higher"),
    "solver.iterations": ("iter/op", "lower"),
    "solver.nonconverged_frac": ("frac", "lower"),
    "linalg.batched_matrices": ("matrices/op", "lower"),
    "linalg.batched_mbytes": ("MB/op", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "trace.untraced_ms": ("ms/op", "lower"),
    "trace.parallel_excess_ms": ("ms/op", "lower"),
}


def per_layer_spec():
    """``[(metric name, unit, better)]`` for every per-layer metric."""
    out = [(f"{span}.{field}", FIELD_UNITS[field], "lower")
           for span, fields in SPAN_FIELDS.items() for field in fields]
    return out + [(name, unit, better) for name, (unit, better) in DERIVED_UNITS.items()]


def per_layer_metrics(spans, n_ops, overhead_frac):
    """Every per-layer metric, normalized per traced op.

    Raises RuntimeError if an op's self times do not add up to its wall time
    plus its parallel excess, which would mean the span tree is malformed.
    """
    by_name, ops = layer_table(spans)
    for op, row in ops.items():
        if row["self_sum_ns"] != row["wall_ns"] + row["excess_ns"]:
            raise RuntimeError(f"op {op}: self times do not add up: {row}")
    values = {}
    for span, fields in SPAN_FIELDS.items():
        row = by_name.get(span, {"calls": 0, "ns": 0, "self_ns": 0, "errors": {}})
        for field in fields:
            if field == "calls":
                value = row["calls"] / n_ops
            elif field == "ms":
                value = row["ns"] / 1e6 / n_ops
            elif field == "self_ms":
                value = row["self_ns"] / 1e6 / n_ops
            else:
                value = row["errors"].get("InapplicableBoundError", 0) / max(row["calls"], 1)
            values[f"{span}.{field}"] = value
    solves = by_name.get("solver.picard_solve", {"calls": 0, "extras": []})
    stalled = solves["calls"] - sum(1 for _, converged in solves["extras"] if converged)
    batches = [e for name in BATCHED for e in by_name.get(f"linalg.{name}", {"extras": []})["extras"]]
    values.update({
        "harness.cell_overlap": cell_overlap(spans),
        "solver.iterations": sum(it for it, _ in solves["extras"]) / n_ops,
        "solver.nonconverged_frac": stalled / max(solves["calls"], 1),
        "linalg.batched_matrices": sum(b[0] for b in batches) / n_ops,
        "linalg.batched_mbytes": sum(b[1] for b in batches) / 1e6 / n_ops,
        "trace.overhead_frac": overhead_frac,
        "trace.untraced_ms": sum(r["untraced_ns"] for r in ops.values()) / 1e6 / n_ops,
        "trace.parallel_excess_ms": sum(r["excess_ns"] for r in ops.values()) / 1e6 / n_ops,
    })
    return values
