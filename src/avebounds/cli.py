"""Command-line interface.

Exit codes: 0 on success, 2 when a requested bound is inapplicable to the
data, 3 when the solver fails to converge, 1 for other input errors.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, matrixio
from .bounds import error_bound_report, error_interval
from .complementarity import (
    HlcpProblem,
    LcpProblem,
    HALVED,
    SHIFTED,
    hlcp_to_ave,
    lcp_min_residual,
    lcp_to_ave,
    recover_solution,
)
from .core import AveProblem, TYPE_ONE, TYPE_TWO
from .exceptions import InapplicableBoundError, NonConvergenceError, SingularMatrixError
from .harness import FORMATS, emit, reproduce_table
from .perturbation import Perturbation, perturbation_experiment
from .solver import SolveOptions, picard_solve

_NORMS = {"1": 1, "2": 2, "inf": np.inf}
_FORMS = {"1": TYPE_ONE, "2": TYPE_TWO}


def _common(parser):
    parser.add_argument("--format", choices=FORMATS, default="markdown",
                        help="output format (default markdown)")


def _solver_args(parser):
    parser.add_argument("--tol", type=float, default=1e-6,
                        help="solver step tolerance (default 1e-6)")
    parser.add_argument("--max-iter", type=int, default=10000,
                        help="solver iteration cap (default 10000)")


def _load_problem(args):
    A = matrixio.load_matrix(args.a)
    B = matrixio.load_matrix(args.b) if args.b else np.zeros_like(A)
    b = matrixio.load_vector(args.rhs) if args.rhs else np.zeros(A.shape[0])
    return AveProblem(A, B, b, _FORMS[args.form])


def _options(args):
    return SolveOptions(tolerance=args.tol, max_iterations=args.max_iter)


def _print_vector(name, v):
    print(f"{name}: [" + ", ".join(f"{x:.10g}" for x in v) + "]")


def _cmd_solve(args):
    problem = _load_problem(args)
    result = picard_solve(problem, _options(args))
    if args.format == "json":
        print(json.dumps({
            "x": result.x.tolist(),
            "iterations": result.iterations,
            "converged": result.converged,
            "final_step_norm": result.final_step_norm,
            "final_residual_norm": result.final_residual_norm,
        }, indent=2))
    else:
        _print_vector("x", result.x)
        print(f"iterations: {result.iterations}")
        print(f"converged: {result.converged}")
        print(f"final residual norm: {result.final_residual_norm:.6e}")
    return 0 if result.converged else 3


def _cmd_bounds(args):
    problem = _load_problem(args)
    p = _NORMS[args.norm]
    report = error_bound_report(problem, p)
    doc = {
        "norm": args.norm,
        "lower_factor": report.lower_factor,
        "upper_factors": [
            {"method": u.method, "value": u.value,
             "applicable": u.applicable, "reason": u.reason}
            for u in report.upper_factors
        ],
        "identity_lower": report.identity_lower,
        "identity_upper": report.identity_upper,
    }
    if args.at is not None:
        x = matrixio.load_vector(args.at)
        interval = error_interval(problem, x, p)
        doc["interval"] = {
            "residual_norm": interval.residual_norm,
            "lower": interval.lower,
            "upper": interval.upper,
            "upper_method": interval.upper_method,
        }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"lower factor (norm {args.norm}): {report.lower_factor:.10g}")
        for u in report.upper_factors:
            if u.applicable:
                print(f"upper factor [{u.method}]: {u.value:.10g}")
            else:
                print(f"upper factor [{u.method}]: inapplicable ({u.reason})")
        if report.identity_upper is not None:
            print(f"identity-case pair: lower {report.identity_lower:.10g}, "
                  f"upper {report.identity_upper:.10g}")
        if "interval" in doc:
            iv = doc["interval"]
            print(f"error interval at --at point: [{iv['lower']:.10g}, {iv['upper']:.10g}] "
                  f"(residual {iv['residual_norm']:.10g}, method {iv['upper_method']})")
    if not any(u.applicable for u in report.upper_factors):
        print("no upper-bound estimator applies", file=sys.stderr)
        return 2
    return 0


def _cmd_perturb(args):
    problem = _load_problem(args)
    dA = matrixio.load_matrix(args.da) if args.da else np.zeros_like(problem.A)
    dB = matrixio.load_matrix(args.db) if args.db else np.zeros_like(problem.B)
    db = matrixio.load_vector(args.drhs) if args.drhs else np.zeros(problem.n)
    pert = Perturbation(dA, dB, db, epsilon=args.epsilon)
    record = perturbation_experiment(problem, pert, _options(args))
    from .harness import TableOutput
    table = TableOutput(rows=[record], meta={"source": "files", "tool_version": __version__})
    sys.stdout.write(emit(table, args.format).decode())
    return 0


def _cmd_lcp(args):
    lcp = LcpProblem(matrixio.load_matrix(args.m), matrixio.load_vector(args.q))
    result = picard_solve(lcp_to_ave(lcp), _options(args))
    if not result.converged:
        print("solver did not converge", file=sys.stderr)
        return 3
    sol = recover_solution(result.x, SHIFTED)
    res = lcp_min_residual(lcp, sol.z)
    if args.format == "json":
        print(json.dumps({
            "z": sol.z.tolist(),
            "w": sol.w.tolist(),
            "complementarity_gap": sol.complementarity_gap,
            "min_residual_inf": float(np.max(np.abs(res))),
            "iterations": result.iterations,
        }, indent=2))
    else:
        _print_vector("z", sol.z)
        _print_vector("w", sol.w)
        print(f"complementarity gap: {sol.complementarity_gap:.6e}")
        print(f"min-residual sup norm: {np.max(np.abs(res)):.6e}")
    return 0


def _cmd_hlcp(args):
    hlcp = HlcpProblem(
        matrixio.load_matrix(args.m),
        matrixio.load_matrix(args.n_mat),
        matrixio.load_vector(args.q),
    )
    result = picard_solve(hlcp_to_ave(hlcp), _options(args))
    if not result.converged:
        print("solver did not converge", file=sys.stderr)
        return 3
    sol = recover_solution(result.x, HALVED)
    feas = hlcp.M @ sol.z - hlcp.N @ sol.w - hlcp.q
    if args.format == "json":
        print(json.dumps({
            "z": sol.z.tolist(),
            "w": sol.w.tolist(),
            "complementarity_gap": sol.complementarity_gap,
            "feasibility_inf": float(np.max(np.abs(feas))),
            "iterations": result.iterations,
        }, indent=2))
    else:
        _print_vector("z", sol.z)
        _print_vector("w", sol.w)
        print(f"complementarity gap: {sol.complementarity_gap:.6e}")
        print(f"feasibility sup norm: {np.max(np.abs(feas)):.6e}")
    return 0


def _cmd_reproduce(args):
    table = reproduce_table(args.table, _options(args))
    sys.stdout.write(emit(table, args.format).decode())
    return 0 if not table.failures else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="avebounds",
        description="Error and perturbation bounds for absolute value equations.",
    )
    parser.add_argument("--version", action="version", version=f"avebounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an AVE from Matrix Market files")
    p.add_argument("--a", required=True, help="matrix A (.mtx)")
    p.add_argument("--b", help="matrix B (.mtx); defaults to zero")
    p.add_argument("--rhs", help="right-hand side vector (.mtx); defaults to zero")
    p.add_argument("--form", choices=sorted(_FORMS), default="1")
    _common(p)
    _solver_args(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", help="residual error-bound factors")
    p.add_argument("--a", required=True)
    p.add_argument("--b", help="matrix B (.mtx); defaults to zero")
    p.add_argument("--rhs", help="right-hand side (.mtx); needed with --at")
    p.add_argument("--at", help="evaluate the error interval at this point (.mtx)")
    p.add_argument("--form", choices=sorted(_FORMS), default="1")
    p.add_argument("--norm", choices=sorted(_NORMS), default="2",
                   help="norm for bound computations (default 2)")
    _common(p)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("perturb", help="perturbation experiment from files")
    p.add_argument("--a", required=True)
    p.add_argument("--b")
    p.add_argument("--rhs", required=True)
    p.add_argument("--da", help="perturbation of A (.mtx)")
    p.add_argument("--db", help="perturbation of B (.mtx)")
    p.add_argument("--drhs", help="perturbation of the right-hand side (.mtx)")
    p.add_argument("--epsilon", type=float, help="componentwise scale for the delta bound")
    p.add_argument("--form", choices=sorted(_FORMS), default="1")
    _common(p)
    _solver_args(p)
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("lcp", help="solve an LCP through its AVE form")
    p.add_argument("--m", required=True)
    p.add_argument("--q", required=True)
    _common(p)
    _solver_args(p)
    p.set_defaults(func=_cmd_lcp)

    p = sub.add_parser("hlcp", help="solve a horizontal LCP through its AVE form")
    p.add_argument("--m", required=True)
    p.add_argument("--n-mat", required=True, help="matrix N (.mtx)")
    p.add_argument("--q", required=True)
    _common(p)
    _solver_args(p)
    p.set_defaults(func=_cmd_hlcp)

    p = sub.add_parser("reproduce", help="re-run a built-in benchmark table")
    p.add_argument("--table", type=int, choices=[1, 2, 3, 4], required=True)
    _common(p)
    _solver_args(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InapplicableBoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SingularMatrixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
