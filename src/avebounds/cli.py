"""Command-line interface.

Exit codes: 0 on success, 2 from ``bounds`` when no upper-bound estimator
applies (and from argparse on a usage error), 3 when the solver fails to
converge, 1 for other input errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import __version__, matrixio, numerics
from .bounds import error_bound_report
from .complementarity import (
    HlcpProblem,
    LcpProblem,
    hlcp_to_ave,
    lcp_min_residual,
    lcp_to_ave,
    recover_solution,
)
from .core import AveProblem, TYPE_ONE, TYPE_TWO, residual
from .exceptions import NonConvergenceError, SingularMatrixError
from .harness import FORMATS, TableOutput, emit, reproduce_table
from .perturbation import Perturbation, perturbation_experiment
from .solver import SolveOptions, sign_accord_solve

_NORMS = {"1": 1, "2": 2, "inf": np.inf}
_FORMS = {"1": TYPE_ONE, "2": TYPE_TWO}


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
    result = sign_accord_solve(problem, _options(args))
    if args.format == "json":
        print(json.dumps({
            "x": result.x.tolist(),
            "method": result.method,
            "iterations": result.iterations,
            "converged": result.converged,
            "final_step_norm": result.final_step_norm,
            "final_residual_norm": result.final_residual_norm,
        }, indent=2))
    else:
        _print_vector("x", result.x)
        print(f"method: {result.method}")
        print(f"iterations: {result.iterations}")
        print(f"converged: {result.converged}")
        print(f"final residual norm: {result.final_residual_norm:.6e}")
    return 0 if result.converged else 3


def _cmd_bounds(args):
    if args.at is not None and args.rhs is None:
        raise ValueError("--at needs --rhs: the residual is taken against the right-hand side")
    problem = _load_problem(args)
    p = _NORMS[args.norm]
    report = error_bound_report(problem, p)
    doc = {
        "norm": args.norm,
        "lower_factor": report.lower_factor,
        "upper_factors": [dataclasses.asdict(u) for u in report.upper_factors],
        "identity_lower": report.identity_lower,
        "identity_upper": report.identity_upper,
    }
    applies = any(u.applicable for u in report.upper_factors)
    if args.at is not None:     # read and checked even when no interval closes
        r_norm = numerics.p_norm(residual(problem, matrixio.load_vector(args.at)), p)
        if applies:
            doc["interval"] = dataclasses.asdict(report.interval(r_norm))
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
    if not applies:
        print("no upper-bound estimator applies", file=sys.stderr)
        return 2
    return 0


def _cmd_perturb(args):
    problem = _load_problem(args)
    dA = np.zeros_like(problem.A)
    if args.da:     # checked before dB defaults to its size, so a wrong dA is named
        dA = numerics.as_square(matrixio.load_matrix(args.da), "dA", problem.n)
    dB = matrixio.load_matrix(args.db) if args.db else np.zeros_like(problem.B)
    db = matrixio.load_vector(args.drhs) if args.drhs else np.zeros(problem.n)
    pert = Perturbation(dA, dB, db, epsilon=args.epsilon)
    record = perturbation_experiment(problem, pert, _options(args))
    table = TableOutput(rows=[record], meta={"source": "files", "tool_version": __version__})
    sys.stdout.write(emit(table, args.format).decode())
    return 0


def _solve_complementarity(args, problem, ave, label, residual_of):
    """Solve ``ave``, the AVE form of the LCP or HLCP ``problem``, and print
    the recovered (z, w) pair with the sup norm of ``residual_of(z, w)``
    under ``label`` ("min_residual" or "feasibility")."""
    result = sign_accord_solve(ave, _options(args))
    if not result.converged:
        print("solver did not converge", file=sys.stderr)
        return 3
    sol = recover_solution(problem, result.x)
    sup = float(np.max(np.abs(residual_of(sol.z, sol.w))))
    if args.format == "json":
        print(json.dumps({
            "z": sol.z.tolist(),
            "w": sol.w.tolist(),
            "complementarity_gap": sol.complementarity_gap,
            f"{label}_inf": sup,
            "iterations": result.iterations,
        }, indent=2))
    else:
        _print_vector("z", sol.z)
        _print_vector("w", sol.w)
        print(f"complementarity gap: {sol.complementarity_gap:.6e}")
        print(f"{label.replace('_', '-')} sup norm: {sup:.6e}")
    return 0


def _cmd_lcp(args):
    lcp = LcpProblem(matrixio.load_matrix(args.m), matrixio.load_vector(args.q))
    return _solve_complementarity(args, lcp, lcp_to_ave(lcp), "min_residual",
                                  lambda z, w: lcp_min_residual(lcp, z))


def _cmd_hlcp(args):
    hlcp = HlcpProblem(matrixio.load_matrix(args.m), matrixio.load_matrix(args.n_mat),
                       matrixio.load_vector(args.q))
    return _solve_complementarity(args, hlcp, hlcp_to_ave(hlcp), "feasibility",
                                  lambda z, w: hlcp.M @ z - hlcp.N @ w - hlcp.q)


def _cmd_reproduce(args):
    table = reproduce_table(args.table)
    sys.stdout.write(emit(table, args.format).decode())
    return 0 if not table.failures else 3


@functools.cache     # 7 sub-parsers: about 2 ms a build on a 2-CPU host
def build_parser():
    parser = argparse.ArgumentParser(
        prog="avebounds",
        description="Error and perturbation bounds for absolute value equations.",
    )
    parser.add_argument("--version", action="version", version=f"avebounds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    ave = argparse.ArgumentParser(add_help=False)
    ave.add_argument("--a", required=True, help="matrix A (.mtx)")
    ave.add_argument("--b", help="matrix B (.mtx); defaults to zero")
    ave.add_argument("--form", choices=sorted(_FORMS), default="1")
    pair = argparse.ArgumentParser(add_help=False)
    pair.add_argument("--m", required=True, help="matrix M (.mtx)")
    pair.add_argument("--q", required=True, help="vector q (.mtx)")
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--tol", type=float, default=1e-6,
                        help="step tolerance of the Picard fallback (default 1e-6)")
    solver.add_argument("--max-iter", type=int, default=10000,
                        help="solver iteration cap (default 10000)")
    document = argparse.ArgumentParser(add_help=False)
    document.add_argument("--format", choices=("text", "json"), default="text",
                          help="output format (default text)")
    table = argparse.ArgumentParser(add_help=False)
    table.add_argument("--format", choices=FORMATS, default="markdown",
                       help="output format (default markdown)")

    p = sub.add_parser("solve", parents=[ave, solver, document],
                       help="solve an AVE from Matrix Market files")
    p.add_argument("--rhs", help="right-hand side vector (.mtx); defaults to zero")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", parents=[ave, document], help="residual error-bound factors")
    p.add_argument("--rhs", help="right-hand side (.mtx); required with --at")
    p.add_argument("--at", help="evaluate the error interval at this point (.mtx)")
    p.add_argument("--norm", choices=sorted(_NORMS), default="2",
                   help="norm for bound computations (default 2)")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("perturb", parents=[ave, solver, table],
                       help="perturbation experiment from files")
    p.add_argument("--rhs", required=True)
    p.add_argument("--da", help="perturbation of A (.mtx)")
    p.add_argument("--db", help="perturbation of B (.mtx)")
    p.add_argument("--drhs", help="perturbation of the right-hand side (.mtx)")
    p.add_argument("--epsilon", type=float, help="componentwise scale for the delta estimate")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("lcp", parents=[pair, solver, document],
                       help="solve an LCP through its AVE form")
    p.set_defaults(func=_cmd_lcp)

    p = sub.add_parser("hlcp", parents=[pair, solver, document],
                       help="solve a horizontal LCP through its AVE form")
    p.add_argument("--n-mat", required=True, help="matrix N (.mtx)")
    p.set_defaults(func=_cmd_hlcp)

    p = sub.add_parser("reproduce", parents=[table],
                       help="re-run a built-in benchmark table")
    p.add_argument("--table", type=int, choices=[1, 2, 3, 4], required=True)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, SingularMatrixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
