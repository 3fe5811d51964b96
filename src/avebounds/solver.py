"""Fixed-point reference solver for absolute value equations.

The iteration is the classic Picard scheme

    x_{k+1} = A^{-1} (B |x_k| + b)        (type1)
    x_{k+1} = A^{-1} (|B x_k| + b)        (type2)

with A inverted once, in residual-correction form

    x_{k+1} = x_k + A^{-1} (B |x_k| + b - A x_k)

(|B x_k| for type2): the same iterates in exact arithmetic, but its fixed
point zeroes the residual computed with A itself, so the rounding of the
computed inverse only slows the contraction instead of moving the
solution by cond(A)^2 eps.  It converges linearly whenever the relevant
contraction condition holds (for instance ||A^-1||_2 ||B||_2 < 1); it is
deliberately simple because the package needs a reproducible reference
solution, not speed records.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import numerics
from .core import TYPE_ONE, residual


@dataclass
class SolveOptions:
    initial: np.ndarray | None = None   # default: zero vector
    tolerance: float = 1e-6             # stop when ||x_{k+1} - x_k||_2 < tolerance
    max_iterations: int = 10000

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        try:
            self.max_iterations = operator.index(self.max_iterations)
        except TypeError:
            raise ValueError(
                f"max_iterations must be an integer, got {self.max_iterations!r}") from None
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveResult:
    x: np.ndarray
    iterations: int
    final_step_norm: float
    final_residual_norm: float
    converged: bool


def picard_solve(problem, options=None):
    """Run the fixed-point iteration on ``problem``.

    Non-convergence within the iteration budget is an outcome, not an
    exception: the result carries ``converged=False`` and the last iterate.
    So is divergence to non-finite values: the iteration stops with the
    last finite iterate and an infinite step norm.  A numerically singular
    A is an error (SingularMatrixError) since the iteration is undefined.
    """
    opts = options or SolveOptions()
    A, B, b = problem.A, problem.B, problem.b
    A_inv = problem.analysis.inverse("picard_solve: A")

    if opts.initial is None:
        x = np.zeros(problem.n)
    else:
        x = numerics.as_vector(opts.initial, "initial guess", problem.n).copy()

    type_one = problem.form == TYPE_ONE
    step = np.inf
    converged = False
    iterations = 0
    # A diverging iteration overflows; it stops at the first non-finite
    # step and keeps the last finite iterate.
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(1, opts.max_iterations + 1):
            rhs = B @ np.abs(x) + b if type_one else np.abs(B @ x) + b
            x_next = x + A_inv @ (rhs - A @ x)
            step = float(np.linalg.norm(x_next - x))
            if not np.isfinite(step):
                step = np.inf
                break
            x = x_next
            if step < opts.tolerance:
                converged = True
                break
        res_norm = float(np.linalg.norm(residual(problem, x)))
    return SolveResult(x, iterations, step, res_norm, converged)
