"""Solvers for absolute value equations: a fixed-point reference solver
and an exact sign-accord solve.

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

``sign_accord_solve`` uses that an AVE is linear once the sign pattern of
x (type2: of B x) is known, and solves for the pattern instead
(Mangasarian, Optim. Lett. 3 (2009) 101-108; Rohn, Electron. J. Linear
Algebra 18 (2009) 589-599).  When the patterns cycle it finishes with the
Picard iteration.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace

import numpy as np

from . import numerics
from .core import TYPE_ONE, residual, sign_member


@dataclass
class SolveOptions:
    """Start, stopping rule and budget of a solve.

    ``picard_solve`` starts from ``initial`` (default: the zero vector)
    and stops when ``||x_{k+1} - x_k||_2 < tolerance``, or, not converged,
    once a step exceeds 2**52 times its first.
    ``sign_accord_solve`` starts from ``initial`` (default: A^-1 b) and
    stops when the sign pattern of a linear solve agrees with its result;
    ``tolerance`` applies only to its Picard fallback.  ``max_iterations``
    caps the iterations of either, a linear solve counting as one.
    """

    initial: np.ndarray | None = None
    tolerance: float = 1e-6
    max_iterations: int = 10000

    def __post_init__(self):
        if not 0 < self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tolerance!r}")
        try:
            self.max_iterations = operator.index(self.max_iterations)
        except TypeError:
            raise ValueError(
                f"max_iterations must be an integer, got {self.max_iterations!r}") from None
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass
class SolveResult:
    """Outcome of a solve.

    ``final_step_norm`` is the 2-norm of the last step taken, inf when no
    step was taken.  A diverging Picard run ends with a finite one, above
    2**52 times its first step, unless a step overflows before that growth
    (inf).
    """

    x: np.ndarray
    iterations: int
    final_step_norm: float
    final_residual_norm: float
    converged: bool
    method: str = "picard"      # the iteration that produced x: "picard" or "sign_accord"


# picard_solve stops, not converged, once a step exceeds this multiple of
# its first step.
_DIVERGED = 2.0**52


def _norm(v):
    """Scaled 2-norm of ``v`` (``numerics.p_norm``); inf when ``v`` is not
    finite or its norm exceeds the float range.  Callers silence overflow
    in forming ``v``."""
    return numerics.p_norm(v, 2) if np.all(np.isfinite(v)) else np.inf


def picard_solve(problem, options=None):
    """Run the fixed-point iteration on ``problem``.

    Non-convergence within the iteration budget is an outcome, not an
    exception: the result carries ``converged=False`` and the last iterate.
    So is divergence: the iteration stops once a step exceeds 2**52 times
    the first (``_DIVERGED``), as a limit reached after that growth has no
    correct digit at the scale of the first step; the result holds that
    step's iterate and finite norm.  A step that overflows first stops it
    with the last finite iterate and an infinite step norm.  A numerically
    singular A is an error (SingularMatrixError) since the iteration is
    undefined.
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
    limit = np.inf          # _DIVERGED times the first step
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
            if step > limit:
                break
            if iterations == 1:
                limit = _DIVERGED * step
        res_norm = _norm(residual(problem, x))
    return SolveResult(x, iterations, step, res_norm, converged)


def sign_accord_solve(problem, options=None):
    """Solve ``problem`` exactly for its sign pattern, with ``picard_solve``
    as the fallback.

    From x = A^-1 b (the memoised inverse; one iteration), or from
    ``options.initial`` (no iteration), each step takes s = +1 where
    x >= 0 (type2: B x >= 0) and -1 elsewhere, and solves
    (A - B diag(s)) x = b (type2: (A - diag(s) B) x = b) by LU.  A finite
    x with s x >= 0 (type2: s (B x) >= 0) has |x| = diag(s) x, so it
    solves the AVE up to the rounding of that one solve, and the result is
    ``converged`` with ``method="sign_accord"``.

    A repeated pattern, or a singular or non-finite solve, ends the loop.
    So does a start A^-1 b or a sign test B x that leaves the float range;
    an AVE is positively homogeneous in b, so the loop then starts again on
    b / 2**k, 2**k near max |b|, and scales x and its step back by 2**k
    (``_sign_accord_loop``), where b and the start multiply back to
    themselves bit for bit.  The last x, or the zero vector for a start
    out of range, then warm-starts ``picard_solve`` with the rest of the
    iteration budget, and its result (``method="picard"``) counts the
    linear solves in ``iterations``.  The fallback is not gated on the
    contraction premise: the loop can cycle on problems where Picard
    converges.  A spent budget, or a fallback stopped for divergence,
    gives ``converged=False``; a numerically singular A is an error
    (SingularMatrixError), as for ``picard_solve``.
    """
    opts = options or SolveOptions()
    A_inv = problem.analysis.inverse("sign_accord_solve: A")
    initial = opts.initial
    if initial is not None:
        initial = numerics.as_vector(initial, "initial guess", problem.n)
    x, iterations, step, converged, in_range = _sign_accord_loop(problem, A_inv, initial, opts, 0)
    exponent = int(np.frexp(np.abs(problem.b).max())[1])
    if not in_range and exponent and all(
            np.array_equal(np.ldexp(np.ldexp(v, -exponent), exponent), v)
            for v in (problem.b, initial) if v is not None):
        x, iterations, step, converged, _ = _sign_accord_loop(
            problem, A_inv, initial, opts, exponent)

    if not converged and iterations < opts.max_iterations:
        fallback = picard_solve(problem, SolveOptions(
            initial=x, tolerance=opts.tolerance, max_iterations=opts.max_iterations - iterations))
        return replace(fallback, iterations=fallback.iterations + iterations)
    with np.errstate(over="ignore", invalid="ignore"):
        res_norm = _norm(residual(problem, x))
    return SolveResult(x, iterations, step, res_norm, converged, "sign_accord")


def _sign_accord_loop(problem, A_inv, initial, opts, exponent):
    """``(x, iterations, step, converged, in_range)`` of the sign-accord
    loop on b / 2**exponent from ``initial`` (None: from A^-1 b), with x
    and the step scaled back.  ``in_range`` is False when the start or a
    sign test left the float range, or an iterate did once scaled back; x
    is then the last iterate in range, the zero vector if none was."""
    A, B = problem.A, problem.B
    type_one = problem.form == TYPE_ONE
    b = np.ldexp(problem.b, -exponent)

    def signs_of(v):
        """``v`` (type2: ``B v``), or None where it leaves the float range."""
        with np.errstate(over="ignore", invalid="ignore"):
            t = v if type_one else B @ v
        return t if np.all(np.isfinite(t)) else None

    def kept(v):
        with np.errstate(over="ignore"):
            return np.all(np.isfinite(np.ldexp(v, exponent)))

    if initial is None:
        x, iterations = np.zeros(problem.n), 1
        with np.errstate(over="ignore", invalid="ignore"):
            start = A_inv @ b
    else:
        x, iterations = np.ldexp(initial, -exponent), 0
        start = x
    tested = signs_of(start)
    if tested is not None and kept(start):
        x = start
    step, converged, in_range, seen = np.inf, False, tested is not None, set()
    while in_range and iterations < opts.max_iterations:
        s = np.where(tested >= 0, 1.0, -1.0)
        pattern = s.tobytes()
        if pattern in seen:
            break
        seen.add(pattern)
        iterations += 1
        try:
            x_next = np.linalg.solve(sign_member(A, B, s, not type_one), b)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(x_next)):
            break
        tested = signs_of(x_next)
        in_range = tested is not None and kept(x_next)
        if not in_range:
            break
        with np.errstate(over="ignore"):
            step = _norm(x_next - x)
        x = x_next
        if np.all(s * tested >= 0):
            converged = True
            break
    with np.errstate(over="ignore"):
        return np.ldexp(x, exponent), iterations, float(np.ldexp(step, exponent)), converged, in_range
