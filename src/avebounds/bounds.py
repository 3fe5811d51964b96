"""Residual-based error bounds for absolute value equations.

For a problem ``A x - B|x| = b`` the distance between a trial point x and
the true solution is sandwiched by multiples of the natural residual:

    ||r(x)|| / lower_factor  <=  ||x - x*||  <=  upper * ||r(x)||

``lower_factor`` has a cheap closed form; the upper constant is not
computable exactly, so this module offers three estimators with different
hypotheses plus an exact sign-vertex enumeration for small problems.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .core import TYPE_TWO, _sign_family, _vertex_witness, residual, sign_box_vertices
from .exceptions import InapplicableBoundError, SingularMatrixError

NEUMANN = "neumann"
SINGULAR_GAP = "singular_gap"
NORM_RATIO = "norm_ratio"
METHODS = (NEUMANN, SINGULAR_GAP, NORM_RATIO)


def lower_factor(problem, p=2):
    """The denominator of the lower error bound: the largest norm of
    A - B diag(d) (type2: A - diag(d) B) over the sign box d in [-1, 1]^n.

    * Type1 with p = 1 and type2 with p = inf: each column (type2: row) of
      the family depends on one d_j alone and its norm is convex in it, so
      the maximum is max(||A - B||_p, ||A + B||_p), at d = +/-1.  Exact.
    * Type1 with p = inf and type2 with p = 1: each row (type2: column)
      picks its own signs, so the maximum is || |A| + |B| ||_p.  Exact.
    * p = 2: max(||A - B||_2, ||A + B||_2).  An interior or mixed-sign
      diagonal can exceed both, so this is a tight estimate rather than a
      guarantee; ||A||_2 + ||B||_2 always dominates the family.
    """
    p = numerics.check_norm(p)
    A, B = problem.A, problem.B
    if p == (1 if problem.form == TYPE_TWO else np.inf):
        return numerics.p_norm(np.abs(A) + np.abs(B), p)
    return max(numerics.p_norm(A - B, p), numerics.p_norm(A + B, p))


def _singular_gap_factor(problem):
    smin_a = float(problem.analysis.singular_values("A")[-1])
    smax_b = float(problem.analysis.singular_values("B")[0])
    gap = smin_a - smax_b
    if gap <= 0.0:
        raise InapplicableBoundError(
            f"singular value gap is {gap:.6g} <= 0 "
            f"(smallest of A: {smin_a:.6g}, largest of B: {smax_b:.6g})",
            condition="singular_value_gap",
        )
    return 1.0 / gap


def _norm_ratio_factor(problem):
    analysis = problem.analysis
    try:
        analysis.require_regular("A")
        analysis.require_regular("B")
    except SingularMatrixError as exc:
        raise InapplicableBoundError(str(exc), condition="invertible_factors") from exc
    t = analysis.ratio_norm()
    if t >= 1.0:
        raise InapplicableBoundError(
            f"largest singular value of the ratio matrix is {t:.6g} >= 1",
            condition="ratio_singular_value",
        )
    # ||B^-1||_2 is the reciprocal of the smallest singular value of B.
    return t / float(analysis.singular_values("B")[-1]) / (1.0 - t)


def upper_factor(problem, method=NEUMANN, p=2):
    """One multiplicative upper constant for ``||x - x*|| <= c ||r(x)||``.

    * ``neumann``: needs the spectral radius of |A^-1 B| (type1) or
      |B A^-1| (type2) below one; works in any supported norm.
    * ``singular_gap``: 1 / (smallest singular value of A - largest of B);
      2-norm only.
    * ``norm_ratio``: needs B invertible and the largest singular value of
      A^-1 B (B A^-1 for type2) below one; 2-norm only.

    Raises InapplicableBoundError when the method's hypothesis fails and
    ValueError when a 2-norm-only method is asked for in another norm.
    """
    p = numerics.check_norm(p)
    if method == NEUMANN:
        return problem.analysis.neumann_factor(p)
    if method == SINGULAR_GAP:
        if p != 2:
            raise ValueError("singular_gap is defined for the 2-norm only")
        return _singular_gap_factor(problem)
    if method == NORM_RATIO:
        if p != 2:
            raise ValueError("norm_ratio is defined for the 2-norm only")
        return _norm_ratio_factor(problem)
    raise ValueError(f"unknown method {method!r}; use one of {METHODS}")


def identity_ave_bounds(A, p=2):
    """Lower/upper constants for the special case B = I.

    Requires the smallest singular value of A to exceed one.  Returns
    ``(lower, upper)`` where lower = ||A + I||_p + ||A - I||_p and
    upper = lower / (smin(A)**2 - 1).
    """
    A = numerics.as_square(A, "A")
    p = numerics.check_norm(p)
    smin, _ = numerics.extreme_singulars(A)
    if smin <= 1.0:
        raise InapplicableBoundError(
            f"smallest singular value of A is {smin:.6g} <= 1",
            condition="smallest_singular_value",
        )
    eye = np.eye(A.shape[0])
    low = numerics.p_norm(A + eye, p) + numerics.p_norm(A - eye, p)
    return low, low / (smin**2 - 1.0)


@dataclass
class UpperFactor:
    method: str
    value: float | None
    applicable: bool
    reason: str = ""


@dataclass
class ErrorBoundReport:
    lower_factor: float
    upper_factors: list = field(default_factory=list)
    identity_lower: float | None = None
    identity_upper: float | None = None
    p: float = 2

    def best_upper(self):
        vals = [u.value for u in self.upper_factors if u.applicable]
        return min(vals) if vals else None


def error_bound_report(problem, p=2):
    """Evaluate the lower factor and every estimator that applies.

    Inapplicable estimators are recorded with the reason instead of being
    dropped, so callers can see what was tried.  When B is exactly the
    identity and its special-case pair applies, that pair is included too.
    """
    p = numerics.check_norm(p)
    report = ErrorBoundReport(lower_factor=lower_factor(problem, p), p=p)
    for method in METHODS:
        if method != NEUMANN and p != 2:
            report.upper_factors.append(UpperFactor(
                method, None, False, "defined for the 2-norm only"))
            continue
        try:
            value = upper_factor(problem, method, p)
        except InapplicableBoundError as exc:
            report.upper_factors.append(UpperFactor(method, None, False, str(exc)))
        else:
            report.upper_factors.append(UpperFactor(method, value, True))
    if np.array_equal(problem.B, np.eye(problem.n)):
        try:
            report.identity_lower, report.identity_upper = identity_ave_bounds(problem.A, p)
        except InapplicableBoundError:
            pass
    return report


@dataclass
class ErrorInterval:
    residual_norm: float
    lower: float
    upper: float
    upper_method: str


def error_interval(problem, x, p=2):
    """Bracket ``||x - x*||_p`` from the residual at x.

    The upper end uses the smallest applicable estimator; if none applies
    the interval cannot be closed and InapplicableBoundError is raised.
    """
    p = numerics.check_norm(p)
    r_norm = numerics.p_norm(residual(problem, x), p)
    low_fac = lower_factor(problem, p)
    lower = r_norm / low_fac if low_fac > 0 else 0.0

    best = None
    best_method = None
    reasons = []
    for method in METHODS:
        if method != NEUMANN and p != 2:
            continue
        try:
            value = upper_factor(problem, method, p)
        except InapplicableBoundError as exc:
            reasons.append(f"{method}: {exc}")
            continue
        if best is None or value < best:
            best, best_method = value, method
    if best is None:
        raise InapplicableBoundError(
            "no upper-bound estimator applies: " + "; ".join(reasons),
            condition="no_applicable_estimator",
        )
    return ErrorInterval(r_norm, lower, best * r_norm, best_method)


def brute_force_alpha(problem, p=2):
    """Exact max ||(A - B diag(d))^-1||_p over the sign box d in [-1,1]^n
    (type2: A - diag(d) B) from its 2**n vertices; limited to n <= 20.

    +inf when the vertex determinants lack one strict common sign: some
    member is then singular (or too close to tell).  Otherwise, with the
    other d_i fixed, every entry of the inverse is a ratio of affine
    functions of d_j with one pole-free denominator, so each induced norm
    is quasiconvex in d_j and peaks at a vertex.
    """
    p = numerics.check_norm(p)
    n = problem.n
    if n > 20:
        raise ValueError(f"brute_force_alpha is limited to n <= 20, got {n}")
    A, B = problem.A, problem.B
    left = problem.form == TYPE_TWO
    vertices = sign_box_vertices(n)
    if _vertex_witness(A, B, vertices, left) is not None:
        return float("inf")
    return max(float(numerics.batched_norms(np.linalg.inv(stack), p).max())
               for _, stack in _sign_family(A, B, vertices, left))


def shifted_norm_slack(A, alpha, p=2):
    """Slack of two shifted-norm inequalities used to sanity-check norms.

    For alpha > 0 the quantity s = ||alpha I + A|| + ||alpha I - A||
    always dominates 2 alpha - ||A||, and when ||A|| <= alpha it also
    dominates alpha + ||A||.  Returns ``(s - (2 alpha - ||A||), second)``
    where ``second`` is ``s - (alpha + ||A||)`` or None when the premise
    ||A|| <= alpha does not hold.  Both slacks are nonnegative up to
    roundoff; a materially negative value would indicate a broken norm.
    """
    A = numerics.as_square(A, "A")
    p = numerics.check_norm(p)
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    eye = np.eye(A.shape[0])
    norm_a = numerics.p_norm(A, p)
    s = numerics.p_norm(alpha * eye + A, p) + numerics.p_norm(alpha * eye - A, p)
    slack1 = s - (2.0 * alpha - norm_a)
    slack2 = s - (alpha + norm_a) if norm_a <= alpha else None
    return slack1, slack2
