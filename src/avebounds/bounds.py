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
from .core import TYPE_TWO, AveProblem, residual, sign_box_scan
from .exceptions import InapplicableBoundError

NEUMANN = "neumann"
SINGULAR_GAP = "singular_gap"
NORM_RATIO = "norm_ratio"


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
    if p == (1 if problem.form == TYPE_TWO else np.inf):
        return numerics.scaled_norm(numerics.absolute_sum, (problem.A, problem.B), p)
    return max(_shifted_norms(problem, p))


def _shifted_norms(problem, p):
    """(||A - B||_p, ||A + B||_p), computed once per analysis; each is
    written over the scaled copy of A."""
    pair = (problem.A, problem.B)
    return problem.analysis.memoised(("shifted_norms", p), lambda: tuple(
        numerics.scaled_norm(lambda A, B: ufunc(A, B, out=A), pair, p)
        for ufunc in (np.subtract, np.add)))


def _gap_factor(problem, p, i=-1, j=0):
    """``1 / (sigma_i(A) - sigma_j(B))`` over the descending spectra, ``j``
    capped at the last index; ``ESTIMATORS`` declares both probes."""
    # Past the inverse gate sigma_n(A) is rounding noise, not a gap.
    problem.analysis.inverse(condition="invertible_A")
    sa = problem.analysis.singular_values("A")
    sb = problem.analysis.singular_values("B")
    j = min(j, len(sb) - 1)
    a, b = float(sa[i]), float(sb[j])
    gap = a - b
    if gap <= 0.0:
        raise InapplicableBoundError(
            f"singular-value gap sigma_{i % len(sa) + 1}(A) - sigma_{j + 1}(B) "
            f"is {a:.6g} - {b:.6g} = {gap:.6g} <= 0",
            condition="singular_value_gap",
        )
    return 1.0 / gap


def _norm_ratio_factor(problem, p):
    analysis = problem.analysis
    analysis.inverse(condition="invertible_factors")
    # ||B^-1||_2 below reads these singular values; they gate B too.
    numerics.require_regular(numerics.cond_from_singulars(analysis.singular_values("B")),
                             "B", 2, "invertible_factors")
    t = analysis.ratio_norm()
    if t >= 1.0:
        raise InapplicableBoundError(
            f"largest singular value of the ratio matrix is {t:.6g} >= 1",
            condition="ratio_singular_value",
        )
    return t / float(analysis.singular_values("B")[-1]) / (1.0 - t)


@dataclass(frozen=True)
class Estimator:
    factor: object          # factor(problem, p)
    norms: tuple            # the norms it is defined in
    field: str              # the report field of its perturbation bound
    relative: object = None     # that bound's own factor, if any; an estimate


#: Every upper estimator, in report order: declaring one is one entry here.
ESTIMATORS = {
    NEUMANN: Estimator(lambda problem, p: problem.analysis.neumann_factor(p),
                       numerics.SUPPORTED_NORMS, "tau"),
    # Certified sigma_n(A) - sigma_1(B); upsilon's estimate sigma_1(A) - sigma_6(B).
    SINGULAR_GAP: Estimator(_gap_factor, (2,), "upsilon",
                            lambda problem, p: _gap_factor(problem, p, 0, 5)),
    NORM_RATIO: Estimator(_norm_ratio_factor, (2,), "nu"),
}
METHODS = tuple(ESTIMATORS)


def _estimator(method, p):
    """``method``'s entry for a checked ``p``; ValueError if there is none."""
    est = ESTIMATORS.get(method)
    if est is None:
        raise ValueError(f"unknown method {method!r}; use one of {METHODS}")
    if p not in est.norms:
        raise ValueError(f"{method} is defined for the 2-norm only")
    return est


def upper_factor(problem, method=NEUMANN, p=2):
    """One multiplicative upper constant for ``||x - x*|| <= c ||r(x)||``.

    * ``neumann``: needs the spectral radius of |A^-1 B| (type1) or
      |B A^-1| (type2) below one; works in any supported norm.
    * ``singular_gap``: 1 / (smallest singular value of A - largest of B);
      needs A through the inverse gate; 2-norm only.
    * ``norm_ratio``: needs B invertible and the largest singular value of
      A^-1 B (B A^-1 for type2) below one; 2-norm only.

    Raises InapplicableBoundError when the method's hypothesis fails and
    ValueError when a 2-norm-only method is asked for in another norm.
    """
    p = numerics.check_norm(p)
    return _estimator(method, p).factor(problem, p)


def identity_ave_bounds(A, p=2):
    """Lower/upper constants for the special case B = I.

    Requires the smallest singular value of A to exceed one.  Returns
    ``(lower, upper)`` where lower = ||A + I||_p + ||A - I||_p and
    upper = lower / (smin(A)**2 - 1).
    """
    A = numerics.as_square(A, "A")
    return _identity_pair(AveProblem(A, np.eye(len(A)), np.zeros(len(A))), numerics.check_norm(p))


def _identity_pair(problem, p):
    """``identity_ave_bounds`` of a problem whose B is I, from the singular
    values and norms its analysis holds."""
    smin = float(problem.analysis.singular_values("A")[-1])
    if smin <= 1.0:
        raise InapplicableBoundError(
            f"smallest singular value of A is {smin:.6g} <= 1",
            condition="smallest_singular_value",
        )
    low = sum(_shifted_norms(problem, p))
    try:
        return low, low / (smin**2 - 1.0)
    except OverflowError:   # smin**2 past the float range
        return low, (low / smin) / (smin - 1.0 / smin)


@dataclass
class UpperFactor:
    method: str
    value: float | None
    applicable: bool
    reason: str = ""
    condition: str | None = None    # the failed premise, if it has a name


@dataclass
class ErrorInterval:
    residual_norm: float
    lower: float
    upper: float
    upper_method: str


@dataclass
class ErrorBoundReport:
    lower_factor: float
    upper_factors: list = field(default_factory=list)
    identity_lower: float | None = None
    identity_upper: float | None = None
    p: float = 2

    def interval(self, residual_norm):
        """Bracket ``||x - x*||_p`` from ``||r(x)||_p``.

        The upper end uses the smallest applicable estimator; if none applies
        the interval cannot be closed and InapplicableBoundError is raised.
        """
        applicable = [u for u in self.upper_factors if u.applicable]
        if not applicable:
            raise InapplicableBoundError(
                "no upper-bound estimator applies: "
                + "; ".join(f"{u.method}: {u.reason}" for u in self.upper_factors),
                condition="no_applicable_estimator",
            )
        best = min(applicable, key=lambda u: u.value)
        lower = residual_norm / self.lower_factor if self.lower_factor > 0 else 0.0
        return ErrorInterval(residual_norm, lower, best.value * residual_norm, best.method)


def _upper_factors(problem, p, relative=False):
    """Every estimator at ``p``, the inapplicable ones with the reason;
    ``relative`` takes an estimator's ``relative`` factor where it has one."""
    out = []
    for method, est in ESTIMATORS.items():
        try:
            # upper_factor, not est.factor: the benchmark tracer counts it per method.
            value = (_estimator(method, p).relative(problem, p) if relative and est.relative
                     else upper_factor(problem, method, p))
            out.append(UpperFactor(method, value, True))
        except (InapplicableBoundError, ValueError) as exc:
            out.append(UpperFactor(method, None, False, str(exc), getattr(exc, "condition", None)))
    return out


def error_bound_report(problem, p=2):
    """Evaluate the lower factor and every estimator that applies.

    Inapplicable estimators are recorded with the reason instead of being
    dropped, so callers can see what was tried.  When B is exactly the
    identity and its special-case pair applies, that pair is included too.
    """
    p = numerics.check_norm(p)
    report = ErrorBoundReport(lower_factor(problem, p), _upper_factors(problem, p), p=p)
    if np.array_equal(problem.B, np.eye(problem.n)):
        try:
            report.identity_lower, report.identity_upper = _identity_pair(problem, p)
        except InapplicableBoundError:
            pass
    return report


def error_interval(problem, x, p=2):
    """Bracket ``||x - x*||_p`` from the residual at x; see
    ``ErrorBoundReport.interval``."""
    p = numerics.check_norm(p)
    r_norm = numerics.p_norm(residual(problem, x), p)
    report = ErrorBoundReport(lower_factor(problem, p), _upper_factors(problem, p), p=p)
    return report.interval(r_norm)


def brute_force_alpha(problem, p=2):
    """Exact max ||(A - B diag(d))^-1||_p over the sign box d in [-1,1]^n
    (type2: A - diag(d) B) from its 2**n vertices; n <= ``SIGN_BOX_LIMIT``.

    +inf when the vertex determinants lack one strict common sign: some
    member is then singular (or too close to tell).  Otherwise, with the
    other d_i fixed, every entry of the inverse is a ratio of affine
    functions of d_j with one pole-free denominator, so each induced norm
    is quasiconvex in d_j and peaks at a vertex.
    """
    p = numerics.check_norm(p)
    return sign_box_scan(problem.A, problem.B, problem.form == TYPE_TWO, p)[1]
