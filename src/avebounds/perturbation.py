"""Relative perturbation bounds: how far can the solution move when the
problem data (A, B, b) is perturbed.

All bounds here are relative to ||x*|| where x* solves the unperturbed
problem, and they bound ||x* - y*|| / ||x*|| with y* the solution of the
perturbed problem.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .bounds import ESTIMATORS, _upper_factors
from .exceptions import InapplicableBoundError, NonConvergenceError
from .solver import sign_accord_solve


@dataclass
class Perturbation:
    """A data perturbation (dA, dB, db), optionally tied to a scale epsilon.

    ``epsilon`` is carried along for the componentwise bound; whether the
    perturbation actually satisfies the componentwise envelope
    |dA| <= eps |A| (etc.) is reported by ``componentwise_violations``
    rather than enforced -- benchmark right-hand sides with zero entries
    make the envelope unsatisfiable even for perfectly good data.
    """

    dA: np.ndarray
    dB: np.ndarray
    db: np.ndarray
    epsilon: float | None = None

    def __post_init__(self):
        self.dA = numerics.as_square(self.dA, "dA")
        self.dB = numerics.as_square(self.dB, "dB", self.dA.shape[0])
        self.db = numerics.as_vector(self.db, "db", self.dA.shape[0])
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")

    def componentwise_violations(self, problem):
        """Which parts break the envelope |d.| <= epsilon |.| (if any); each
        entry may exceed its bound by a few roundings, at any scale."""
        if self.epsilon is None:
            return ["epsilon is not set"]
        out = []
        scale = self.epsilon * (1.0 + 4.0 * np.finfo(float).eps)
        for name, delta, data in (("A", self.dA, problem.A), ("B", self.dB, problem.B),
                                  ("b", self.db, problem.b)):
            if np.any(np.abs(delta) > scale * np.abs(data)):
                out.append(f"|d{name}| <= epsilon |{name}| fails")
        return out


@dataclass
class PerturbBoundReport:
    """The perturbation bound of every estimator: ``tau``, ``upsilon`` and
    ``nu`` are factors of the perturbed pair times ``w``; a field is None
    where its estimator does not apply, and a note says why."""

    w: float
    tau: float | None = None
    upsilon: float | None = None
    nu: float | None = None
    notes: list = field(default_factory=list)


@dataclass(kw_only=True)
class ExperimentRecord(PerturbBoundReport):
    """One grid cell of a perturbation experiment: its bounds' report, with
    the observed relative error ``r`` and the componentwise ``delta``."""

    n: int
    epsilon: float | None
    r: float | None
    delta: float | None = None


def _relative_coefficient(problem, db, norm_dA, norm_dB, p):
    """w = (||db||/||b||)(||A|| + ||B||) + ||dA|| + ||dB||, exactly linear
    in the perturbation scale, from the numbers ||dA|| and ||dB||."""
    norm_b = numerics.p_norm(problem.b, p)
    if norm_b == 0:
        raise ValueError("relative bounds are undefined for b = 0")
    return numerics.p_norm(db, p) / norm_b * (
        problem.analysis.norm("A", p) + problem.analysis.norm("B", p)) + norm_dA + norm_dB


def rhs_only_bound(problem, db, p=2):
    """Bounds for perturbations of the right-hand side only.

    ||x* - y*|| / ||x*||  <=  c * (||db|| / ||b||) * (||A|| + ||B||)

    with c each estimator's factor of the *unperturbed* problem: the
    ``general_relative_bound`` of ``Perturbation(0, 0, db)``, field for
    field, from the problem's own analysis.
    """
    p = numerics.check_norm(p)
    db = numerics.as_vector(db, "db", problem.n)
    return _relative_bound(problem, _relative_coefficient(problem, db, 0.0, 0.0, p), p)


def general_relative_bound(problem, pert, p=2):
    """Bounds for simultaneous perturbation of A, B and b.

    Every bound is ``factor * w`` where w is the relative coefficient from
    ``_relative_coefficient`` and ``factor`` estimates the residual-to-error
    constant of the *perturbed* pair (A + dA, B + dB):

    * tau     -- the inverse-series estimator (``neumann``),
    * upsilon -- ``w / (sigma_1(A + dA) - sigma_6(B + dB))``, the rank
      capped at n: an estimate, not a bound (``singular_gap``),
    * nu      -- the norm-ratio estimator (``norm_ratio``).

    The factors are the perturbed pair's ``bounds._upper_factors``, with
    upsilon's taken from its ``relative`` entry in ``bounds.ESTIMATORS``;
    upsilon and nu are defined for p = 2 alone.  An estimator whose
    hypothesis fails leaves its field None and records a note.
    """
    p = numerics.check_norm(p)
    perturbed = problem.perturbed(pert.dA, pert.dB, pert.db)
    norms = numerics.pair_norms(pert.dA, pert.dB, p)
    return _relative_bound(perturbed, _relative_coefficient(problem, pert.db, *norms, p), p)


def _relative_bound(perturbed, w, p):
    """``general_relative_bound`` for a built perturbed problem (the problem
    itself when only b moves) and its w."""
    report = PerturbBoundReport(w=w)
    for u in _upper_factors(perturbed, p, relative=True):
        if u.applicable:
            setattr(report, ESTIMATORS[u.method].field, u.value * w)
        else:
            report.notes.append(f"{u.method}: {u.reason}")
    return report


def componentwise_bound(problem, x_star, epsilon, p=2, kernel="series"):
    """Relative bound under the componentwise envelope
    |dA| <= eps |A|, |dB| <= eps |B|, |db| <= eps |b|.

    The bound is

        eps ||K (|b| + S |x*|)|| / ((1 - eps ||K S||) ||x*||),   S = |A| + |B|

    with kernel K built from the absolute iteration matrix M = |A^-1 B|
    (M = |B A^-1| for type2):

    * ``kernel="series"`` (default): K = (I - M)^-1 |A^-1|, which
      majorises every member of the sign family |(A - B diag(d))^-1|, so
      the value is a bound.
    * ``kernel="damped"``: K = (I - M) |A^-1|, the tables' ``delta``.  It
      is an estimate, not a bound: it tracks the observed error on the
      benchmark families, but on a ``proven_unique`` 2 x 2 pair it falls
      2000 times below it.

    Both kernels require rho(M) < 1, proven by a Collatz-Wielandt
    certificate whose bound on the condition number of I - M passes the
    gate, and the denominator positive; each is reported as inapplicable
    when it fails.  Only the series kernel inverts I - M.  Neither
    ||K S|| nor the numerator depends on eps: each is taken once per
    kernel, p (and x*) of the problem, so a grid of epsilons shares them.
    """
    p = numerics.check_norm(p)
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    x_star = numerics.as_vector(x_star, "x_star", problem.n)
    norm_x = numerics.p_norm(x_star, p)
    if norm_x == 0:
        raise ValueError("relative bounds are undefined for x* = 0")

    analysis = problem.analysis
    damping = epsilon * analysis.kernel_norm(kernel, p)
    if damping >= 1.0:
        raise InapplicableBoundError(
            f"denominator condition fails: eps * ||K (|A| + |B|)|| = {damping:.6g} >= 1",
            condition="denominator",
        )

    def numerator():
        K = analysis.componentwise_kernel(kernel)
        return numerics.scaled_norm(
            lambda A, B, b: K @ (np.abs(b) + numerics.absolute_sum(A, B) @ np.abs(x_star)),
            (problem.A, problem.B, problem.b), p)
    # the analysis is the problem's own, so its b is fixed too
    norm_Ku = analysis.memoised(("numerator", kernel, p, x_star.tobytes()), numerator)
    return epsilon * norm_Ku / ((1.0 - damping) * norm_x)


def _require_converged(result, which):
    if not result.converged:
        raise NonConvergenceError(
            f"solver did not converge on the {which} problem "
            f"({result.iterations} iterations, last step {result.final_step_norm:.3e})"
        )
    return result


def perturbation_experiment(problem, pert, options=None):
    """Solve the problem and its perturbation, then record the observed
    relative error r next to every bound that applies.

    Both problems are solved by ``sign_accord_solve``, so r compares two
    solutions exact up to rounding, not two iterates stopped at a step
    tolerance.  Bounds whose hypotheses fail are recorded as None.  Solver
    failure on either problem raises NonConvergenceError since r would be
    undefined.
    """
    perturbed = problem.perturbed(pert.dA, pert.dB, pert.db)
    base = _require_converged(sign_accord_solve(problem, options), "base")
    norms = numerics.pair_norms(pert.dA, pert.dB, 2)
    record = _experiment_cell(problem, base, perturbed, pert.db, norms, pert.epsilon, options)
    if pert.epsilon is not None:
        record.delta = _componentwise_delta(problem, base.x, pert.epsilon)
    return record


def _experiment_cell(problem, base, perturbed, db, norms, epsilon, options=None):
    """The record of one perturbation of ``problem`` without its delta, shared
    by ``perturbation_experiment`` and the tables: ``base`` solves
    ``problem``, and ``norms`` are the 2-norms of the dA and dB."""
    shifted = _require_converged(sign_accord_solve(perturbed, options), "perturbed")
    norm_x = numerics.p_norm(base.x, 2)
    if norm_x == 0:
        raise ValueError("relative error is undefined for x* = 0")
    r = numerics.p_norm(base.x - shifted.x, 2) / norm_x
    report = _relative_bound(perturbed, _relative_coefficient(problem, db, *norms, 2), 2)
    return ExperimentRecord(n=problem.n, epsilon=epsilon, r=r, **vars(report))


def _componentwise_delta(problem, x_star, epsilon):
    """The damped ``componentwise_bound`` at ``epsilon``, an estimate; None
    when it does not apply."""
    try:
        return componentwise_bound(problem, x_star, epsilon, p=2, kernel="damped")
    except InapplicableBoundError:
        return None
