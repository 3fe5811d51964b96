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
from .bounds import ESTIMATORS, METHODS, NEUMANN, _estimator, upper_factor
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
    w: float
    tau: float | None = None
    upsilon: float | None = None
    nu: float | None = None
    estimates: list = field(default_factory=list)   # (method, factor) pairs
    notes: list = field(default_factory=list)


@dataclass
class ExperimentRecord:
    """One grid cell of a perturbation experiment."""

    n: int
    epsilon: float | None
    r: float | None
    w: float
    tau: float | None
    upsilon: float | None
    nu: float | None
    delta: float | None


def _rhs_term(problem, db, p):
    """(||db||/||b||)(||A|| + ||B||), the right-hand side's share of w."""
    norm_b = numerics.p_norm(problem.b, p)
    if norm_b == 0:
        raise ValueError("relative bounds are undefined for b = 0")
    return numerics.p_norm(db, p) / norm_b * (
        problem.analysis.norm("A", p) + problem.analysis.norm("B", p))


def _relative_coefficient(problem, db, norm_dA, norm_dB, p):
    """w = (||db||/||b||)(||A|| + ||B||) + ||dA|| + ||dB||, exactly linear
    in the perturbation scale, from the numbers ||dA|| and ||dB||."""
    return _rhs_term(problem, db, p) + norm_dA + norm_dB


def rhs_only_bound(problem, db, method=NEUMANN, p=2):
    """Bound for perturbations of the right-hand side only.

    ||x* - y*|| / ||x*||  <=  c * (||db|| / ||b||) * (||A|| + ||B||)

    with c any applicable upper factor of the *unperturbed* problem.
    """
    p = numerics.check_norm(p)
    db = numerics.as_vector(db, "db", problem.n)
    scale = _rhs_term(problem, db, p)
    return upper_factor(problem, method, p) * scale


def general_relative_bound(problem, pert, method=None, p=2):
    """Bounds for simultaneous perturbation of A, B and b.

    Every bound is ``factor * w`` where w is the relative coefficient from
    ``_relative_coefficient`` and ``factor`` estimates the residual-to-error
    constant of the *perturbed* pair (A + dA, B + dB):

    * tau     -- the inverse-series estimator (``neumann``),
    * upsilon -- the truncated singular-value gap (``singular_gap``),
    * nu      -- the norm-ratio estimator (``norm_ratio``).

    ``upper_factor`` gives tau's and nu's factors, ``bounds.ESTIMATORS``
    upsilon's; upsilon and nu are defined for p = 2 alone.

    ``method=None`` evaluates all three, recording a note for each one
    whose hypothesis fails; naming a method raises instead when it does
    not apply.
    """
    p = numerics.check_norm(p)
    perturbed = problem.perturbed(pert.dA, pert.dB, pert.db)
    norms = [numerics.p_norm(m, p) for m in (pert.dA, pert.dB)]
    return _relative_bound(perturbed, _relative_coefficient(problem, pert.db, *norms, p),
                           method, p)


def _relative_bound(perturbed, w, method, p):
    """``general_relative_bound`` for a built perturbed problem and its w."""
    report = PerturbBoundReport(w=w)
    wanted = METHODS if method is None else (method,)
    for name in wanted:
        try:
            est = _estimator(name, p)
            # upper_factor, not est.factor: the benchmark tracer counts it per method.
            factor = (est.relative(perturbed, p) if est.relative
                      else upper_factor(perturbed, name, p))
        except (InapplicableBoundError, ValueError) as exc:
            if method is not None:
                raise
            report.notes.append(f"{name}: {exc}")
            continue
        report.estimates.append((name, factor))
        setattr(report, est.field, factor * w)
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

    Both kernels require rho(M) < 1, proven on the gated inverse of I - M,
    and the denominator positive; each is reported as inapplicable when
    it fails.
    """
    p = numerics.check_norm(p)
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    x_star = numerics.as_vector(x_star, "x_star", problem.n)
    norm_x = numerics.p_norm(x_star, p)
    if norm_x == 0:
        raise ValueError("relative bounds are undefined for x* = 0")

    K = problem.analysis.componentwise_kernel(kernel)
    u = np.abs(problem.b) + (np.abs(problem.A) + np.abs(problem.B)) @ np.abs(x_star)
    damping = epsilon * problem.analysis.kernel_norm(kernel, p)
    if damping >= 1.0:
        raise InapplicableBoundError(
            f"denominator condition fails: eps * ||K (|A| + |B|)|| = {damping:.6g} >= 1",
            condition="denominator",
        )
    return epsilon * numerics.p_norm(K @ u, p) / ((1.0 - damping) * norm_x)


def classical_linear_bounds(A, dA, b, db, x_star, epsilon, p=2):
    """The two textbook bounds for a plain linear system A x = b.

    Returns ``(normwise, componentwise)``:

    * normwise:  kappa/(1 - kappa ||dA||/||A||) (||db||/||b|| + ||dA||/||A||)
      with kappa = ||A^-1|| ||A||, requiring ||A^-1|| ||dA|| < 1;
    * componentwise: the |A^-1|-kernel bound under |dA| <= eps |A|,
      |db| <= eps |b|, requiring eps || |A^-1||A| || < 1.

    These are the B = 0 specialisations of the AVE bounds and are used to
    cross-check the reductions.  A singular A raises InapplicableBoundError
    with ``condition="invertible_A"``.
    """
    p = numerics.check_norm(p)
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    A = numerics.as_square(A, "A")
    n = A.shape[0]
    dA = numerics.as_square(dA, "dA", n)
    b = numerics.as_vector(b, "b", n)
    db = numerics.as_vector(db, "db", n)
    x_star = numerics.as_vector(x_star, "x_star", n)
    norm_b = numerics.p_norm(b, p)
    norm_x = numerics.p_norm(x_star, p)
    if norm_b == 0 or norm_x == 0:
        raise ValueError("relative bounds are undefined for zero b or x*")

    A_inv = numerics.inverse(A, "A", "invertible_A")
    norm_a, norm_ai, norm_da = (numerics.p_norm(m, p) for m in (A, A_inv, dA))
    if norm_ai * norm_da >= 1.0:
        raise InapplicableBoundError(
            "normwise condition fails: ||A^-1|| ||dA|| >= 1",
            condition="normwise_denominator",
        )
    kappa = norm_ai * norm_a
    normwise = (kappa / (1.0 - kappa * norm_da / norm_a)
                * (numerics.p_norm(db, p) / norm_b + norm_da / norm_a))

    K = np.abs(A_inv)
    t = epsilon * numerics.p_norm(K @ np.abs(A), p)
    if t >= 1.0:
        raise InapplicableBoundError(
            "componentwise condition fails: eps || |A^-1| |A| || >= 1",
            condition="componentwise_denominator",
        )
    comp = (
        epsilon * numerics.p_norm(K @ (np.abs(b) + np.abs(A) @ np.abs(x_star)), p)
        / ((1.0 - t) * norm_x)
    )
    return normwise, comp


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
    norms = [numerics.p_norm(m, 2) for m in (pert.dA, pert.dB)]
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
    w = _relative_coefficient(problem, db, *norms, 2)
    report = _relative_bound(perturbed, w, None, 2)
    bounds = {est.field: getattr(report, est.field) for est in ESTIMATORS.values()}
    return ExperimentRecord(n=problem.n, epsilon=epsilon, r=r, w=w, delta=None, **bounds)


def _componentwise_delta(problem, x_star, epsilon):
    """The damped ``componentwise_bound`` at ``epsilon``, an estimate; None
    when it does not apply."""
    try:
        return componentwise_bound(problem, x_star, epsilon, p=2, kernel="damped")
    except InapplicableBoundError:
        return None
