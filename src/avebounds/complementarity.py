"""Linear and horizontal linear complementarity problems via AVE transforms.

An LCP(M, q) asks for z >= 0 with w = M z + q >= 0 and z^T w = 0.  The
horizontal variant HLCP(M, N, q) asks for z, w >= 0 with M z - N w = q and
z^T w = 0 (N = I recovers an LCP up to the sign of q).  Both reduce to
absolute value equations through a change of variables, which lets every
error and perturbation bound in this package apply to them.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import numerics
from .bounds import NEUMANN, error_bound_report, upper_factor
from .core import AveProblem, TYPE_ONE, sign_box_scan
from .exceptions import InapplicableBoundError
from .perturbation import _relative_coefficient


@dataclass
class LcpProblem:
    M: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.M = numerics.as_square(self.M, "M")
        self.q = numerics.as_vector(self.q, "q", self.n)

    @property
    def n(self):
        return self.M.shape[0]


@dataclass
class HlcpProblem:
    M: np.ndarray
    N: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        self.M = numerics.as_square(self.M, "M")
        self.N = numerics.as_square(self.N, "N", self.n)
        self.q = numerics.as_vector(self.q, "q", self.n)

    @property
    def n(self):
        return self.M.shape[0]


@dataclass
class ComplementaritySolution:
    z: np.ndarray
    w: np.ndarray
    complementarity_gap: float


def lcp_to_ave(lcp):
    """Rewrite LCP(M, q) as the AVE (I + M) x - (I - M)|x| = -q.

    The substitution is z = |x| + x, w = |x| - x, which makes z and w
    complementary by construction.
    """
    eye = np.eye(lcp.n)
    return AveProblem(eye + lcp.M, eye - lcp.M, -lcp.q, TYPE_ONE)


def hlcp_to_ave(hlcp):
    """Rewrite HLCP(M, N, q) as ((M+N)/2) x - ((N-M)/2)|x| = q.

    Here z = (|x| + x)/2 and w = (|x| - x)/2.
    """
    return AveProblem(
        (hlcp.M + hlcp.N) / 2.0,
        (hlcp.N - hlcp.M) / 2.0,
        hlcp.q,
        TYPE_ONE,
    )


def recover_solution(problem, x):
    """Map a solution x of the AVE form of ``problem`` back to its
    complementary pair (z, w), by the substitution of ``lcp_to_ave`` or
    ``hlcp_to_ave``."""
    if not isinstance(problem, (LcpProblem, HlcpProblem)):
        raise TypeError(
            f"problem must be an LcpProblem or HlcpProblem, got {type(problem).__name__}")
    x = numerics.as_vector(x, "x", problem.n)
    z = np.abs(x) + x
    w = np.abs(x) - x
    if isinstance(problem, HlcpProblem):
        z, w = z / 2.0, w / 2.0
    return ComplementaritySolution(z, w, float(abs(z @ w)))


def lcp_min_residual(lcp, z):
    """Natural LCP residual min(z, M z + q), written in AVE style:

        ((M + I) z + q)/2 - |(M - I) z + q|/2

    Zero exactly at solutions; at z = 0 it reduces to min(0, q).
    """
    z = numerics.as_vector(z, "z", lcp.n)
    eye = np.eye(lcp.n)
    a = (lcp.M + eye) @ z + lcp.q
    b = (lcp.M - eye) @ z + lcp.q
    return 0.5 * a - 0.5 * np.abs(b)


def column_w_property(hlcp):
    """Whether (M, N) has the column W-property: all 2**n column
    representatives have determinants of one strict sign, which
    characterises unique solvability of the HLCP for every q.

    The representatives are the vertices of the sign family of
    ``hlcp_to_ave(hlcp)``: (M+N)/2 - (N-M)/2 diag(d) takes column j from M
    at d_j = +1 and from N at d_j = -1.  ValueError for n above
    ``SIGN_BOX_LIMIT``.
    """
    ave = hlcp_to_ave(hlcp)
    return sign_box_scan(ave.A, ave.B)[0] is None


def hlcp_error_bounds(hlcp, p=2):
    """Error-bound report for the AVE equivalent of an HLCP.

    The transform's A - B and A + B are M and N, so at p = 1 and 2 the
    report's lower factor works out to max(||M||_p, ||N||_p).  At p = inf
    it is ||max(|M|, |N|)||_inf, the max taken entry by entry, since
    (|A + B| + |A - B|) / 2 = max(|M|, |N|); it can exceed both norms.
    """
    return error_bound_report(hlcp_to_ave(hlcp), p)


def lcp_comparison_bound(M, p=2):
    """Solution-error constant ||<M>^-1 max(D_M, I)||_p for an LCP matrix.

    <M> is the comparison matrix and D_M the diagonal part of M; the bound
    applies when <M> is nonsingular with entrywise nonnegative inverse
    (an H-matrix with positive diagonal).  Inapplicable otherwise.
    """
    M = numerics.as_square(M, "M")
    p = numerics.check_norm(p)
    comp = numerics.comparison_matrix(M)
    comp_inv = numerics.inverse(comp, "comparison matrix", "comparison_nonsingular")
    # Negative beyond rounding relative to the largest entry, at any scale.
    if np.any(comp_inv < -1e-12 * np.abs(comp_inv).max()):
        raise InapplicableBoundError(
            "comparison-matrix inverse has negative entries",
            condition="comparison_inverse_nonnegative",
        )
    # <M> drops the diagonal's signs: M = [[-2, .5], [.3, 3]] has two LCP solutions.
    if np.any(np.diag(M) <= 0):
        raise InapplicableBoundError(
            "M has a nonpositive diagonal entry", condition="positive_diagonal")
    d_cap = np.diag(np.maximum(np.diag(M), 1.0))
    return numerics.p_norm(comp_inv @ d_cap, p)


def hlcp_perturb_bound(hlcp, dM, dN, dq, method=NEUMANN, p=2):
    """Relative solution-perturbation bound for an HLCP, stated through
    ``hlcp_to_ave(hlcp)``.

    The bound is ``factor * w`` with ``factor`` the ``upper_factor`` of
    the perturbed AVE pair ((M+N+dM+dN)/2, (N-M+dN-dM)/2) and

        w = (||dq||/||q||) (||M+N|| + ||M-N||)/2 + (||dM+dN|| + ||dM-dN||)/2

    the relative coefficient of the AVE perturbation dA = (dM+dN)/2,
    dB = (dN-dM)/2.  For neumann and norm_ratio this is the tau or nu of
    ``general_relative_bound``.  For singular_gap it is not upsilon:
    ``upper_factor`` takes the certified full singular-value gap, where
    upsilon takes the gap of truncated spectra, an estimate.
    """
    p = numerics.check_norm(p)
    dM = numerics.as_square(dM, "dM", hlcp.n)
    dN = numerics.as_square(dN, "dN", hlcp.n)
    dq = numerics.as_vector(dq, "dq", hlcp.n)
    ave = hlcp_to_ave(hlcp)
    dA, dB = (dM + dN) / 2.0, (dN - dM) / 2.0
    w = _relative_coefficient(ave, dq, numerics.p_norm(dA, p), numerics.p_norm(dB, p), p)
    return upper_factor(ave.perturbed(dA, dB, dq), method, p) * w


def beta_factor(M, p=2):
    """Exact max ||(I - L + L M)^-1 L||_p over diagonal L with entries
    lam in [0,1], from the 2**n vertices lam in {0,1}^n; n <= ``SIGN_BOX_LIMIT``.

    I - L + L M is the left-form sign family I - diag(lam) (I - M).  When
    its vertex determinants lack one strict common sign, the LCP lacks the
    uniqueness property: a warning names the first offending diagonal and
    the result is +inf.  Otherwise, by Sherman-Morrison, every entry of the
    product is a ratio of affine functions of lam_k with one pole-free
    denominator, so each norm peaks at a vertex.
    """
    M = numerics.as_square(M, "M")
    p = numerics.check_norm(p)
    eye = np.eye(M.shape[0])
    witness, beta = sign_box_scan(eye, eye - M, True, p, zero_one=True)
    if witness is not None:
        warnings.warn(f"singular member at diagonal {np.array2string(witness, precision=3)}; "
                      "the uniqueness factor is unbounded")
    return beta


@dataclass
class LcpPerturbFactors:
    """Constants used by the region perturbation bound.

    ``beta`` is the uniqueness factor of the reference matrix, ``eta`` the
    radius parameter of the matrix region (0 <= eta < 1), ``alpha`` the
    inflated factor beta / (1 - eta) >= beta valid across the region, and
    ``delta`` the scale epsilon * beta * ||M|| (+inf when beta is).
    """

    beta: float
    eta: float
    alpha: float
    delta: float

    def __post_init__(self):
        if not 0.0 <= self.eta < 1.0:
            raise ValueError("eta must lie in [0, 1)")
        if not (self.beta >= 0 and self.delta >= 0):
            raise ValueError("beta and delta must be nonnegative")
        if not self.alpha >= self.beta:
            raise ValueError("alpha must be at least beta")


def region_factors(M, eta, epsilon, p=2):
    """Build LcpPerturbFactors for matrix M with region radius eta and
    relative perturbation scale epsilon."""
    if not epsilon >= 0:
        raise ValueError("epsilon must be nonnegative")
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    beta = beta_factor(M, p)
    return LcpPerturbFactors(
        beta=beta,
        eta=eta,
        alpha=beta / (1.0 - eta),
        delta=float("inf") if np.isinf(beta) else epsilon * beta * numerics.p_norm(M, p),
    )


def lcp_pair_bounds(lcp_a, lcp_b, p=2):
    """Distance bounds between the solutions of two LCPs (A, b) and (B, c).

    Returns ``(absolute, relative)``:

        absolute = beta(A) (beta(B) ||A - B|| ||(-c)+|| + ||b - c||)
        relative = beta(B) (||A - B|| + ||b - c|| ||A|| / ||(-b)+||)

    Both problems are assumed uniquely solvable; a +inf beta factor makes
    the bounds +inf.  When ||(-b)+|| = 0 the relative form is undefined
    and None is returned in its place.
    """
    p = numerics.check_norm(p)
    if lcp_a.n != lcp_b.n:
        raise ValueError("the two problems must have the same dimension")
    beta_a = beta_factor(lcp_a.M, p)
    beta_b = beta_factor(lcp_b.M, p)
    norm_ab = numerics.p_norm(lcp_a.M - lcp_b.M, p)
    norm_bc = numerics.p_norm(lcp_a.q - lcp_b.q, p)
    neg_c = numerics.p_norm(numerics.positive_part(-lcp_b.q), p)
    neg_b = numerics.p_norm(numerics.positive_part(-lcp_a.q), p)

    if np.isinf(beta_a) or np.isinf(beta_b):
        # Not inf * 0, which is NaN when a norm it multiplies vanishes.
        return float("inf"), (float("inf") if neg_b > 0 else None)
    absolute = beta_a * (beta_b * norm_ab * neg_c + norm_bc)
    relative = None
    if neg_b > 0:
        relative = beta_b * (norm_ab + norm_bc * numerics.p_norm(lcp_a.M, p) / neg_b)
    return absolute, relative


def lcp_region_bound(factors, norm_ab, negc_norm, bc_norm):
    """Worst-case pair bounds over a matrix region.

    For any matrix within the ``factors.eta`` region of the reference and
    data deviations measured by ``norm_ab`` (matrix), ``negc_norm``
    (positive part of the negated second right-hand side) and ``bc_norm``
    (right-hand side difference):

        absolute = alpha^2 * norm_ab * negc_norm + alpha * bc_norm   (+inf if alpha is)
        relative = 2 delta / (1 - delta)        (needs delta < 1)
    """
    for name, val in (("norm_ab", norm_ab), ("negc_norm", negc_norm), ("bc_norm", bc_norm)):
        if not 0 <= val < np.inf:
            raise ValueError(f"{name} must be finite and nonnegative")
    # Not inf * 0, which is NaN for zero deviations.
    absolute = float("inf") if np.isinf(factors.alpha) else (
        factors.alpha**2 * norm_ab * negc_norm + factors.alpha * bc_norm)
    if factors.delta >= 1.0:
        raise InapplicableBoundError(
            f"relative form needs delta < 1, got {factors.delta:.6g}",
            condition="delta",
        )
    relative = 2.0 * factors.delta / (1.0 - factors.delta)
    return absolute, relative
