"""Shared instance generators and reference formulas for the test suite.

Everything here is deterministic given the caller's rng, so tests freeze
behaviour by fixing their seeds.  The references are plain textbook
formulas, without validation, that the package's bounds are checked
against.
"""
from fractions import Fraction
from itertools import product

import numpy as np

from avebounds import AveProblem, LcpProblem, Perturbation, TYPE_ONE, p_norm


def spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def normwise_linear_bound(A, dA, b, db, p=2):
    """The Banach-lemma bound of A x = b under (dA, db),
    kappa / (1 - kappa ||dA||/||A||) (||db||/||b|| + ||dA||/||A||) with
    kappa = ||A^-1|| ||A||; its premise ||A^-1|| ||dA|| < 1 is the caller's."""
    norm_a, norm_da = p_norm(A, p), p_norm(dA, p)
    kappa = p_norm(np.linalg.inv(A), p) * norm_a
    return (kappa / (1.0 - kappa * norm_da / norm_a)
            * (p_norm(db, p) / p_norm(b, p) + norm_da / norm_a))


def componentwise_linear_bound(A, b, x_star, eps, p=2):
    """The textbook bound of A x = b under |dA| <= eps |A|, |db| <= eps |b|,
    eps || |A^-1| (|b| + |A| |x*|) || / ((1 - eps || |A^-1| |A| ||) ||x*||);
    its premise, a positive denominator, is the caller's."""
    K = np.abs(np.linalg.inv(A))
    damping = eps * p_norm(K @ np.abs(A), p)
    return (eps * p_norm(K @ (np.abs(b) + np.abs(A) @ np.abs(x_star)), p)
            / ((1.0 - damping) * p_norm(x_star, p)))


def shifted_norm_slacks(A, alpha, p=2):
    """With s = ||alpha I + A|| + ||alpha I - A|| and alpha > 0: the slacks
    ``(s - (2 alpha - ||A||), s - (alpha + ||A||))`` of two triangle
    inequalities, the second None unless ||A|| <= alpha.  A norm that breaks
    either makes its slack materially negative."""
    eye, norm_a = np.eye(A.shape[0]), p_norm(A, p)
    s = p_norm(alpha * eye + A, p) + p_norm(alpha * eye - A, p)
    return s - (2.0 * alpha - norm_a), (s - (alpha + norm_a) if norm_a <= alpha else None)


def random_solvable(rng, n, rho_cap=0.9, form=TYPE_ONE):
    """Random AVE with a diagonally inflated A; B is rescaled so that the
    absolute iteration matrix has spectral radius uniform in (0.3, rho_cap),
    which keeps the fixed-point solver contractive."""
    A = rng.normal(size=(n, n))
    A += (1.2 + np.linalg.norm(A, 2)) * np.eye(n)
    B = rng.normal(size=(n, n))
    K = np.linalg.inv(A) @ B if form == TYPE_ONE else B @ np.linalg.inv(A)
    rho = spectral_radius(np.abs(K))
    target = rng.uniform(0.3, rho_cap)
    if rho > 0:
        B *= target / rho
    b = rng.normal(size=n)
    return AveProblem(A, B, b, form)


def random_perturbation(rng, n, scale):
    """Unstructured dense perturbation at the given absolute scale."""
    return Perturbation(
        scale * rng.normal(size=(n, n)),
        scale * rng.normal(size=(n, n)),
        scale * rng.normal(size=n),
    )


def envelope_perturbation(rng, problem, eps):
    """Perturbation drawn inside the componentwise envelope
    |dA| <= eps |A|, |dB| <= eps |B|, |db| <= eps |b|."""
    n = problem.n
    return Perturbation(
        eps * rng.uniform(-1, 1, (n, n)) * np.abs(problem.A),
        eps * rng.uniform(-1, 1, (n, n)) * np.abs(problem.B),
        eps * rng.uniform(-1, 1, n) * np.abs(problem.b),
        epsilon=eps,
    )


def random_hplus_lcp(rng, n):
    """Strictly row diagonally dominant M with positive diagonal, i.e. an
    H-matrix with positive diagonal, paired with an unrestricted q."""
    off = rng.normal(size=(n, n))
    np.fill_diagonal(off, 0.0)
    M = off.copy()
    np.fill_diagonal(M, np.abs(off).sum(axis=1) + rng.uniform(1.0, 3.0, size=n))
    return LcpProblem(M, rng.normal(size=n))


def vertex_mu2(problem):
    """Entrywise max of |(A - B diag(d))^-1| over all sign vertices.

    The entries of the inverse are ratios of multilinear functions of d and
    are coordinatewise monotone between their poles, so the maximum over the
    whole box is attained at a vertex; at small n this is exact."""
    stack = sign_members(problem.A, problem.B, box_vertices(problem.n))
    return np.abs(np.linalg.inv(stack)).max(axis=0)


def regular_sign_family(rng, n, form=TYPE_ONE):
    """A pair whose sign family is regular although both solvability
    screens fail.

    K = A^-1 B (B A^-1 for type2) is a permuted block diagonal of 2 x 2
    blocks [[1/2, 2], [-e, 1/2]] with e in [0.15, 0.35] (plus a 1 x 1 block
    [1/2] for odd n).  Each block's determinant of I - K D is
    (1 - d1/2)(1 - d2/2) + 2 e d1 d2 >= 0.75 - 2e > 0 on the whole box, so
    every member is nonsingular, while rho(|K|) = 1/2 + sqrt(2e) > 1.
    """
    K = np.zeros((n, n))
    for j in range(0, n - 1, 2):
        e = rng.uniform(0.15, 0.35)
        block = np.array([[0.5, 2.0], [-e, 0.5]])
        K[j:j + 2, j:j + 2] = block.T if rng.random() < 0.5 else block
    if n % 2:
        K[-1, -1] = 0.5
    perm = rng.permutation(n)
    K = K[perm][:, perm]
    A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    B = A @ K if form == TYPE_ONE else K @ A
    return AveProblem(A, B, np.ones(n), form)


def box_vertices(n, low=-1.0):
    """All 2**n vertices of {low, 1}**n, shape (2**n, n), in the order of
    ``core.sign_box_scan``: row k has d_j = 1 exactly when bit j of k is set.

    ``product`` varies its last factor fastest, so reversing each tuple
    makes d_0 the fastest, i.e. the lowest bit."""
    return np.array([t[::-1] for t in product((low, 1.0), repeat=n)])


def sign_members(A, B, d_values, left=False):
    """Stack of A - B diag(d) (A - diag(d) B when ``left``) per row of d_values."""
    if left:
        return A[None, :, :] - d_values[:, :, None] * B[None, :, :]
    return A[None, :, :] - B[None, :, :] * d_values[:, None, :]


def exact_vertex_signs(A, B, left=False, low=-1.0):
    """The set of signs (-1, 0 or 1) of the exact determinants of
    A - B diag(d) (A - diag(d) B when ``left``) over the vertices d of
    {low, 1}**n, with every float entry taken exactly as a ``Fraction``.
    Gaussian elimination in rationals; meant for n up to about 6."""
    n = A.shape[0]
    FA, FB = ([[Fraction(x) for x in row] for row in M.tolist()] for M in (A, B))
    signs = set()
    for d in box_vertices(n, low).astype(int).tolist():
        rows = [[FA[i][j] - (d[i] if left else d[j]) * FB[i][j] for j in range(n)]
                for i in range(n)]
        det = Fraction(1)
        for k in range(n):
            pivot = next((i for i in range(k, n) if rows[i][k]), None)
            if pivot is None:
                det = Fraction(0)
                break
            if pivot != k:
                rows[k], rows[pivot], det = rows[pivot], rows[k], -det
            det *= rows[k][k]
            for i in range(k + 1, n):
                factor = rows[i][k] / rows[k][k]
                rows[i][k:] = [a - factor * b for a, b in zip(rows[i][k:], rows[k][k:])]
        signs.add((det > 0) - (det < 0))
    return signs
