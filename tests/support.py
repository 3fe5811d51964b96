"""Shared instance generators for the test suite.

Everything here is deterministic given the caller's rng, so tests freeze
behaviour by fixing their seeds.
"""
import numpy as np

from avebounds import AveProblem, LcpProblem, Perturbation, TYPE_ONE, sign_box_vertices


def spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(m))))


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
    stack = sign_members(problem.A, problem.B, sign_box_vertices(problem.n))
    return np.abs(np.linalg.inv(stack)).max(axis=0)


def regular_sign_family(rng, n, form=TYPE_ONE):
    """A pair whose sign family is regular although all three solvability
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


def sign_members(A, B, d_values, left=False):
    """Stack of A - B diag(d) (A - diag(d) B when ``left``) per row of d_values."""
    if left:
        return A[None, :, :] - d_values[:, :, None] * B[None, :, :]
    return A[None, :, :] - B[None, :, :] * d_values[:, None, :]
