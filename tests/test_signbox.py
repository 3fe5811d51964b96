"""The sign-box kernel: regularity is decided by the vertex determinants,
and the vertex enumerations of brute_force_alpha and beta_factor are exact
maxima over the whole box."""
import numpy as np
import pytest

from avebounds import (
    AveProblem,
    HlcpProblem,
    TYPE_ONE,
    TYPE_TWO,
    beta_factor,
    brute_force_alpha,
    column_w_property,
    sign_box_vertices,
    solvability_report,
)
from avebounds.core import VERDICT_INCONCLUSIVE, VERDICT_PROVEN, sign_box_scan

from support import random_hplus_lcp, regular_sign_family, sign_members

NORMS = (1, 2, np.inf)


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_regular_family_with_tiny_vertex_determinants_is_proven(form):
    # At n = 12 some vertex determinant lies below an absolute floor of
    # 1e-12 * scale**n, yet every vertex determinant is positive, which
    # proves the whole box regular.
    n = 12
    problem = regular_sign_family(np.random.default_rng(4), n, form)
    dets = np.linalg.det(sign_members(problem.A, problem.B, sign_box_vertices(n),
                                      left=form == TYPE_TWO))
    scale = max(np.linalg.norm(problem.A, np.inf), np.linalg.norm(problem.B, np.inf), 1.0)
    assert np.all(dets > 0)
    assert dets.min() <= 1e-12 * scale**n
    rep = solvability_report(problem)
    assert all(not c.passed for c in rep.checks[:3])
    assert rep.verdict == VERDICT_PROVEN
    assert rep.checks[-1].passed


def _w_pair(rng, n):
    """(M, N) = (T P D1, T D2) with P strictly diagonally dominant with a
    positive diagonal (a P-matrix), so the pair has the column W-property."""
    T = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    off = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    P = off.copy()
    np.fill_diagonal(P, np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return T @ P * rng.uniform(0.5, 2.0, n)[None, :], T * rng.uniform(0.5, 2.0, n)[None, :]


@pytest.mark.parametrize("seed", [10, 24, 38])
def test_column_w_rejects_a_representative_with_repeated_columns(seed):
    # The representative taking column j from M and column k from N has two
    # equal columns; its computed determinant is rounding noise that, for
    # these seeds, is nonzero and of the common sign.
    n = 6
    rng = np.random.default_rng(seed)
    M, N = _w_pair(rng, n)
    assert column_w_property(HlcpProblem(M, N, np.ones(n)))
    j, k = rng.choice(n, size=2, replace=False)
    M[:, j] = N[:, k]
    assert not column_w_property(HlcpProblem(M, N, np.ones(n)))


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_mixed_vertex_signs_give_infinite_alpha(seed):
    # A sign change between two vertices puts a singular member on the
    # segment joining them, although no sampled point need hit it.
    n = 4
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    B = rng.standard_normal((n, n))
    dets = np.linalg.det(sign_members(A, B, sign_box_vertices(n)))
    assert dets.min() < 0.0 < dets.max()
    problem = AveProblem(A, B, np.zeros(n))
    assert brute_force_alpha(problem) == np.inf
    assert solvability_report(problem).verdict == VERDICT_INCONCLUSIVE


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_vertex_verdict_does_not_depend_on_scale(scale):
    A, B = np.eye(2), np.array([[0.5, 2.0], [-0.3, 0.5]])
    problem = AveProblem(scale * A, scale * B, np.zeros(2))
    assert solvability_report(problem).verdict == VERDICT_PROVEN
    assert brute_force_alpha(problem) == pytest.approx(brute_force_alpha(
        AveProblem(A, B, np.zeros(2))) / scale, rel=1e-12)


def test_zero_column_counts_as_singular():
    # Under the pytest settings a divide-by-zero warning would fail this.
    A = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 1.0]])
    problem = AveProblem(A, np.zeros((3, 3)), np.zeros(3))
    assert brute_force_alpha(problem) == np.inf
    assert solvability_report(problem).verdict == VERDICT_INCONCLUSIVE
    with pytest.warns(UserWarning):
        assert beta_factor(np.diag([1.0, 0.0])) == np.inf


def _regular(stacks):
    """Every determinant of one strict sign, well away from rounding size."""
    dets = np.linalg.det(stacks)
    hadamard = np.prod(np.linalg.norm(stacks, axis=1), axis=1)
    return (np.all(dets > 0) or np.all(dets < 0)) and np.min(np.abs(dets) / hadamard) > 1e-6


def test_vertex_maximum_is_exact_and_dominates_interior_samples():
    # brute_force_alpha and beta_factor equal the largest norm over the
    # vertices, computed here independently, and no interior point exceeds it.
    rng = np.random.default_rng(20261018)
    worst = 0.0
    families = 0
    while families < 1000:
        n = int(rng.integers(1, 7))
        if families % 2 == 0:
            form = (TYPE_ONE, TYPE_TWO)[families // 2 % 2]
            A = rng.standard_normal((n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            B = rng.uniform(0.1, 1.5) * rng.standard_normal((n, n))
            vertices, interior = sign_box_vertices(n), rng.uniform(-1.0, 1.0, (2000, n))
            left, scaled = form == TYPE_TWO, False
        else:
            M = rng.standard_normal((n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            A, B = np.eye(n), np.eye(n) - M
            vertices = (sign_box_vertices(n) + 1.0) / 2.0
            interior = rng.uniform(0.0, 1.0, (2000, n))
            left, scaled = True, True

        def inverses(d):
            inv = np.linalg.inv(sign_members(A, B, d, left))
            return inv * d[:, None, :] if scaled else inv

        if not _regular(sign_members(A, B, vertices, left)):
            continue
        families += 1
        at_vertices, sampled = inverses(vertices), inverses(interior)
        for p in NORMS:
            if scaled:
                exact = beta_factor(M, p)
            else:
                exact = brute_force_alpha(AveProblem(A, B, np.zeros(n), form), p)
            assert exact == pytest.approx(
                np.linalg.norm(at_vertices, ord=p, axis=(1, 2)).max(), rel=1e-12)
            worst = max(worst, np.linalg.norm(sampled, ord=p, axis=(1, 2)).max() / exact - 1.0)
    assert worst <= 1e-12, worst


# n = 13 is the first size whose 2**n vertices span two chunks of the scan.
CHUNKED_N = 13


def _count_inverses(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)
    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def test_sign_flip_between_chunks_is_found(monkeypatch):
    # det(I - B diag(d)) = 1 - 2 d_13 is 3 on the first 4096 vertices and
    # -1 from vertex 4096 on, so the first chunk alone looks regular.
    n = CHUNKED_N
    A, B = np.eye(n), np.diag([0.0] * (n - 1) + [2.0])
    vertices = sign_box_vertices(n)
    witness, peak = sign_box_scan(A, B, vertices, p=2)
    assert np.array_equal(witness, vertices[4096]) and peak == np.inf
    calls = _count_inverses(monkeypatch)
    assert brute_force_alpha(AveProblem(A, B, np.zeros(n))) == np.inf
    assert calls == [(4096, n, n)]
    assert solvability_report(AveProblem(A, B, np.zeros(n))).verdict == VERDICT_INCONCLUSIVE


def test_witness_in_first_chunk_forms_no_inverse(monkeypatch):
    n = CHUNKED_N
    A, B = np.eye(n), np.diag([2.0] + [0.0] * (n - 1))
    calls = _count_inverses(monkeypatch)
    assert brute_force_alpha(AveProblem(A, B, np.zeros(n))) == np.inf
    with pytest.warns(UserWarning):
        assert beta_factor(np.diag([0.0] + [1.0] * (n - 1))) == np.inf
    assert calls == []


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_chunked_vertex_maximum_matches_an_independent_one(form):
    n = CHUNKED_N
    rng = np.random.default_rng(13)
    problem = regular_sign_family(rng, n, form)
    left = form == TYPE_TWO
    alpha_inverses = np.linalg.inv(
        sign_members(problem.A, problem.B, sign_box_vertices(n), left))
    M = random_hplus_lcp(rng, n).M
    lam = (sign_box_vertices(n) + 1.0) / 2.0
    beta_products = np.linalg.inv(sign_members(np.eye(n), np.eye(n) - M, lam, True)) \
        * lam[:, None, :]
    for p in NORMS:
        assert brute_force_alpha(problem, p) == pytest.approx(
            np.linalg.norm(alpha_inverses, ord=p, axis=(1, 2)).max(), rel=1e-12)
        assert beta_factor(M, p) == pytest.approx(
            np.linalg.norm(beta_products, ord=p, axis=(1, 2)).max(), rel=1e-12)
