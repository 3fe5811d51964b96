import numpy as np
import pytest

from avebounds import (
    AveProblem,
    TYPE_ONE,
    TYPE_TWO,
    residual,
    sign_diagonal,
    solvability_report,
)
from avebounds import core
from avebounds.core import (
    VERDICT_FAILS,
    VERDICT_INCONCLUSIVE,
    VERDICT_PROVEN,
)

from support import random_solvable, spectral_radius


def _no_eigvals(*args, **kwargs):
    raise AssertionError("np.linalg.eigvals ran")


class TestAveProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            AveProblem(np.eye(2), np.eye(3), np.zeros(2))
        with pytest.raises(ValueError):
            AveProblem(np.eye(2), np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            AveProblem(np.eye(2), np.eye(2), np.zeros(2), form="type3")

    def test_perturbed_preserves_form(self):
        p = AveProblem(np.eye(2), np.zeros((2, 2)), np.ones(2), TYPE_TWO)
        q = p.perturbed(np.eye(2), np.eye(2), np.ones(2))
        assert q.form == TYPE_TWO
        assert np.array_equal(q.A, 2 * np.eye(2))
        assert np.array_equal(q.b, 2 * np.ones(2))
        # original untouched
        assert np.array_equal(p.A, np.eye(2))


    def test_perturbed_rejects_mis_sized_deltas(self):
        # A 1 x 1 dA or a scalar db would broadcast over the whole problem.
        p = AveProblem(4 * np.eye(3), np.eye(3), np.ones(3))
        with pytest.raises(ValueError, match=r"dA has shape \(1, 1\), expected \(3, 3\)"):
            p.perturbed(np.ones((1, 1)), np.zeros((3, 3)), np.zeros(3))
        with pytest.raises(ValueError, match="dB: expected a non-empty 2-d matrix"):
            p.perturbed(np.zeros((3, 3)), np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="db has length 1, expected 3"):
            p.perturbed(np.zeros((3, 3)), np.zeros((3, 3)), 0.5)


class TestResidual:
    def test_scalar_type1(self):
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        assert residual(p, [4.0])[0] == pytest.approx(1.0)

    def test_matrix_type1(self):
        p = AveProblem([[1.0, 2.0], [3.0, 4.0]], np.eye(2), [0.0, 0.0])
        r = residual(p, [1.0, -1.0])
        assert np.allclose(r, [-2.0, -2.0])

    def test_matrix_type2(self):
        p = AveProblem(
            [[1.0, 2.0], [3.0, 4.0]],
            [[1.0, 0.0], [0.0, -2.0]],
            [0.0, 0.0],
            TYPE_TWO,
        )
        r = residual(p, [1.0, -1.0])
        assert np.allclose(r, [-2.0, -3.0])

    def test_rejects_wrong_length(self):
        p = AveProblem(np.eye(2), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            residual(p, [1.0, 2.0, 3.0])


class TestSignDiagonal:
    def test_literals(self):
        d = sign_diagonal([3.0, -2.0, 0.0, 2.0], [1.0, -5.0, 0.0, -1.0])
        assert np.allclose(d, [1.0, -1.0, 0.0, 1.0 / 3.0])

    def test_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(size=6)
            b = rng.normal(size=6)
            d = sign_diagonal(a, b)
            assert np.all(np.abs(d) <= 1.0)
            assert np.allclose(d * (a - b), np.abs(a) - np.abs(b), atol=1e-12)

    def test_residual_difference_factorisation(self):
        # r(x) - r(y) equals (A - B diag(d))(x - y) exactly, d from the pair.
        rng = np.random.default_rng(23)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            A = rng.normal(size=(n, n))
            B = rng.normal(size=(n, n))
            b = rng.normal(size=n)
            x = rng.normal(size=n)
            y = rng.normal(size=n)

            p1 = AveProblem(A, B, b, TYPE_ONE)
            d = sign_diagonal(x, y)
            lhs = residual(p1, x) - residual(p1, y)
            rhs = (A - B * d[None, :]) @ (x - y)
            assert np.allclose(lhs, rhs, atol=1e-10)

            p2 = AveProblem(A, B, b, TYPE_TWO)
            d2 = sign_diagonal(B @ x, B @ y)
            lhs2 = residual(p2, x) - residual(p2, y)
            rhs2 = (A - d2[:, None] * B) @ (x - y)
            assert np.allclose(lhs2, rhs2, atol=1e-10)


class TestSolvabilityReport:
    def test_proven_by_singular_value_gap(self):
        # sigma_min(A) = 1 > sigma_max(B) = 0.9849: the gap gives
        # ||A^-1 B||_2 <= 0.9849 < 1, so the singular-ratio screen proves it.
        p = AveProblem(np.eye(2), [[0.9, -0.4], [0.4, 0.9]], np.zeros(2))
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_PROVEN
        assert rep.proven
        ratio = next(c for c in rep.checks if c.name == "largest_singular_ratio")
        assert ratio.passed
        assert ratio.value == pytest.approx(0.9848857801796105, abs=1e-10)

    def test_proven_by_spectral_radius_alone(self):
        # The singular-ratio condition fails here, the radius passes.
        p = AveProblem([[2.0, 1.0], [0.0, 2.0]], 1.6 * np.eye(2), np.zeros(2))
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_PROVEN
        by_name = {c.name: c for c in rep.checks}
        assert by_name["spectral_radius"].passed
        assert by_name["spectral_radius"].value == pytest.approx(0.8, abs=1e-12)
        assert "singular_value_gap" not in by_name
        assert not by_name["largest_singular_ratio"].passed

    def test_eigvals_estimate_below_one_is_no_proof(self):
        # Each diagonal block of |K| = B has rows summing to exactly 1, so
        # rho(|K|) = 1 and I - B is exactly singular.  |K| is reducible, the
        # power bracket does not close, and eigvals estimates 1 - 1e-16;
        # without the contraction certificate that is not a pass.
        B = np.array([[0.1875, 0.8125, 0.5, 0.0], [0.8125, 0.1875, 0.25, 0.125],
                      [0.0, 0.0, 0.0625, 0.9375], [0.0, 0.0, 0.75, 0.25]])
        rep = solvability_report(AveProblem(np.eye(4), B, np.ones(4)))
        radius = {c.name: c for c in rep.checks}["spectral_radius"]
        assert radius.value == pytest.approx(1.0, abs=1e-12) and not radius.passed
        assert rep.verdict == VERDICT_INCONCLUSIVE

    def test_unit_row_sum_blocks_are_never_proven(self):
        # Dyadic block upper triangular |K| whose diagonal blocks have exact
        # unit row sums: rho(|K|) = 1 exactly, and I - |K| is singular.
        def unit_rows(k):
            return np.array([rng.multinomial(16, rng.dirichlet(np.ones(k)))
                             for _ in range(k)]) / 16.0

        rng = np.random.default_rng(20261020)
        estimated_below_one = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            B = np.zeros((n, n))
            B[:k, :k], B[k:, k:] = unit_rows(k), unit_rows(n - k)
            B[:k, k:] = rng.integers(0, 16, size=(k, n - k)) / 16.0
            form = (TYPE_ONE, TYPE_TWO)[n % 2]
            rep = solvability_report(AveProblem(np.eye(n), B, np.ones(n), form))
            radius = {c.name: c for c in rep.checks}["spectral_radius"]
            estimated_below_one += radius.value < 1.0
            assert not radius.passed and rep.verdict != VERDICT_PROVEN
        assert estimated_below_one > 0

    @pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
    def test_dense_radius_without_eigensolve(self, form, monkeypatch):
        # rho(|K|) in (0.3, 0.9) on random dense pairs, and 1.25 on a pair
        # with K = 1.25 H, H >= 0 row-stochastic: the reported radius is the
        # oracle's, no eigvals runs, and the screen's one inverse is of A
        rng = np.random.default_rng(20261018)
        problems = [random_solvable(rng, n, form=form) for n in (40, 160, 400)]
        n = 40
        A = 3.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
        H = np.abs(rng.standard_normal((n, n)))
        H /= H.sum(axis=1, keepdims=True)
        B = A @ (1.25 * H) if form == TYPE_ONE else 1.25 * H @ A
        problems.append(AveProblem(A, B, np.ones(n), form))
        for problem in problems:
            A_inv = np.linalg.inv(problem.A)
            K = A_inv @ problem.B if form == TYPE_ONE else problem.B @ A_inv
            want = spectral_radius(np.abs(K))
            inverted, inv = [], np.linalg.inv
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvals", _no_eigvals)
                patch.setattr(np.linalg, "inv",
                              lambda a, *args, **kw: inverted.append(a.shape) or inv(a, *args, **kw))
                radius = {c.name: c for c in solvability_report(problem).checks}[
                    "spectral_radius"]
            assert inverted == [(problem.n, problem.n)]
            assert radius.value == pytest.approx(want, rel=1e-10)
            assert radius.passed == (want < 1.0)
        assert radius.value == pytest.approx(1.25, rel=1e-10) and not radius.passed

    def test_proven_when_family_regular(self):
        # Both sufficient conditions fail, yet every A - B diag(d) with
        # d in the unit box is nonsingular (the determinant is positive at
        # all four vertices and bilinear in d).
        p = AveProblem(np.eye(2), [[0.5, 2.0], [-0.3, 0.5]], np.zeros(2))
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_PROVEN
        assert rep.proven
        by_name = {c.name: c for c in rep.checks}
        assert not by_name["spectral_radius"].passed
        assert not by_name["largest_singular_ratio"].passed
        assert rep.checks[-1].name == "sign_family_nonsingular"
        assert rep.checks[-1].passed

    def test_inconclusive_on_singular_vertex(self):
        p = AveProblem(np.diag([2.0, 1.0]), np.eye(2), np.zeros(2))
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_INCONCLUSIVE
        assert not rep.checks[-1].passed
        assert "singular member" in rep.checks[-1].note

    def test_fails_when_dimension_over_limit(self, monkeypatch):
        # Both screens fail at n = 21 (rho = sigma = 1), one above the
        # sign-box limit, so no vertex is enumerated.
        def refuse(*args, **kwargs):
            raise AssertionError("sign box enumerated above the limit")

        n = 21
        monkeypatch.setattr(core, "sign_box_scan", refuse)
        A = np.diag([2.0] + [1.0] * (n - 1))
        rep = solvability_report(AveProblem(A, np.eye(n), np.zeros(n)))
        assert rep.verdict == VERDICT_FAILS
        assert [c.name for c in rep.checks] == ["spectral_radius", "largest_singular_ratio"]
        assert not any(c.passed for c in rep.checks)

    def test_gate_failing_A_over_the_limit_fails(self, monkeypatch):
        # A = diag(1, ..., 1, 1e-16) fails the 1e14 inverse gate and B = 0.
        # Both screens need A^-1 and n = 21 is over the sign-box limit, so
        # nothing proves the pair, as with any other screen built on A.
        def refuse(*args, **kwargs):
            raise AssertionError("sign box enumerated above the limit")

        n = 21
        monkeypatch.setattr(core, "sign_box_scan", refuse)
        A = np.diag([1.0] * (n - 1) + [1e-16])
        rep = solvability_report(AveProblem(A, np.zeros((n, n)), np.ones(n)))
        assert rep.verdict == VERDICT_FAILS
        assert all(c.value == np.inf and not c.passed for c in rep.checks)
        assert [c.name for c in rep.checks] == ["spectral_radius", "largest_singular_ratio"]

    @pytest.mark.parametrize("A", [
        np.ones((3, 3)),
        np.outer([1.0, 2.0, 3.0], [0.3, 0.7, 1.1]),
    ], ids=["ones", "rank-one"])
    def test_singular_A_with_zero_B_is_not_proven(self, A):
        # A x = b has no unique solution.  The computed sigma_min(A) is
        # rounding noise above sigma_max(B) = 0, which a gap screen took
        # for a proof.
        rep = solvability_report(AveProblem(A, np.zeros((3, 3)), np.ones(3)))
        assert rep.verdict == VERDICT_INCONCLUSIVE
        assert not any(c.passed for c in rep.checks)

    @pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
    def test_no_svd(self, form, monkeypatch):
        # A nonsymmetric pair would take an SVD for each of A and B.
        problem = random_solvable(np.random.default_rng(40), 40, form=form)
        assert not np.array_equal(problem.A, problem.A.T)
        assert not np.array_equal(problem.B, problem.B.T)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        assert solvability_report(problem).verdict == VERDICT_PROVEN
        assert calls == []

    @pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
    def test_singular_value_gap_implies_the_ratio_screen(self, form):
        # sigma_min(A) > (1 + 1e-9) sigma_max(B) gives ||K||_2 < 1, so the
        # ratio screen proves every such pair; cond(A) is up to 1e8.  Half
        # the pairs tilt B toward A's weakest direction (type2: B's rows
        # toward its right singular vector), which puts ||K||_2 within
        # about 1e-9 of 1.
        rng = np.random.default_rng(20261019)
        for k in range(500):
            n = int(rng.integers(2, 9))
            U, _ = np.linalg.qr(rng.normal(size=(n, n)))
            V, _ = np.linalg.qr(rng.normal(size=(n, n)))
            A = (U * np.geomspace(10.0 ** rng.uniform(0, 8), 1.0, n)) @ V.T
            u, s, vt = np.linalg.svd(A)
            W = rng.normal(size=(n, n))
            if k % 2:
                W = 1e-3 * W + (np.outer(u[:, -1], W[0]) if form == TYPE_ONE
                                else np.outer(W[0], vt[-1]))
            B = W * (s[-1] / (1.0 + 2e-9) / np.linalg.svd(W, compute_uv=False)[0])
            assert s[-1] > (1.0 + 1e-9) * np.linalg.svd(B, compute_uv=False)[0]
            rep = solvability_report(AveProblem(A, B, np.ones(n), form))
            by_name = {c.name: c for c in rep.checks}
            assert list(by_name) == ["spectral_radius", "largest_singular_ratio"]
            assert rep.verdict == VERDICT_PROVEN
            assert by_name["largest_singular_ratio"].passed, (k, by_name)

    def test_singular_A_is_reported_not_raised(self):
        p = AveProblem([[0.0]], [[0.0]], [0.0])
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_INCONCLUSIVE
        by_name = {c.name: c for c in rep.checks}
        assert by_name["spectral_radius"].value == np.inf
        assert "singular" in by_name["spectral_radius"].note

    def test_type2_mirrors_iteration_matrix(self):
        # type1 uses A^-1 B, type2 uses B A^-1; with A = diag(1, 4) and a
        # nilpotent B the singular-ratio check sees 2.0 one way and 0.5 the
        # other, so the orderings are genuinely different.
        A = np.diag([1.0, 4.0])
        B = np.array([[0.0, 2.0], [0.0, 0.0]])
        rep1 = solvability_report(AveProblem(A, B, np.zeros(2), TYPE_ONE))
        rep2 = solvability_report(AveProblem(A, B, np.zeros(2), TYPE_TWO))
        ratio1 = next(c for c in rep1.checks if c.name == "largest_singular_ratio")
        ratio2 = next(c for c in rep2.checks if c.name == "largest_singular_ratio")
        assert ratio1.value == pytest.approx(2.0, abs=1e-12)
        assert not ratio1.passed
        assert ratio2.value == pytest.approx(0.5, abs=1e-12)
        assert ratio2.passed
        # both are proven anyway: the absolute iteration matrix is nilpotent
        assert rep1.verdict == VERDICT_PROVEN
        assert rep2.verdict == VERDICT_PROVEN


@pytest.mark.parametrize("n", [3, 12, 20])
@pytest.mark.parametrize("left", [False, True])
def test_flip_update_adds_the_broadcast_outer_product_bit_for_bit(n, left):
    # The rank-one add is one einsum; it must give the very bits of the
    # broadcast product u[:, :, None] * w[:, None, :].
    rng = np.random.default_rng(n)
    inverses = rng.standard_normal((64, n, n))
    B = rng.standard_normal((n, n))
    j, delta = n // 2, 2.0
    if left:
        u, w = inverses[:, :, j].copy(), B[j] @ inverses
        ratio = 1.0 - delta * w[:, j]
    else:
        u, w = inverses @ B[:, j], inverses[:, j, :].copy()
        ratio = 1.0 - delta * u[:, j]
    u = u * (delta / ratio)[:, None]
    expected = inverses + u[:, :, None] * w[:, None, :]
    assert np.array_equal(core.flip_update(inverses, B, j, delta, left), ratio)
    assert np.array_equal(inverses, expected)
