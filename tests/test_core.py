import numpy as np
import pytest

from avebounds import (
    AveProblem,
    TYPE_ONE,
    TYPE_TWO,
    residual,
    sign_box_vertices,
    sign_diagonal,
    solvability_report,
)
from avebounds import core
from avebounds.core import (
    VERDICT_FAILS,
    VERDICT_INCONCLUSIVE,
    VERDICT_PROVEN,
)


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


class TestSignBoxVertices:
    def test_small(self):
        v = sign_box_vertices(2)
        assert v.shape == (4, 2)
        assert {tuple(row) for row in v} == {
            (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0), (1.0, 1.0)}

    def test_refuses_huge(self):
        with pytest.raises(ValueError):
            sign_box_vertices(26)


class TestSolvabilityReport:
    def test_proven_by_singular_value_gap(self):
        p = AveProblem(np.eye(2), [[0.9, -0.4], [0.4, 0.9]], np.zeros(2))
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_PROVEN
        assert rep.proven
        gap = next(c for c in rep.checks if c.name == "singular_value_gap")
        assert gap.passed
        assert gap.value == pytest.approx(1.0 - 0.9848857801796105, abs=1e-10)

    def test_proven_by_spectral_radius_alone(self):
        # Gap and singular-ratio conditions both fail here, the radius passes.
        p = AveProblem([[2.0, 1.0], [0.0, 2.0]], 1.6 * np.eye(2), np.zeros(2))
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_PROVEN
        by_name = {c.name: c for c in rep.checks}
        assert by_name["spectral_radius"].passed
        assert by_name["spectral_radius"].value == pytest.approx(0.8, abs=1e-12)
        assert not by_name["singular_value_gap"].passed
        assert not by_name["largest_singular_ratio"].passed

    def test_proven_when_family_regular(self):
        # All three sufficient conditions fail, yet every A - B diag(d) with
        # d in the unit box is nonsingular (the determinant is positive at
        # all four vertices and bilinear in d).
        p = AveProblem(np.eye(2), [[0.5, 2.0], [-0.3, 0.5]], np.zeros(2))
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_PROVEN
        assert rep.proven
        assert all(not c.passed for c in rep.checks[:3])
        assert rep.checks[-1].name == "sign_family_nonsingular"
        assert rep.checks[-1].passed

    def test_inconclusive_on_singular_vertex(self):
        p = AveProblem(np.diag([2.0, 1.0]), np.eye(2), np.zeros(2))
        rep = solvability_report(p)
        assert rep.verdict == VERDICT_INCONCLUSIVE
        assert not rep.checks[-1].passed
        assert "singular member" in rep.checks[-1].note

    def test_fails_when_dimension_over_limit(self, monkeypatch):
        # All three screens fail at n = 21 (rho = sigma = 1, gap 0), one
        # above the sign-box limit, so no vertex is enumerated.
        def refuse(*args, **kwargs):
            raise AssertionError("sign box enumerated above the limit")

        n = 21
        monkeypatch.setattr(core, "sign_box_vertices", refuse)
        monkeypatch.setattr(core, "sign_box_scan", refuse)
        A = np.diag([2.0] + [1.0] * (n - 1))
        rep = solvability_report(AveProblem(A, np.eye(n), np.zeros(n)))
        assert rep.verdict == VERDICT_FAILS
        assert len(rep.checks) == 3 and not any(c.passed for c in rep.checks)

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
