import numpy as np
import pytest

from avebounds import (
    AveProblem,
    NEUMANN,
    NORM_RATIO,
    SINGULAR_GAP,
    TYPE_ONE,
    TYPE_TWO,
    brute_force_alpha,
    error_bound_report,
    error_interval,
    identity_ave_bounds,
    lower_factor,
    shifted_norm_slack,
    sign_box_vertices,
    upper_factor,
)
from avebounds.exceptions import InapplicableBoundError


def two_by_two_demo():
    # A well-conditioned pair where every estimator applies.
    A = np.array([[1.0, -0.25], [0.25, 1.0]])
    B = np.array([[0.0, 0.25], [-0.25, 0.0]])
    return AveProblem(A, B, np.zeros(2))


class TestLowerFactor:
    def test_norm_literals(self):
        p = AveProblem([[1.0, 2.0], [3.0, 4.0]], np.eye(2), np.zeros(2))
        # |A+B| column sums (5, 7); row sums (4, 8); |A-B| stays smaller.
        assert lower_factor(p, 1) == pytest.approx(7.0)
        assert lower_factor(p, np.inf) == pytest.approx(8.0)
        assert lower_factor(p, 2) == pytest.approx(
            np.linalg.norm(p.A + p.B, 2), rel=1e-12)

    def test_scalar(self):
        p = AveProblem([[2.0]], [[1.0]], [0.0])
        assert lower_factor(p) == pytest.approx(3.0)

    @pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
    @pytest.mark.parametrize("p", (1, np.inf), ids=["p1", "pinf"])
    def test_equals_largest_vertex_norm(self, form, p):
        # A norm of an affine family is convex in d, so its maximum over the
        # sign box is the largest of the 2**n vertex norms.
        rng = np.random.default_rng(20241018)
        axis = 1 if p == 1 else 2
        for n in range(1, 9):
            for _ in range(3):
                A, B = rng.normal(size=(n, n)), rng.normal(size=(n, n))
                d = sign_box_vertices(n)
                if form == TYPE_TWO:
                    stack = A[None, :, :] - d[:, :, None] * B[None, :, :]
                else:
                    stack = A[None, :, :] - B[None, :, :] * d[:, None, :]
                want = np.abs(stack).sum(axis=axis).max()
                got = lower_factor(AveProblem(A, B, np.zeros(n), form), p)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)


class TestUpperFactor:
    def test_all_estimators_scalar(self):
        # A=2, B=1: every estimator evaluates to exactly 1.
        p = AveProblem([[2.0]], [[1.0]], [0.0])
        assert upper_factor(p, NEUMANN) == pytest.approx(1.0)
        assert upper_factor(p, SINGULAR_GAP) == pytest.approx(1.0)
        assert upper_factor(p, NORM_RATIO) == pytest.approx(1.0)

    def test_two_by_two_frozen_values(self):
        p = two_by_two_demo()
        assert upper_factor(p, NEUMANN) == pytest.approx(
            1.3743685418725535, abs=1e-10)
        assert upper_factor(p, SINGULAR_GAP) == pytest.approx(
            1.2807764064044151, abs=1e-10)
        assert upper_factor(p, NORM_RATIO) == pytest.approx(
            1.2807764064044151, abs=1e-10)

    def test_neumann_needs_invertible_A(self):
        p = AveProblem(np.zeros((2, 2)), np.eye(2), np.zeros(2))
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(p, NEUMANN)
        assert exc.value.condition == "invertible_A"

    def test_neumann_needs_contraction(self):
        p = AveProblem(np.eye(2), np.eye(2), np.zeros(2))
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(p, NEUMANN)
        assert exc.value.condition == "spectral_radius"

    def test_gap_needs_positive_gap(self):
        p = AveProblem(np.eye(2), 2.0 * np.eye(2), np.zeros(2))
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(p, SINGULAR_GAP)
        assert exc.value.condition == "singular_value_gap"

    def test_ratio_needs_invertible_B(self):
        p = AveProblem(2.0 * np.eye(2), np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(p, NORM_RATIO)
        assert exc.value.condition == "invertible_factors"

    def test_ratio_needs_small_singular_value(self):
        p = AveProblem(np.eye(2), 2.0 * np.eye(2), np.zeros(2))
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(p, NORM_RATIO)
        assert exc.value.condition == "ratio_singular_value"

    def test_two_norm_only_methods(self):
        p = AveProblem([[2.0]], [[1.0]], [0.0])
        with pytest.raises(ValueError):
            upper_factor(p, SINGULAR_GAP, p=1)
        with pytest.raises(ValueError):
            upper_factor(p, NORM_RATIO, p=np.inf)

    def test_unknown_method(self):
        p = AveProblem([[2.0]], [[1.0]], [0.0])
        with pytest.raises(ValueError):
            upper_factor(p, "golden_ratio")

    def test_gap_equals_ratio_on_diagonal_pairs(self):
        # Two diagonal pairs with the same singular-value gap but very
        # different ratio readings: the estimators are genuinely different.
        z = np.zeros(2)
        first = AveProblem(np.diag([2.0, 3.0]), np.diag([1.0, 1.5]), z)
        second = AveProblem(np.diag([2.0, 3.0]), np.diag([1.5, 1.0]), z)
        assert upper_factor(first, NORM_RATIO) == pytest.approx(1.0, abs=1e-9)
        assert upper_factor(first, SINGULAR_GAP) == pytest.approx(2.0, abs=1e-9)
        assert upper_factor(second, NORM_RATIO) == pytest.approx(3.0, abs=1e-9)
        assert upper_factor(second, SINGULAR_GAP) == pytest.approx(2.0, abs=1e-9)


class TestIdentityBounds:
    def test_diagonal_literal(self):
        low, up = identity_ave_bounds(np.diag([2.0, 3.0]))
        assert low == pytest.approx(6.0, abs=1e-12)
        assert up == pytest.approx(2.0, abs=1e-12)

    def test_needs_expanding_A(self):
        with pytest.raises(InapplicableBoundError) as exc:
            identity_ave_bounds(0.5 * np.eye(2))
        assert exc.value.condition == "smallest_singular_value"


class TestErrorBoundReport:
    def test_collects_everything(self):
        rep = error_bound_report(two_by_two_demo())
        assert rep.p == 2
        assert len(rep.upper_factors) == 3
        assert all(u.applicable for u in rep.upper_factors)
        assert rep.best_upper() == pytest.approx(1.2807764064044151, abs=1e-9)
        assert rep.identity_lower is None  # B is not the identity here

    def test_identity_pair_included(self):
        p = AveProblem(np.diag([2.0, 3.0]), np.eye(2), np.zeros(2))
        rep = error_bound_report(p)
        assert rep.identity_lower == pytest.approx(6.0)
        assert rep.identity_upper == pytest.approx(2.0)

    def test_non_euclidean_norm_marks_methods(self):
        rep = error_bound_report(two_by_two_demo(), p=1)
        by_method = {u.method: u for u in rep.upper_factors}
        assert by_method[NEUMANN].applicable
        assert not by_method[SINGULAR_GAP].applicable
        assert "2-norm" in by_method[SINGULAR_GAP].reason
        assert not by_method[NORM_RATIO].applicable

    def test_inapplicable_reasons_kept(self):
        p = AveProblem(np.eye(2), 3.0 * np.eye(2), np.zeros(2))
        rep = error_bound_report(p)
        assert rep.best_upper() is None
        assert all(not u.applicable for u in rep.upper_factors)
        assert all(u.reason for u in rep.upper_factors)


class TestErrorInterval:
    def test_scalar_interval(self):
        # 2x - |x| = 3, trial point 4: residual 1, true distance 1.
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        iv = error_interval(p, [4.0])
        assert iv.residual_norm == pytest.approx(1.0)
        assert iv.lower == pytest.approx(1.0 / 3.0)
        assert iv.upper == pytest.approx(1.0)
        assert iv.upper_method in (NEUMANN, SINGULAR_GAP, NORM_RATIO)

    def test_raises_when_nothing_applies(self):
        p = AveProblem(np.eye(2), 3.0 * np.eye(2), np.zeros(2))
        with pytest.raises(InapplicableBoundError) as exc:
            error_interval(p, [1.0, 1.0])
        assert exc.value.condition == "no_applicable_estimator"


class TestBruteForceAlpha:
    def test_scalar_vertex_maximum(self):
        # max over d in [-1,1] of 1/|2 - d| is 1, attained at d = 1.
        p = AveProblem([[2.0]], [[1.0]], [0.0])
        assert brute_force_alpha(p) == pytest.approx(1.0, abs=1e-12)

    def test_singular_member_gives_inf(self):
        p = AveProblem(np.diag([2.0, 1.0]), np.eye(2), np.zeros(2))
        assert brute_force_alpha(p) == np.inf

    def test_dimension_cap(self):
        n = 21
        p = AveProblem(np.eye(n), np.zeros((n, n)), np.zeros(n))
        with pytest.raises(ValueError):
            brute_force_alpha(p)

    def test_probe_stays_below_estimators(self):
        # The vertex maximum is the true constant, which every estimator
        # bounds from above.
        p = two_by_two_demo()
        probe = brute_force_alpha(p)
        assert probe <= upper_factor(p, NEUMANN) + 1e-9
        assert probe <= upper_factor(p, SINGULAR_GAP) + 1e-9
        assert probe == pytest.approx(1.2807764064044151, abs=1e-6)


class TestShiftedNormSlack:
    def test_scalar_literal(self):
        assert shifted_norm_slack(np.array([[1.0]]), 2.0) == (
            pytest.approx(1.0), pytest.approx(1.0))

    def test_premise_failure_returns_none(self):
        slack1, slack2 = shifted_norm_slack(np.array([[3.0]]), 1.0)
        assert slack1 == pytest.approx(7.0)
        assert slack2 is None

    def test_rejects_nonpositive_alpha(self):
        with pytest.raises(ValueError):
            shifted_norm_slack(np.eye(2), 0.0)

    def test_random_slacks_nonnegative(self):
        rng = np.random.default_rng(20240908)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            A = rng.normal(size=(n, n))
            alpha = float(rng.uniform(0.1, 3.0))
            for p in (1, 2, np.inf):
                s1, s2 = shifted_norm_slack(A, alpha, p)
                assert s1 >= -1e-10
                if s2 is not None:
                    assert s2 >= -1e-10
