import numpy as np
import pytest

from avebounds import (
    AveProblem,
    HlcpProblem,
    LcpPerturbFactors,
    LcpProblem,
    SolveOptions,
    beta_factor,
    column_w_property,
    hlcp_error_bounds,
    hlcp_perturb_bound,
    hlcp_to_ave,
    lcp_comparison_bound,
    lcp_min_residual,
    lcp_pair_bounds,
    lcp_region_bound,
    lcp_to_ave,
    picard_solve,
    recover_solution,
    region_factors,
    sign_accord_solve,
    upper_factor,
)
from avebounds import complementarity
from avebounds.bounds import NEUMANN, NORM_RATIO, SINGULAR_GAP
from avebounds.exceptions import InapplicableBoundError
from avebounds.harness import gen_tridiag_lcp

from support import random_solvable


def demo_matrix():
    return np.array([[1.0, -0.5], [0.5, 1.0]])


class TestTransforms:
    def test_lcp_to_ave_literal(self):
        lcp = LcpProblem(demo_matrix(), [-1.0, 2.0])
        ave = lcp_to_ave(lcp)
        assert np.allclose(ave.A, [[2.0, -0.5], [0.5, 2.0]])
        assert np.allclose(ave.B, [[0.0, 0.5], [-0.5, 0.0]])
        assert np.allclose(ave.b, [1.0, -2.0])

    def test_hlcp_to_ave_literal(self):
        hlcp = HlcpProblem(demo_matrix(), np.eye(2), [-1.0, 2.0])
        ave = hlcp_to_ave(hlcp)
        assert np.allclose(ave.A, [[1.0, -0.25], [0.25, 1.0]])
        assert np.allclose(ave.B, [[0.0, 0.25], [-0.25, 0.0]])
        assert np.allclose(ave.b, [-1.0, 2.0])

    def test_recover_solution_literals(self):
        x = np.array([3.0, -2.0])
        shifted = recover_solution(LcpProblem(np.eye(2), np.zeros(2)), x)
        assert np.allclose(shifted.z, [6.0, 0.0])
        assert np.allclose(shifted.w, [0.0, 4.0])
        assert shifted.complementarity_gap == 0.0
        halved = recover_solution(HlcpProblem(np.eye(2), np.eye(2), np.zeros(2)), x)
        assert np.allclose(halved.z, [3.0, 0.0])
        assert np.allclose(halved.w, [0.0, 2.0])

    def test_recover_solution_reads_the_hlcp_substitution(self):
        # HLCP(2, 1, -4): 2z - w = -4 with z w = 0 gives z = 0, w = 4.  The
        # LCP substitution would give w = 8, complementary but infeasible.
        hlcp = HlcpProblem([[2.0]], [[1.0]], [-4.0])
        sol = recover_solution(hlcp, sign_accord_solve(hlcp_to_ave(hlcp)).x)
        assert sol.z.tolist() == [0.0] and sol.w.tolist() == [4.0]
        assert (hlcp.M @ sol.z - hlcp.N @ sol.w - hlcp.q).tolist() == [0.0]

    def test_recover_solution_rejects_stale_calls(self):
        # The problem decides the substitution; a bare x or a named
        # convention in its place is refused, not read as an LCP.
        with pytest.raises(TypeError):
            recover_solution(np.array([1.0]), "halved")
        with pytest.raises(TypeError):
            recover_solution(np.array([1.0]))
        with pytest.raises(ValueError, match="x"):
            recover_solution(LcpProblem(np.eye(2), np.zeros(2)), [1.0])

    def test_conventions_agree_on_the_same_lcp(self):
        # LCP(M, q) and HLCP(M, I, -q) describe the same problem; the two
        # AVE transforms must recover the same z.
        lcp = gen_tridiag_lcp(6)
        hlcp = HlcpProblem(lcp.M, np.eye(6), -lcp.q)
        tight = SolveOptions(tolerance=1e-10)

        res_s = picard_solve(lcp_to_ave(lcp), tight)
        res_h = picard_solve(hlcp_to_ave(hlcp), tight)
        assert res_s.converged and res_h.converged
        z_s = recover_solution(lcp, res_s.x).z
        z_h = recover_solution(hlcp, res_h.x).z
        assert np.allclose(z_s, z_h, atol=1e-8)
        assert np.linalg.norm(lcp_min_residual(lcp, z_s), np.inf) < 1e-8


class TestMinResidual:
    def test_matches_componentwise_minimum(self):
        rng = np.random.default_rng(20240903)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            lcp = LcpProblem(rng.normal(size=(n, n)), rng.normal(size=n))
            z = rng.normal(size=n)
            expected = np.minimum(z, lcp.M @ z + lcp.q)
            assert np.allclose(lcp_min_residual(lcp, z), expected, atol=1e-12)

    def test_rejects_wrong_length(self):
        lcp = LcpProblem(np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            lcp_min_residual(lcp, [1.0])


class TestColumnWProperty:
    def test_p_matrix_with_identity(self):
        hlcp = HlcpProblem([[2.0, 1.0], [0.0, 2.0]], np.eye(2), np.zeros(2))
        assert column_w_property(hlcp)

    def test_non_p_matrix_with_identity(self):
        hlcp = HlcpProblem([[0.0, 2.0], [2.0, 0.0]], np.eye(2), np.zeros(2))
        assert not column_w_property(hlcp)

    def test_scaled_pair(self):
        hlcp = HlcpProblem([[2.0, 1.0], [0.0, 2.0]], 2.0 * np.eye(2), np.zeros(2))
        assert column_w_property(hlcp)

    def test_singular_representative(self):
        hlcp = HlcpProblem(np.ones((2, 2)), np.eye(2), np.zeros(2))
        assert not column_w_property(hlcp)

    def test_dimension_guard(self):
        n = 21
        hlcp = HlcpProblem(np.eye(n), np.eye(n), np.zeros(n))
        with pytest.raises(ValueError):
            column_w_property(hlcp)


class TestHlcpErrorBounds:
    def test_frozen_demo_values(self):
        hlcp = HlcpProblem(demo_matrix(), np.eye(2), [1.0, 1.0])
        rep = hlcp_error_bounds(hlcp)
        # A+B and A-B of the transform collapse back to N and M.
        assert rep.lower_factor == pytest.approx(np.sqrt(1.25), rel=1e-12)
        by_method = {u.method: u for u in rep.upper_factors}
        assert by_method["neumann"].value == pytest.approx(
            1.3743685418725535, abs=1e-10)
        assert by_method["singular_gap"].value == pytest.approx(
            1.2807764064044151, abs=1e-10)
        assert by_method["norm_ratio"].value == pytest.approx(
            1.2807764064044151, abs=1e-10)
        assert rep.interval(1.0).upper == pytest.approx(1.2807764064044151, abs=1e-10)

    def test_lower_factor_in_each_norm(self):
        # max(||M||_p, ||N||_p) at p = 1 and 2; at p = inf the norm of the
        # entrywise max(|M|, |N|), which here tops both norms (7.977 > 7.148).
        rng = np.random.default_rng(3)
        M, N = rng.standard_normal((5, 5)), rng.standard_normal((5, 5))
        hlcp = HlcpProblem(M, N, np.ones(5))
        for p in (1, 2):
            want = max(np.linalg.norm(M, p), np.linalg.norm(N, p))
            assert hlcp_error_bounds(hlcp, p).lower_factor == pytest.approx(want, rel=1e-12)
        want = np.linalg.norm(np.maximum(np.abs(M), np.abs(N)), np.inf)
        assert want == pytest.approx(7.977197632684146, rel=1e-12)
        assert max(np.linalg.norm(M, np.inf), np.linalg.norm(N, np.inf)) == pytest.approx(
            7.147838081636433, rel=1e-12)
        assert hlcp_error_bounds(hlcp, np.inf).lower_factor == pytest.approx(want, rel=1e-12)


class TestComparisonBound:
    def test_demo_matrix_is_two_in_every_norm(self):
        for p in (1, 2, np.inf):
            assert lcp_comparison_bound(demo_matrix(), p) == pytest.approx(
                2.0, abs=1e-9)

    def test_diagonal_floor(self):
        # diagonal entries below one are lifted to one in the cap factor
        assert lcp_comparison_bound(0.5 * np.eye(2)) == pytest.approx(2.0)

    def test_negative_inverse_rejected(self):
        with pytest.raises(InapplicableBoundError) as exc:
            lcp_comparison_bound([[0.0, 2.0], [2.0, 0.0]])
        assert exc.value.condition == "comparison_inverse_nonnegative"

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_nonnegativity_test_is_scale_free(self, scale):
        # An H-matrix stays applicable and a non-H-matrix, whose comparison
        # inverse is entrywise negative, is rejected at every scale.
        h_matrix = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
        # <M>^-1 max(D_M, I) is scale-free once the diagonal passes one.
        assert lcp_comparison_bound(h_matrix) == pytest.approx(
            1.0 / scale if scale < 0.5 else 2.0, rel=1e-12)
        with pytest.raises(InapplicableBoundError) as exc:
            lcp_comparison_bound(scale * np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert exc.value.condition == "comparison_inverse_nonnegative"

    def test_singular_comparison_rejected(self):
        with pytest.raises(InapplicableBoundError) as exc:
            lcp_comparison_bound(np.ones((2, 2)))
        assert exc.value.condition == "comparison_nonsingular"

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_nonpositive_diagonal_rejected(self, p):
        # <M> is an M-matrix, yet LCP(M, (1, 1)) has the two solutions
        # z = 0 and z = (0.5, 0): no error constant exists.
        M = np.array([[-2.0, 0.5], [0.3, 3.0]])
        q = np.ones(2)
        for z in (np.zeros(2), np.array([0.5, 0.0])):
            w = M @ z + q
            assert np.all(z >= 0) and np.all(w >= 0) and z @ w == 0, (z, w)
        with pytest.raises(InapplicableBoundError) as exc:
            lcp_comparison_bound(M, p)
        assert exc.value.condition == "positive_diagonal"


class TestHlcpPerturbBound:
    def scaling_demo(self, eps):
        M = 1.5 * np.eye(2)
        q = np.array([-1.0, 2.0 * np.sqrt(6.0)])
        hlcp = HlcpProblem(M, np.eye(2), q)
        return hlcp, eps * M, np.zeros((2, 2)), np.array([eps, 0.0])

    def test_neumann_infinity_norm_closed_form(self):
        eps = 0.01
        hlcp, dM, dN, dq = self.scaling_demo(eps)
        got = hlcp_perturb_bound(hlcp, dM, dN, dq, method=NEUMANN, p=np.inf)
        want = (1.0 / (4.0 * np.sqrt(6.0)) + 0.5) * 3.0 * eps
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.018061862178479, rel=1e-9)

    def test_gap_two_norm_closed_form(self):
        eps = 0.01
        hlcp, dM, dN, dq = self.scaling_demo(eps)
        got = hlcp_perturb_bound(hlcp, dM, dN, dq, method=SINGULAR_GAP, p=2)
        assert got == pytest.approx(1.8 * eps, rel=1e-12)

    def test_rejects_zero_q(self):
        hlcp = HlcpProblem(np.eye(2), np.eye(2), np.zeros(2))
        with pytest.raises(ValueError):
            hlcp_perturb_bound(hlcp, np.zeros((2, 2)), np.zeros((2, 2)),
                               np.zeros(2))

    def test_rejects_shape_mismatch(self):
        hlcp = HlcpProblem(np.eye(2), np.eye(2), np.ones(2))
        with pytest.raises(ValueError):
            hlcp_perturb_bound(hlcp, np.zeros((3, 3)), np.zeros((2, 2)),
                               np.zeros(2))


@pytest.mark.parametrize("seed", range(12))
def test_perturb_bound_matches_closed_form(seed):
    """The AVE route gives the closed form (||dq||/||q||)(||M+N|| + ||M-N||)/2
    + (||dM+dN|| + ||dM-dN||)/2 times the factor of the perturbed pair."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    ave = random_solvable(rng, n)
    hlcp = HlcpProblem(ave.A - ave.B, ave.A + ave.B, ave.b)
    dM, dN = 1e-3 * rng.normal(size=(2, n, n))
    dq = 1e-3 * rng.normal(size=n)
    M, N, q = hlcp.M, hlcp.N, hlcp.q
    shifted = AveProblem((M + N + dM + dN) / 2, (N - M + dN - dM) / 2, np.zeros(n))
    for p in (1, 2, np.inf):
        norm = lambda v: np.linalg.norm(v, p)
        w = (norm(dq) / norm(q) * (norm(M + N) + norm(M - N)) / 2
             + (norm(dM + dN) + norm(dM - dN)) / 2)
        for method in (NEUMANN, SINGULAR_GAP, NORM_RATIO):
            try:
                want = upper_factor(shifted, method, p) * w
            except (InapplicableBoundError, ValueError) as exc:
                with pytest.raises(type(exc)):
                    hlcp_perturb_bound(hlcp, dM, dN, dq, method, p)
                continue
            got = hlcp_perturb_bound(hlcp, dM, dN, dq, method, p)
            assert got == pytest.approx(want, rel=1e-12), (p, method)


class TestBetaFactor:
    def test_scaled_identity_closed_form(self):
        # max over diagonal entries in [0,1] of lam/(1 - lam + c lam) is
        # attained at lam = 1 and equals 1/c.
        for c in (1.0, 1.5, 2.0):
            assert beta_factor(c * np.eye(2)) == pytest.approx(1.0 / c, rel=1e-12)

    def test_other_norms(self):
        assert beta_factor(2.0 * np.eye(2), p=np.inf) == pytest.approx(0.5)
        assert beta_factor(2.0 * np.eye(2), p=1) == pytest.approx(0.5)

    def test_singular_member_warns_and_returns_inf(self):
        with pytest.warns(UserWarning):
            assert beta_factor(np.zeros((1, 1))) == np.inf

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            beta_factor(np.eye(21))


class TestPairBounds:
    def test_scalar_hand_case(self):
        # beta(2) = 1/2 and beta(1) = 1; with |A-B| = 1, |b-c| = 1,
        # (-c)+ = 2, (-b)+ = 1 the forms evaluate to 1.5 and 3.
        lcp_a = LcpProblem([[2.0]], [-1.0])
        lcp_b = LcpProblem([[1.0]], [-2.0])
        absolute, relative = lcp_pair_bounds(lcp_a, lcp_b)
        assert absolute == pytest.approx(1.5, rel=1e-12)
        assert relative == pytest.approx(3.0, rel=1e-12)

    def test_identical_problems(self):
        lcp = LcpProblem([[2.0]], [-1.0])
        absolute, relative = lcp_pair_bounds(lcp, lcp)
        assert absolute == 0.0
        assert relative == 0.0

    def test_relative_undefined_for_nonnegative_q(self):
        lcp_a = LcpProblem([[2.0]], [1.0])
        lcp_b = LcpProblem([[1.0]], [-2.0])
        absolute, relative = lcp_pair_bounds(lcp_a, lcp_b)
        assert absolute > 0
        assert relative is None

    def test_infinite_beta_gives_inf_not_nan(self):
        # beta = inf while ||A - B|| = ||b - c|| = 0: inf * 0 must not leak.
        lcp = LcpProblem([[0.0]], [-1.0])
        with pytest.warns(UserWarning):
            absolute, relative = lcp_pair_bounds(lcp, lcp)
        assert absolute == np.inf
        assert relative == np.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lcp_pair_bounds(LcpProblem(np.eye(2), np.zeros(2)),
                            LcpProblem(np.eye(3), np.zeros(3)))


class TestRegionBounds:
    def test_factor_validation(self):
        with pytest.raises(ValueError):
            LcpPerturbFactors(beta=1.0, eta=1.0, alpha=1.0, delta=0.0)
        with pytest.raises(ValueError):
            LcpPerturbFactors(beta=-1.0, eta=0.0, alpha=1.0, delta=0.0)
        with pytest.raises(ValueError, match="alpha"):     # alpha = beta / (1 - eta) >= beta
            LcpPerturbFactors(beta=1.0, eta=0.5, alpha=0.5, delta=0.0)
        with pytest.raises(ValueError, match="alpha"):
            LcpPerturbFactors(beta=np.inf, eta=0.0, alpha=1.0, delta=np.inf)

    def test_region_factors_scaled_identity(self):
        facs = region_factors(1.5 * np.eye(2), eta=0.0, epsilon=0.01)
        assert facs.beta == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert facs.alpha == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert facs.delta == pytest.approx(0.01, rel=1e-12)

    def test_region_factors_infinite_beta(self):
        # ||M|| = 0 would make delta = inf * 0 = NaN.
        with pytest.warns(UserWarning):
            facs = region_factors([[0.0]], eta=0.5, epsilon=0.01)
        assert facs.beta == facs.alpha == facs.delta == np.inf

    def test_region_factors_validation(self):
        with pytest.raises(ValueError):
            region_factors(np.eye(2), eta=0.0, epsilon=-0.1)
        with pytest.raises(ValueError):
            region_factors(np.eye(2), eta=1.2, epsilon=0.1)

    def test_region_factors_rejects_eta_before_enumerating(self, monkeypatch):
        # beta_factor enumerates 2**n vertices; a bad eta must not pay for it.
        def enumerated(*args, **kwargs):
            raise AssertionError("beta_factor ran before eta was validated")
        monkeypatch.setattr(complementarity, "beta_factor", enumerated)
        M = gen_tridiag_lcp(16).M
        for eta in (1.5, 1.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="eta"):
                region_factors(M, eta, 0.01)

    def test_region_bound_literal(self):
        facs = LcpPerturbFactors(beta=0.5, eta=0.5, alpha=1.0, delta=0.2)
        absolute, relative = lcp_region_bound(facs, 2.0, 3.0, 1.0)
        assert absolute == pytest.approx(7.0)
        assert relative == pytest.approx(0.5)

    @pytest.mark.parametrize("beta", (np.inf, 1.0))
    def test_region_bound_infinite_alpha(self, beta):
        # alpha**2 * 0 was NaN with zero deviations
        facs = LcpPerturbFactors(beta=beta, eta=0.0, alpha=np.inf, delta=0.5)
        assert lcp_region_bound(facs, 0.0, 0.0, 0.0) == (np.inf, 2.0)

    def test_region_bound_rejects_negative_inputs(self):
        facs = LcpPerturbFactors(beta=0.5, eta=0.0, alpha=0.5, delta=0.2)
        with pytest.raises(ValueError):
            lcp_region_bound(facs, -1.0, 0.0, 0.0)
        with pytest.raises(ValueError):     # inf * 0 would make the bound NaN
            lcp_region_bound(facs, np.inf, 0.0, 0.0)

    def test_region_bound_needs_small_delta(self):
        facs = LcpPerturbFactors(beta=0.5, eta=0.0, alpha=0.5, delta=1.5)
        with pytest.raises(InapplicableBoundError) as exc:
            lcp_region_bound(facs, 1.0, 1.0, 1.0)
        assert exc.value.condition == "delta"
