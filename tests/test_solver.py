import warnings

import numpy as np
import pytest

from avebounds import (
    AveProblem,
    LcpProblem,
    SolveOptions,
    TYPE_ONE,
    TYPE_TWO,
    lcp_to_ave,
    picard_solve,
    residual,
    sign_accord_solve,
    upper_factor,
)
from avebounds.exceptions import InapplicableBoundError, SingularMatrixError

from support import random_solvable


class TestSolveOptions:
    def test_validation(self):
        for tolerance in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tolerance"):
                SolveOptions(tolerance=tolerance)
        with pytest.raises(ValueError):
            SolveOptions(max_iterations=0)
        for count in (2.5, 3.0, "3", None):
            with pytest.raises(ValueError, match="max_iterations"):
                SolveOptions(max_iterations=count)
        assert SolveOptions(max_iterations=np.int64(3)).max_iterations == 3


class TestPicardSolve:
    def test_scalar(self):
        # 2x - |x| = 3 has the unique solution x = 3.
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        res = picard_solve(p, SolveOptions(tolerance=1e-12))
        assert res.converged
        assert res.x[0] == pytest.approx(3.0, abs=1e-10)
        assert res.final_residual_norm < 1e-10

    def test_start_at_solution(self):
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        res = picard_solve(p, SolveOptions(initial=[3.0]))
        assert res.converged
        assert res.iterations == 1
        assert res.final_step_norm == 0.0

    def test_nonconvergence_is_an_outcome(self):
        # x - 2|x| = 1 pushes the iteration away from any fixed point.
        p = AveProblem([[1.0]], [[2.0]], [1.0])
        res = picard_solve(p, SolveOptions(max_iterations=30))
        assert not res.converged
        assert res.iterations == 30

    @pytest.mark.parametrize("form", ["type1", TYPE_TWO])
    def test_divergence_to_overflow_is_an_outcome(self, form):
        # x_{k+1} = 3|x_k| + 1: the steps are sqrt(3) 3**(k-1), so step 34
        # is the first above 2**52 times the first.  The solver stops there,
        # an outcome, long before the iterates overflow.
        p = AveProblem(np.eye(3), 3.0 * np.eye(3), np.ones(3), form)
        res = picard_solve(p)
        assert not res.converged
        assert np.all(np.isfinite(res.x))
        assert 2.0**52 * np.sqrt(3.0) < res.final_step_norm < np.inf
        assert res.iterations == 34

    def test_frozen_seed_unsolvable_instance(self):
        # The iterates stay positive and grow like 1.25**k; the solver stops
        # once a step exceeds 2**52 times the first.
        problem = unsolvable_instance()
        first = picard_solve(problem, SolveOptions(max_iterations=1)).final_step_norm
        res = picard_solve(problem)
        assert not res.converged
        assert np.all(np.isfinite(res.x))
        assert 2.0**52 * first < res.final_step_norm < np.inf
        assert res.iterations == 164

    def test_overflowing_first_step_is_an_outcome(self):
        # x - 3|x| = 1e300 has no solution.  The first step from x = 0 is
        # b itself, whose 2-norm overflows: the solver stops there with the
        # last finite iterate and an infinite step norm.
        p = AveProblem(np.eye(2), 3.0 * np.eye(2), [1e300, 1e300])
        res = picard_solve(p)
        assert not res.converged
        assert res.iterations == 1 and res.final_step_norm == np.inf
        assert np.array_equal(res.x, [0.0, 0.0])
        assert res.final_residual_norm == pytest.approx(np.sqrt(2.0) * 1e300, rel=1e-15)

    def test_transient_growth_still_converges(self):
        # x >= 0 throughout, so the iteration is x <- K x + b with K = B
        # upper bidiagonal: diagonal 1/2, superdiagonal 100.  rho(K) = 1/2,
        # but K**k b grows 2.5e6-fold over the first five steps before it
        # shrinks; the divergence stop must not end it.
        n = 4
        K = 0.5 * np.eye(n) + 100.0 * np.eye(n, k=1)
        b = np.zeros(n)
        b[-1] = 1.0
        steps = [np.linalg.norm(np.linalg.matrix_power(K, k) @ b) for k in range(60)]
        assert max(steps) >= 1e6 * steps[0]
        problem = AveProblem(np.eye(n), K, b)
        res = picard_solve(problem, SolveOptions(tolerance=1e-10))
        x_star = np.linalg.solve(np.eye(n) - K, b)
        assert res.converged
        assert np.linalg.norm(res.x - x_star) <= 1e-12 * np.linalg.norm(x_star)

    def test_singular_A_raises(self):
        p = AveProblem(np.zeros((2, 2)), np.eye(2), np.ones(2))
        with pytest.raises(SingularMatrixError):
            picard_solve(p)

    def test_bad_initial_length(self):
        p = AveProblem(np.eye(2), np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError):
            picard_solve(p, SolveOptions(initial=[1.0, 2.0, 3.0]))

    def test_type2(self):
        # 2x - |x| = b again, but phrased with the absolute value on Bx.
        A = np.array([[2.0, 0.0], [0.0, 2.0]])
        B = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, -3.0])
        p = AveProblem(A, B, b, TYPE_TWO)
        res = picard_solve(p, SolveOptions(tolerance=1e-12))
        assert res.converged
        # verify against the defining equation directly
        x = res.x
        assert np.allclose(A @ x - np.abs(B @ x), b, atol=1e-10)

    def test_random_contractive_instances(self):
        rng = np.random.default_rng(20240712)
        for _ in range(20):
            n = int(rng.integers(2, 12))
            p = random_solvable(rng, n)
            res = picard_solve(p, SolveOptions(tolerance=1e-10))
            assert res.converged
            assert res.final_residual_norm < 1e-7
            assert np.linalg.norm(residual(p, res.x)) == pytest.approx(
                res.final_residual_norm, abs=1e-15)

    @pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
    def test_accurate_with_ill_conditioned_A(self, form):
        # cond(A) = 1e9 and K = A^-1 B = 0.5 H (H >= 0 row-stochastic, so
        # rho(|K|) = 0.5; B A^-1 for type2).  A computed A^-1 carries errors
        # of order cond(A) eps; iterating x <- A^-1 (B|x| + b) with it moves
        # the fixed point by up to cond(A)^2 eps (errors 6e-3 to 9e-2 for
        # type2 here).  The residual-correction form stays near 1e-8, as an
        # LU solve per iteration does.
        for problem, x_star in ill_conditioned_family(form):
            res = picard_solve(problem, SolveOptions(tolerance=1e-8))
            assert res.converged
            assert np.linalg.norm(res.x - x_star) <= 1e-6 * np.linalg.norm(x_star)


def ill_conditioned_family(form):
    """Six planted pairs (problem, x*) with cond(A) = 1e9 and rho(|K|) = 0.5."""
    n = 40
    for seed in range(6):
        rng = np.random.default_rng(seed)
        U, _ = np.linalg.qr(rng.normal(size=(n, n)))
        V, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A = U @ np.diag(np.logspace(0, -9, n)) @ V.T
        H = np.abs(rng.normal(size=(n, n)))
        H /= H.sum(axis=1, keepdims=True)
        B = 0.5 * (A @ H if form == TYPE_ONE else H @ A)
        x_star = rng.normal(size=n) / np.sqrt(n)
        b = A @ x_star - (B @ np.abs(x_star) if form == TYPE_ONE else np.abs(B @ x_star))
        yield AveProblem(A, B, b, form), x_star


def unsolvable_instance():
    """K = A^-1 B = 1.25 H with H >= 0 row-stochastic and A^-1 b > 0: no
    solution exists, and the Picard iterates grow like 1.25**k."""
    rng = np.random.default_rng(20241017)
    n = 40
    A = 3.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    H = np.abs(rng.standard_normal((n, n)))
    H /= H.sum(axis=1, keepdims=True)
    c = np.abs(rng.standard_normal(n)) + 0.1
    return AveProblem(A, A @ (1.25 * H), A @ c)


class TestSignAccordSolve:
    REFERENCE = SolveOptions(tolerance=1e-13)

    @pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
    def test_random_instances_are_solved_exactly(self, form):
        # One start plus at most three LU solves, and the answer of a Picard
        # run to a step of 1e-13.
        rng = np.random.default_rng(20261018)
        for n in range(2, 40):
            problem = random_solvable(rng, n, rho_cap=0.95, form=form)
            res = sign_accord_solve(problem)
            assert res.converged and res.method == "sign_accord"
            assert res.iterations <= 4
            reference = picard_solve(problem, self.REFERENCE).x
            assert np.linalg.norm(res.x - reference) <= 1e-12 * np.linalg.norm(reference)
            assert res.final_residual_norm == np.linalg.norm(residual(problem, res.x))

    @pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
    def test_accurate_with_ill_conditioned_A(self, form):
        for problem, x_star in ill_conditioned_family(form):
            res = sign_accord_solve(problem)
            assert res.converged and res.method == "sign_accord"
            assert np.linalg.norm(res.x - x_star) <= 1e-6 * np.linalg.norm(x_star)

    def test_start_counts_as_a_solve(self):
        # 2x - |x| = 3: A^-1 b = 1.5 has the sign of the solution, so one LU
        # solve with s = +1 gives x = 3.  From the solution itself the
        # start is free.  One iteration leaves no room for the LU solve.
        problem = AveProblem([[2.0]], [[1.0]], [3.0])
        res = sign_accord_solve(problem)
        assert (res.converged, res.iterations, res.method) == (True, 2, "sign_accord")
        assert res.x[0] == 3.0 and res.final_residual_norm == 0.0
        res = sign_accord_solve(problem, SolveOptions(initial=[3.0]))
        assert (res.converged, res.iterations, res.final_step_norm) == (True, 1, 0.0)
        res = sign_accord_solve(problem, SolveOptions(max_iterations=1))
        assert (res.converged, res.iterations, res.method) == (False, 1, "sign_accord")
        assert res.x[0] == 1.5

    def test_cycle_falls_back_to_picard(self):
        # A frozen LCP with a positive-definite symmetric part on which the
        # sign patterns cycle.  The contraction premise is not proven here,
        # yet Picard converges (||K||_2 = 0.96), so the fallback is ungated.
        rng = np.random.default_rng(2103)
        n = int(rng.integers(2, 7))
        G = rng.normal(size=(n, n))
        S = rng.normal(size=(n, n))
        M = G @ G.T / n + 0.1 * np.eye(n) + S - S.T
        problem = lcp_to_ave(LcpProblem(M, rng.normal(size=n)))
        assert n == 4 and np.linalg.eigvalsh(M + M.T).min() > 0
        with pytest.raises(InapplicableBoundError):
            upper_factor(problem, "neumann", 2)
        res = sign_accord_solve(problem, self.REFERENCE)
        reference = picard_solve(problem, self.REFERENCE)
        assert res.converged and res.method == "picard"
        assert np.linalg.norm(res.x - reference.x) <= 1e-12 * np.linalg.norm(reference.x)

    @pytest.mark.parametrize("problem", [
        AveProblem([[1.0]], [[2.0]], [1.0]),
        unsolvable_instance(),
    ], ids=["x-2|x|=1", "1.25H"])
    def test_unsolvable_is_an_outcome(self, problem):
        res = sign_accord_solve(problem)
        assert not res.converged and res.method == "picard"
        assert np.all(np.isfinite(res.x))
        assert res.iterations < SolveOptions().max_iterations

    def test_diverging_fallback_stops_early(self):
        # The Picard fallback stops for divergence as picard_solve does,
        # after 167 iterations in all.
        res = sign_accord_solve(unsolvable_instance())
        assert not res.converged and res.method == "picard"
        assert np.all(np.isfinite(res.x)) and np.isfinite(res.final_step_norm)
        assert res.iterations < 200

    def test_singular_member_falls_back_to_picard(self):
        # A^-1 b = (1/2, 1/2) gives s = (+1, +1), and A - B = [[1, 1], [1, 1]]
        # is exactly singular: its LU solve raises LinAlgError.  The start
        # and that solve count as two iterations; Picard, warm-started
        # there, finds the solution (1/2, 1/2) in one step.
        problem = AveProblem(2.0 * np.eye(2), [[1.0, -1.0], [-1.0, 1.0]], [1.0, 1.0])
        res = sign_accord_solve(problem)
        assert (res.converged, res.method, res.iterations) == (True, "picard", 3)
        assert np.array_equal(res.x, [0.5, 0.5]) and res.final_residual_norm == 0.0

    def test_non_finite_solve_falls_back_to_picard(self):
        # x - (1 - 2**-52)|x| = 1e300: A^-1 b = 1e300, and the member for
        # s = +1 is 2**-52, so its solve overflows to inf.  The start and
        # that solve count as two iterations; Picard goes on from the start
        # with the rest of the budget.  No solution exists.
        problem = AveProblem([[1.0]], [[1.0 - 2.0**-52]], [1e300])
        res = sign_accord_solve(problem, SolveOptions(max_iterations=10))
        fallback = picard_solve(problem, SolveOptions(initial=[1e300], max_iterations=8))
        assert not res.converged and res.method == "picard"
        assert res.iterations == 2 + fallback.iterations
        assert np.array_equal(res.x, fallback.x) and np.all(np.isfinite(res.x))
        assert res.final_step_norm == fallback.final_step_norm

    def test_budget_counts_the_fallback(self):
        res = sign_accord_solve(AveProblem([[1.0]], [[2.0]], [1.0]),
                                SolveOptions(max_iterations=30))
        assert not res.converged and res.iterations == 30

    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
    def test_norms_are_scale_free(self, scale):
        # The step and residual norms scale with b: squaring the entries of
        # a vector near 1e200 (1e-200) would give inf (0).
        A, B = np.array([[4.0, 1.0], [0.0, 3.0]]), 0.5 * np.eye(2)
        unit = sign_accord_solve(AveProblem(A, B, [1.0, -2.0]))
        res = sign_accord_solve(AveProblem(A, B, scale * np.array([1.0, -2.0])))
        assert res.converged and res.method == "sign_accord"
        assert res.x == pytest.approx(scale * unit.x, rel=1e-14)
        assert res.final_step_norm == pytest.approx(scale * unit.final_step_norm, rel=1e-12)
        assert 0.0 < res.final_step_norm < np.inf
        assert res.final_residual_norm <= 1e-14 * scale

    def test_overflowing_residual_norm_is_infinite(self):
        # x = 1.5e308 solves 2x - |x| = 1.5e308, but A x overflows.
        res = sign_accord_solve(AveProblem(2.0 * np.eye(2), np.eye(2), [1.5e308, 1.5e308]))
        assert res.converged and np.array_equal(res.x, [1.5e308, 1.5e308])
        assert np.isfinite(res.final_step_norm)
        assert res.final_residual_norm == np.inf

    @pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
    def test_start_out_of_range_is_solved_for_a_scaled_b(self, form):
        # 1e-300 x - |x / 2| = -1e10 is solved by x = -2e10, but its start
        # A^-1 b = -1e310 overflows.  The loop starts again on b / 2**34,
        # whose start -5.8e299 is in range; x is scaled back exactly.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = sign_accord_solve(AveProblem([[1e-300]], [[0.5]], [-1e10], form))
        assert (res.converged, res.method, res.iterations) == (True, "sign_accord", 2)
        assert res.x.tolist() == [-2e10] and res.final_residual_norm == 0.0

    def test_extreme_scales_raise_no_warning(self):
        # 3000 type-2 draws, n = 1-4, one power-of-ten scale up to 1e+-300
        # for each of A, B and b: 641 raised an overflow RuntimeWarning in
        # the start A^-1 b or the sign test B x before the loop ended on a
        # value out of range, and with warnings ignored 117 went on to a
        # ValueError, an infinite start handed to the Picard fallback.  Now
        # none does either; 72 of those 641 end as exact sign-accord
        # solves, the rest in the Picard fallback.
        rng = np.random.default_rng(5)
        exact = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(3000):
                n = int(rng.integers(1, 5))
                sa, sb, sv = (10.0 ** int(rng.integers(-300, 301)) for _ in range(3))
                problem = AveProblem(rng.normal(size=(n, n)) * sa, rng.normal(size=(n, n)) * sb,
                                     rng.normal(size=n) * sv, TYPE_TWO)
                try:
                    res = sign_accord_solve(problem)
                except SingularMatrixError:
                    continue
                exact += res.converged and res.method == "sign_accord"
        assert exact == 1886

    def test_singular_A_raises(self):
        p = AveProblem(np.zeros((2, 2)), np.eye(2), np.ones(2))
        with pytest.raises(SingularMatrixError):
            sign_accord_solve(p)

    def test_bad_initial_length(self):
        p = AveProblem(np.eye(2), np.zeros((2, 2)), np.ones(2))
        with pytest.raises(ValueError, match="initial guess has length 3"):
            sign_accord_solve(p, SolveOptions(initial=[1.0, 2.0, 3.0]))
