import numpy as np
import pytest

from avebounds import (
    AveProblem,
    ExperimentSpec,
    LcpPerturbFactors,
    NEUMANN,
    NORM_RATIO,
    Perturbation,
    SINGULAR_GAP,
    SolveOptions,
    TYPE_ONE,
    TYPE_TWO,
    componentwise_bound,
    error_bound_report,
    error_interval,
    general_relative_bound,
    lcp_region_bound,
    perturbation_experiment,
    picard_solve,
    region_factors,
    rhs_only_bound,
    sign_accord_solve,
    solvability_report,
    upper_factor,
)
from avebounds import numerics
from avebounds.exceptions import InapplicableBoundError, NonConvergenceError
from avebounds.harness import gen_perturbation, gen_problem
from avebounds.complementarity import lcp_to_ave

from support import (
    componentwise_linear_bound,
    envelope_perturbation,
    random_perturbation,
    random_solvable,
    vertex_mu2,
)


def table_one_cell(eps):
    problem = lcp_to_ave(gen_problem("tridiag", 30))
    return problem, gen_perturbation("tridiag", 30, eps)


class TestPerturbation:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Perturbation(np.eye(2), np.eye(3), np.zeros(2))
        with pytest.raises(ValueError):
            Perturbation(np.eye(2), np.eye(2), np.zeros(3))
        with pytest.raises(ValueError):
            Perturbation(np.eye(2), np.eye(2), np.zeros(2), epsilon=-0.1)

    def test_validate_dims(self):
        # The perturbed problem is built first, so the size error comes
        # before any solve or bound.
        p = AveProblem(np.eye(3), np.zeros((3, 3)), np.ones(3))
        pert = Perturbation(np.eye(2), np.eye(2), np.zeros(2))
        for call in (general_relative_bound, perturbation_experiment):
            with pytest.raises(ValueError, match=r"dA has shape \(2, 2\), expected \(3, 3\)"):
                call(p, pert)

    def test_envelope_violations(self):
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        clean = Perturbation([[0.1]], [[0.05]], [0.2], epsilon=0.1)
        assert clean.componentwise_violations(p) == []
        no_eps = Perturbation([[0.1]], [[0.05]], [0.2])
        assert no_eps.componentwise_violations(p) == ["epsilon is not set"]
        too_big = Perturbation([[0.5]], [[0.05]], [0.2], epsilon=0.1)
        assert too_big.componentwise_violations(p) == ["|dA| <= epsilon |A| fails"]
        # a zero entry in b makes any db there a violation
        p0 = AveProblem(np.eye(2), np.zeros((2, 2)), [1.0, 0.0])
        bad_b = Perturbation(np.zeros((2, 2)), np.zeros((2, 2)), [0.0, 0.01],
                             epsilon=0.1)
        assert bad_b.componentwise_violations(p0) == ["|db| <= epsilon |b| fails"]

    @pytest.mark.parametrize("scale", [1e-13, 1.0])
    def test_envelope_is_scale_free(self, scale):
        # dA 50 times outside the envelope is a violation at any scale; data
        # exactly on the envelope is not.
        A = scale * np.eye(2)
        p = AveProblem(A, 0.5 * A, scale * np.ones(2))
        outside = Perturbation(0.5 * A, np.zeros((2, 2)), np.zeros(2), epsilon=0.01)
        assert outside.componentwise_violations(p) == ["|dA| <= epsilon |A| fails"]
        on = Perturbation(0.01 * p.A, 0.01 * p.B, -0.01 * p.b, epsilon=0.01)
        assert on.componentwise_violations(p) == []


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda: Perturbation(np.eye(2), np.eye(2), np.zeros(2), epsilon=NAN),
    lambda: gen_perturbation("tridiag", 4, NAN),
    lambda: ExperimentSpec("tridiag", [4], [0.01, NAN]),
    lambda: region_factors(np.eye(2), 0.5, NAN),
    lambda: lcp_region_bound(LcpPerturbFactors(1.0, 0.5, 2.0, 0.1), NAN, 1.0, 1.0),
    lambda: LcpPerturbFactors(NAN, 0.5, 2.0, 0.1),
    lambda: LcpPerturbFactors(1.0, 0.5, 2.0, NAN),
    lambda: LcpPerturbFactors(1.0, 0.5, NAN, 0.1),
], ids=["Perturbation", "gen_perturbation", "ExperimentSpec", "region_factors",
        "lcp_region_bound", "LcpPerturbFactors.beta", "LcpPerturbFactors.delta",
        "LcpPerturbFactors.alpha"])
def test_nan_scales_are_rejected(call):
    # A NaN passes every ``x < 0`` guard; the guards are written ``not x >= 0``.
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_bounds_do_not_depend_on_the_scale_of_b(scale):
    # Scaling b, db, x* and the trial point by s leaves the relative bounds
    # alone and scales the error interval by s, also where squaring an
    # entry overflows (s = 1e200) or underflows (s = 1e-200).
    def at(s):
        problem = AveProblem([[4.0, 1.0], [0.0, 3.0]], 0.5 * np.eye(2), s * np.array([1.0, -2.0]))
        x_star = s * sign_accord_solve(AveProblem(problem.A, problem.B, [1.0, -2.0])).x
        interval = error_interval(problem, s * np.ones(2), p=2)
        return (rhs_only_bound(problem, 1e-3 * s * np.ones(2)).tau,
                componentwise_bound(problem, x_star, 1e-3, kernel="damped"),
                interval.residual_norm / s, interval.lower / s, interval.upper / s)
    want = at(1.0)
    assert want[:2] == pytest.approx((0.0012855040024356797, 0.002079730549043646), rel=1e-12)
    assert at(scale) == pytest.approx(want, rel=1e-12)


class TestRhsOnlyBound:
    def test_scalar_literal(self):
        # Every factor is 1 (Neumann 1 / (2 - 1), gap 1 / (2 - 1), ratio
        # 0.5 / 1 / (1 - 0.5)), times w = (0.3/3) * (2 + 1) = 0.3.
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        rep = rhs_only_bound(p, [0.3])
        assert rep.w == pytest.approx(0.3, abs=1e-12)
        assert [rep.tau, rep.upsilon, rep.nu] == pytest.approx([0.3] * 3, abs=1e-12)
        assert rep.notes == []

    def test_rejects_zero_rhs(self):
        p = AveProblem([[2.0]], [[1.0]], [0.0])
        with pytest.raises(ValueError):
            rhs_only_bound(p, [0.1])

    def test_rejects_wrong_length(self):
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        with pytest.raises(ValueError):
            rhs_only_bound(p, [0.1, 0.2])

    def test_propagates_inapplicability(self):
        # rho(|A^-1 B|) = 1: no Neumann factor, and the note says why.
        p = AveProblem(np.eye(2), np.eye(2), np.ones(2))
        rep = rhs_only_bound(p, [0.1, 0.0])
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(p, NEUMANN)
        assert rep.tau is None
        assert rep.notes[0] == f"neumann: {exc.value}"


class TestGeneralRelativeBound:
    def test_zero_perturbation_gives_zero_bounds(self):
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        zero = Perturbation([[0.0]], [[0.0]], [0.0])
        rep = general_relative_bound(p, zero)
        assert rep.w == 0.0
        assert rep.tau == 0.0
        assert rep.upsilon == 0.0
        assert rep.nu == 0.0
        assert rep.notes == []

    def test_frozen_benchmark_cell(self):
        problem, pert = table_one_cell(0.01)
        rep = general_relative_bound(problem, pert)
        assert rep.w == pytest.approx(0.0842454140387942, rel=1e-9)
        assert rep.tau == pytest.approx(0.284482587726688, rel=1e-9)
        assert rep.upsilon == pytest.approx(0.0464549117216513, rel=1e-9)
        assert rep.nu == pytest.approx(0.110368928442537, rel=1e-9)

    def test_truncated_gap_opens_when_full_gap_is_closed(self):
        # On the benchmark pair the full singular-value gap of the perturbed
        # matrices is negative, yet the truncated probe still produces a
        # finite estimate; that is the point of the truncation.
        problem, pert = table_one_cell(0.01)
        perturbed = problem.perturbed(pert.dA, pert.dB, pert.db)
        with pytest.raises(InapplicableBoundError):
            upper_factor(perturbed, SINGULAR_GAP, 2)
        rep = general_relative_bound(problem, pert)
        assert rep.upsilon is not None and rep.upsilon > 0

    def test_unnamed_methods_record_notes(self):
        p = AveProblem(np.eye(2), np.eye(2), np.ones(2))
        zero = Perturbation(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(2))
        rep = general_relative_bound(p, zero)
        assert rep.tau is None and rep.upsilon is None and rep.nu is None
        assert len(rep.notes) == 3

    def test_one_norm_keeps_tau_only(self):
        problem, pert = table_one_cell(0.01)
        rep = general_relative_bound(problem, pert, p=1)
        assert rep.tau is not None
        assert rep.upsilon is None and rep.nu is None
        assert any("2-norm" in note for note in rep.notes)

    def test_rejects_zero_rhs(self):
        p = AveProblem([[2.0]], [[1.0]], [0.0])
        zero = Perturbation([[0.0]], [[0.0]], [0.0])
        with pytest.raises(ValueError):
            general_relative_bound(p, zero)

    def test_coefficient_is_exactly_linear_in_scale(self):
        problem, pert1 = table_one_cell(0.01)
        _, pert2 = table_one_cell(0.02)
        w1 = general_relative_bound(problem, pert1).w
        w2 = general_relative_bound(problem, pert2).w
        assert w2 == pytest.approx(2.0 * w1, rel=1e-12)
        assert w1 / 0.01 == pytest.approx(8.42454140387942, rel=1e-9)



@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_rhs_only_bound_is_the_general_bound_of_db_alone(form):
    """``rhs_only_bound`` is ``general_relative_bound`` at dA = dB = 0 in
    w, every estimator field and the notes, and its tau and nu are the
    problem's own upper factors times w."""
    rng = np.random.default_rng(34)
    fields = {NEUMANN: "tau", NORM_RATIO: "nu"}
    seen = set()
    for _ in range(6):
        n = int(rng.integers(2, 9))
        base = random_solvable(rng, n, form=form)
        for scale in (1.0, 3.0):    # 3.0 pushes rho(|K|) past 1 for most draws
            problem = AveProblem(base.A, scale * base.B, base.b, form)
            db = random_perturbation(rng, n, 1e-3).db
            zero = np.zeros((n, n))
            for p in (1, 2, np.inf):
                report = rhs_only_bound(problem, db, p)
                assert report == general_relative_bound(problem, Perturbation(zero, zero, db), p)
                for method, field in fields.items():
                    value = getattr(report, field)
                    seen.add(value is not None)
                    if value is not None:
                        assert value == upper_factor(problem, method, p) * report.w
    assert seen == {True, False}


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_relative_report_is_the_perturbed_error_report_times_w(form):
    """tau and nu are the perturbed pair's upper factors times w, and each
    failed estimator's note is the error report's reason, bit for bit."""
    rng = np.random.default_rng(33)
    fields = {NEUMANN: "tau", NORM_RATIO: "nu"}
    seen = set()
    for _ in range(6):
        n = int(rng.integers(2, 9))
        base = random_solvable(rng, n, form=form)
        for scale in (1.0, 3.0):    # 3.0 pushes rho(|K|) past 1 for most draws
            problem = AveProblem(base.A, scale * base.B, base.b, form)
            pert = random_perturbation(rng, n, 1e-3)
            for p in (1, 2, np.inf):
                report = general_relative_bound(problem, pert, p)
                notes = {note.split(": ", 1)[0]: note for note in report.notes}
                perturbed = problem.perturbed(pert.dA, pert.dB, pert.db)
                for u in error_bound_report(perturbed, p).upper_factors:
                    if u.method not in fields:
                        continue
                    seen.add(u.applicable)
                    if u.applicable:
                        assert u.method not in notes
                        assert getattr(report, fields[u.method]) == u.value * report.w
                    else:
                        assert notes[u.method] == f"{u.method}: {u.reason}"
                        assert getattr(report, fields[u.method]) is None
    assert seen == {True, False}


class TestComponentwiseBound:
    def test_damped_never_exceeds_series(self):
        rng = np.random.default_rng(20240915)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            prob = random_solvable(rng, n, rho_cap=0.8)
            res = picard_solve(prob, SolveOptions(tolerance=1e-10))
            eps = float(rng.uniform(1e-4, 2e-2))
            try:
                damped = componentwise_bound(prob, res.x, eps, kernel="damped")
                series = componentwise_bound(prob, res.x, eps, kernel="series")
            except InapplicableBoundError:
                continue
            assert damped <= series + 1e-12

    def test_default_series_kernel_bounds_where_damped_does_not(self):
        # A proven_unique pair with x* = (-3, 31): the worst of the 2**10
        # vertices of the envelope |dA| <= eps |A| (etc.) moves x* by 0.1337
        # relative.  The series kernel, the default, bounds that; the
        # damped kernel, the tables' delta, falls 2000-2500 times below.
        A = np.array([[4.75, 0.0], [1.5, 1.25]])
        B = np.array([[0.25, -0.5], [0.75, 1.0]])
        b = np.array([0.5, 1.0])
        problem = AveProblem(A, B, b)
        eps = 1e-3
        x_star = sign_accord_solve(problem).x
        assert x_star == pytest.approx([-3.0, 31.0], rel=1e-14)
        assert solvability_report(problem).proven
        worst = {2: 0.0, np.inf: 0.0}
        for signs in np.array(np.meshgrid(*[[-1.0, 1.0]] * 10)).reshape(10, -1).T:
            y = sign_accord_solve(problem.perturbed(
                eps * signs[:4].reshape(2, 2) * np.abs(A),
                eps * signs[4:8].reshape(2, 2) * np.abs(B),
                eps * signs[8:] * np.abs(b))).x
            for p in worst:
                worst[p] = max(worst[p],
                               numerics.p_norm(y - x_star, p) / numerics.p_norm(x_star, p))
        for p, r, series, damped in ((2, 0.13375, 0.24134, 6.4743e-5),
                                     (np.inf, 0.13368, 0.28273, 5.3005e-5)):
            assert worst[p] == pytest.approx(r, abs=1e-5)
            assert componentwise_bound(problem, x_star, eps, p) == pytest.approx(series, abs=1e-5)
            assert componentwise_bound(problem, x_star, eps, p, kernel="damped") == pytest.approx(
                damped, rel=1e-4)
            assert componentwise_bound(problem, x_star, eps, p) >= worst[p]

    def test_reduces_to_classical_when_B_is_zero(self):
        A = np.array([[2.0]])
        prob = AveProblem(A, [[0.0]], [4.0])
        x_star = np.array([2.0])
        damped = componentwise_bound(prob, x_star, 0.1, kernel="damped")
        series = componentwise_bound(prob, x_star, 0.1, kernel="series")
        assert damped == pytest.approx(2.0 / 9.0, abs=1e-15)
        assert series == pytest.approx(2.0 / 9.0, abs=1e-15)

    def test_is_the_classical_bound_bit_for_bit_when_B_is_zero(self):
        # |K| = 0 at B = 0: the series kernel (I - 0)^-1 |A^-1| is |A^-1|
        # and S = |A| + |B| is |A|, so the bound is the textbook
        # componentwise bound of A x = b, computed with the same operations.
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            n = int(rng.integers(1, 9))
            A = rng.normal(size=(n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            b = rng.normal(size=n)
            eps = float(rng.uniform(1e-5, 1e-2))
            problem = AveProblem(A, np.zeros((n, n)), b)
            x_star = np.linalg.solve(A, b)
            for p in (1, 2, np.inf):
                try:
                    bound = componentwise_bound(problem, x_star, eps, p)
                except InapplicableBoundError:
                    continue
                assert bound == componentwise_linear_bound(A, b, x_star, eps, p)
                checked += 1
        assert checked >= 800

    def test_conditions(self):
        with pytest.raises(InapplicableBoundError) as exc:
            componentwise_bound(
                AveProblem([[0.0]], [[1.0]], [1.0]), [1.0], 0.01)
        assert exc.value.condition == "invertible_A"

        with pytest.raises(InapplicableBoundError) as exc:
            componentwise_bound(
                AveProblem(np.eye(2), np.eye(2), np.ones(2)), [1.0, 1.0], 0.01)
        assert exc.value.condition == "spectral_radius"

        with pytest.raises(InapplicableBoundError) as exc:
            componentwise_bound(
                AveProblem([[1.0]], [[0.5]], [1.0]), [1.0], 2.0)
        assert exc.value.condition == "denominator"

    def test_argument_validation(self):
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        with pytest.raises(ValueError):
            componentwise_bound(p, [3.0], -0.1)
        with pytest.raises(ValueError):
            componentwise_bound(p, [3.0], float("nan"))
        with pytest.raises(ValueError):
            componentwise_bound(p, [0.0], 0.1)
        with pytest.raises(ValueError):
            componentwise_bound(p, [1.0, 2.0], 0.1)
        with pytest.raises(ValueError):
            componentwise_bound(p, [3.0], 0.1, kernel="hamming")

    def test_vertex_kernel_chain(self):
        # Observed error <= bound with the exact vertex kernel <= bound with
        # the series kernel, on envelope perturbations (200 seeded cases).
        rng = np.random.default_rng(20250406)
        tight = SolveOptions(tolerance=1e-10)
        checked = skipped = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            prob = random_solvable(rng, n, rho_cap=0.8)
            eps = float(rng.uniform(1e-4, 5e-2))
            pert = envelope_perturbation(rng, prob, eps)
            assert not pert.componentwise_violations(prob)
            base = picard_solve(prob, tight)
            moved = picard_solve(prob.perturbed(pert.dA, pert.dB, pert.db), tight)
            assert base.converged and moved.converged
            r = float(np.linalg.norm(base.x - moved.x) / np.linalg.norm(base.x))

            mu2 = vertex_mu2(prob)
            S = np.abs(prob.A) + np.abs(prob.B)
            u = np.abs(prob.b) + S @ np.abs(base.x)
            damp = eps * np.linalg.norm(mu2 @ S, 2)
            if damp >= 1.0:
                skipped += 1
                continue
            val = (eps * np.linalg.norm(mu2 @ u, 2)
                   / ((1.0 - damp) * np.linalg.norm(base.x)))
            assert r <= val + 1e-9
            try:
                series = componentwise_bound(prob, base.x, eps, kernel="series")
            except InapplicableBoundError:
                skipped += 1
                continue
            assert val <= series + 1e-9
            checked += 1
        assert checked >= 190


class TestPerturbationExperiment:
    def test_frozen_cell_table_one(self):
        problem, pert = table_one_cell(0.01)
        rec = perturbation_experiment(problem, pert)
        assert rec.n == 30
        assert rec.epsilon == 0.01
        assert rec.r == pytest.approx(0.00404409757057314, rel=1e-9)
        assert rec.w == pytest.approx(0.0842454140387942, rel=1e-9)
        assert rec.tau == pytest.approx(0.284482587726688, rel=1e-9)
        assert rec.upsilon == pytest.approx(0.0464549117216513, rel=1e-9)
        assert rec.nu == pytest.approx(0.110368928442537, rel=1e-9)
        assert rec.delta == pytest.approx(0.00479050252994868, rel=1e-9)

    def test_frozen_cell_table_two(self):
        problem = lcp_to_ave(gen_problem("tridiag", 40))
        pert = gen_perturbation("tridiag", 40, 0.015)
        rec = perturbation_experiment(problem, pert)
        assert rec.r == pytest.approx(0.00612131216558119, rel=1e-9)
        assert rec.w == pytest.approx(0.126499317001939, rel=1e-9)
        assert rec.tau == pytest.approx(0.428150650528705, rel=1e-9)
        assert rec.upsilon == pytest.approx(0.0703803207135216, rel=1e-9)
        assert rec.nu == pytest.approx(0.166309351286499, rel=1e-9)
        assert rec.delta == pytest.approx(0.00691503192953177, rel=1e-9)

    def test_delta_needs_epsilon(self):
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        pert = Perturbation([[0.01]], [[0.01]], [0.01])   # no epsilon
        rec = perturbation_experiment(p, pert)
        assert rec.epsilon is None
        assert rec.delta is None
        assert rec.r is not None and rec.tau is not None

    def test_delta_is_none_when_its_denominator_fails(self):
        # 2x - |x| = 3: the damped kernel is (1 - 1/2) / 2 = 1/4, so
        # eps ||K (|A| + |B|)|| = 10 * 3/4 >= 1 and delta does not apply.
        p = AveProblem([[2.0]], [[1.0]], [3.0])
        pert = Perturbation([[0.01]], [[0.01]], [0.01], epsilon=10.0)
        with pytest.raises(InapplicableBoundError) as exc:
            componentwise_bound(p, [3.0], 10.0)
        assert exc.value.condition == "denominator"
        rec = perturbation_experiment(p, pert)
        assert rec.epsilon == 10.0 and rec.delta is None
        assert rec.r is not None and rec.tau is not None

    def test_zero_solution_raises(self):
        # b = 0 gives x* = 0, against which no relative error is defined.
        p = AveProblem([[2.0]], [[1.0]], [0.0])
        pert = Perturbation([[0.01]], [[0.01]], [0.01])
        with pytest.raises(ValueError, match=r"relative error is undefined for x\* = 0"):
            perturbation_experiment(p, pert)

    def test_inapplicable_bounds_are_noted(self):
        # The perturbed x - 1.01|x| = -1.01 has rho(|A^-1 B|) = 1.01, so no
        # Neumann factor, yet it and x - |x| = -1 have solutions x < 0.
        p = AveProblem(np.eye(2), np.eye(2), -np.ones(2))
        pert = Perturbation(np.zeros((2, 2)), 0.01 * np.eye(2), -0.01 * np.ones(2))
        rec = perturbation_experiment(p, pert)
        assert rec.r is not None and rec.tau is None
        perturbed = p.perturbed(pert.dA, pert.dB, pert.db)
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(perturbed, NEUMANN)
        assert rec.notes[0] == f"neumann: {exc.value}"

    def test_solver_failure_raises(self):
        p = AveProblem([[1.0]], [[2.0]], [1.0])
        zero = Perturbation([[0.0]], [[0.0]], [0.0])
        with pytest.raises(NonConvergenceError):
            perturbation_experiment(p, zero, SolveOptions(max_iterations=40))
