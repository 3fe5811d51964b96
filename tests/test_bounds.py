import dataclasses
import re

import numpy as np
import pytest

from avebounds import (
    AveProblem,
    NEUMANN,
    NORM_RATIO,
    SINGULAR_GAP,
    TYPE_ONE,
    TYPE_TWO,
    Perturbation,
    brute_force_alpha,
    componentwise_bound,
    error_bound_report,
    error_interval,
    general_relative_bound,
    identity_ave_bounds,
    lower_factor,
    picard_solve,
    residual,
    sign_accord_solve,
    upper_factor,
)
from avebounds import bounds, harness, numerics, perturbation
from avebounds.bounds import ESTIMATORS, METHODS
from avebounds.complementarity import lcp_to_ave
from avebounds.exceptions import InapplicableBoundError, SingularMatrixError

from support import box_vertices, random_solvable


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
                d = box_vertices(n)
                if form == TYPE_TWO:
                    stack = A[None, :, :] - d[:, :, None] * B[None, :, :]
                else:
                    stack = A[None, :, :] - B[None, :, :] * d[:, None, :]
                want = np.abs(stack).sum(axis=axis).max()
                got = lower_factor(AveProblem(A, B, np.zeros(n), form), p)
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
    @pytest.mark.parametrize("p", (1, 2, np.inf), ids=["p1", "p2", "pinf"])
    def test_sum_past_the_float_range_is_inf(self, form, p):
        # Finite entries whose |A| + |B|, A - B and A + B overflow: an
        # induced norm is at least the largest entry, so the factor is inf.
        problem = AveProblem(np.diag([1e308, 1e308]), np.diag([1e308, -1e308]), np.ones(2), form)
        assert lower_factor(problem, p) == np.inf
        assert error_bound_report(problem, p).lower_factor == np.inf


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
        assert str(exc.value) == "singular-value gap sigma_2(A) - sigma_1(B) is 1 - 2 = -1 <= 0"

    @pytest.mark.parametrize("A", [
        np.ones((3, 3)),
        np.outer([1.0, -2.0, 0.5], [3.0, 1.0, -1.0]),
    ], ids=["ones", "rank_one"])
    def test_gap_needs_invertible_A(self, A):
        # sigma_min(A) of an exactly singular A is rounding noise (about
        # 1e-17 for ones((3, 3))), not a gap above sigma_max(B) = 0.
        p = AveProblem(A, np.zeros((3, 3)), np.ones(3))
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(p, SINGULAR_GAP)
        assert exc.value.condition == "invertible_A"
        report = error_bound_report(p)
        with pytest.raises(InapplicableBoundError):
            report.interval(1.0)
        assert not any(u.applicable for u in report.upper_factors)
        with pytest.raises(InapplicableBoundError) as exc:
            error_interval(p, np.zeros(3))
        assert exc.value.condition == "no_applicable_estimator"
        # The solvers and the inverses keep the gate's SingularMatrixError.
        singular = r"A is singular to working precision \(1-norm cond ~ "
        for fails in (picard_solve, sign_accord_solve, lambda q: q.analysis.inverse(),
                      lambda q: numerics.inverse(q.A, "A")):
            with pytest.raises(SingularMatrixError, match=singular):
                fails(p)
        # Every bound names the premise instead, with the gate's message; a
        # 2-norm-only method at another norm is a ValueError, no premise.
        premises = {NEUMANN: "invertible_A", SINGULAR_GAP: "invertible_A",
                    NORM_RATIO: "invertible_factors"}
        pert = Perturbation(np.zeros((3, 3)), np.zeros((3, 3)), 1e-3 * np.ones(3))
        for norm in (1, 2, np.inf):
            for method, condition in premises.items():
                if norm not in ESTIMATORS[method].norms:
                    continue
                with pytest.raises(InapplicableBoundError, match=singular) as exc:
                    upper_factor(p, method, norm)
                assert exc.value.condition == condition
            for u in error_bound_report(p, norm).upper_factors:
                if norm in ESTIMATORS[u.method].norms:
                    assert u.condition == premises[u.method]
                    assert re.match(singular, u.reason), u
                else:
                    assert u.condition is None and "2-norm only" in u.reason, u
            with pytest.raises(InapplicableBoundError) as exc:
                error_interval(p, np.zeros(3), norm)
            assert exc.value.condition == "no_applicable_estimator"
            for kernel in ("damped", "series"):
                with pytest.raises(InapplicableBoundError, match=singular) as exc:
                    componentwise_bound(p, np.ones(3), 1e-3, norm, kernel)
                assert exc.value.condition == "invertible_A"
            # upsilon's truncated gap passes the same gate: it used to read
            # 0.001 here, off a gap of rounding noise.
            report = general_relative_bound(p, pert, p=norm)
            assert report.tau is None and report.upsilon is None and report.nu is None
            assert f"{NEUMANN}: A is singular to working precision" in report.notes[0]

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

    @pytest.mark.parametrize("p", (1, 2, np.inf), ids=["p1", "p2", "pinf"])
    def test_smallest_singular_value_past_the_square_root_of_the_float_range(self, p):
        # smin**2 overflows past about 1.3e154; upper is then taken as
        # (lower / smin) / (smin - 1 / smin), not from smin**2 - 1.
        assert identity_ave_bounds([[1e200]], p) == (2e200, pytest.approx(2e-200, rel=1e-15))
        rep = error_bound_report(AveProblem([[1e200]], [[1.0]], [1.0]), p)
        assert (rep.identity_lower, rep.identity_upper) == (2e200, pytest.approx(2e-200, rel=1e-15))


class TestErrorBoundReport:
    def test_collects_everything(self):
        rep = error_bound_report(two_by_two_demo())
        assert rep.p == 2
        assert len(rep.upper_factors) == 3
        assert all(u.applicable for u in rep.upper_factors)
        assert rep.interval(1.0).upper == pytest.approx(1.2807764064044151, abs=1e-9)
        assert rep.identity_lower is None  # B is not the identity here

    def test_identity_pair_included(self):
        p = AveProblem(np.diag([2.0, 3.0]), np.eye(2), np.zeros(2))
        rep = error_bound_report(p)
        assert rep.identity_lower == pytest.approx(6.0)
        assert rep.identity_upper == pytest.approx(2.0)

    @pytest.mark.parametrize("A", [np.diag([1.0, 3.0]), np.array([[0.5, 2.0], [0.0, 3.0]])],
                             ids=["smin_one", "smin_below_one"])
    def test_identity_pair_inapplicable(self, A):
        # B = I with sigma_min(A) <= 1: the pair's premise fails, and the
        # report still carries every upper factor.
        rep = error_bound_report(AveProblem(A, np.eye(2), np.ones(2)))
        assert [u.method for u in rep.upper_factors] == list(METHODS)
        assert rep.identity_lower is None and rep.identity_upper is None

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
        with pytest.raises(InapplicableBoundError):
            rep.interval(1.0)
        assert all(not u.applicable for u in rep.upper_factors)
        assert all(u.reason for u in rep.upper_factors)


def table_one_cell():
    problem = lcp_to_ave(harness.gen_problem("tridiag", 30))
    return problem, harness.gen_perturbation("tridiag", 30, 0.01)


class TestEstimatorTable:
    """``ESTIMATORS`` is the one place an estimator's name, norms and report
    field are declared; the other modules read them from it."""

    @pytest.mark.parametrize("p", (1, 2, np.inf), ids=["p1", "p2", "pinf"])
    @pytest.mark.parametrize("method", list(ESTIMATORS))
    def test_norm_rule(self, method, p):
        est = ESTIMATORS[method]
        problem, pert = table_one_cell()
        rep = general_relative_bound(problem, pert, p=p)
        notes = [note for note in rep.notes if note.startswith(f"{method}: ")]
        if p in est.norms:
            assert getattr(rep, est.field) is not None and notes == []
        else:
            with pytest.raises(ValueError, match="2-norm"):
                upper_factor(problem, method, p)
            assert getattr(rep, est.field) is None
            assert len(notes) == 1 and "2-norm" in notes[0]

    @pytest.mark.parametrize("method", list(ESTIMATORS))
    def test_field_is_carried_by_both_reports(self, method):
        field = ESTIMATORS[method].field
        for report in (perturbation.PerturbBoundReport, perturbation.ExperimentRecord):
            assert field in {f.name for f in dataclasses.fields(report)}
        # Declared once: a record extends the report.
        assert issubclass(perturbation.ExperimentRecord, perturbation.PerturbBoundReport)
        assert field not in perturbation.ExperimentRecord.__annotations__

    @pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
    def test_gap_probes(self, form):
        # singular_gap reads sigma_n(A) - sigma_1(B) of the pair; upsilon
        # reads sigma_1(A + dA) - sigma_6(B + dB), the rank capped at n.
        rng = np.random.default_rng(35)
        seen = set()
        for k in range(120):
            n = k % 10 + 1
            A = rng.normal(size=(n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
            B = np.exp(rng.uniform(-3.0, 2.5)) * rng.normal(size=(n, n))
            dA, dB = (1e-3 * rng.normal(size=(n, n)) for _ in range(2))
            symmetric = k % 20 >= 10    # exactly symmetric pairs, n = 1 aside
            if symmetric:
                A, B, dA, dB = (m + m.T for m in (A, B, dA, dB))
            pert = Perturbation(dA, dB, 1e-3 * rng.normal(size=n))
            problem = AveProblem(A, B, rng.normal(size=n), form)
            perturbed = problem.perturbed(dA, dB, pert.db)
            assert np.array_equal(perturbed.B, perturbed.B.T) == (symmetric or n == 1)

            s_a, s_b = (numerics.singular_values(m) for m in (problem.A, problem.B))
            gap = s_a[-1] - s_b[0]
            if gap > 0:
                assert upper_factor(problem, SINGULAR_GAP) == 1 / gap
            else:
                with pytest.raises(InapplicableBoundError,
                                   match=rf"^singular-value gap sigma_{n}\(A\) - sigma_1\(B\) is ") as exc:
                    upper_factor(problem, SINGULAR_GAP)
                assert exc.value.condition == "singular_value_gap"
            seen.add(("full", bool(gap > 0)))

            rep = general_relative_bound(problem, pert)
            s_a, s_b = (numerics.singular_values(m) for m in (perturbed.A, perturbed.B))
            j = min(5, n - 1)
            gap = s_a[0] - s_b[j]
            if gap > 0:
                assert rep.upsilon == 1 / gap * rep.w
            else:
                notes = [note for note in rep.notes if note.startswith(f"{SINGULAR_GAP}: ")]
                assert rep.upsilon is None and len(notes) == 1
                assert notes[0].startswith(
                    f"{SINGULAR_GAP}: singular-value gap sigma_1(A) - sigma_{j + 1}(B) is ")
            seen.add(("upsilon", bool(gap > 0), n < 6, symmetric))
        assert {("full", True), ("full", False)} <= seen
        assert {("upsilon", opened, capped, symmetric) for opened in (True, False)
                for capped in (True, False) for symmetric in (True, False)} <= seen

    def test_record_columns_follow_the_table(self):
        assert harness._RECORD_FIELDS == ("n", "epsilon", "r", "w", "tau", "upsilon", "nu", "delta")

    def test_only_the_table_relative_factor_bypasses_upper_factor(self, monkeypatch):
        # upsilon takes the truncated gap; tau and nu go through upper_factor,
        # where the traced per-method counts are taken.
        called = []
        original = bounds.upper_factor

        def counting(problem, method=NEUMANN, p=2):
            called.append(method)
            return original(problem, method, p)

        monkeypatch.setattr(bounds, "upper_factor", counting)
        problem, pert = table_one_cell()
        rep = general_relative_bound(problem, pert)
        assert called == [NEUMANN, NORM_RATIO]
        assert rep.notes == []
        assert all(getattr(rep, est.field) is not None for est in ESTIMATORS.values())


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


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
@pytest.mark.parametrize("seed", range(8))
def test_interval_is_read_off_the_report(seed, form):
    """error_interval is the report's interval at the residual norm, for
    problems where every, some or no estimator applies."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 13))
    base = random_solvable(rng, n, form=form)
    x = rng.normal(size=n)
    for scale in (1.0, 3.0):    # 3.0 pushes rho(|K|) past 1 for most seeds
        problem = AveProblem(base.A, scale * base.B, base.b, form)
        for p in (1, 2, np.inf):
            report = error_bound_report(problem, p)
            r_norm = np.linalg.norm(residual(problem, x), p)
            try:
                want = report.interval(r_norm)
            except InapplicableBoundError as exc:
                assert exc.condition == "no_applicable_estimator"
                with pytest.raises(InapplicableBoundError) as got:
                    error_interval(problem, x, p)
                assert got.value.condition == "no_applicable_estimator"
                continue
            got = error_interval(problem, x, p)
            assert got == want
            assert got.upper == report.interval(1.0).upper * r_norm


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

