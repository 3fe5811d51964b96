"""Acceptance gate: every release criterion, one printed PASS/FAIL line each.

The seven criteria:

  1. benchmark table 1 (tridiagonal family, n = 30) reproduced to within
     1.5e-3 of the frozen reference values, in under 10 seconds;
  2. benchmark tables 2-4 (n = 40, 225, 400) to the same tolerance, in
     under 60 seconds combined;
  3. the 2x2 complementarity demo: seven frozen readings, the
     comparison-matrix bound equal to 2, and every upper factor below it;
  4. the condition-comparison pairs: the spectral-radius and
     singular-gap conditions hold on disjoint instances, and on the
     diagonal pairs each of the ratio and gap estimators wins once;
  5. scaled-identity perturbed-complementarity readings match their
     closed forms at eps in {0.01, 0.001} and stay below the
     comparison-matrix reference curve 2*eps/(1 - eps);
  6. randomized property sweeps at frozen seeds: error-interval
     sandwich, brute-force dominance, lower*upper >= 1, norm-shift
     slacks, identity-family inequalities, perturbation-bound coverage,
     and exact B = 0 reductions;
  7. complementarity equivalence: benchmark and random H-plus linear
     complementarity problems solved through the absolute-value form
     reach min-residual 1e-5, and column_w_property agrees with an
     exhaustive principal-minor sweep on all 19683 3x3 sign matrices.

Run directly for the full report:

    python3 tests/test_acceptance.py

Each criterion is also a pytest test, so a plain ``pytest`` run enforces
the same gate.
"""

import itertools
import sys
import time

import numpy as np

from avebounds import (
    NEUMANN,
    NORM_RATIO,
    SINGULAR_GAP,
    AveProblem,
    HlcpProblem,
    Perturbation,
    SolveOptions,
    brute_force_alpha,
    column_w_property,
    componentwise_bound,
    error_interval,
    gen_lattice_lcp,
    gen_tridiag_lcp,
    general_relative_bound,
    hlcp_perturb_bound,
    hlcp_to_ave,
    identity_ave_bounds,
    lcp_comparison_bound,
    lcp_min_residual,
    lcp_to_ave,
    lower_factor,
    p_norm,
    picard_solve,
    recover_solution,
    region_factors,
    reproduce_table,
    sign_diagonal,
    spectral_radius_nonneg,
    upper_factor,
)
from avebounds import numerics
from avebounds.exceptions import InapplicableBoundError
from support import (
    box_vertices,
    componentwise_linear_bound,
    normwise_linear_bound,
    random_hplus_lcp,
    random_solvable,
    shifted_norm_slacks,
)

TABLE_TOLERANCE = 1.5e-3

# Frozen 4-decimal reference values for the benchmark tables.  Row order
# matches BENCH_EPSILONS = (0.01, 0.015, 0.02, 0.025, 0.03); the grids
# themselves live in avebounds.harness.BENCH_TABLES.
TABLE_REFERENCE = {
    1: {  # tridiagonal family, n = 30
        "r": (0.0040, 0.0061, 0.0081, 0.0101, 0.0122),
        "tau": (0.2845, 0.4124, 0.5321, 0.6442, 0.7495),
        "upsilon": (0.0465, 0.0692, 0.0916, 0.1138, 0.1356),
        "nu": (0.1104, 0.1650, 0.2194, 0.2736, 0.3275),
        "delta": (0.0048, 0.0072, 0.0097, 0.0121, 0.0146),
    },
    2: {  # tridiagonal family, n = 40
        "r": (0.0041, 0.0061, 0.0082, 0.0102, 0.0123),
        "tau": (0.2956, 0.4282, 0.5519, 0.6677, 0.7762),
        "upsilon": (0.0473, 0.0704, 0.0932, 0.1157, 0.1378),
        "nu": (0.1112, 0.1663, 0.2211, 0.2757, 0.3301),
        "delta": (0.0046, 0.0069, 0.0093, 0.0116, 0.0140),
    },
    3: {  # lattice family, m = 15 (n = 225)
        "r": (0.0028, 0.0042, 0.0056, 0.0070, 0.0084),
        "tau": (0.2571, 0.3870, 0.5177, 0.6493, 0.7817),
        "upsilon": (0.0422, 0.0631, 0.0839, 0.1046, 0.1252),
        "nu": (0.1731, 0.2598, 0.3465, 0.4334, 0.5203),
        "delta": (0.0055, 0.0083, 0.0111, 0.0139, 0.0167),
    },
    4: {  # lattice family, m = 20 (n = 400)
        "r": (0.0030, 0.0045, 0.0060, 0.0075, 0.0090),
        "tau": (0.2798, 0.4212, 0.5637, 0.7071, 0.8516),
        "upsilon": (0.0466, 0.0697, 0.0927, 0.1155, 0.1382),
        "nu": (0.1835, 0.2754, 0.3674, 0.4595, 0.5517),
        "delta": (0.0055, 0.0083, 0.0111, 0.0139, 0.0167),
    },
}

QUANTITIES = ("r", "tau", "upsilon", "nu", "delta")


def _check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" -- {detail}"
    print(line)
    return ok


def _table_deviation(table_id):
    """Reproduce one benchmark table; return the worst entry deviation."""
    out = reproduce_table(table_id)
    if out.failures:
        raise AssertionError(f"table {table_id} cells failed: {out.failures}")
    if any(row.notes for row in out.rows):
        raise AssertionError(f"table {table_id} has inapplicable bounds: "
                             f"{[row.notes for row in out.rows]}")
    reference = TABLE_REFERENCE[table_id]
    worst = 0.0
    for j, row in enumerate(out.rows):
        for quantity in QUANTITIES:
            got = getattr(row, quantity)
            worst = max(worst, abs(got - reference[quantity][j]))
    return worst


# ----------------------------------------------------------------- 1, 2


def _criterion_table_one():
    start = time.monotonic()
    worst = _table_deviation(1)
    elapsed = time.monotonic() - start
    ok = worst <= TABLE_TOLERANCE and elapsed < 10.0
    return ok, f"max deviation {worst:.2e} over 25 entries, {elapsed:.1f}s"


def _criterion_remaining_tables():
    start = time.monotonic()
    worst = max(_table_deviation(table_id) for table_id in (2, 3, 4))
    elapsed = time.monotonic() - start
    ok = worst <= TABLE_TOLERANCE and elapsed < 60.0
    return ok, f"max deviation {worst:.2e} over 75 entries, {elapsed:.1f}s"


# -------------------------------------------------------------------- 3


def _criterion_demo_bounds():
    M = np.array([[1.0, -0.5], [0.5, 1.0]])
    problem = hlcp_to_ave(HlcpProblem(M, np.eye(2), np.array([1.0, 1.0])))
    A_bar, B_bar = problem.A, problem.B
    iteration = np.linalg.inv(A_bar) @ B_bar

    rho, _ = spectral_radius_nonneg(np.abs(iteration))
    neumann = upper_factor(problem, NEUMANN, 2)
    smin_a = numerics.singular_values(A_bar)[-1]
    smax_b = numerics.singular_values(B_bar)[0]
    gap = upper_factor(problem, SINGULAR_GAP, 2)
    t = p_norm(iteration, 2)
    ratio = upper_factor(problem, NORM_RATIO, 2)
    comparison = lcp_comparison_bound(M)

    readings = [
        ("rho", rho, 0.2941),
        ("neumann", neumann, 1.3744),
        ("smin_A", smin_a, 1.0308),
        ("smax_B", smax_b, 0.2500),
        ("gap", gap, 1.2808),
        ("sigma_ratio", t, 0.2425),
        ("ratio", ratio, 1.2807),
    ]
    bad = [name for name, got, want in readings if abs(got - want) > 5e-4]
    ok = not bad
    ok &= abs(comparison - 2.0) <= 1e-6
    ok &= max(neumann, gap, ratio) < comparison
    detail = (
        f"neumann {neumann:.4f}, gap {gap:.4f}, ratio {ratio:.4f}, "
        f"comparison {comparison:.6f}"
    )
    if bad:
        detail += f"; off readings: {bad}"
    return ok, detail


# -------------------------------------------------------------------- 4


def _criterion_condition_pairs():
    ok = True

    # Gap condition holds, radius condition fails.
    B1 = np.array([[0.9, -0.4], [0.4, 0.9]])
    rho1, _ = spectral_radius_nonneg(np.abs(B1))  # A = I, so |A^-1 B| = |B|
    smax1 = numerics.singular_values(B1)[0]
    ok &= abs(rho1 - 1.3) <= 5e-4 and rho1 > 1.0
    ok &= abs(smax1 - 0.9849) <= 5e-4 and smax1 < 1.0

    # Radius condition holds, gap condition fails.
    A2 = np.array([[2.0, 1.0], [0.0, 2.0]])
    B2 = 1.6 * np.eye(2)
    rho2, _ = spectral_radius_nonneg(np.abs(np.linalg.inv(A2) @ B2))
    smin2 = numerics.singular_values(A2)[-1]
    ok &= abs(rho2 - 0.8000) <= 5e-4 and rho2 < 1.0
    ok &= abs(smin2 - 1.5616) <= 5e-4 and smin2 < 1.6

    # Diagonal pair on which the ratio estimator is the sharper one.
    first = AveProblem(np.diag([2.0, 3.0]), np.diag([1.0, 1.5]), np.zeros(2))
    ratio1 = upper_factor(first, NORM_RATIO, 2)
    gap1 = upper_factor(first, SINGULAR_GAP, 2)
    ok &= abs(ratio1 - 1.0) <= 1e-9
    ok &= abs(gap1 - 2.0) <= 1e-9

    # Swapped diagonal: the gap estimator is the sharper one.
    second = AveProblem(np.diag([2.0, 3.0]), np.diag([1.5, 1.0]), np.zeros(2))
    ratio2 = upper_factor(second, NORM_RATIO, 2)
    gap2 = upper_factor(second, SINGULAR_GAP, 2)
    ok &= abs(gap2 - 2.0) <= 1e-9
    ok &= ratio2 > 2.0 and ratio2 > gap2

    detail = (
        f"rho {rho1:.4f}/{rho2:.4f}, sigma {smax1:.4f}/{smin2:.4f}; "
        f"first pair ratio {ratio1:.1f} < gap {gap1:.1f}, "
        f"second pair ratio {ratio2:.1f} > gap {gap2:.1f}"
    )
    return ok, detail


# -------------------------------------------------------------------- 5


def _criterion_closed_forms():
    M = 1.5 * np.eye(2)
    N = np.eye(2)
    q = np.array([-1.0, 2.0 * np.sqrt(6.0)])
    hlcp = HlcpProblem(M, N, q)
    dN = np.zeros((2, 2))

    ok = True
    margins = []
    for eps in (0.01, 0.001):
        dM = eps * M
        dq = np.array([eps, 0.0])  # attains ||dq|| = eps ||(-q)_+|| in 2 and inf
        reference = 2.0 * eps / (1.0 - eps)

        got_i = hlcp_perturb_bound(hlcp, dM, dN, dq, p=np.inf).tau
        # Both spectra are flat: upsilon's truncated gap is the full gap.
        two = hlcp_perturb_bound(hlcp, dM, dN, dq, p=2)
        got_ii, got_iii = two.upsilon, two.nu

        want_i = (1.0 / (4.0 * np.sqrt(6.0)) + 0.5) * 3.0 * eps
        want_ii = 1.8 * eps
        t = (1.0 + 3.0 * eps) / (5.0 + 3.0 * eps)
        want_iii = t * (2.0 / (0.5 + 1.5 * eps)) / (1.0 - t) * 1.8 * eps

        ok &= abs(got_i - want_i) <= 1e-12
        ok &= abs(got_ii - want_ii) <= 1e-12
        ok &= abs(got_iii - want_iii) <= 1e-12
        ok &= got_i < reference and got_ii < reference and got_iii < reference

        # The reference curve is 2*delta/(1 - delta) with delta = eps for
        # this scaled identity (its condition number is exactly 1).
        factors = region_factors(M, eta=0.0, epsilon=eps)
        ok &= abs(factors.delta - eps) <= 1e-9
        ok &= abs(2.0 * factors.delta / (1.0 - factors.delta) - reference) <= 1e-9

        margins.append(reference - max(got_i, got_ii, got_iii))

    detail = (
        "readings match closed forms at 1e-12; "
        f"margins below reference: {margins[0]:.2e} (eps=0.01), "
        f"{margins[1]:.2e} (eps=0.001)"
    )
    return ok, detail


# -------------------------------------------------------------------- 6


def _sweep_sandwich():
    """Error interval brackets the true error on random solvable systems.

    The upper end and the residual-over-norm-sum lower estimate must hold
    unconditionally.  The optimistic lower end is certified only when the
    realized sign diagonal keeps ||A - B diag(d)|| within the extreme-value
    estimate, so cases outside that region are counted and skipped rather
    than asserted.
    """
    rng = np.random.default_rng(20250401)
    tight = SolveOptions(tolerance=1e-10)
    gaps = lower_viol = upper_viol = universal_viol = 0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        problem = random_solvable(rng, n)
        result = picard_solve(problem, tight)
        x = result.x + rng.normal(size=n) * rng.uniform(0.01, 2.0)
        interval = error_interval(problem, x)
        err = float(np.linalg.norm(x - result.x))

        if err > interval.upper + 1e-9:
            upper_viol += 1
        universal = interval.residual_norm / (
            np.linalg.norm(problem.A, 2) + np.linalg.norm(problem.B, 2)
        )
        if universal > err + 1e-9:
            universal_viol += 1

        d = sign_diagonal(x, result.x)
        realized = np.linalg.norm(problem.A - problem.B * d[None, :], 2)
        if realized > lower_factor(problem) * (1.0 + 1e-12):
            gaps += 1
            continue
        if interval.lower > err + 1e-9:
            lower_viol += 1
    ok = lower_viol == 0 and upper_viol == 0 and universal_viol == 0
    ok &= gaps < 1000  # the certified branch must actually run
    return ok, f"sandwich {lower_viol}/{upper_viol}/{universal_viol} viol ({gaps} gaps)"


def _sweep_dominance():
    """Brute-forced worst inverse norm never beats an applicable estimator."""
    rng = np.random.default_rng(20250404)
    viol = 0
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        problem = random_solvable(rng, n)
        brute = brute_force_alpha(problem)
        for method in (NEUMANN, SINGULAR_GAP, NORM_RATIO):
            try:
                estimate = upper_factor(problem, method, 2)
            except InapplicableBoundError:
                continue
            checked += 1
            if brute > estimate + 1e-8:
                viol += 1
    return viol == 0 and checked > 0, f"dominance {viol} viol ({checked} pairs)"


def _sweep_product():
    """lower_factor * upper_factor >= 1 whenever the estimator applies."""
    rng = np.random.default_rng(20250409)
    viol = 0
    checked = 0
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        problem = random_solvable(rng, n)
        for p in (1, 2, np.inf):
            low = lower_factor(problem, p)
            methods = (NEUMANN, SINGULAR_GAP, NORM_RATIO) if p == 2 else (NEUMANN,)
            for method in methods:
                try:
                    up = upper_factor(problem, method, p)
                except InapplicableBoundError:
                    continue
                checked += 1
                worst = min(worst, low * up)
                if low * up < 1.0 - 1e-9:
                    viol += 1
    return viol == 0 and checked > 0, f"product min {worst:.3f} ({checked} pairs)"


def _sweep_slacks():
    """Both shifted-norm inequalities keep nonnegative slack."""
    rng = np.random.default_rng(20250408)
    worst = np.inf
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n)) * rng.uniform(0.2, 3.0)
        alpha = float(rng.uniform(0.05, 4.0))
        for p in (1, 2, np.inf):
            slack1, slack2 = shifted_norm_slacks(A, alpha, p)
            worst = min(worst, slack1)
            if slack2 is not None:
                worst = min(worst, slack2)
    return worst >= -1e-10, f"slacks min {worst:.2e}"


def _sweep_identity_family():
    """B = I family: vertex norms and inverse norms obey the closed bounds."""
    rng = np.random.default_rng(20250405)
    viol_vertex = viol_brute = viol_chain = 0
    sharp = 0
    for k in range(1000):
        n = int(rng.integers(2, 9))
        A = rng.normal(size=(n, n)) * rng.uniform(0.5, 2.0)
        if k % 2 == 0:
            A = A + (1.0 + rng.uniform(0.1, 2.0) + np.linalg.norm(A, 2)) * np.eye(n)
        eye = np.eye(n)
        envelope = np.linalg.norm(A + eye, 2) + np.linalg.norm(A - eye, 2)
        vertex_max = max(
            p_norm(A - np.diag(d), 2) for d in box_vertices(n)
        )
        if vertex_max > envelope + 1e-9:
            viol_vertex += 1

        smin = numerics.singular_values(A)[-1]
        if smin > 1.0:
            sharp += 1
            _, upper = identity_ave_bounds(A)
            brute = brute_force_alpha(AveProblem(A, eye, np.zeros(n)))
            if brute > upper + 1e-8:
                viol_brute += 1
            if 1.0 / (smin - 1.0) > upper + 1e-9:
                viol_chain += 1
    ok = viol_vertex == 0 and viol_brute == 0 and viol_chain == 0 and sharp > 0
    return ok, f"identity {viol_vertex}/{viol_brute}/{viol_chain} viol ({sharp} sharp)"


def _sweep_perturbation_cover():
    """Observed relative solution change <= smallest applicable estimate.

    The truncated-gap estimate (upsilon) trades certification for
    availability, so it is tracked separately instead of entering the
    minimum.
    """
    rng = np.random.default_rng(20250402)
    tight = SolveOptions(tolerance=1e-10)
    viol = 0
    upsilon_exceed = 0
    for _ in range(1000):
        n = int(rng.integers(2, 11))
        problem = random_solvable(rng, n, rho_cap=0.85)
        scale = rng.uniform(1e-4, 1e-2)
        pert = Perturbation(
            scale * rng.normal(size=(n, n)),
            scale * rng.normal(size=(n, n)),
            scale * rng.normal(size=n),
        )
        shifted = problem.perturbed(pert.dA, pert.dB, pert.db)
        base = picard_solve(problem, tight)
        moved = picard_solve(shifted, tight)
        if not (base.converged and moved.converged):
            viol += 1
            continue
        observed = np.linalg.norm(moved.x - base.x) / np.linalg.norm(base.x)
        report = general_relative_bound(problem, pert)

        candidates = []
        if report.tau is not None:
            candidates.append(report.tau)
        if report.nu is not None:
            candidates.append(report.nu)
        try:
            candidates.append(
                upper_factor(shifted, SINGULAR_GAP, 2) * report.w
            )
        except InapplicableBoundError:
            pass
        if report.upsilon is not None and observed > report.upsilon + 1e-9:
            upsilon_exceed += 1
        if not candidates or observed > min(candidates) + 1e-9:
            viol += 1
    ok = viol == 0
    return ok, f"perturb-min {viol} viol ({upsilon_exceed} upsilon exceedances logged)"


def _sweep_zero_b_reduction():
    """With B = 0 every estimator collapses to its linear-system formula."""
    rng = np.random.default_rng(20250407)
    worst_tau = worst_comp = 0.0
    order_viol = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        A = rng.normal(size=(n, n)) + (
            1.0 + np.linalg.norm(rng.normal(size=(n, n)), 2)
        ) * np.eye(n)
        b = rng.normal(size=n)
        while not np.any(b):
            b = rng.normal(size=n)
        x_star = np.linalg.solve(A, b)
        eps = float(rng.uniform(1e-5, 1e-3))
        dA = eps * rng.uniform(size=(n, n)) * np.abs(A)
        db = eps * rng.uniform(size=n) * np.abs(b)

        zero = np.zeros((n, n))
        problem = AveProblem(A, zero, b)
        report = general_relative_bound(problem, Perturbation(dA, zero, db))
        normwise = normwise_linear_bound(A, dA, b, db)
        comp_classical = componentwise_linear_bound(A, b, x_star, eps)

        tau_direct = p_norm(np.linalg.inv(A + dA), 2) * report.w
        worst_tau = max(worst_tau, abs(report.tau - tau_direct))
        if report.tau > normwise + 1e-12:
            order_viol += 1

        damped = componentwise_bound(problem, x_star, eps, kernel="damped")
        series = componentwise_bound(problem, x_star, eps, kernel="series")
        worst_comp = max(
            worst_comp,
            abs(damped - comp_classical),
            abs(series - comp_classical),
        )
    ok = worst_tau <= 1e-12 and worst_comp <= 1e-12 and order_viol == 0
    return ok, f"B=0 max dev {max(worst_tau, worst_comp):.1e}"


def _criterion_property_sweeps():
    sweeps = (
        _sweep_sandwich,
        _sweep_dominance,
        _sweep_product,
        _sweep_slacks,
        _sweep_identity_family,
        _sweep_perturbation_cover,
        _sweep_zero_b_reduction,
    )
    ok = True
    fragments = []
    for sweep in sweeps:
        good, fragment = sweep()
        ok &= good
        if not good:
            fragment = "FAILED " + fragment
        fragments.append(fragment)
    return ok, "; ".join(fragments)


# -------------------------------------------------------------------- 7


def _is_p_matrix(entries):
    """All seven principal minors strictly positive (exact on integers)."""
    m = entries
    if m[0][0] <= 0 or m[1][1] <= 0 or m[2][2] <= 0:
        return False
    if m[0][0] * m[1][1] - m[0][1] * m[1][0] <= 0:
        return False
    if m[0][0] * m[2][2] - m[0][2] * m[2][0] <= 0:
        return False
    if m[1][1] * m[2][2] - m[1][2] * m[2][1] <= 0:
        return False
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    return det > 0


def _criterion_complementarity():
    opts = SolveOptions(tolerance=1e-8)
    ok = True

    # Benchmark problems solved through the absolute-value form.
    worst_bench = 0.0
    for lcp in (
        gen_tridiag_lcp(30),
        gen_tridiag_lcp(40),
        gen_lattice_lcp(15),
        gen_lattice_lcp(20),
    ):
        result = picard_solve(lcp_to_ave(lcp), opts)
        ok &= result.converged
        solution = recover_solution(lcp, result.x)
        residual = np.linalg.norm(lcp_min_residual(lcp, solution.z), np.inf)
        worst_bench = max(worst_bench, residual)
    ok &= worst_bench <= 1e-5

    # Random H-plus instances.
    rng = np.random.default_rng(20250403)
    worst_random = 0.0
    nonconverged = 0
    for _ in range(100):
        n = int(rng.integers(2, 51))
        lcp = random_hplus_lcp(rng, n)
        result = picard_solve(lcp_to_ave(lcp), opts)
        if not result.converged:
            nonconverged += 1
            continue
        solution = recover_solution(lcp, result.x)
        residual = np.linalg.norm(lcp_min_residual(lcp, solution.z), np.inf)
        worst_random = max(worst_random, residual)
    ok &= nonconverged == 0 and worst_random <= 1e-5

    # column_w_property against an independent principal-minor sweep.
    eye = np.eye(3)
    q_zero = np.zeros(3)
    disagreements = 0
    positives = 0
    for entries in itertools.product((-1, 0, 1), repeat=9):
        rows = (entries[0:3], entries[3:6], entries[6:9])
        M = np.array(rows, dtype=float)
        from_w = column_w_property(HlcpProblem(M, eye, q_zero))
        from_minors = _is_p_matrix(rows)
        positives += from_minors
        if from_w != from_minors:
            disagreements += 1
    ok &= disagreements == 0 and positives > 0

    detail = (
        f"bench residual {worst_bench:.1e}, random residual {worst_random:.1e}, "
        f"sign sweep {disagreements} disagreements ({positives} P-matrices)"
    )
    return ok, detail


# ------------------------------------------------------------- pytest


def test_table_one_reproduction():
    ok, detail = _criterion_table_one()
    assert _check("criterion 1: benchmark table 1", ok, detail)


def test_remaining_tables_reproduction():
    ok, detail = _criterion_remaining_tables()
    assert _check("criterion 2: benchmark tables 2-4", ok, detail)


def test_demo_error_bounds():
    ok, detail = _criterion_demo_bounds()
    assert _check("criterion 3: 2x2 demo bounds", ok, detail)


def test_condition_pairs():
    ok, detail = _criterion_condition_pairs()
    assert _check("criterion 4: condition pairs", ok, detail)


def test_perturbed_closed_forms():
    ok, detail = _criterion_closed_forms()
    assert _check("criterion 5: closed-form readings", ok, detail)


def test_randomized_property_sweeps():
    ok, detail = _criterion_property_sweeps()
    assert _check("criterion 6: property sweeps", ok, detail)


def test_complementarity_equivalence():
    ok, detail = _criterion_complementarity()
    assert _check("criterion 7: complementarity equivalence", ok, detail)


_CRITERIA = (
    ("criterion 1: benchmark table 1", _criterion_table_one),
    ("criterion 2: benchmark tables 2-4", _criterion_remaining_tables),
    ("criterion 3: 2x2 demo bounds", _criterion_demo_bounds),
    ("criterion 4: condition pairs", _criterion_condition_pairs),
    ("criterion 5: closed-form readings", _criterion_closed_forms),
    ("criterion 6: property sweeps", _criterion_property_sweeps),
    ("criterion 7: complementarity equivalence", _criterion_complementarity),
)


if __name__ == "__main__":
    started = time.monotonic()
    outcomes = []
    for label, runner in _CRITERIA:
        good, info = runner()
        outcomes.append(_check(label, good, info))
    total = time.monotonic() - started
    print(f"{sum(outcomes)}/{len(outcomes)} criteria passed in {total:.1f}s")
    sys.exit(0 if all(outcomes) else 1)
