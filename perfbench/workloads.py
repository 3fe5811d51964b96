"""The benchmark's workloads: input generation, ops and output checks.

Every input is derived from ``numpy.random.default_rng([seed, i])`` for op
``i``, so a seed fixes the inputs.  The op *schedule* (which call, size, form
and norm op ``i`` makes) is the same for every seed, so runs with different
seeds execute the same mix and differ only in the matrices.  Every check
holds for any correct implementation: answers are planted by construction or
follow from a theorem, never from this implementation's own output.
"""
from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np
import scipy.linalg

import avebounds as ab
from avebounds import cli, matrixio
from measure import CheckFailed, Op, Tally, execute

NORMS = (1, 2, np.inf)
REL = 1e-9          # slack between two evaluations of one norm
WARMUP = 2**40      # op indices at and above this are set-up only


def _rng(seed, i):
    return np.random.default_rng([seed, i])


def _norm(v, p):
    return float(np.linalg.norm(v, p))


def _family_member(problem, d):
    """A - B diag(d) for type 1, A - diag(d) B for type 2."""
    if problem.form == ab.TYPE_ONE:
        return problem.A - problem.B * d[None, :]
    return problem.A - d[:, None] * problem.B


def _is_below(value, bound, what, tag):
    if not value <= bound * (1 + REL):
        raise CheckFailed(tag, f"{what}: {value!r} > {bound!r}")


# ------------------------------------------------------------- lattice-t4

# Frozen 4-decimal values of the paper's table 4 (lattice family, n = 400),
# one entry per epsilon in BENCH_EPSILONS.
TABLE4 = {
    "r": (0.0030, 0.0045, 0.0060, 0.0075, 0.0090),
    "tau": (0.2798, 0.4212, 0.5637, 0.7071, 0.8516),
    "upsilon": (0.0466, 0.0697, 0.0927, 0.1155, 0.1382),
    "nu": (0.1835, 0.2754, 0.3674, 0.4595, 0.5517),
    "delta": (0.0055, 0.0083, 0.0111, 0.0139, 0.0167),
}
TABLE_TOL = 1.5e-3


def check_table4(out):
    if out.failures:
        raise CheckFailed("table_cell_failed", str(out.failures))
    if len(out.rows) != 5:
        raise CheckFailed("table_mismatch", f"{len(out.rows)} rows")
    for j, row in enumerate(out.rows):
        for quantity, ref in TABLE4.items():
            got = getattr(row, quantity)
            if got is None or abs(got - ref[j]) > TABLE_TOL:
                raise CheckFailed("table_mismatch", f"{quantity}[{j}] = {got}, frozen {ref[j]}")


class LatticeT4:
    """``reproduce_table(4)``: the paper's lattice table, inputs fixed by it."""

    name = "lattice-t4"
    timed_ops_per_s = 0.22
    trace_ops_per_s = 0.3

    def __init__(self, seed, workdir):
        """The paper fixes the inputs, so the seed has no effect."""

    def setup(self):
        """Warm the package and the thread pool on the small table 1."""
        ab.reproduce_table(1)

    def op(self, i):
        return Op("reproduce_table", lambda: ab.reproduce_table(4), check_table4)


# ----------------------------------------------------------- query-stream

QUERY_SIZES = (40, 80, 160)
QUERY_KINDS = ("picard", "interval", "report", "solvability", "relative",
               "componentwise", "lcp", "hlcp", "cli", "signbox")
HARD_RHO = 1.25     # rho(|A^-1 B|) of every eleventh problem
# The sign-box kind advances every 30-op cycle and skips one extra every
# SIGN_BLOCK cycles, so that each kind meets every (form, norm) pair.
SIGN_BLOCK = 6


def planted_problem(rng, n, form, hard):
    """AVE with rho(|A^-1 B|) known by construction; ``x`` solves easy ones.

    K = A^-1 B (B A^-1 for type 2) is a row-stochastic |K| scaled to rho, so
    rho(|K|) = rho exactly.  Easy problems get random signs on K and a
    planted solution x.  Hard ones keep K >= 0 and make the Picard iterates
    of y = K|y| + c (y = x for type 1, y = A x for type 2) start from c > 0:
    they stay positive and grow like rho**k, and no solution exists, since a
    solution would be positive and y = K y + c has none when rho(K) > 1.
    Hard problems return x = None.
    """
    A = 3.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    H = np.abs(rng.standard_normal((n, n)))
    H /= H.sum(axis=1, keepdims=True)
    rho = HARD_RHO if hard else rng.uniform(0.3, 0.8)
    K = rho * H if hard else rho * H * rng.choice((-1.0, 1.0), size=(n, n))
    B = A @ K if form == ab.TYPE_ONE else K @ A
    if hard:
        c = np.abs(rng.standard_normal(n)) + 0.1
        x = None
        b = A @ c if form == ab.TYPE_ONE else c
    else:
        x = rng.standard_normal(n)
        b = A @ x - (B @ np.abs(x) if form == ab.TYPE_ONE else np.abs(B @ x))
    return ab.AveProblem(A, B, b, form), x, rho


def trial_point(rng, x, dense):
    """x* plus a small error: dense noise, or one wrong coordinate."""
    scale = 1e-3 * max(1.0, float(np.max(np.abs(x))))
    e = np.zeros_like(x)
    if dense:
        e = rng.standard_normal(x.shape[0])
    else:
        e[rng.integers(x.shape[0])] = 1.0
    return x + scale * e


def envelope_perturbation(rng, problem, eps):
    """A perturbation inside |dA| <= eps|A|, |dB| <= eps|B|, |db| <= eps|b|."""
    n = problem.n
    return ab.Perturbation(
        eps * rng.uniform(-1, 1, (n, n)) * np.abs(problem.A),
        eps * rng.uniform(-1, 1, (n, n)) * np.abs(problem.B),
        eps * rng.uniform(-1, 1, n) * np.abs(problem.b),
        epsilon=eps,
    )


def reference_solve(problem):
    """Solution by a plain Picard iteration to near machine precision, or None."""
    lu = scipy.linalg.lu_factor(problem.A)
    x = np.zeros(problem.n)
    for _ in range(5000):
        rhs = (problem.B @ np.abs(x) if problem.form == ab.TYPE_ONE
               else np.abs(problem.B @ x)) + problem.b
        x_next = scipy.linalg.lu_solve(lu, rhs)
        if not np.all(np.isfinite(x_next)):
            return None
        step = np.linalg.norm(x_next - x)
        x = x_next
        if step <= 1e-14 * max(1.0, np.linalg.norm(x)):
            return x
    return None


def p_matrix(rng, n, hard):
    """Matrix with positive definite symmetric part, hence a P-matrix.

    Its Cayley transform is a 2-norm contraction, so the Picard iteration of
    the LCP's AVE form converges; hard ones have a large skew part.
    """
    L = rng.standard_normal((n, n)) / np.sqrt(n)
    S = rng.standard_normal((n, n)) / np.sqrt(n)
    return (L @ L.T + (0.5 if hard else 2.0) * np.eye(n)
            + (2.0 if hard else 0.5) * (S - S.T))


def complementary_pair(rng, n):
    mask = rng.random(n) < 0.5
    z = np.where(mask, rng.uniform(0.5, 2.0, n), 0.0)
    w = np.where(mask, 0.0, rng.uniform(0.5, 2.0, n))
    return z, w


def _picard_tag(exc):
    if isinstance(exc, ValueError) and "infs or NaNs" in str(exc):
        return "picard_nonfinite_valueerror"
    return None


def _check_close(x, x_star, what):
    err = float(np.max(np.abs(x - x_star)))
    if not err <= 1e-3 * max(1.0, float(np.max(np.abs(x_star)))):
        raise CheckFailed("solution_off_planted", f"{what}: max error {err:.3e}")


def _check_lower_end(lower, true_err, p, form):
    """The p = 1 lower end is documented as exact, hence a guarantee."""
    if p == 1 and not lower <= true_err * (1 + REL):
        tag = "lower_factor_p1_type2" if form == ab.TYPE_TWO else "lower_above_true_error"
        raise CheckFailed(tag, f"lower {lower!r} > true error {true_err!r}")


class QueryStream:
    """One public call per op on a fresh problem (see BENCHMARK.json).

    Nine kinds take planted AVE or complementarity problems with n in
    QUERY_SIZES; the tenth is a sign-box call with n in SIGN_SIZES.
    """

    name = "query-stream"
    timed_ops_per_s = 28.0
    trace_ops_per_s = 12.0

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.files = {}

    def schedule(self, i):
        """(kind, n, form, norm, hard) of op i; the same for every seed."""
        cycle = i // (len(QUERY_KINDS) * len(QUERY_SIZES))
        return (QUERY_KINDS[i % len(QUERY_KINDS)],
                QUERY_SIZES[(i // len(QUERY_KINDS)) % len(QUERY_SIZES)],
                ab.TYPE_ONE if cycle % 2 == 0 else ab.TYPE_TWO,
                NORMS[cycle % 3],
                i % 11 == 10)

    def setup(self):
        """Write the CLI's Matrix Market inputs, then warm every op kind."""
        os.makedirs(self.workdir, exist_ok=True)
        profiles = [(n, form, hard) for n in QUERY_SIZES
                    for form in (ab.TYPE_ONE, ab.TYPE_TWO) for hard in (False, True)]
        for k, (n, form, hard) in enumerate(profiles):
            rng = _rng(self.seed, WARMUP // 2 + k)
            problem, x, _ = planted_problem(rng, n, form, hard)
            trial = trial_point(rng, x, dense=True) if x is not None else rng.standard_normal(n)
            stem = os.path.join(self.workdir, f"n{n}-{form}-{'hard' if hard else 'easy'}")
            paths = {key: f"{stem}-{key}.mtx" for key in ("A", "B", "b", "at")}
            matrixio.save_matrix(paths["A"], problem.A)
            matrixio.save_matrix(paths["B"], problem.B)
            matrixio.save_vector(paths["b"], problem.b)
            matrixio.save_vector(paths["at"], trial)
            self.files[(n, form, hard)] = (paths, x, trial)
        for k, kind in enumerate(QUERY_KINDS):
            execute(self.build(kind, QUERY_SIZES[0], ab.TYPE_ONE, 2, False,
                               _rng(self.seed, WARMUP + k), k), Tally())
        for k, kind in enumerate(SIGN_KINDS):
            execute(signbox_op(kind, SIGN_SIZES[0], ab.TYPE_ONE, 2,
                               _rng(self.seed, WARMUP + len(QUERY_KINDS) + k)), Tally())

    def op(self, i):
        kind, n, form, p, hard = self.schedule(i)
        return self.build(kind, n, form, p, hard, _rng(self.seed, i), i)

    def build(self, kind, n, form, p, hard, rng, i):
        """Op of the given kind on a fresh problem drawn from ``rng``.

        Hard problems have no solution, so every estimator whose premise
        implies unique solvability must be inapplicable on them.
        """
        if kind == "cli":
            return self._cli(n, form, p, hard)
        if kind == "signbox":
            cycle = i // (len(QUERY_KINDS) * len(QUERY_SIZES))
            return signbox_op(SIGN_KINDS[(cycle + cycle // SIGN_BLOCK) % len(SIGN_KINDS)],
                              SIGN_SIZES[QUERY_SIZES.index(n)], form, p, rng)
        if kind in ("lcp", "hlcp"):
            return self._complementarity(kind, rng, n, hard)
        problem, x_star, rho = planted_problem(rng, n, form, hard)
        if kind == "picard":
            def check(res):
                if hard and res.converged:
                    raise CheckFailed("converged_without_solution", f"{res.iterations} iterations")
                if not hard:
                    if not res.converged:
                        raise CheckFailed("picard_not_converged", f"rho = {rho:.3f}")
                    _check_close(res.x, x_star, "picard_solve")
            return Op("picard", lambda: ab.picard_solve(problem), check,
                      raised_tag=_picard_tag)
        if kind == "interval":
            if hard:
                trial = rng.standard_normal(n)
            else:
                trial = trial_point(rng, x_star, dense=(i // 2) % 2 == 0)
                true_err = _norm(trial - x_star, p)

            def check(res):
                if isinstance(res, ab.InapplicableBoundError):
                    if not hard:
                        raise CheckFailed("neumann_premise_mismatch", str(res))
                elif hard:
                    raise CheckFailed("bound_applies_without_solution", res.upper_method)
                else:
                    _is_below(true_err, res.upper, "true error vs upper end",
                              "upper_below_true_error")
                    _check_lower_end(res.lower, true_err, p, form)
            return Op("interval", lambda: ab.error_interval(problem, trial, p), check,
                      outcomes=(ab.InapplicableBoundError,))
        if kind == "report":
            member = _family_member(problem, rng.choice((-1.0, 1.0), size=n))

            def check(rep):
                applicable = [u for u in rep.upper_factors if u.applicable]
                if hard and applicable:
                    raise CheckFailed("bound_applies_without_solution", applicable[0].method)
                if not hard and not any(u.method == ab.NEUMANN for u in applicable):
                    raise CheckFailed("neumann_premise_mismatch", f"rho = {rho:.3f}")
                if applicable:
                    inv_norm = _norm(np.linalg.inv(member), p)
                    for u in applicable:
                        _is_below(inv_norm, u.value, f"vertex inverse norm vs {u.method}",
                                  "upper_factor_below_vertex")
                if p == 1:
                    vertex = _norm(member, 1)
                    if not vertex <= rep.lower_factor * (1 + REL):
                        tag = ("lower_factor_p1_type2" if form == ab.TYPE_TWO
                               else "lower_factor_below_vertex")
                        raise CheckFailed(tag, f"{vertex!r} > {rep.lower_factor!r}")
            return Op("report", lambda: ab.error_bound_report(problem, p), check)
        if kind == "solvability":
            def check(rep):
                radius = {c.name: c for c in rep.checks}["spectral_radius"]
                if abs(radius.value - rho) > 1e-6 * rho or radius.passed == hard:
                    raise CheckFailed("spectral_radius_wrong", f"{radius.value} vs {rho}")
                want = "fails_all_sufficient_conditions" if hard else "proven_unique"
                if rep.verdict != want:
                    raise CheckFailed("wrong_verdict", f"{rep.verdict}, expected {want}")
            return Op("solvability", lambda: ab.solvability_report(problem), check)

        pert = envelope_perturbation(rng, problem, 1e-3)
        perturbed = problem.perturbed(pert.dA, pert.dB, pert.db)

        def observed_change(q):
            y = reference_solve(perturbed)
            return None if y is None else _norm(y - x_star, q) / _norm(x_star, q)
        if kind == "relative":
            def check(rep):
                if not rep.w > 0:
                    raise CheckFailed("relative_coefficient", f"w = {rep.w}")
                certified = [v for v in (rep.tau, rep.nu) if v is not None]
                if hard and certified:
                    raise CheckFailed("bound_applies_without_solution", "tau or nu")
                if not hard:
                    if rep.tau is None:
                        raise CheckFailed("neumann_premise_mismatch", "; ".join(rep.notes))
                    r = observed_change(2)
                    for v in certified if r is not None else ():
                        _is_below(r, v, "observed change vs bound",
                                  "perturbation_bound_below_change")
            return Op("relative", lambda: ab.general_relative_bound(problem, pert), check)

        kernel = "series" if (i // 2) % 2 == 0 else "damped"
        x_arg = x_star if not hard else rng.standard_normal(n)

        def check(res):
            if isinstance(res, ab.InapplicableBoundError):
                if res.condition == "spectral_radius" and not hard:
                    raise CheckFailed("neumann_premise_mismatch", str(res))
            elif hard:
                raise CheckFailed("bound_applies_without_solution", kernel)
            elif not (np.isfinite(res) and res >= 0):
                raise CheckFailed("componentwise_not_finite", repr(res))
            elif kernel == "series":
                r = observed_change(p)
                if r is not None:
                    _is_below(r, res, "observed change vs series bound",
                              "perturbation_bound_below_change")
        return Op("componentwise",
                  lambda: ab.componentwise_bound(problem, x_arg, pert.epsilon, p, kernel),
                  check, outcomes=(ab.InapplicableBoundError,))

    def _complementarity(self, kind, rng, n, hard):
        M = p_matrix(rng, n, hard)
        z, w = complementary_pair(rng, n)
        if kind == "lcp":
            lcp = ab.LcpProblem(M, w - M @ z)
            x_star = (z - w) / 2.0

            def run():
                return ab.picard_solve(ab.lcp_to_ave(lcp))
        else:
            d = rng.uniform(0.5, 2.0)
            hlcp = ab.HlcpProblem(M, d * np.eye(n), M @ z - d * w)
            x_star = z - w

            def run():
                return ab.picard_solve(ab.hlcp_to_ave(hlcp))

        def check(res):
            if not res.converged:
                raise CheckFailed("picard_not_converged", kind)
            _check_close(res.x, x_star, kind)
        return Op(kind, run, check, raised_tag=_picard_tag)

    def _cli(self, n, form, p, hard):
        paths, x_star, trial = self.files[(n, form, hard)]
        norm = "inf" if p == np.inf else str(p)
        argv = ["bounds", "--a", paths["A"], "--b", paths["B"], "--rhs", paths["b"],
                "--at", paths["at"], "--form", form[-1], "--norm", norm, "--format", "json"]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(res):
            code, text = res
            if hard:
                if code != 2:
                    raise CheckFailed("bound_applies_without_solution", f"cli exit {code}")
                return
            if code != 0:
                raise CheckFailed(f"cli_exit_{code}", " ".join(argv))
            interval = json.loads(text)["interval"]
            true_err = _norm(trial - x_star, p)
            _is_below(true_err, interval["upper"], "true error vs upper end",
                      "upper_below_true_error")
            _check_lower_end(interval["lower"], true_err, p, form)
        return Op("cli", run, check)


# --------------------------------------------------------- sign-box calls

# One size per query size slot: working sets of the 2**n vertex stacks are
# about 0.8, 2.0 and 4.7 MB, from inside L2 to beyond it.
SIGN_SIZES = (10, 11, 12)
SIGN_KINDS = ("solvability_regular", "solvability_singular", "brute_force_alpha",
              "column_w_true", "column_w_false", "beta_factor")


def regular_family(rng, n, form):
    """A pair whose sign family is regular although all three screens fail.

    K = A^-1 B (B A^-1 for type 2) is a permuted block diagonal of 2 x 2
    blocks [[1/2, 2], [-e, 1/2]] with e in [0.15, 0.35] (plus a 1 x 1 block
    [1/2] for odd n).  Each block's determinant of I - K D is
    (1 - d1/2)(1 - d2/2) + 2 e d1 d2 >= 0.75 - 2e > 0 on the whole box, so
    every member is nonsingular, while rho(|K|) = 1/2 + sqrt(2e) > 1,
    ||K||_2 > 1 and sigma_min(A) < sigma_max(B).
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
    B = A @ K if form == ab.TYPE_ONE else K @ A
    return ab.AveProblem(A, B, np.ones(n), form)


def singular_vertex_family(rng, n, form):
    """A regular-family pair with column j of A reset so that the member at
    a random vertex d has column j equal to a combination of its others."""
    problem = regular_family(rng, n, form)
    d = rng.choice((-1.0, 1.0), size=n)
    member = _family_member(problem, d)
    j = int(rng.integers(n))
    others = np.delete(np.arange(n), j)
    A = problem.A.copy()
    A[:, j] += member[:, others] @ rng.standard_normal(n - 1) - member[:, j]
    return ab.AveProblem(A, problem.B, problem.b, form)


def w_pair(rng, n):
    """(M, N) with the column W-property: (T P D1, T D2) for a P-matrix P,
    nonsingular T and positive diagonals D1, D2, since every column
    representative's determinant is det(T) times a positive number."""
    T = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    P = p_matrix(rng, n, hard=False)
    M = T @ P * rng.uniform(0.5, 2.0, n)[None, :]
    N = T * rng.uniform(0.5, 2.0, n)[None, :]
    return M, N


def signbox_op(kind, n, form, p, rng):
    """One sign-box call on a fresh pair whose answer is known by construction."""
    if kind == "solvability_regular":
        problem = regular_family(rng, n, form)

        def check(rep):
            if rep.verdict == "inconclusive":
                raise CheckFailed("false_singular_witness", rep.checks[-1].note)
            if rep.verdict not in ("heuristic_pass", "proven_unique"):
                raise CheckFailed("regular_family_verdict", rep.verdict)
        return Op(kind, lambda: ab.solvability_report(problem), check)
    if kind == "solvability_singular":
        problem = singular_vertex_family(rng, n, form)

        def check(rep):
            if rep.verdict != "inconclusive":
                raise CheckFailed("missed_singular_vertex", rep.verdict)
        return Op(kind, lambda: ab.solvability_report(problem), check)
    if kind == "brute_force_alpha":
        problem = regular_family(rng, n, form)
        member = _family_member(problem, rng.choice((-1.0, 1.0), size=n))

        def check(alpha):
            if alpha != np.inf:
                _is_below(_norm(np.linalg.inv(member), p), alpha,
                          "vertex inverse norm vs alpha", "probe_below_vertex")
        return Op(kind, lambda: ab.brute_force_alpha(problem, p), check)
    if kind in ("column_w_true", "column_w_false"):
        M, N = w_pair(rng, n)
        expect = kind == "column_w_true"
        if not expect:
            j, k = rng.choice(n, size=2, replace=False)
            M[:, j] = N[:, k]      # representative taking j from M, k from N is singular
        hlcp = ab.HlcpProblem(M, N, np.ones(n))

        def check(has_property):
            if has_property is not expect:
                tag = "column_w_wrong" if expect else "column_w_rounding_sign"
                raise CheckFailed(tag, f"{has_property} on {kind}")
        return Op("column_w_property", lambda: ab.column_w_property(hlcp), check)
    M = p_matrix(rng, n, hard=False)
    lam = (rng.random(n) < 0.5).astype(float)
    member = np.eye(n) - np.diag(lam) + lam[:, None] * M

    def check(beta):
        if beta != np.inf:
            probe = _norm(np.linalg.inv(member) * lam[None, :], p)
            _is_below(probe, beta, "vertex value vs beta", "probe_below_vertex")
    return Op("beta_factor", lambda: ab.beta_factor(M, p), check)


WORKLOADS = {w.name: w for w in (LatticeT4, QueryStream)}
