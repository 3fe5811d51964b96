"""The per-problem analysis: memoised results equal fresh computations,
a problem is a read-only value, concurrent callers agree, and the benchmark
tables reuse one factorization per problem."""
import copy
import dataclasses
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest

from avebounds import (
    AveProblem,
    HlcpProblem,
    TYPE_ONE,
    TYPE_TWO,
    Perturbation,
    SolveOptions,
    componentwise_bound,
    error_bound_report,
    error_interval,
    general_relative_bound,
    hlcp_to_ave,
    identity_ave_bounds,
    lcp_to_ave,
    numerics,
    picard_solve,
    reproduce_table,
    rhs_only_bound,
    sign_accord_solve,
    solvability_report,
    upper_factor,
)
from avebounds import bounds, harness, perturbation, solver
from avebounds.bounds import METHODS
from avebounds.exceptions import AveBoundsError, InapplicableBoundError, SingularMatrixError

from support import random_hplus_lcp, random_perturbation, random_solvable, spectral_radius

NORMS = (1, 2, np.inf)


def _flatten(obj):
    if dataclasses.is_dataclass(obj):
        return [_flatten(getattr(obj, f.name)) for f in dataclasses.fields(obj)]
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_flatten(v) for v in obj]
    if isinstance(obj, (float, int, np.floating, np.integer)) and not isinstance(obj, bool):
        return float(obj)
    return obj


def _outcome(call):
    try:
        return _flatten(call())
    except (AveBoundsError, ValueError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "condition", None))


def _assert_same(got, want):
    if isinstance(want, float):
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0) or (
            np.isnan(got) and np.isnan(want))
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            _assert_same(g, w)
    else:
        assert got == want


def _calls(problem, p):
    """Every analysis-backed public call, as (label, thunk) pairs."""
    n = problem.n
    rng = np.random.default_rng(n)
    pert = Perturbation(1e-3 * rng.normal(size=(n, n)), 1e-3 * rng.normal(size=(n, n)),
                        1e-3 * rng.normal(size=n))
    x = rng.normal(size=n)
    calls = [(f"upper_factor:{m}", lambda m=m: upper_factor(problem, m, p)) for m in METHODS]
    calls += [
        ("picard_solve", lambda: picard_solve(problem)),
        ("error_bound_report", lambda: error_bound_report(problem, p)),
        ("general_relative_bound", lambda: general_relative_bound(problem, pert, p)),
        ("solvability_report", lambda: solvability_report(problem)),
    ]
    calls += [(f"componentwise_bound:{k}",
               lambda k=k: componentwise_bound(problem, x, 0.01, p, kernel=k))
              for k in ("damped", "series")]
    return calls


def _fresh(problem):
    return AveProblem(problem.A.copy(), problem.B.copy(), problem.b.copy(), problem.form)


def _reference(problem, p):
    """Each call on its own fresh copy, so nothing is reused."""
    return {label: _outcome(dict(_calls(_fresh(problem), p))[label])
            for label, _ in _calls(problem, p)}


def _problems():
    rng = np.random.default_rng(20241017)
    out = []
    for form in (TYPE_ONE, TYPE_TWO):
        n = int(rng.integers(4, 9))
        solvable = random_solvable(rng, n, form=form)
        out.append(solvable)
        # rho(|K|) above one: the contraction-based estimators do not apply.
        out.append(AveProblem(solvable.A, 4.0 * solvable.B, solvable.b, form))
        B = solvable.B.copy()
        B[:, 0] = 0.0
        out.append(AveProblem(solvable.A, B, solvable.b, form))        # singular B
        A = solvable.A.copy()
        A[1] = A[0]
        out.append(AveProblem(A, solvable.B, solvable.b, form))        # singular A
    return out


@pytest.mark.parametrize("p", NORMS, ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize("index", range(8))
def test_memoised_results_match_fresh_copies_in_any_order(index, p):
    problem = _problems()[index]
    want = _reference(problem, p)
    for seed in range(3):
        shared = _fresh(problem)
        calls = _calls(shared, p)
        for i in np.random.default_rng(seed).permutation(len(calls)):
            label, call = calls[i]
            _assert_same(_outcome(call), want[label])
        # a second pass answers from the memo
        for label, call in calls:
            _assert_same(_outcome(call), want[label])


def test_problem_is_a_read_only_value():
    # An in-place edit once left the analysis stale: after one report,
    # P.A[1, 1] = 0.1 kept the Neumann factor 0.5238 and proven_unique,
    # where the edited data has no Neumann factor and is inconclusive.
    A = np.array([[4.0, 1.0], [0.0, 3.0]])
    problem = AveProblem(A, 0.5 * np.eye(2), [1.0, -2.0])
    neumann = error_bound_report(problem, 1).upper_factors[0]
    assert neumann.value == pytest.approx(0.5238095238095237, rel=1e-12)
    for name in ("A", "B", "b"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(problem, name)[-1] = 0.1
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, name, getattr(problem, name).copy())
    with pytest.raises(dataclasses.FrozenInstanceError):
        problem.form = TYPE_TWO
    A[1, 1] = 0.1           # the caller's array is its own
    assert problem.A[1, 1] == 3.0 and not np.shares_memory(problem.A, A)
    assert error_bound_report(problem, 1).upper_factors[0] == neumann
    assert solvability_report(problem).verdict == "proven_unique"
    edited = dataclasses.replace(problem, A=A)
    assert error_bound_report(edited, 1).upper_factors[0].value is None
    assert solvability_report(edited).verdict == "inconclusive"

    rng = np.random.default_rng(7)
    problem = random_solvable(rng, 6)
    other = random_solvable(rng, 6, form=TYPE_TWO)
    for p in NORMS:
        _outcome(lambda: error_bound_report(problem, p))
    first_solve = picard_solve(problem)

    problem = dataclasses.replace(problem, A=other.A)
    assert picard_solve(problem).x == pytest.approx(
        picard_solve(AveProblem(other.A, problem.B, problem.b)).x, abs=1e-12)
    assert not np.allclose(picard_solve(problem).x, first_solve.x)
    problem = dataclasses.replace(problem, B=other.B, form=TYPE_TWO)
    for p in NORMS:
        got = {label: _outcome(call) for label, call in _calls(problem, p)}
        want = _reference(AveProblem(other.A, other.B, problem.b, TYPE_TWO), p)
        for label, value in want.items():
            _assert_same(got[label], value)


def test_copies_and_pickles_after_use():
    problem = random_solvable(np.random.default_rng(3), 5)
    want = _outcome(lambda: error_bound_report(problem))
    for clone in (copy.deepcopy(problem), pickle.loads(pickle.dumps(problem))):
        _assert_same(_outcome(lambda: error_bound_report(clone)), want)


def test_threads_sharing_one_problem_agree():
    rng = np.random.default_rng(11)
    problem = random_solvable(rng, 40, form=TYPE_TWO)
    want = {p: _reference(problem, p) for p in NORMS}
    shared = _fresh(problem)
    results = [None] * 6
    barrier = threading.Barrier(len(results))

    def worker(slot):
        barrier.wait(timeout=30)
        got = {}
        order = np.random.default_rng(slot)
        for p in order.permutation(len(NORMS)):
            calls = _calls(shared, NORMS[p])
            for i in order.permutation(len(calls)):
                label, call = calls[i]
                got[(NORMS[p], label)] = _outcome(call)
        results[slot] = got

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    for got in results:
        assert got is not None
        for (p, label), value in got.items():
            _assert_same(value, want[p][label])


def test_concurrent_solves_share_one_factorization():
    # Concurrent solves read one memoised A^-1.  It is read-only, so a solve
    # that wrote to it would raise instead of corrupting the others (as
    # solves sharing one set of LU pivots once did).
    problem = random_solvable(np.random.default_rng(5), 200)
    options = SolveOptions(tolerance=1e-13)
    want = picard_solve(_fresh(problem), options)
    results = []
    barrier = threading.Barrier(4)

    def worker():
        barrier.wait(timeout=30)
        for _ in range(25):
            results.append(picard_solve(problem, options))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 100
    for res in results:
        assert res.iterations == want.iterations
        assert np.array_equal(res.x, want.x)


def _abs_ratio(A, B, form):
    A_inv = np.linalg.inv(A)
    return np.abs(B @ A_inv if form == TYPE_TWO else A_inv @ B)


def _gate_outcomes(problem):
    analysis = problem.analysis
    calls = [lambda p=p: upper_factor(problem, "neumann", p) for p in NORMS]
    calls += [lambda k=k: analysis.componentwise_kernel(k) for k in ("damped", "series")]
    return [_outcome(call) for call in calls]


def _no_eigvals(*args, **kwargs):
    raise AssertionError("np.linalg.eigvals ran")


def test_certificate_alone_decides_away_from_one(monkeypatch):
    """The Collatz-Wielandt certificate decides the contraction premise as
    rho(|K|) does wherever |rho - 1| > 1e-9, and no eigensolve runs."""
    rng = np.random.default_rng(20241018)
    problems = []
    for form in (TYPE_ONE, TYPE_TWO):
        for n in (1, 3, 8, 30):
            for target in (0.0, 0.3, 0.9, 0.999, 1 - 1e-6, 1 - 1e-8, 1 + 1e-8,
                           1 + 1e-6, 1.001, 1.5, 4.0):
                A = rng.normal(size=(n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
                B = rng.normal(size=(n, n))
                B *= target / numerics.spectral_radius_nonneg(_abs_ratio(A, B, form))[0]
                problems.append(AveProblem(A, B, rng.normal(size=n), form))
    checked = 0
    for problem in problems:
        rho, _ = numerics.spectral_radius_nonneg(_abs_ratio(problem.A, problem.B, problem.form))
        if abs(rho - 1.0) <= 1e-9:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", _no_eigvals)
            got = _gate_outcomes(_fresh(problem))
        conditions = {g[2] for g in got if isinstance(g, tuple)}
        assert conditions == (set() if rho < 1.0 else {"spectral_radius"})
        checked += 1
    assert checked >= 80


def test_unsolvable_instance_fails_the_premise_without_eigensolve(monkeypatch):
    # K = A^-1 B = 1.25 H with H >= 0 row-stochastic, so rho(|K|) = 1.25:
    # every bound that needs rho(|K|) < 1 says so without an eigensolve,
    # and only the solvability screen computes the number.
    rng = np.random.default_rng(20241017)
    n = 40
    A = 3.0 * np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    H = np.abs(rng.standard_normal((n, n)))
    H /= H.sum(axis=1, keepdims=True)
    c = np.abs(rng.standard_normal(n)) + 0.1
    problem = AveProblem(A, A @ (1.25 * H), A @ c)
    pert = Perturbation(1e-6 * problem.A, 1e-6 * problem.B, 1e-6 * problem.b)
    not_proven = "neumann: spectral radius of the absolute iteration matrix is not proven below 1"
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvals", _no_eigvals)
        for p in NORMS:
            with pytest.raises(InapplicableBoundError) as exc:
                upper_factor(problem, "neumann", p)
            assert exc.value.condition == "spectral_radius"
            assert "not proven" in str(exc.value)
            with pytest.raises(InapplicableBoundError) as exc:
                error_interval(problem, c + 1e-3, p)
            assert not_proven in str(exc.value)
            report = general_relative_bound(problem, pert, p=p)
            assert report.tau is None and not_proven in report.notes
        for kernel in ("damped", "series"):
            with pytest.raises(InapplicableBoundError) as exc:
                componentwise_bound(problem, c, 1e-6, 2, kernel=kernel)
            assert exc.value.condition == "spectral_radius"
    checks = {check.name: check for check in solvability_report(problem).checks}
    assert checks["spectral_radius"].value == pytest.approx(1.25, abs=1e-9)
    assert not checks["spectral_radius"].passed


@pytest.mark.parametrize("table, most", ((1, 12), (4, 5)))
def test_screen_closes_on_table_base_pairs(monkeypatch, table, most):
    """On the base pair of a table (tridiagonal n = 30, lattice n = 400) the
    screen's bracket closes within 1e-12 of the oracle in a few shifted
    solves, and no ``eigvals`` runs."""
    problem = lcp_to_ave(harness.gen_problem(*harness.BENCH_TABLES[table]))
    abs_ratio = _abs_ratio(problem.A, problem.B, problem.form)
    want = spectral_radius(abs_ratio)
    solves, solve = [], np.linalg.solve
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvals", _no_eigvals)
        patch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        radius = {c.name: c for c in solvability_report(problem).checks}["spectral_radius"]
    assert 0 < len(solves) <= most
    assert radius.passed and want * (1.0 - 1e-13) <= radius.value <= want * (1.0 + 1e-12)
    assert numerics.spectral_radius_nonneg(abs_ratio) == (radius.value, True)


@pytest.mark.parametrize("table", (3, 4))
def test_lattice_table_factors_once_per_problem(monkeypatch, table):
    """Counts for reproduce_table(3) and (4) (lattice, n = 225 and 400, five
    cells each).

    Before one analysis was shared per problem table 3 made 10 Picard
    solves, 10 eigvals, 10 svd, 35 cond and 45 matrix 2-norms (90
    SVD-class calls).  Now the base problem is solved once, and each
    problem's singular values, spectral radius and kernels are computed
    once.  Each of the six problems makes one inversion, A^-1, which the
    solver, K and the kernels share.  No problem inverts I - |K| (six more
    inversions before): the first power step y = |K| 1 proves rho(|K|) < 1
    (a Collatz-Wielandt certificate), and nothing in the table reads the
    entries of its inverse.  Nothing calls ``svd``, ``cond`` or
    ``eigvals``.  Each of the six problems is solved exactly: one LU solve
    after the start A^-1 b has the sign pattern of its result, so Picard
    never runs.

    Every pair is a commuting one: A = I + M is exactly symmetric, and
    A + B = c I holds exactly for the stored floats, with c = 2 for the
    base pair and the lattice bands giving dA + dB = eps I in each cell.
    So each analysis takes one ``eigvalsh`` of A, which gives the singular
    values of A and B, ||A||_2 and ||B||_2 of the base pair and ||K||_2
    of each cell (these made 11 more ``eigvalsh`` calls, 25 in all, when
    B and K had their own).  Each cell's |K| is then symmetric, and one
    ``eigvalsh`` of I - |K| gives ||(I - |K|)^-1||_2 (a Gram eigensolve of
    the inverse before).  The unit bands dA and dB, scaled by their largest
    entry, are a commuting pair too, so one ``eigvalsh`` gives both norms
    for the size (two Gram eigensolves before).  The one matrix 2-norm left
    to ``numerics.p_norm`` is the base pair's damped kernel for delta.
    That makes 13 ``eigvalsh`` calls (14 before), so each LAPACK call of
    the table is pinned.
    """
    counts = {}
    lock = threading.Lock()

    def counted(key, fn, when=lambda *a, **k: True):
        def wrapper(*args, **kwargs):
            if when(*args, **kwargs):
                with lock:
                    counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("svd", "cond", "eigvals", "eigvalsh", "inv", "solve"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(numerics, "p_norm", counted(
        "norm2", numerics.p_norm, lambda a, p=2: np.ndim(a) == 2 and p == 2))
    monkeypatch.setattr(solver, "picard_solve", counted("picard_solve", solver.picard_solve))
    exact = counted("sign_accord_solve", solver.sign_accord_solve)
    for module in (perturbation, harness):
        monkeypatch.setattr(module, "sign_accord_solve", exact)

    out = reproduce_table(table)
    assert len(out.rows) == 5 and out.failures == []
    assert counts["sign_accord_solve"] == 6
    assert counts.get("picard_solve", 0) == 0
    assert counts["solve"] == 6
    assert counts["inv"] == 6
    assert counts.get("svd", 0) == 0
    assert counts.get("cond", 0) == 0
    assert counts.get("eigvals", 0) == 0
    assert counts["eigvalsh"] == 13
    assert counts["norm2"] == 1


def _commuting_pairs(rng, count):
    """``count`` pairs (A, c I - A) with A + B = c I exact in floats: n = 1-30,
    every entry and c an integer times one power of two, so c - a_ii is
    exact.  A = S + t I for a random symmetric S, with |t| >= 2 rho(S) and
    either sign, so cond(A) <= 3 and the reference ||A^-1 B||_2 is good to
    a few eps.  c is 0 in every fifth pair and negative in every fifth."""
    for k in range(count):
        n, scale = k % 30 + 1, 2.0 ** int(rng.integers(-40, 40))
        X = rng.integers(-2**10, 2**10, (n, n)).astype(float)
        S = X + X.T
        t = rng.choice([-1.0, 1.0]) * 2.0 ** np.ceil(np.log2(2.0 * np.abs(S).sum(axis=0).max() + 1))
        c = (0, -1, 1, 1, 1)[k % 5] * float(rng.integers(1, 2**12))
        A = (S + t * np.eye(n)) * scale
        yield A, c * scale * np.eye(n) - A


def _generic(A, B, form):
    """The pair's singular values of B, ||B||_2 and ||K||_2 by the route
    every other pair takes."""
    inv = np.linalg.inv(A)
    K = B @ inv if form == TYPE_TWO else inv @ B
    return numerics.singular_values(B), numerics.p_norm(B, 2), numerics.p_norm(K, 2)


@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
def test_commuting_pair_spectra_match_the_generic_route(form):
    """200 exactly commuting pairs take one eigensolve of A, and its
    singular values of B, ||B||_2 and ||K||_2 match the generic route to
    1e-12 (each singular value relative to the largest)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A, B in _commuting_pairs(np.random.default_rng(40), 200):
            analysis = AveProblem(A, B, np.ones(len(A)), form).analysis
            assert analysis._commuting() is not None
            s_b, norm_b, norm_k = _generic(A, B, form)
            got = analysis.singular_values("B")
            assert np.abs(got - s_b).max() <= 1e-12 * s_b[0]
            assert analysis.norm("B", 2) == pytest.approx(norm_b, rel=1e-12, abs=0.0)
            assert analysis.ratio_norm() == pytest.approx(norm_k, rel=1e-12)


def _near_misses():
    A = np.array([[3.0, 0.1, -0.7], [0.1, 2.5, 0.3], [-0.7, 0.3, 4.0]])
    B = 1.5 * np.eye(3) - A
    assert np.array_equal(A + B, 1.5 * np.eye(3))
    off_pair = B.copy()
    off_pair[0, 1] = off_pair[1, 0] = np.nextafter(B[0, 1], 1.0)
    one_ulp = A.copy()
    one_ulp[0, 1] = np.nextafter(A[0, 1], 1.0)
    return {
        "off_diagonal_pair": (A, off_pair),
        "asymmetric_by_one_ulp": (one_ulp, 1.5 * np.eye(3) - one_ulp),
        # drawn by TestEstimatorTable::test_gap_probes; fl(a + b) is not a + b
        "inexact_diagonal_sum": (np.array([[0.8618223351666117]]),
                                 np.array([[0.712884416927282]])),
        "sum_past_the_float_range": (1e308 * np.eye(2), 1e308 * np.eye(2)),
    }


@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
@pytest.mark.parametrize("case", list(_near_misses()))
def test_near_commuting_pairs_take_the_generic_route(case, form):
    """A pair that misses A + B = c I or A = A^T by one rounding takes the
    generic route, bit for bit, without a RuntimeWarning."""
    A, B = _near_misses()[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analysis = AveProblem(A, B, np.ones(len(A)), form).analysis
        assert analysis._commuting() is None
        s_b, norm_b, norm_k = _generic(A, B, form)
        assert np.array_equal(analysis.singular_values("B"), s_b)
        assert analysis.norm("B", 2) == norm_b
        assert analysis.ratio_norm() == norm_k


def _neumann_by_inverse(problem):
    """The ``_outcome`` of ||(I - |K|)^-1||_2 / sigma_min(A) from the gated
    inverse, on a fresh analysis."""
    analysis = _fresh(problem).analysis
    return _outcome(
        lambda: numerics.p_norm(analysis._core_inverse(), 2) / analysis.singular_values("A")[-1])


@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
def test_commuting_neumann_norm_matches_the_inverse_route(monkeypatch, form):
    """On 200 exactly commuting pairs |K| is symmetric, and the 2-norm
    Neumann factor 1 / (lambda_min(I - |K|) sigma_min(A)), from one
    ``eigvalsh`` and no inverse of I - |K|, matches the gated inverse's
    ||(I - |K|)^-1||_2 / sigma_min(A) to 1e-12 relative; a pair whose
    premise fails (c = 0 gives |K| = I) fails it on both routes."""
    applicable = 0
    inv = np.linalg.inv
    for A, B in _commuting_pairs(np.random.default_rng(44), 200):
        problem = AveProblem(A, B, np.ones(len(A)), form)
        assert problem.analysis._commuting() is not None
        inversions = []
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "inv", lambda a: inversions.append(a.shape) or inv(a))
            got = _outcome(lambda: problem.analysis.neumann_factor(2))
        assert inversions == [A.shape]      # A^-1 alone
        want = _neumann_by_inverse(problem)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        applicable += 1
    assert applicable >= 60


@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
@pytest.mark.parametrize("case", list(_near_misses()))
def test_near_commuting_neumann_norm_takes_the_inverse(case, form):
    """A pair one rounding off commuting takes the 2-norm Neumann factor
    from the gated inverse of I - |K|, bit for bit."""
    A, B = _near_misses()[case]
    problem = AveProblem(A, B, np.ones(len(A)), form)
    assert _outcome(lambda: problem.analysis.neumann_factor(2)) == _neumann_by_inverse(problem)


@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
def test_relative_bound_takes_the_perturbed_spectra_only(monkeypatch, form):
    """On a nonsymmetric pair ``general_relative_bound`` runs ``svd`` for
    the singular values of A + dA and B + dB, which the truncated gap and
    the norm ratio read.  ||A||_2 and ||B||_2 in w are matrix 2-norms, so
    the unperturbed pair takes none (four SVDs before)."""
    rng = np.random.default_rng(35)
    problem = random_solvable(rng, 40, form=form)
    pert = random_perturbation(rng, 40, 1e-4)
    assert not np.array_equal(problem.A, problem.A.T)
    assert not np.array_equal(problem.B, problem.B.T)
    shapes = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: shapes.append(a.shape) or svd(a, *args, **kw))
    report = general_relative_bound(problem, pert)
    assert report.tau is not None and report.upsilon is not None
    assert shapes == [(40, 40), (40, 40)]


def test_norm_is_p_norm_once_per_analysis(monkeypatch):
    """``ProblemAnalysis.norm`` is ``numerics.p_norm`` of A or B for every
    p, taken once per analysis, and reads no singular values."""
    rng = np.random.default_rng(36)
    A, B = rng.normal(size=(20, 20)), rng.normal(size=(20, 20))
    analysis = AveProblem(A, B, np.ones(20)).analysis
    want = {(name, p): numerics.p_norm(matrix, p)
            for name, matrix in (("A", A), ("B", B)) for p in NORMS}
    calls = []
    p_norm = numerics.p_norm
    monkeypatch.setattr(numerics, "p_norm", lambda m, p: calls.append(p) or p_norm(m, p))
    monkeypatch.setattr(analysis, "singular_values", lambda name: pytest.fail(name))
    for _ in range(2):
        for (name, p), value in want.items():
            assert analysis.norm(name, p) == value
    assert sorted(calls) == sorted(NORMS * 2)     # once for A and once for B


def test_neumann_and_series_kernel_share_one_core_inverse(monkeypatch):
    """I - |K| is inverted once per analysis, and only for the readers of
    its entries: the Neumann factors for p = 1 and inf and the series
    kernel read one memoised inverse.  The premise is a power-step
    certificate, and the pair commuting (B = 60 I - A), the 2-norm factor
    is one ``eigvalsh`` of I - |K|, so it inverts A alone.  With the one of
    A that makes two inversions, no solve and no SVD (a solve, an SVD and
    two inversions of I - |K| before one analysis was shared)."""
    rng = np.random.default_rng(30)
    A = rng.normal(size=(30, 30))
    A = A + A.T + 60.0 * np.eye(30)
    problem = AveProblem(A, 60.0 * np.eye(30) - A, np.ones(30))
    assert problem.analysis._commuting() is not None
    calls = []
    for name in ("inv", "solve", "svd"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    assert upper_factor(problem, "neumann", 2) > 0
    assert calls == ["inv"]
    for p in NORMS:
        assert upper_factor(problem, "neumann", p) > 0
    componentwise_bound(problem, np.ones(30), 0.01, 2, kernel="series")
    assert calls == ["inv", "inv"]


@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
def test_ratio_is_formed_once_per_analysis(monkeypatch, form):
    """The 2-norm report and the solvability screen read one memoised,
    read-only K: one product of A^-1 with B (three before: the Neumann
    core, ``ratio_norm`` and the spectral-radius screen each formed K)."""
    problem = random_solvable(np.random.default_rng(34), 30, form=form)
    analysis = problem.analysis
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(other is analysis.B)
            return np.matmul(self, other)

        def __rmatmul__(self, other):
            products.append(other is analysis.B)
            return np.matmul(other, self)

    inverse = analysis.inverse
    monkeypatch.setattr(analysis, "inverse", lambda *a, **k: inverse(*a, **k).view(Counted))
    assert error_bound_report(problem, 2).interval(1.0).upper > 0
    assert solvability_report(problem).proven
    assert products.count(True) == 1
    K = analysis._ratio()
    assert K is analysis._ratio() and not K.flags.writeable


def test_unresolvable_neumann_inverse_is_inapplicable():
    # rho(|K|) = 0 since B is strictly upper triangular, so the contraction
    # premise holds, but cond(I - |K|) ~ 1e18 fails the conditioning gate,
    # which both componentwise kernels pass through.
    n = 60
    B = np.triu(np.random.default_rng(0).uniform(0.0, 5.0, (n, n)), 1)
    problem = AveProblem(np.eye(n), B, np.ones(n))
    for p in NORMS:
        neumann = error_bound_report(problem, p).upper_factors[0]
        assert neumann.method == "neumann" and not neumann.applicable
        assert "I - |K|" in neumann.reason
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(problem, "neumann", p)
        assert exc.value.condition == "invertible_I_minus_K"
    for kernel in ("damped", "series"):
        with pytest.raises(InapplicableBoundError) as exc:
            componentwise_bound(problem, np.ones(n), 0.01, 2, kernel=kernel)
        assert exc.value.condition == "invertible_I_minus_K"


@pytest.mark.parametrize("p", NORMS, ids=["p1", "p2", "pinf"])
@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
def test_overflowed_ratio_is_a_named_refusal(form, p):
    # A = 1e-200 is perfectly conditioned, but K = 1e400 overflows.  Every
    # entry point that reads K names the condition (a ValueError, after an
    # overflow warning, before), and the screen goes on to the sign box,
    # which holds the singular member at d = 1e-400.
    problem = AveProblem([[1e-200]], [[1e200]], [1.0], form)
    overflow = "A^-1 B (B A^-1 for type2) overflows the float range"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solvability_report(problem)
        assert report.verdict == "inconclusive"
        assert [(c.name, c.value, c.passed, c.note) for c in report.checks[:2]] == [
            ("spectral_radius", np.inf, False, overflow),
            ("largest_singular_ratio", np.inf, False, overflow)]
        assert report.checks[2].name == "sign_family_nonsingular"
        factors = error_bound_report(problem, p).upper_factors
        assert {u.method: u.condition for u in factors} == (
            {"neumann": "finite_ratio", "singular_gap": "singular_value_gap",
             "norm_ratio": "finite_ratio"} if p == 2 else
            {"neumann": "finite_ratio", "singular_gap": None, "norm_ratio": None})
        assert factors[0].reason == overflow and not any(u.applicable for u in factors)
        for kernel in ("damped", "series"):
            with pytest.raises(InapplicableBoundError) as exc:
                componentwise_bound(problem, [1.0], 0.01, p, kernel=kernel)
            assert exc.value.condition == "finite_ratio"
        notes = [f"{u.method}: {u.reason}" for u in factors]
        for bound in (general_relative_bound(problem, Perturbation([[0.0]], [[0.0]], [1e-3]), p),
                      rhs_only_bound(problem, [1e-3], p)):
            assert (bound.tau, bound.upsilon, bound.nu) == (None, None, None)
            assert bound.notes == notes


def _count_singular_value_calls(monkeypatch):
    """Count calls to the routines that compute singular values."""
    calls = []
    for name in ("svd", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
    return calls


@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
def test_solve_and_p1_pinf_bounds_make_no_svd(monkeypatch, form):
    """The solver, the p = 1 and inf bounds and the series kernel need A^-1
    and (I - |K|)^-1 only; their gates read those inverses, so no singular
    values are computed (one or two SVDs per call before)."""
    rng = np.random.default_rng(31)
    problem = random_solvable(rng, 30, form=form)
    lcp = random_hplus_lcp(rng, 12)
    hlcp = HlcpProblem(lcp.M, 2.0 * np.eye(12), lcp.q)
    calls = _count_singular_value_calls(monkeypatch)
    x = picard_solve(problem).x
    for p in (1, np.inf):
        assert error_interval(problem, x + 1e-3, p).upper_method == "neumann"
        assert error_bound_report(problem, p).interval(1.0).upper > 0
    componentwise_bound(problem, x, 1e-3, np.inf, kernel="series")
    picard_solve(lcp_to_ave(lcp))
    picard_solve(hlcp_to_ave(hlcp))
    assert calls == []


@pytest.mark.parametrize("shift", (1.0, 0.5), ids=("B_is_I", "B_near_half_I"))
def test_identity_pair_reads_the_analysis(monkeypatch, shift):
    """A B = I report reads A's memoised singular values and the norms of
    A -/+ I that ``lower_factor`` takes, so it makes the six singular-value
    computations of B = 0.5 I + 1e-9 (nine before: A's singular values and
    both norms were taken again)."""
    rng = np.random.default_rng(33)
    A = rng.normal(size=(50, 50))
    A += (1.2 + np.linalg.norm(A, 2)) * np.eye(50)
    B = np.eye(50) if shift == 1.0 else shift * np.eye(50) + 1e-9
    problem = AveProblem(A, B, np.ones(50))
    calls = _count_singular_value_calls(monkeypatch)
    report = error_bound_report(problem, 2)
    assert all(u.applicable for u in report.upper_factors)
    assert len(calls) == 6
    if shift == 1.0:
        monkeypatch.undo()
        assert (report.identity_lower, report.identity_upper) == identity_ave_bounds(A)


def test_singular_A_is_inverted_once_per_analysis(monkeypatch):
    rng = np.random.default_rng(32)
    problem = random_solvable(rng, 8)
    A = problem.A.copy()
    A[1] = A[0]
    problem = AveProblem(A, problem.B, problem.b)
    calls = []
    inv = np.linalg.inv
    monkeypatch.setattr(np.linalg, "inv", lambda *a, **k: calls.append(1) or inv(*a, **k))
    for _ in range(2):
        with pytest.raises(SingularMatrixError, match="picard_solve: A"):
            picard_solve(problem)
        for p in NORMS:
            with pytest.raises(InapplicableBoundError) as exc:
                upper_factor(problem, "neumann", p)
            assert exc.value.condition == "invertible_A"
        with pytest.raises(InapplicableBoundError) as exc:
            upper_factor(problem, "norm_ratio", 2)
        assert exc.value.condition == "invertible_factors"
        assert not solvability_report(problem).checks[1].passed
    assert len(calls) == 1


@pytest.mark.parametrize("form", (TYPE_ONE, TYPE_TWO))
@pytest.mark.parametrize("kernel", ("damped", "series"))
@pytest.mark.parametrize("p", NORMS, ids=["p1", "p2", "pinf"])
def test_componentwise_epsilons_share_one_numerator(monkeypatch, form, kernel, p):
    """A table size's five deltas take the epsilon-free numerator
    ||K (|b| + S |x*|)|| once: each bound equals, bit for bit, the call on
    a fresh problem, and a second x* on the same problem takes its own."""
    rng = np.random.default_rng(45)
    problem = random_solvable(rng, 6, rho_cap=0.6, form=form)
    xs = [rng.normal(size=6) for _ in range(2)]
    want = [[componentwise_bound(_fresh(problem), x, eps, p, kernel)
             for eps in harness.BENCH_EPSILONS] for x in xs]
    assert want[0] != want[1]
    builds = []
    scaled_norm = numerics.scaled_norm
    monkeypatch.setattr(numerics, "scaled_norm",
                        lambda *a: builds.append(len(a[1])) or scaled_norm(*a))
    for x, row in zip(xs, want):
        assert [componentwise_bound(problem, x, eps, p, kernel)
                for eps in harness.BENCH_EPSILONS] == row
    # ||K S|| from (A, B) once; each x*'s numerator from (A, B, b) once
    assert builds == [2, 3, 3]


def _extreme_problems():
    """(problem, same scale) pairs, both forms: A and b scaled by 1e300 or
    1e-300, B by either, so K is of order 1, or underflows, or overflows."""
    rng = np.random.default_rng(4545)
    for form in (TYPE_ONE, TYPE_TWO):
        base = random_solvable(rng, 5, rho_cap=0.6, form=form)
        B = base.B.copy()
        B[:, 1] = 0.0           # |K| has zero entries: I - |K| keeps +0.0
        for s_a in (1e300, 1e-300):
            for s_b in (1e300, 1e-300):
                yield AveProblem(s_a * base.A, s_b * B, s_a * base.b, form), s_a == s_b


def _absolute(A, B):
    return np.abs(A) + np.abs(B)


@pytest.mark.filterwarnings("error")
def test_in_place_builds_match_the_out_of_place_formulas():
    """The ``scaled_norm`` builds that write over their scaled copies give
    the out-of-place formulas' values bit for bit, near 1e300 and 1e-300,
    and leave the problem's read-only A, B and b as they were; I - |K| in
    one array is ``np.eye(n) - np.abs(K)`` bit for bit, signed zeros
    included."""
    checked = 0
    for problem, same_scale in _extreme_problems():
        data = [(a, a.tobytes()) for a in (problem.A, problem.B, problem.b)]
        pair, triple = (problem.A, problem.B), (problem.A, problem.B, problem.b)
        p = 1 if problem.form == TYPE_TWO else np.inf
        assert bounds.lower_factor(problem, p) == numerics.scaled_norm(_absolute, pair, p)
        for p in NORMS:
            assert bounds._shifted_norms(problem, p) == (
                numerics.scaled_norm(np.subtract, pair, p), numerics.scaled_norm(np.add, pair, p))
        if same_scale:
            analysis = problem.analysis
            K = analysis._ratio()
            assert analysis._damping().tobytes() == (np.eye(5) - np.abs(K)).tobytes()
            x = sign_accord_solve(problem).x
            for kernel in ("damped", "series"):
                M = analysis.componentwise_kernel(kernel)
                for p in NORMS:
                    norm = numerics.scaled_norm(lambda A, B: M @ _absolute(A, B), pair, p)
                    assert analysis.kernel_norm(kernel, p) == norm
                    numerator = numerics.scaled_norm(
                        lambda A, B, b: M @ (np.abs(b) + _absolute(A, B) @ np.abs(x)), triple, p)
                    assert componentwise_bound(problem, x, 0.01, p, kernel) == (
                        0.01 * numerator / ((1.0 - 0.01 * norm) * numerics.p_norm(x, p)))
                    checked += 1
        for a, raw in data:
            assert not a.flags.writeable and a.tobytes() == raw
    assert checked == 2 * 2 * 2 * 3
