"""The per-problem analysis: memoised results equal fresh computations,
reassignment invalidates them, concurrent callers agree, and the benchmark
tables reuse one factorization per problem."""
import copy
import dataclasses
import pickle
import sys
import threading

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
    solvability_report,
    upper_factor,
)
from avebounds import harness, perturbation, solver
from avebounds.bounds import METHODS
from avebounds.exceptions import AveBoundsError, InapplicableBoundError, SingularMatrixError

from support import random_hplus_lcp, random_perturbation, random_solvable

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
        ("general_relative_bound", lambda: general_relative_bound(problem, pert, None, p)),
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


def test_reassignment_never_returns_stale_values():
    rng = np.random.default_rng(7)
    problem = random_solvable(rng, 6)
    other = random_solvable(rng, 6, form=TYPE_TWO)
    for p in NORMS:
        _outcome(lambda: error_bound_report(problem, p))
    first_solve = picard_solve(problem)

    problem.A = other.A.copy()
    assert picard_solve(problem).x == pytest.approx(
        picard_solve(AveProblem(other.A, problem.B, problem.b)).x, abs=1e-12)
    assert not np.allclose(picard_solve(problem).x, first_solve.x)
    problem.B = other.B.copy()
    problem.form = TYPE_TWO
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


def test_table_three_makes_no_eigensolve(monkeypatch):
    """The certificate proves rho(|K|) < 1 on every table-3 problem, so no
    nonsymmetric eigensolve runs."""
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda *a, **k: calls.append(1) or eigvals(*a, **k))
    out = reproduce_table(3)
    assert len(out.rows) == 5 and out.failures == []
    assert calls == []


@pytest.mark.parametrize("table", (3, 4))
def test_lattice_table_factors_once_per_problem(monkeypatch, table):
    """Counts for reproduce_table(3) and (4) (lattice, n = 225 and 400, five
    cells each).

    Before one analysis was shared per problem table 3 made 10 Picard
    solves, 10 eigvals, 10 svd, 35 cond and 45 matrix 2-norms (90
    SVD-class calls).  Now the base problem is solved once, and each
    problem's singular values, spectral radius and kernels are computed
    once.  Each of the six problems makes two inversions: A^-1, which the
    solver, K and the kernels share, and (I - |K|)^-1, which proves
    rho(|K|) < 1 and gives every Neumann factor.  A, B and their
    perturbations are exactly symmetric here, so their singular values come
    from ``eigvalsh``; every matrix 2-norm comes from the ``eigvalsh`` of
    its scaled Gram matrix.  Nothing calls ``svd``, ``cond`` or
    ``eigvals``.  Each of the six problems is solved exactly: one LU solve
    after the start A^-1 b has the sign pattern of its result, so Picard
    never runs.  ||dA||_2 and ||dB||_2 are taken once for the size and
    scaled per cell (10 matrix 2-norms before).  ||A||_2 and ||B||_2 of the
    unperturbed pair are two more matrix 2-norms, 15 in all (13 when they
    were read off the singular values).  The singular values and every
    matrix 2-norm make 25 ``eigvalsh`` calls in all, so each LAPACK call of
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
    assert counts["inv"] == 12
    assert counts.get("svd", 0) == 0
    assert counts.get("cond", 0) == 0
    assert counts.get("eigvals", 0) == 0
    assert counts["eigvalsh"] == 25
    assert counts.get("svd", 0) + counts.get("cond", 0) + counts.get("norm2", 0) <= 15


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
    """I - |K| is inverted once per analysis: the premise, the Neumann
    factors for p = 1, 2 and inf and the series kernel read one memoised
    inverse, so with the one of A they make two inversions, no solve and,
    A being symmetric, no SVD (a solve, an SVD and two inversions of
    I - |K| before)."""
    rng = np.random.default_rng(30)
    A = rng.normal(size=(30, 30))
    problem = AveProblem(A + A.T + 40.0 * np.eye(30), rng.normal(size=(30, 30)), np.ones(30))
    calls = []
    for name in ("inv", "solve", "svd"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, fn=fn, name=name, **k: calls.append(name) or fn(*a, **k))
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
