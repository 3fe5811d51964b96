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
    TYPE_ONE,
    TYPE_TWO,
    Perturbation,
    SolveOptions,
    componentwise_bound,
    error_bound_report,
    general_relative_bound,
    numerics,
    picard_solve,
    reproduce_table,
    solvability_report,
    upper_factor,
)
from avebounds import harness, perturbation, solver
from avebounds.bounds import METHODS
from avebounds.exceptions import AveBoundsError, InapplicableBoundError

from support import random_solvable

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
    # LAPACK's getrs wrapper shifts the pivot array in place during a solve;
    # solves that shared the memoised pivots corrupted memory.
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


def test_certified_gate_agrees_with_eigvals_away_from_one(monkeypatch):
    """The Collatz-Wielandt certificate decides the contraction premise as
    rho(|K|) from ``eigvals`` does wherever |rho - 1| > 1e-9."""
    rng = np.random.default_rng(20241018)
    problems = []
    for form in (TYPE_ONE, TYPE_TWO):
        for n in (1, 3, 8, 30):
            for target in (0.0, 0.3, 0.9, 0.999, 1 - 1e-6, 1 - 1e-8, 1 + 1e-8,
                           1 + 1e-6, 1.001, 1.5, 4.0):
                A = rng.normal(size=(n, n)) + 2.0 * np.sqrt(n) * np.eye(n)
                B = rng.normal(size=(n, n))
                B *= target / numerics.spectral_radius_nonneg(_abs_ratio(A, B, form))
                problems.append(AveProblem(A, B, rng.normal(size=n), form))
    checked = 0
    for problem in problems:
        rho = numerics.spectral_radius_nonneg(_abs_ratio(problem.A, problem.B, problem.form))
        if abs(rho - 1.0) <= 1e-9:
            continue
        got = _gate_outcomes(_fresh(problem))
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "certifies_contraction", lambda m: False)
            want = _gate_outcomes(_fresh(problem))
        _assert_same(got, want)
        conditions = {w[2] for w in want if isinstance(w, tuple)}
        assert conditions == (set() if rho < 1.0 else {"spectral_radius"})
        checked += 1
    assert checked >= 80


def test_table_three_makes_no_eigensolve(monkeypatch):
    """The certificate proves rho(|K|) < 1 on every table-3 problem, so no
    nonsymmetric eigensolve runs."""
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda *a, **k: calls.append(1) or eigvals(*a, **k))
    out = reproduce_table(3)
    assert len(out.rows) == 5 and out.failures == []
    assert calls == []


def test_table_three_factors_once_per_problem(monkeypatch):
    """Counts for reproduce_table(3) (lattice, n = 225, five cells).

    Before one analysis was shared per problem the table made 10 Picard
    solves, 10 eigvals, 10 svd, 35 cond and 45 matrix 2-norms (90
    SVD-class calls).  Now the base problem is solved once, and each
    problem's singular values, spectral radius and kernels are computed
    once.
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

    for name in ("svd", "cond", "eigvals"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(numerics, "p_norm", counted(
        "norm2", numerics.p_norm, lambda a, p=2: np.ndim(a) == 2 and p == 2))
    solve = counted("picard_solve", solver.picard_solve)
    for module in (solver, perturbation, harness):
        monkeypatch.setattr(module, "picard_solve", solve)

    out = reproduce_table(3)
    assert len(out.rows) == 5 and out.failures == []
    assert counts["picard_solve"] == 6
    assert counts.get("eigvals", 0) <= 6
    assert counts.get("svd", 0) + counts.get("cond", 0) + counts.get("norm2", 0) <= 45


def test_unresolvable_neumann_inverse_is_inapplicable():
    # rho(|K|) = 0 since B is strictly upper triangular, so the contraction
    # premise holds, but cond(I - |K|) ~ 1e18 fails the conditioning gate.
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
    with pytest.raises(InapplicableBoundError) as exc:
        componentwise_bound(problem, np.ones(n), 0.01, 2, kernel="series")
    assert exc.value.condition == "invertible_I_minus_K"
