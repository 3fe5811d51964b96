import json
import threading
import time
import tracemalloc

import numpy as np
import pytest

from avebounds import LcpProblem, SolveOptions, general_relative_bound, lcp_to_ave
from avebounds import harness, perturbation
from avebounds.exceptions import AveBoundsError
from avebounds.harness import (
    BENCH_EPSILONS,
    BENCH_TABLES,
    ExperimentSpec,
    TableOutput,
    emit,
    gen_lattice_lcp,
    gen_perturbation,
    gen_problem,
    gen_tridiag_lcp,
    reproduce_table,
    run_experiment,
    tridiagonal,
)
from avebounds.perturbation import ExperimentRecord, perturbation_experiment
from avebounds.solver import sign_accord_solve


class TestGenerators:
    def test_tridiagonal_literal(self):
        got = tridiagonal(3, 1, 4, -2)
        want = np.array([[4.0, -2.0, 0.0], [1.0, 4.0, -2.0], [0.0, 1.0, 4.0]])
        assert np.array_equal(got, want)

    def test_tridiagonal_edge_sizes(self):
        assert np.array_equal(tridiagonal(1, 9, 5, 9), [[5.0]])
        with pytest.raises(ValueError):
            tridiagonal(0, 1, 1, 1)

    def test_tridiag_family(self):
        lcp = gen_tridiag_lcp(5)
        assert np.array_equal(np.diag(lcp.M), np.full(5, 4.0))
        assert np.array_equal(np.diag(lcp.M, -1), np.full(4, 1.0))
        assert np.array_equal(np.diag(lcp.M, 1), np.full(4, -2.0))
        assert np.array_equal(lcp.q, np.full(5, -4.0))
        with pytest.raises(ValueError):
            gen_tridiag_lcp(1)

    def test_lattice_family_smallest(self):
        lcp = gen_lattice_lcp(2)
        want_M = np.array([
            [8.0, -1.0, -1.0, 0.0],
            [-1.0, 8.0, 0.0, -1.0],
            [-1.0, 0.0, 8.0, -1.0],
            [0.0, -1.0, -1.0, 8.0],
        ])
        assert np.array_equal(lcp.M, want_M)
        # q is chosen so the alternating vector solves the LCP with w = 0
        assert np.array_equal(lcp.q, [-5.0, -13.0, -5.0, -13.0])
        z_star = np.array([1.0, 2.0, 1.0, 2.0])
        assert np.allclose(lcp.M @ z_star + lcp.q, 0.0)
        with pytest.raises(ValueError):
            gen_lattice_lcp(1)

    def test_gen_problem_dispatch(self):
        assert gen_problem("tridiag", 4).n == 4
        assert gen_problem("lattice", 3).n == 9
        with pytest.raises(ValueError):
            gen_problem("toeplitz", 4)

    def test_perturbation_structure(self):
        pert = gen_perturbation("tridiag", 3, 0.1)
        assert np.allclose(pert.dA, 0.1 * tridiagonal(3, 1, 2, -1))
        assert np.allclose(pert.dB, 0.1 * tridiagonal(3, 1, 1, 1))
        assert np.allclose(pert.db, np.full(3, 0.1))
        assert pert.epsilon == 0.1
        lat = gen_perturbation("lattice", 4, 0.2)
        assert np.allclose(lat.dA, 0.2 * tridiagonal(4, -1, 2, -1))
        assert np.allclose(lat.dB, 0.2 * tridiagonal(4, 1, -1, 1))

    def test_perturbation_is_exactly_linear_in_epsilon(self):
        small = gen_perturbation("tridiag", 6, 0.01)
        big = gen_perturbation("tridiag", 6, 0.02)
        assert np.array_equal(big.dA, 2.0 * small.dA)
        assert np.array_equal(big.dB, 2.0 * small.dB)
        assert np.array_equal(big.db, 2.0 * small.db)

    def test_perturbation_validation(self):
        with pytest.raises(ValueError):
            gen_perturbation("tridiag", 3, -0.1)
        with pytest.raises(ValueError):
            gen_perturbation("circulant", 3, 0.1)


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec("circulant", [3], [0.1])
        with pytest.raises(ValueError):
            ExperimentSpec("tridiag", [], [0.1])
        with pytest.raises(ValueError):
            ExperimentSpec("tridiag", [0], [0.1])
        for family in ("tridiag", "lattice"):       # both families need size >= 2
            with pytest.raises(ValueError, match="sizes"):
                ExperimentSpec(family, [1, 3], [0.01])
        with pytest.raises(ValueError):
            ExperimentSpec("tridiag", [3], [0.0])
        for sizes in ([2.5], [3.0], [3, 4.5], ["3"], [None]):
            with pytest.raises(ValueError, match="sizes"):
                ExperimentSpec("lattice", sizes, [0.01])
        for epsilons in ([], ["0.1"], [None], [np.inf], [0.01, np.inf]):
            with pytest.raises(ValueError, match="epsilons"):
                ExperimentSpec("tridiag", [3], epsilons)
        assert ExperimentSpec("tridiag", [np.int64(3)], [0.1]).sizes == [3]


class TestRunExperiment:
    def test_grid_order_and_meta(self):
        spec = ExperimentSpec("tridiag", [3, 5], [0.01, 0.02])
        out = run_experiment(spec)
        assert [(r.n, r.epsilon) for r in out.rows] == [
            (3, 0.01), (3, 0.02), (5, 0.01), (5, 0.02)]
        assert out.failures == []
        assert out.meta["family"] == "tridiag"
        assert out.meta["sizes"] == [3, 5]
        assert out.meta["norm"] == 2

    def test_frozen_cell_table_one(self):
        out = run_experiment(ExperimentSpec("tridiag", [30], [0.01]))
        assert len(out.rows) == 1
        row = out.rows[0]
        assert row.n == 30
        assert row.r == pytest.approx(0.00404409757057314, rel=1e-9)
        assert row.w == pytest.approx(0.0842454140387942, rel=1e-9)
        assert row.tau == pytest.approx(0.284482587726688, rel=1e-9)
        assert row.upsilon == pytest.approx(0.0464549117216513, rel=1e-9)
        assert row.nu == pytest.approx(0.110368928442537, rel=1e-9)
        assert row.delta == pytest.approx(0.00479050252994868, rel=1e-9)

    def test_frozen_cell_lattice(self):
        out = run_experiment(ExperimentSpec("lattice", [15], [0.02]))
        row = out.rows[0]
        assert row.n == 225
        assert row.r == pytest.approx(0.00557712782466274, rel=1e-9)
        assert row.w == pytest.approx(0.194879436921469, rel=1e-9)
        assert row.tau == pytest.approx(0.517668284669825, rel=1e-9)
        assert row.upsilon == pytest.approx(0.083881899337899, rel=1e-9)
        assert row.nu == pytest.approx(0.346545833775648, rel=1e-9)
        assert row.delta == pytest.approx(0.0110835359685794, rel=1e-9)

    def test_failures_recorded_not_raised(self, monkeypatch):
        # A one-iteration budget ends the base solve at its start A^-1 b,
        # unconverged, so every cell lands in failures and the grid still
        # completes.
        monkeypatch.setattr(harness, "sign_accord_solve", lambda problem: sign_accord_solve(
            problem, SolveOptions(max_iterations=1)))
        out = run_experiment(ExperimentSpec("tridiag", [3], [0.01, 0.02]))
        assert out.rows == []
        assert len(out.failures) == 2
        n, eps, message = out.failures[0]
        assert n == 3 and eps == 0.01
        assert "converge" in message

    @pytest.mark.parametrize("M, options", [
        (-np.eye(3), None),                                  # A = I + M = 0
        (-0.5 * np.eye(3), None),                            # iterates overflow
        (-0.5 * np.eye(3), SolveOptions(max_iterations=5)),  # budget too small
        (np.eye(3), SolveOptions(initial=[1.0])),            # ValueError
    ], ids=["singular", "diverging", "nonconverged", "valueerror"])
    def test_base_failure_fails_every_cell_of_its_size(self, monkeypatch, M, options):
        # The base problem is solved once per size; when that solve fails,
        # each cell of the size still fails with the message the unshared
        # per-cell path gives.  The table path takes no solver settings, so
        # the last two cases set them on its base solve of size 3.
        bad = LcpProblem(M, -np.ones(3))
        real = harness.gen_problem
        monkeypatch.setattr(harness, "gen_problem",
                            lambda family, size: bad if size == 3 else real(family, size))

        def base_solve(problem):
            return sign_accord_solve(problem, options if problem.n == 3 else None)
        monkeypatch.setattr(harness, "sign_accord_solve", base_solve)
        with pytest.raises((AveBoundsError, ValueError)) as direct:
            problem = lcp_to_ave(bad)
            perturbation_experiment(problem, gen_perturbation("tridiag", 3, 0.01), options)
        out = run_experiment(ExperimentSpec("tridiag", [3, 4], [0.01, 0.02]))
        assert [(n, eps) for n, eps, _ in out.failures] == [(3, 0.01), (3, 0.02)]
        assert all(msg == str(direct.value) for _, _, msg in out.failures)
        assert [(r.n, r.epsilon) for r in out.rows] == [(4, 0.01), (4, 0.02)]

    def test_cells_run_serially_on_the_calling_thread(self, monkeypatch):
        # The cells run in (size, epsilon) order on the caller's thread, one
        # after another, and each size's deltas follow its last cell.  The
        # benchmark's environment record reads one worker.
        events = []
        real_cell, real_delta = harness._experiment_cell, harness._componentwise_delta

        def cell(problem, base, perturbed, db, norms, epsilon):
            events.append(("cell", threading.get_ident(), problem.n, epsilon))
            return real_cell(problem, base, perturbed, db, norms, epsilon)

        def delta(problem, x_star, epsilon):
            events.append(("delta", threading.get_ident(), problem.n, epsilon))
            return real_delta(problem, x_star, epsilon)
        monkeypatch.setattr(harness, "_experiment_cell", cell)
        monkeypatch.setattr(harness, "_componentwise_delta", delta)
        out = run_experiment(ExperimentSpec("tridiag", [5, 3], [0.03, 0.01, 0.02]))
        grid = [(n, eps) for n in (5, 3) for eps in (0.03, 0.01, 0.02)]
        assert events == [(kind, threading.get_ident(), n, eps) for n in (5, 3)
                          for kind in ("cell", "delta") for eps in (0.03, 0.01, 0.02)]
        assert [(r.n, r.epsilon) for r in out.rows] == grid
        assert all(r.delta is not None for r in out.rows)
        assert harness._thread_count(len(grid)) == 1

    def test_cells_match_the_public_bounds_bit_for_bit(self):
        # A table cell's w scales the unit perturbation's norms; w and every
        # bound are those of general_relative_bound on the perturbation
        # gen_perturbation builds at the cell's epsilon, and r and delta
        # those of perturbation_experiment.
        for family, size in (("tridiag", 30), ("lattice", 15)):
            problem = lcp_to_ave(gen_problem(family, size))
            out = run_experiment(ExperimentSpec(family, [size], list(BENCH_EPSILONS)))
            assert [r.epsilon for r in out.rows] == list(BENCH_EPSILONS)
            for row in out.rows:
                pert = gen_perturbation(family, problem.n, row.epsilon)
                report = general_relative_bound(problem, pert)
                assert [row.w, row.tau, row.upsilon, row.nu] == [
                    report.w, report.tau, report.upsilon, report.nu]
                assert row == perturbation_experiment(problem, pert)

    def test_a_failing_perturbed_solve_fails_its_cell(self, monkeypatch):
        # The base solve succeeds; the second cell's perturbed solve gets a
        # one-iteration budget and ends unconverged.  That cell alone lands
        # in failures, and the other cells keep their rows and deltas, in
        # epsilon order, as a clean run gives them.
        spec = ExperimentSpec("tridiag", [3], [0.01, 0.02, 0.03])
        clean = run_experiment(spec)
        calls = []

        def perturbed_solve(problem, options=None):
            calls.append(problem.n)
            if len(calls) == 2:
                options = SolveOptions(max_iterations=1)
            return sign_accord_solve(problem, options)
        monkeypatch.setattr(perturbation, "sign_accord_solve", perturbed_solve)
        out = run_experiment(spec)
        assert calls == [3, 3, 3]
        assert [(n, eps) for n, eps, _ in out.failures] == [(3, 0.02)]
        assert out.failures[0][2].startswith(
            "solver did not converge on the perturbed problem (1 iterations, last step ")
        assert [(r.n, r.epsilon) for r in out.rows] == [(3, 0.01), (3, 0.03)]
        assert all(r.delta is not None for r in out.rows)
        assert out.rows == [clean.rows[0], clean.rows[2]]

    def test_a_failing_delta_fails_its_cell(self, monkeypatch):
        real = harness._componentwise_delta

        def delta(problem, x_star, epsilon):
            if epsilon == 0.02:
                raise ValueError("no delta here")
            return real(problem, x_star, epsilon)
        monkeypatch.setattr(harness, "_componentwise_delta", delta)
        out = run_experiment(ExperimentSpec("tridiag", [3, 4], [0.01, 0.02, 0.03]))
        assert out.failures == [(3, 0.02, "no delta here"), (4, 0.02, "no delta here")]
        assert [(r.n, r.epsilon) for r in out.rows] == [
            (3, 0.01), (3, 0.03), (4, 0.01), (4, 0.03)]


def test_table_holds_one_cell_at_a_time():
    # Table 3 (n = 225): the base problem holds A, B and A^-1 while each
    # cell's perturbed pair and analysis come and go, and the base kernel
    # is built after the last cell.  The traced peak is near 11 n x n
    # arrays (18 when the unit and scaled perturbations and the base
    # kernel were held through every cell).
    reproduce_table(1)      # imports and one-off allocations
    n = 225
    tracemalloc.start()
    try:
        out = reproduce_table(3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.rows) == 5 and out.failures == []
    assert peak <= 12 * 8 * n**2, peak / (8 * n**2)


def test_first_sign_pattern_solves_every_family_problem():
    # The table path takes no solver settings because none reach its solves:
    # every base problem and every perturbed problem at the table epsilons
    # is solved by the first LU solve, from the sign pattern of A^-1 b.
    for family, sizes in (("tridiag", range(2, 41)), ("lattice", range(2, 9))):
        for size in sizes:
            problem = lcp_to_ave(gen_problem(family, size))
            problems = [problem] + [
                problem.perturbed(pert.dA, pert.dB, pert.db)
                for pert in (gen_perturbation(family, problem.n, eps) for eps in BENCH_EPSILONS)]
            for ave in problems:
                result = sign_accord_solve(ave)
                assert (result.method, result.iterations) == ("sign_accord", 2), (family, size)


class TestReproduceTable:
    def test_table_ids(self):
        assert set(BENCH_TABLES) == {1, 2, 3, 4}
        assert BENCH_EPSILONS == (0.01, 0.015, 0.02, 0.025, 0.03)
        with pytest.raises(ValueError):
            reproduce_table(5)

    def test_meta_carries_table_id(self):
        out = reproduce_table(1)
        assert out.meta["table"] == 1
        assert len(out.rows) == 5
        assert [r.epsilon for r in out.rows] == list(BENCH_EPSILONS)

    def test_numpy_integer_id_is_stored_as_int(self):
        out = reproduce_table(np.int64(1))
        assert type(out.meta["table"]) is int
        assert json.loads(emit(out, "json"))["meta"]["table"] == 1
        assert emit(out, "markdown").startswith(b"# benchmark table 1, tridiag family\n")

    @pytest.mark.parametrize("table", [1.0, "1"], ids=["float", "str"])
    def test_non_integer_id_is_rejected(self, table):
        with pytest.raises(ValueError, match="table must be one of"):
            reproduce_table(table)


def synthetic_table():
    rows = [
        ExperimentRecord(n=2, epsilon=0.01, r=0.5, w=1.0,
                         tau=0.25, upsilon=0.125, nu=0.0625, delta=None),
        ExperimentRecord(n=2, epsilon=0.02, r=1.0, w=2.0,
                         tau=0.5, upsilon=0.25, nu=0.125, delta=0.75),
    ]
    return TableOutput(rows=rows, failures=[(2, 0.03, "solver gave up")],
                       meta={"family": "tridiag"})


class TestEmit:
    def test_csv_full_precision_roundtrip(self):
        text = emit(synthetic_table(), "csv").decode()
        lines = text.strip().split("\n")
        assert lines[0] == "n,epsilon,r,w,tau,upsilon,nu,delta"
        first = lines[1].split(",")
        assert float(first[2]) == 0.5
        assert first[-1] == ""          # None stays empty in csv
        assert len(lines) == 3

    @pytest.mark.parametrize("fmt", ["csv", "json", "markdown"])
    def test_notes_are_not_emitted(self, fmt):
        table = synthetic_table()
        want = emit(table, fmt)
        table.rows[0].notes.append("neumann: spectral radius 1 >= 1")
        assert emit(table, fmt) == want

    def test_json_structure(self):
        doc = json.loads(emit(synthetic_table(), "json").decode())
        assert doc["meta"]["family"] == "tridiag"
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["delta"] is None
        assert doc["failures"] == [
            {"n": 2, "epsilon": 0.03, "error": "solver gave up"}]

    def test_markdown_layout(self):
        text = emit(synthetic_table(), "markdown").decode()
        assert text.startswith("# tridiag family")
        assert "## n = 2" in text
        assert "| quantity | eps=0.0100 | eps=0.0200 |" in text
        assert "| r | 0.5000 | 1.0000 |" in text
        assert "| delta | - | 0.7500 |" in text
        assert "## failed cells" in text
        assert "- n=2, eps=0.03: solver gave up" in text

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit(synthetic_table(), "yaml")

    def test_markdown_table_is_titled(self):
        text = emit(reproduce_table(1), "markdown").decode()
        assert text.startswith("# benchmark table 1, tridiag family\n")
        assert "## n = 30" in text

    def test_json_table_is_byte_reproducible(self, monkeypatch):
        # The clock moves between the two runs; the bytes do not.
        ticks = iter(range(1_700_000_000, 1_800_000_000, 3600))
        gmtime = time.gmtime
        monkeypatch.setattr(time, "gmtime", lambda *args: gmtime(next(ticks)))
        first = emit(reproduce_table(1), "json")
        second = emit(reproduce_table(1), "json")
        assert first == second
