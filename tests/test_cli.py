import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import avebounds
from avebounds import cli
from avebounds.cli import main
from avebounds.matrixio import save_matrix, save_vector


@pytest.fixture
def mtx(tmp_path):
    """Write arrays to .mtx files and hand back their paths."""
    def write(name, data):
        path = tmp_path / f"{name}.mtx"
        arr = np.asarray(data, dtype=float)
        if arr.ndim == 1:
            save_vector(path, arr)
        else:
            save_matrix(path, arr)
        return str(path)
    return write


class TestSolveCommand:
    def test_scalar_solve(self, mtx, capsys):
        code = main(["solve", "--a", mtx("a", [[2.0]]), "--b", mtx("b", [[1.0]]),
                     "--rhs", mtx("rhs", [3.0]), "--tol", "1e-12"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged: True" in out
        assert "x: [3]" in out
        assert "method: sign_accord" in out

    def test_json_output(self, mtx, capsys):
        code = main(["solve", "--a", mtx("a", [[2.0]]), "--b", mtx("b", [[1.0]]),
                     "--rhs", mtx("rhs", [3.0]), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["converged"] is True
        assert doc["x"] == [3.0]            # one exact solve for the sign pattern
        assert doc["method"] == "sign_accord"

    def test_nonconvergence_exit_code(self, mtx, capsys):
        code = main(["solve", "--a", mtx("a", [[1.0]]), "--b", mtx("b", [[2.0]]),
                     "--rhs", mtx("rhs", [1.0]), "--max-iter", "30"])
        assert code == 3
        assert "converged: False" in capsys.readouterr().out

    def test_infinite_tolerance_exit_code(self, mtx, capsys):
        # x - 2|x| = 1 has no solution; an infinite tolerance would take
        # the first Picard step as converged.
        code = main(["solve", "--a", mtx("a", [[1.0]]), "--b", mtx("b", [[2.0]]),
                     "--rhs", mtx("rhs", [1.0]), "--tol", "inf"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_diverging_iteration_exit_code(self, mtx, capsys):
        code = main(["solve", "--a", mtx("a", np.eye(2)), "--b", mtx("b", 3.0 * np.eye(2)),
                     "--rhs", mtx("rhs", [1.0, 1.0])])
        assert code == 3
        assert "converged: False" in capsys.readouterr().out

    def test_singular_matrix_exit_code(self, mtx, capsys):
        code = main(["solve", "--a", mtx("a", [[0.0]]), "--rhs", mtx("rhs", [1.0])])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--a", str(tmp_path / "absent.mtx")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_directory_input_exit_code(self, tmp_path, capsys):
        code = main(["solve", "--a", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == f"error: no such file: {tmp_path}\n"


@pytest.mark.parametrize("command,flag", [("solve", "--tol"), ("perturb", "--epsilon")])
def test_nan_scale_exit_code(mtx, capsys, command, flag):
    code = main([command, "--a", mtx("a", [[2.0]]), "--b", mtx("b", [[1.0]]),
                 "--rhs", mtx("rhs", [3.0]), flag, "nan"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


class TestBoundsCommand:
    def test_factors_printed(self, mtx, capsys):
        code = main(["bounds", "--a", mtx("a", np.diag([2.0, 3.0]))])
        out = capsys.readouterr().out
        assert code == 0
        assert "lower factor (norm 2):" in out
        assert "upper factor [neumann]:" in out
        assert "inapplicable" in out       # norm_ratio needs invertible B

    def test_identity_pair_printed(self, mtx, capsys):
        code = main(["bounds", "--a", mtx("a", np.diag([2.0, 3.0])),
                     "--b", mtx("b", np.eye(2))])
        out = capsys.readouterr().out
        assert code == 0
        assert "identity-case pair: lower 6," in out

    def test_identity_pair_past_the_square_root_of_the_float_range(self, mtx, capsys):
        # sigma_min(A) = 1e200: its square overflows, the pair does not.
        code = main(["bounds", "--a", mtx("a", [[1e200]]), "--b", mtx("b", [[1.0]]),
                     "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["identity_upper"] == pytest.approx(
            2e-200, rel=1e-15)

    def test_interval_at_point(self, mtx, capsys):
        code = main(["bounds", "--a", mtx("a", [[2.0]]), "--b", mtx("b", [[1.0]]),
                     "--rhs", mtx("rhs", [3.0]), "--at", mtx("x", [4.0]),
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["interval"]["lower"] == pytest.approx(1.0 / 3.0)
        assert doc["interval"]["upper"] == pytest.approx(1.0)

    def test_interval_line_brackets_the_error(self, mtx, capsys):
        # x* = (1, -2) solves A x - |x| / 2 = b; the text report's interval
        # at x holds ||x - x*||_2.
        A = np.array([[4.0, 1.0], [1.0, 5.0]])
        x_star, x = np.array([1.0, -2.0]), np.array([1.3, -1.8])
        b = A @ x_star - 0.5 * np.abs(x_star)
        code = main(["bounds", "--a", mtx("a", A), "--b", mtx("b", 0.5 * np.eye(2)),
                     "--rhs", mtx("rhs", b), "--at", mtx("x", x)])
        out = capsys.readouterr().out
        assert code == 0
        line = re.search(r"^error interval at --at point: \[(\S+), (\S+)\] "
                         r"\(residual (\S+), method (\w+)\)$", out, re.M)
        lo, hi, r_norm = (float(v) for v in line.group(1, 2, 3))
        assert r_norm == pytest.approx(np.linalg.norm(A @ x - 0.5 * np.abs(x) - b), rel=1e-9)
        assert line.group(4) in avebounds.bounds.METHODS
        assert 0.0 < lo <= np.linalg.norm(x - x_star) <= hi

    def test_interval_needs_rhs(self, mtx, capsys):
        # Without --rhs the residual would be taken against b = 0.
        code = main(["bounds", "--a", mtx("a", [[3.0]]), "--b", mtx("b", [[1.0]]),
                     "--at", mtx("x", [4.0]), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--at needs --rhs" in captured.err

    def test_nothing_applicable_exit_code(self, mtx, capsys):
        code = main(["bounds", "--a", mtx("a", [[1.0]]), "--b", mtx("b", [[2.0]])])
        captured = capsys.readouterr()
        assert code == 2
        assert "no upper-bound estimator applies" in captured.err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nothing_applicable_at_point_prints_the_report(self, mtx, capsys, fmt):
        # x - 2|x| = 1 has no solution: with --at, as without it, the
        # report is printed and no interval is closed.
        code = main(["bounds", "--a", mtx("a", [[1.0]]), "--b", mtx("b", [[2.0]]),
                     "--rhs", mtx("rhs", [1.0]), "--at", mtx("x", [0.5]), "--format", fmt])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "no upper-bound estimator applies\n"
        if fmt == "json":
            doc = json.loads(captured.out)
            assert "interval" not in doc
            assert not any(u["applicable"] for u in doc["upper_factors"])
        else:
            assert captured.out.startswith("lower factor (norm 2): 3\n")
            assert "upper factor [neumann]: inapplicable" in captured.out
            assert "error interval" not in captured.out

    @pytest.mark.parametrize("a", [
        np.ones((3, 3)),
        np.outer([1.0, -2.0, 0.5], [3.0, 1.0, -1.0]),
    ], ids=["ones", "rank_one"])
    def test_singular_a_has_no_estimator(self, mtx, capsys, a):
        code = main(["bounds", "--a", mtx("a", a), "--format", "json"])
        captured = capsys.readouterr()
        assert code == 2
        factors = {u["method"]: u for u in json.loads(captured.out)["upper_factors"]}
        assert not any(u["applicable"] for u in factors.values())
        assert "singular to working precision" in factors["singular_gap"]["reason"]

    def test_json_names_each_failed_premise(self, mtx, capsys):
        argv = ["bounds", "--a", mtx("a", np.ones((2, 2))), "--b", mtx("b", 0.5 * np.eye(2))]
        assert main(argv + ["--format", "json"]) == 2
        factors = json.loads(capsys.readouterr().out)["upper_factors"]
        assert {u["method"]: u["condition"] for u in factors} == {
            "neumann": "invertible_A", "singular_gap": "invertible_A",
            "norm_ratio": "invertible_factors"}
        # The text report gives the reason alone, as before.
        assert main(argv) == 2
        singular = "inapplicable (A is singular to working precision (1-norm cond ~ inf))"
        assert capsys.readouterr().out == "lower factor (norm 2): 2.5\n" + "".join(
            f"upper factor [{m}]: {singular}\n" for m in ("neumann", "singular_gap", "norm_ratio"))

    def test_complex_rhs_file_exit_code(self, mtx, tmp_path, capsys):
        rhs = tmp_path / "rhs.mtx"
        rhs.write_text("%%MatrixMarket matrix array complex general\n2 1\n1 2\n3 -1\n")
        code = main(["bounds", "--a", mtx("a", np.diag([2.0, 3.0])),
                     "--rhs", str(rhs), "--at", mtx("x", [1.0, 1.0])])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert str(rhs) in captured.err and "complex" in captured.err

    @pytest.mark.parametrize("text", [
        "garbage\n",
        "%%MatrixMarket matrix array real general\n2 1\n1.0\n",
    ], ids=["banner", "truncated"])
    def test_unparsable_at_file_is_named(self, mtx, tmp_path, capsys, text):
        at = tmp_path / "bad.mtx"
        at.write_text(text)
        code = main(["bounds", "--a", mtx("a", np.diag([2.0, 3.0])),
                     "--rhs", mtx("rhs", [1.0, 1.0]), "--at", str(at)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {at}: ")

    @pytest.mark.parametrize("norm", ["1", "2", "inf"])
    def test_unresolvable_neumann_inverse_exit_code(self, mtx, capsys, norm):
        # rho(|A^-1 B|) = 0, yet I - |A^-1 B| fails the conditioning gate.
        B = np.triu(np.random.default_rng(0).uniform(0.0, 5.0, (60, 60)), 1)
        code = main(["bounds", "--a", mtx("a", np.eye(60)), "--b", mtx("b", B),
                     "--norm", norm, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert not any(u["applicable"] for u in doc["upper_factors"])


class TestPerturbCommand:
    def test_csv_record(self, mtx, capsys):
        code = main([
            "perturb",
            "--a", mtx("a", [[2.0]]), "--b", mtx("b", [[1.0]]),
            "--rhs", mtx("rhs", [3.0]), "--da", mtx("da", [[0.01]]),
            "--epsilon", "0.005", "--format", "csv",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,epsilon,r,w,tau,upsilon,nu,delta"
        cells = lines[1].split(",")
        assert float(cells[0]) == 1
        assert float(cells[2]) > 0       # observed relative error

    def test_wrong_size_da_is_named(self, mtx, capsys):
        code = main(["perturb", "--a", mtx("a", 4.0 * np.eye(4)), "--rhs", mtx("rhs", np.ones(4)),
                     "--da", mtx("da", [[0.01]])])
        assert code == 1
        assert "dA has shape (1, 1), expected (4, 4)" in capsys.readouterr().err


    def test_perturbed_nonconvergence_exit_code(self, mtx, capsys):
        # 2x - |x| = 3 is solved by x = 3; 2x - 3|x| = 3 has no solution.
        code = main(["perturb", "--a", mtx("a", [[2.0]]), "--b", mtx("b", [[1.0]]),
                     "--rhs", mtx("rhs", [3.0]), "--db", mtx("db", [[2.0]]),
                     "--max-iter", "30"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: solver did not converge on the perturbed problem")


class TestLcpCommand:
    def test_scalar_lcp(self, mtx, capsys):
        code = main(["lcp", "--m", mtx("m", [[2.0]]), "--q", mtx("q", [-4.0]),
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["z"][0] == pytest.approx(2.0, abs=1e-5)
        assert doc["min_residual_inf"] < 1e-5

    def test_text_output(self, mtx, capsys):
        code = main(["lcp", "--m", mtx("m", [[2.0]]), "--q", mtx("q", [-4.0])])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("z: [")
        assert "min-residual sup norm:" in out


class TestHlcpCommand:
    def test_scalar_hlcp(self, mtx, capsys):
        code = main(["hlcp", "--m", mtx("m", [[2.0]]), "--n-mat", mtx("n", [[1.0]]),
                     "--q", mtx("q", [3.0]), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["z"][0] == pytest.approx(1.5, abs=1e-5)
        assert doc["w"][0] == pytest.approx(0.0, abs=1e-5)
        assert doc["feasibility_inf"] < 1e-5

    def test_text_output(self, mtx, capsys):
        code = main(["hlcp", "--m", mtx("m", [[2.0]]), "--n-mat", mtx("n", [[1.0]]),
                     "--q", mtx("q", [3.0]), "--tol", "1e-12"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("z: [1.5]\nw: [0]\n")
        assert "complementarity gap:" in out
        assert "feasibility sup norm:" in out

    def test_nonconvergence_exit_code(self, mtx, capsys):
        # AVE form -x + 2|x| = -1: the Picard iterates 1, 3, 7, ... diverge.
        code = main(["hlcp", "--m", mtx("m", [[1.0]]), "--n-mat", mtx("n", [[-3.0]]),
                     "--q", mtx("q", [-1.0]), "--max-iter", "30"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "solver did not converge" in captured.err


class TestReproduceCommand:
    def test_table_one_csv(self, capsys):
        code = main(["reproduce", "--table", "1", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 6            # header + 5 epsilon rows
        first = lines[1].split(",")
        assert float(first[0]) == 30
        assert float(first[1]) == 0.01

    def test_rejects_unknown_table(self, capsys):
        with pytest.raises(SystemExit):
            main(["reproduce", "--table", "9"])

    @pytest.mark.parametrize("flag", [["--tol", "1e-8"], ["--max-iter", "5"]],
                             ids=lambda flag: flag[0])
    def test_takes_no_solver_settings(self, flag, capsys):
        # Every table problem is solved by its first sign pattern, so the
        # settings of the Picard fallback would be ignored: not accepted.
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--table", "1"] + flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "avebounds" in capsys.readouterr().out

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ["solve", "--a", "a.mtx"],
        ["perturb", "--a", "a.mtx", "--rhs", "b.mtx"],
        ["lcp", "--m", "m.mtx", "--q", "q.mtx"],
        ["hlcp", "--m", "m.mtx", "--n-mat", "n.mtx", "--q", "q.mtx"],
        ["reproduce", "--table", "1"],
    ], ids=lambda argv: argv[0])
    def test_norm_flag_only_on_bounds(self, argv, capsys):
        # Only ``bounds`` computes in a selectable norm; elsewhere the flag
        # would be ignored, so it is not accepted.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--norm", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --norm" in capsys.readouterr().err


_DOCUMENT_ARGV = {
    "solve": ["solve", "--a", "a.mtx"],
    "bounds": ["bounds", "--a", "a.mtx"],
    "lcp": ["lcp", "--m", "m.mtx", "--q", "q.mtx"],
    "hlcp": ["hlcp", "--m", "m.mtx", "--n-mat", "n.mtx", "--q", "q.mtx"],
}


@pytest.mark.parametrize("fmt", ["csv", "markdown"])
@pytest.mark.parametrize("command", sorted(_DOCUMENT_ARGV))
def test_document_commands_reject_table_formats(command, fmt, capsys):
    # These commands print a document, not a table: csv and markdown would
    # print the same text, so they are not accepted.
    with pytest.raises(SystemExit) as exc:
        main(_DOCUMENT_ARGV[command] + ["--format", fmt])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_document_commands_accept_text_format(mtx, capsys):
    a, b, rhs = mtx("a", [[2.0]]), mtx("b", [[1.0]]), mtx("rhs", [3.0])
    m, n, q = mtx("m", [[2.0]]), mtx("n", [[1.0]]), mtx("q", [3.0])
    for argv in (["solve", "--a", a, "--b", b, "--rhs", rhs],
                 ["bounds", "--a", a, "--b", b],
                 ["lcp", "--m", m, "--q", q],
                 ["hlcp", "--m", m, "--n-mat", n, "--q", q]):
        assert main(argv + ["--format", "text"]) == 0
        text = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == text


# Runs ``cli.main(argv)`` (for an empty argv, only imports the CLI) in a new
# interpreter, since this test session has imported scipy already; prints
# the exit code and the scipy modules loaded.
_FRESH_MAIN = """
import contextlib, io, json, sys
from avebounds import cli
code = None
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(sys.argv[1:])
        except SystemExit as exc:
            code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def _fresh_main(argv):
    src = os.path.dirname(os.path.dirname(avebounds.__file__))
    proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout)


class TestStartUpLoadsNoScipy:
    @pytest.mark.parametrize("argv", [
        [],
        ["reproduce", "--table", "1", "--format", "json"],
        ["--version"],
    ], ids=["import", "reproduce", "version"])
    def test_no_file_no_scipy(self, argv):
        code, loaded = _fresh_main(argv)
        assert code == (0 if argv else None)
        assert loaded == []

    def test_file_command_loads_scipy_io(self, mtx):
        code, loaded = _fresh_main(["bounds", "--a", mtx("a", np.diag([2.0, 3.0])),
                                    "--b", mtx("b", np.eye(2))])
        assert code == 0
        assert "scipy.io" in loaded
