import json

import numpy as np
import pytest

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

    def test_json_output(self, mtx, capsys):
        code = main(["solve", "--a", mtx("a", [[2.0]]), "--b", mtx("b", [[1.0]]),
                     "--rhs", mtx("rhs", [3.0]), "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["converged"] is True
        assert doc["x"][0] == pytest.approx(3.0, abs=1e-5)

    def test_nonconvergence_exit_code(self, mtx, capsys):
        code = main(["solve", "--a", mtx("a", [[1.0]]), "--b", mtx("b", [[2.0]]),
                     "--rhs", mtx("rhs", [1.0]), "--max-iter", "30"])
        assert code == 3
        assert "converged: False" in capsys.readouterr().out

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

    def test_interval_at_point(self, mtx, capsys):
        code = main(["bounds", "--a", mtx("a", [[2.0]]), "--b", mtx("b", [[1.0]]),
                     "--rhs", mtx("rhs", [3.0]), "--at", mtx("x", [4.0]),
                     "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["interval"]["lower"] == pytest.approx(1.0 / 3.0)
        assert doc["interval"]["upper"] == pytest.approx(1.0)

    def test_nothing_applicable_exit_code(self, mtx, capsys):
        code = main(["bounds", "--a", mtx("a", [[1.0]]), "--b", mtx("b", [[2.0]])])
        captured = capsys.readouterr()
        assert code == 2
        assert "no upper-bound estimator applies" in captured.err

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


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "avebounds" in capsys.readouterr().out

    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

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
