import gzip

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from scipy.io._fast_matrix_market import _fmm_core

from avebounds.matrixio import load_matrix, load_vector, save_matrix, save_vector


class TestMatrixRoundTrip:
    def test_dense_matrix(self, tmp_path):
        path = tmp_path / "m.mtx"
        m = np.array([[1.5, -2.0], [0.0, 4.25]])
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path), m)

    def test_sparse_file_loads_dense(self, tmp_path):
        path = tmp_path / "s.mtx"
        sp = scipy.sparse.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
        scipy.io.mmwrite(str(path), sp)
        got = load_matrix(path)
        assert isinstance(got, np.ndarray)
        assert np.array_equal(got, [[0.0, 1.0], [2.0, 0.0]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_matrix(tmp_path / "absent.mtx")

    @pytest.mark.parametrize("load", [load_matrix, load_vector], ids=["matrix", "vector"])
    def test_directory_is_not_a_file(self, tmp_path, load):
        # scipy's reader would call a directory a file with no banner.
        with pytest.raises(FileNotFoundError) as info:
            load(tmp_path)
        assert str(info.value) == f"no such file: {tmp_path}"


class TestVectorRoundTrip:
    def test_column_vector(self, tmp_path):
        path = tmp_path / "v.mtx"
        v = np.array([1.0, -2.5, 3.0])
        save_vector(path, v)
        got = load_vector(path)
        assert got.shape == (3,)
        assert np.array_equal(got, v)

    def test_row_vector_accepted(self, tmp_path):
        path = tmp_path / "r.mtx"
        save_matrix(path, np.array([[1.0, 2.0, 3.0]]))
        got = load_vector(path)
        assert np.array_equal(got, [1.0, 2.0, 3.0])

    def test_true_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.mtx"
        save_matrix(path, np.eye(2))
        with pytest.raises(ValueError):
            load_vector(path)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


# One file per Matrix Market layout the reader takes apart differently.
FORMATS = {
    "array_general": "%%MatrixMarket matrix array real general\n2 3\n1\n-2\n0.5\n0\n3e-300\n4\n",
    "coordinate_general": ("%%MatrixMarket matrix coordinate real general\n3 3 4\n"
                           "1 1 1.5\n3 1 -2\n2 3 7.25\n3 3 1e10\n"),
    "symmetric": "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 2\n2 1 -1.5\n3 2 4\n",
    "skew_symmetric": ("%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 2\n"
                       "2 1 -1.5\n3 2 4\n"),
    "real_hermitian": "%%MatrixMarket matrix coordinate real hermitian\n2 2 2\n1 1 1\n2 1 3\n",
    "integer": "%%MatrixMarket matrix array integer general\n2 2\n1\n-2\n3\n40000000000\n",
    "column_vector": "%%MatrixMarket matrix array real general\n3 1\n1\n-2.5\n3\n",
    "row_vector": "%%MatrixMarket matrix coordinate real general\n1 3 2\n1 1 1\n1 3 -4\n",
}


def _mmread_dense(path):
    data = scipy.io.mmread(str(path))
    return data.toarray() if scipy.sparse.issparse(data) else data


class TestFormats:
    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_matches_mmread(self, tmp_path, name):
        path = _write(tmp_path, f"{name}.mtx", FORMATS[name])
        got = load_matrix(path)
        assert got.dtype == float
        assert np.array_equal(got, _mmread_dense(path))

    def test_gzip_file(self, tmp_path):
        path = tmp_path / "m.mtx.gz"
        with gzip.open(path, "wt") as f:
            f.write(FORMATS["coordinate_general"])
        assert np.array_equal(load_matrix(path), _mmread_dense(path))

    @pytest.mark.parametrize("name", ["column_vector", "row_vector"])
    def test_vectors(self, tmp_path, name):
        path = _write(tmp_path, f"{name}.mtx", FORMATS[name])
        assert np.array_equal(load_vector(path), _mmread_dense(path).ravel())


class TestComplexRejected:
    @pytest.mark.parametrize("header, body", [
        ("array complex general", "2 1\n1 2\n3 -1\n"),
        ("coordinate complex hermitian", "2 2 2\n1 1 1 0\n2 1 3 -1\n"),
    ], ids=["array", "hermitian"])
    def test_names_the_file(self, tmp_path, header, body):
        path = _write(tmp_path, "c.mtx", f"%%MatrixMarket matrix {header}\n{body}")
        for load in (load_vector, load_matrix):
            with pytest.raises(ValueError, match="complex") as info:
                load(path)
            assert str(info.value).count(str(path)) == 1


# Files scipy's reader refuses, each with the start of scipy's own message.
BROKEN = {
    "banner": ("garbage\n", "Line 1: Not a Matrix Market file"),
    "truncated_array": ("%%MatrixMarket matrix array real general\n3 1\n1.0\n",
                        "Truncated file"),
    "truncated_coordinate": ("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n",
                             "Truncated file"),
    # scipy raises OverflowError, not ValueError, for an integer past int64.
    "integer_overflow": ("%%MatrixMarket matrix array integer general\n1 1\n99999999999999999999\n",
                         "Line 3: Integer out of range"),
}


@pytest.mark.parametrize("name", sorted(BROKEN))
@pytest.mark.parametrize("load", [load_matrix, load_vector], ids=["matrix", "vector"])
def test_parse_errors_name_the_file(tmp_path, name, load):
    text, message = BROKEN[name]
    path = _write(tmp_path, "bad.mtx", text)
    with pytest.raises(ValueError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}: {message}")
    assert str(info.value).count(str(path)) == 1


def test_every_read_runs_on_one_thread(tmp_path, monkeypatch):
    # mmread's reader defaults to one thread per CPU; each load asks for one.
    calls = []
    for name in ("open_read_file", "open_read_stream"):
        original = getattr(_fmm_core, name)

        def record(source, parallelism, _original=original):
            calls.append(parallelism)
            return _original(source, parallelism)
        monkeypatch.setattr(_fmm_core, name, record)
    save_matrix(tmp_path / "m.mtx", np.eye(3))
    save_vector(tmp_path / "v.mtx", np.ones(3))
    with gzip.open(tmp_path / "s.mtx.gz", "wt") as f:
        f.write(FORMATS["symmetric"])
    load_matrix(tmp_path / "m.mtx")
    load_vector(tmp_path / "v.mtx")
    load_matrix(tmp_path / "s.mtx.gz")
    assert calls == [1, 1, 1]
