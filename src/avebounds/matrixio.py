"""Matrix Market file helpers for the CLI.

scipy is imported inside the functions that read or write a file, not when
this module loads: ``scipy.io`` brings ``scipy.sparse`` and ``scipy.io.matlab``
with it, and ``import avebounds``, ``avebounds reproduce`` and ``--version``
read no file.
"""
from __future__ import annotations

import os

import numpy as np

from . import numerics


def _read_dense(path):
    """The file at ``path`` as a dense array, read on the calling thread.

    ``scipy.io.mmread`` starts one reader thread per CPU for every file,
    beside numpy's BLAS threads, and its thread count can be set only
    process-wide.  So the reader is opened here with one thread, and the
    body is read as ``mmread`` reads it.
    """
    # mmread's own error for a missing file or a directory talks about
    # banners; check first so the user sees the real problem.
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    from scipy.io import _fast_matrix_market as fmm

    try:    # every parse error names the file: the CLI reads up to four
        cursor, stream = fmm._get_read_cursor(path, parallelism=1)
        try:
            # The cast to float would drop a complex entry's imaginary part.
            # A real "hermitian" file is a symmetric one and reads as such.
            if cursor.header.field == "complex":
                raise ValueError("complex entries are not supported")
            if cursor.header.format == "array":
                return fmm._read_body_array(cursor)
            (data, (rows, cols)), shape = fmm._read_body_coo(cursor, generalize_symmetry=True)
        finally:
            if stream is not None:      # the .gz or .bz2 file under the cursor
                stream.close()
    except (ValueError, OverflowError) as exc:    # scipy: "Integer out of range"
        raise ValueError(f"{path}: {exc}") from exc
    dense = np.zeros(shape, dtype=data.dtype)
    np.add.at(dense, (rows, cols), data)    # duplicates add up, as in mmread
    return dense


def load_matrix(path):
    """Read a Matrix Market file as a dense 2-d float array."""
    data = _read_dense(path)
    return numerics.as_matrix(np.asarray(data, dtype=float), str(path))


def load_vector(path):
    """Read a Matrix Market file holding a vector (n x 1, 1 x n or 1-d)."""
    data = _read_dense(path)
    arr = np.asarray(data, dtype=float)
    if arr.ndim == 2:
        if 1 not in arr.shape:
            raise ValueError(f"{path}: expected a vector, got shape {arr.shape}")
        arr = arr.ravel()
    return numerics.as_vector(arr, str(path))


def save_matrix(path, m):
    import scipy.io

    scipy.io.mmwrite(str(path), np.atleast_2d(np.asarray(m, dtype=float)))


def save_vector(path, v):
    import scipy.io

    arr = numerics.as_vector(v)
    scipy.io.mmwrite(str(path), arr.reshape(-1, 1))
