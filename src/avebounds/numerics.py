"""Dense linear-algebra primitives shared by the bound estimators.

Everything in this module works on plain numpy arrays of float64.  Inputs
are validated once at the boundary (shape, finiteness) so the estimator
code above it can assume well-formed data.
"""
from __future__ import annotations

import numpy as np

from .exceptions import SingularMatrixError

#: Norms supported throughout the package: p = 1, 2 or inf.  For matrices
#: these are the induced operator norms (max column sum, largest singular
#: value, max row sum).
SUPPORTED_NORMS = (1, 2, np.inf)

# Reciprocal-condition threshold below which a matrix is treated as
# singular instead of silently inverting noise.
_RCOND_FLOOR = 1e-14


def as_vector(v, name="vector"):
    """Coerce ``v`` to a finite 1-d float array or raise ValueError."""
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def as_matrix(m, name="matrix"):
    """Coerce ``m`` to a finite 2-d float array or raise ValueError."""
    arr = np.asarray(m, dtype=float)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name}: expected a non-empty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def as_square(m, name="matrix"):
    arr = as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {arr.shape}")
    return arr


def check_norm(p):
    """Validate a norm selector, returning it normalised (inf -> np.inf)."""
    if p == 1 or p == 2:
        return int(p)
    if p in (np.inf, float("inf")) or (isinstance(p, str) and p.lower() == "inf"):
        return np.inf
    raise ValueError(f"unsupported norm p={p!r}; use 1, 2 or inf")


def p_norm(obj, p=2):
    """Vector p-norm, or induced matrix p-norm, for p in {1, 2, inf}.

    The 2-norm of a matrix is its largest singular value; 1 and inf are the
    max column / row absolute sums.  Anything else is rejected rather than
    silently computing a non-operator norm.  Matrices go through
    ``batched_norms``.
    """
    p = check_norm(p)
    arr = np.asarray(obj, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("p_norm: entries must be finite")
    if arr.ndim == 1:
        return float(np.linalg.norm(arr, p))
    if arr.ndim == 2:
        return float(batched_norms(arr[None], p)[0])
    raise ValueError(f"p_norm: expected a vector or matrix, got ndim={arr.ndim}")


def batched_norms(stack, p):
    """Induced p-norms of every matrix in a stack of shape (k, m, n).

    ``p`` must already be checked.  For p = 2 the largest singular value
    comes from one symmetric eigensolve of the smaller Gram matrix instead
    of an SVD.  Each matrix is first scaled by its largest entry, so entries
    as large as 1e200 or as small as 1e-200 neither overflow nor underflow.
    """
    if p == 1:
        return np.abs(stack).sum(axis=1).max(axis=1)
    if p != 2:
        return np.abs(stack).sum(axis=2).max(axis=1)
    s = np.abs(stack).max(axis=(1, 2))
    scaled = stack / np.where(s > 0.0, s, 1.0)[:, None, None]
    flipped = scaled.transpose(0, 2, 1)
    gram = flipped @ scaled if stack.shape[1] >= stack.shape[2] else scaled @ flipped
    return s * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def extreme_singulars(m):
    """Return ``(smallest, largest)`` singular values of a square matrix."""
    arr = as_square(m)
    s = np.linalg.svd(arr, compute_uv=False)
    return float(s[-1]), float(s[0])


def spectral_radius_nonneg(m):
    """Spectral radius of an entrywise nonnegative square matrix.

    Restricting to nonnegative matrices keeps the result real and lets the
    Perron-Frobenius guarantees apply; a negative entry means the caller
    picked the wrong quantity, so it is rejected.
    """
    arr = as_square(m)
    if np.any(arr < 0):
        raise ValueError("spectral_radius_nonneg: matrix has negative entries")
    return float(np.max(np.abs(np.linalg.eigvals(arr))))


def certifies_contraction(m):
    """True only if rho(m) < 1 is proven for an entrywise nonnegative m.

    Solves ``(I - m) y = 1`` once.  A ``y > 0`` with ``m y < y`` entrywise
    is a Collatz-Wielandt certificate: rho(m) <= max_i (m y)_i / y_i < 1.
    ``m y`` is inflated by ``2 n eps`` first, which covers the rounding of a
    sum of n nonnegative products in any order.  False means "not proven":
    some m with rho(m) < 1 give it too, near rho = 1 or when (I - m)^-1 is
    too large for y to be resolved (a strongly non-normal m).
    """
    arr = as_square(m)
    if np.any(arr < 0):
        raise ValueError("certifies_contraction: matrix has negative entries")
    n = arr.shape[0]
    try:
        y = np.linalg.solve(np.eye(n) - arr, np.ones(n))
    except np.linalg.LinAlgError:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(np.all(y > 0)
                    and np.all(arr @ y * (1.0 + 2 * n * np.finfo(float).eps) < y))


def inverse(m, name="matrix"):
    """Invert a square matrix, rejecting numerically singular input.

    Uses the 2-norm condition number as the gate: anything with an
    estimated reciprocal condition below 1e-14 raises SingularMatrixError
    instead of returning garbage.
    """
    arr = as_square(m, name)
    require_regular(np.linalg.cond(arr), name)
    return np.linalg.inv(arr)


def cond_from_singulars(s):
    """``np.linalg.cond`` from descending singular values (0/0 is inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[0] / s[-1]
    return float("inf") if np.isnan(cond) else float(cond)


def require_regular(cond, name="matrix"):
    """The gate of ``inverse`` on a 2-norm condition number."""
    if not np.isfinite(cond) or cond > 1.0 / _RCOND_FLOOR:
        raise SingularMatrixError(
            f"{name} is singular to working precision (cond ~ {cond:.3e})"
        )


def comparison_matrix(m):
    """Comparison matrix: absolute values on the diagonal, negated absolute
    values off it."""
    arr = as_square(m)
    out = -np.abs(arr)
    np.fill_diagonal(out, np.abs(np.diag(arr)))
    return out


def positive_part(v):
    """Entrywise ``max(v, 0)``."""
    return np.maximum(as_vector(v), 0.0)
