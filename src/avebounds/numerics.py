"""Dense linear-algebra primitives shared by the bound estimators.

Everything in this module works on plain numpy arrays of float64.  Inputs
are validated once at the boundary (shape, finiteness, real entries) so
the estimator code above it can assume well-formed data.

Every induced matrix norm of the package comes from ``p_norm`` (a stack
of matrices from ``batched_norms``; a 2-norm from one symmetric
eigensolve of a ``scaled_gram``, never an SVD), and every singular
spectrum from ``singular_values``.  Only singular spectra have a second
route: an exactly symmetric matrix gets its singular values, the
|eigenvalues|, from one ``eigvalsh`` of the matrix itself.  The route is
read off the input, so there is nothing to set.
"""
from __future__ import annotations

import numpy as np

from .exceptions import InapplicableBoundError, SingularMatrixError

#: Norms supported throughout the package: p = 1, 2 or inf.  For matrices
#: these are the induced operator norms (max column sum, largest singular
#: value, max row sum).
SUPPORTED_NORMS = (1, 2, np.inf)

# Reciprocal-condition threshold below which a matrix is treated as
# singular instead of silently inverting noise.
_RCOND_FLOOR = 1e-14


def _as_real(obj, name):
    """``obj`` as a float array, or a ValueError that names it; a complex
    one is refused, not cast to its real part."""
    try:
        if not np.iscomplexobj(obj):
            return np.asarray(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        try:    # entries that cast to complex but not to float hold a complex one
            np.asarray(obj, dtype=complex)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{name}: {exc}") from exc
    raise ValueError(f"{name}: complex entries are not supported")


def as_vector(v, name="vector", n=None):
    """Coerce ``v`` to a finite 1-d float array, of length ``n`` if given,
    or raise ValueError."""
    arr = _as_real(v, name)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {n}")
    return arr


def as_matrix(m, name="matrix"):
    """Coerce ``m`` to a finite 2-d float array or raise ValueError."""
    arr = _as_real(m, name)
    if arr.ndim != 2 or arr.shape[0] == 0 or arr.shape[1] == 0:
        raise ValueError(f"{name}: expected a non-empty 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name}: entries must be finite")
    return arr


def as_square(m, name="matrix", n=None):
    """``as_matrix``, square, and n x n if ``n`` is given."""
    arr = as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name}: expected a square matrix, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"{name} has shape {arr.shape}, expected ({n}, {n})")
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
    ``batched_norms``.  A vector's 2-norm is taken of v / 2**k, 2**k near
    max |v_i|: an exact scaling, so entries near 1e200 or 1e-200 neither
    overflow nor underflow when squared.  Any norm above the float range is
    inf, without a warning.
    """
    p = check_norm(p)
    arr = _as_real(obj, "p_norm")
    if not np.all(np.isfinite(arr)):
        raise ValueError("p_norm: entries must be finite")
    with np.errstate(over="ignore"):
        if arr.ndim == 1 and p == 2:
            exponent = np.frexp(np.abs(arr).max(initial=0.0))[1]
            return float(np.ldexp(np.linalg.norm(np.ldexp(arr, -exponent)), exponent))
        if arr.ndim == 1:
            return float(np.linalg.norm(arr, p))
        if arr.ndim == 2:
            return float(batched_norms(arr[None], p)[0])
    raise ValueError(f"p_norm: expected a vector or matrix, got ndim={arr.ndim}")


def scaled_norm(build, arrays, p):
    """``p_norm(build(*arrays), p)`` for a ``build`` homogeneous of degree
    one in the arrays jointly, such as ``np.add``.  ``build`` runs on the
    arrays times 2**-k, 2**k near their largest entry, and the norm is
    multiplied back by 2**k.  Both scalings are exact (short of entries
    below 2**-1022 times the largest), so the value is the unscaled norm
    bit for bit; but a sum that would overflow stays finite, and a norm
    past the float range is inf, without a warning.
    """
    exponent = np.frexp(max(np.abs(a).max(initial=0.0) for a in arrays))[1]
    value = p_norm(build(*(np.ldexp(a, -exponent) for a in arrays)), p)
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, exponent))


def scaled_gram(stack):
    """``(s, G)`` for a stack of shape (k, m, n): ``s`` the largest |entry| of
    each matrix and ``G`` the Gram matrix, on its smaller side, of each matrix
    divided by it (a zero matrix by 1)."""
    s = np.abs(stack).max(axis=(1, 2))
    scaled = stack / np.where(s > 0.0, s, 1.0)[:, None, None]
    flipped = scaled.transpose(0, 2, 1)
    return s, (flipped @ scaled if stack.shape[1] >= stack.shape[2] else scaled @ flipped)


def batched_norms(stack, p):
    """Induced p-norms of every matrix in a stack of shape (k, m, n).

    ``p`` must already be checked.  At p = 2 each norm is the largest
    singular value, from one symmetric eigensolve of the ``scaled_gram``
    stack, never an SVD: the scaling by the largest entry keeps entries as
    large as 1e200 or as small as 1e-200 from overflowing or underflowing.
    """
    if p == 1:
        return np.abs(stack).sum(axis=1).max(axis=1)
    if p != 2:
        return np.abs(stack).sum(axis=2).max(axis=1)
    s, gram = scaled_gram(stack)
    return s * np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[:, -1], 0.0))


def singular_values(m):
    """Descending singular values of a 2-d array; the package's one route.

    An exactly symmetric ``m`` (``m == m.T`` entry for entry) gets the
    sorted |eigenvalues| of one ``eigvalsh``, which at n = 400 costs about
    0.4 of an SVD; any other matrix gets ``svd``.  Both are backward stable,
    with absolute error O(eps ||m||_2).
    """
    if m.shape[0] == m.shape[1] and np.array_equal(m, m.T):
        return np.sort(np.abs(np.linalg.eigvalsh(m)))[::-1]
    return np.linalg.svd(m, compute_uv=False)


def collatz_wielandt(y, my):
    """``(lo, hi)`` with lo <= rho(m) <= hi, for an entrywise nonnegative
    n x n m, a vector y > 0 and ``my`` the computed product ``m @ y``.

    The Collatz-Wielandt bracket is ``[min_i (m y)_i / y_i, max_i (m y)_i /
    y_i]``; it holds for any y > 0, whatever y is.  Its ends are moved out by
    ``2 n eps``, which covers the rounding of a sum of n nonnegative
    products in any order, plus ``2 eps`` for the division and the
    inflation itself.  A product that underflows is not covered, so
    ``spectral_radius_nonneg`` keeps ``my`` above ``n * tiny``.
    """
    margin = (2 * y.shape[0] + 2) * np.finfo(float).eps
    ratio = my / y
    return float(ratio.min() * (1.0 - margin)), float(ratio.max() * (1.0 + margin))


# Power steps and relative width of the bracket that ``spectral_radius_nonneg``
# accepts before it falls back to ``eigvals``.
_POWER_STEPS = 64
_BRACKET_RTOL = 1e-12


def spectral_radius_nonneg(m):
    """``(value, closed)``: the spectral radius of an entrywise nonnegative
    square matrix, and whether ``value`` is proven never below it.

    Normalised power steps ``y <- m y / max(m y)`` from ``y = 1`` close the
    Collatz-Wielandt bracket of ``collatz_wielandt``; once its relative
    width is at most 1e-12 its upper end is returned with ``closed`` True,
    so ``value < 1`` proves rho(m) < 1.  On a positive m with a gap below
    its Perron root that takes a few dozen matrix-vector products.  When
    the bracket has not closed after 64 products, or ``m y`` stops being
    positive (a zero row, or a reducible, periodic or defective m), the
    value comes from a dense ``eigvals`` instead, with ``closed`` False: an
    estimate, which can fall below the true radius (0.9999999999999999 for
    a reducible m whose radius is exactly 1).  A negative entry means the
    caller picked the wrong quantity, so it is rejected.
    """
    arr = as_square(m)
    if np.any(arr < 0):
        raise ValueError("spectral_radius_nonneg: matrix has negative entries")
    n = arr.shape[0]
    y = np.ones(n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(_POWER_STEPS):
            my = arr @ y
            # below n * tiny an underflowed product could exceed the margin
            if not my.min() > n * np.finfo(float).tiny:
                break
            lo, hi = collatz_wielandt(y, my)
            if hi - lo <= _BRACKET_RTOL * lo:    # False on inf or nan
                return hi, True
            y = my / my.max()
    return float(np.max(np.abs(np.linalg.eigvals(arr)))), False


def contraction_inverse(m):
    """``(inv, cond, proven)`` for an entrywise nonnegative square m.

    ``inv, cond`` are ``gated_inverse(I - m)``.  ``proven`` is True only if
    rho(m) < 1 is proven: ``y = inv 1`` with ``y > 0`` and the upper end of
    ``collatz_wielandt(y, m y)`` below 1 is a Collatz-Wielandt certificate,
    whatever the accuracy of ``inv``.  False means "not proven": some m
    with rho(m) < 1 give it too, near rho = 1 or when (I - m)^-1 is too
    large for y to be resolved (a strongly non-normal m).
    """
    arr = as_square(m)
    if np.any(arr < 0):
        raise ValueError("contraction_inverse: matrix has negative entries")
    n = arr.shape[0]
    inv, cond = gated_inverse(np.eye(n) - arr)
    y = np.zeros(n) if inv is None else inv.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        return inv, cond, bool(np.all(y > 0) and collatz_wielandt(y, arr @ y)[1] < 1.0)


def inverse(m, name="matrix", condition=None):
    """Invert a square matrix, rejecting numerically singular input.

    The gate is the 1-norm condition number of the inverse it computes
    (``gated_inverse``): anything above 1e14 raises ``require_regular``'s
    error instead of returning garbage.  No singular values are computed.
    """
    inv, cond = gated_inverse(as_square(m, name))
    require_regular(cond, name, condition=condition)
    return inv


def gated_inverse(m):
    """``(m^-1, cond)`` with cond = ||m||_1 ||m^-1||_1, the 1-norm condition
    number of the computed inverse, as LAPACK's ``xGECON`` and MATLAB's
    ``inv`` warning use; O(n^2) once the inverse exists.  It lies within a
    factor n of the 2-norm condition number.  When the product overflows,
    it is taken again of ``m / s`` and ``s m^-1``, s = max |m_ij|, so column
    sums of entries near 1e308 do not make m singular.  A ``LinAlgError``,
    a non-finite inverse or a condition number that still overflows gives
    ``(None, inf)``.
    """
    try:
        inv = np.linalg.inv(m)
    except np.linalg.LinAlgError:
        return None, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        cond = float(np.abs(m).sum(axis=0).max() * np.abs(inv).sum(axis=0).max())
        if not np.isfinite(cond):
            s = np.abs(m).max()
            cond = float(np.abs(m / s).sum(axis=0).max() * np.abs(s * inv).sum(axis=0).max())
    return (inv, cond) if np.isfinite(cond) else (None, np.inf)


def cond_from_singulars(s):
    """The 2-norm condition number from descending singular values
    (0/0 is inf)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = s[0] / s[-1]
    return float("inf") if np.isnan(cond) else float(cond)


def require_regular(cond, name="matrix", p=1, condition=None):
    """The gate of ``inverse`` on a p-norm condition number (p = 1 or 2): a
    SingularMatrixError, or an InapplicableBoundError naming ``condition``."""
    if not cond <= 1.0 / _RCOND_FLOOR:
        message = f"{name} is singular to working precision ({p}-norm cond ~ {cond:.3e})"
        raise (SingularMatrixError(message) if condition is None
               else InapplicableBoundError(message, condition=condition))


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
