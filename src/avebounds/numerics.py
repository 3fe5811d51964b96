"""Dense linear-algebra primitives shared by the bound estimators.

Everything in this module works on plain numpy arrays of float64.  Inputs
are validated once at the boundary (shape, finiteness, real entries) so
the estimator code above it can assume well-formed data.

Every induced matrix norm of the package comes from ``p_norm`` (a stack
of matrices from ``batched_norms``; a 2-norm from one symmetric
eigensolve of a ``scaled_gram``, never an SVD), and every singular
spectrum of a single matrix from the ``svd`` of ``singular_values``.  A
pair with a symmetric A and A + B = c I exactly has one more route,
``commuting_spectrum``: the one ``eigvalsh`` of A gives the spectra and
2-norms of A, of B = c I - A and of A^-1 B (``core.ProblemAnalysis``),
and ``pair_norms`` takes it for the 2-norms of a perturbation pair.  It
is read off the input, so there is nothing to set.  The one other
``eigvalsh`` of a matrix itself is ``smallest_eigenvalue``, of the
symmetric I - |K| of such a pair.  Every ``eigvalsh``, ``svd`` and
``eigvals`` of the package runs in this module.
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
    inf, without a warning.  An empty vector or matrix has norm 0.
    """
    p = check_norm(p)
    arr = _as_real(obj, "p_norm")
    if not np.all(np.isfinite(arr)):
        raise ValueError("p_norm: entries must be finite")
    if arr.ndim not in (1, 2):
        raise ValueError(f"p_norm: expected a vector or matrix, got ndim={arr.ndim}")
    if arr.size == 0:
        return 0.0
    with np.errstate(over="ignore"):
        if arr.ndim == 2:
            return float(batched_norms(arr[None], p)[0])
        if p == 2:
            exponent = np.frexp(np.abs(arr).max())[1]
            return float(np.ldexp(np.linalg.norm(np.ldexp(arr, -exponent)), exponent))
        return float(np.linalg.norm(arr, p))


def scaled_norm(build, arrays, p):
    """``p_norm(build(*arrays), p)`` for a ``build`` homogeneous of degree
    one in the arrays jointly, such as ``np.add``.  ``build`` runs on the
    arrays times 2**-k, 2**k near their largest entry, and the norm is
    multiplied back by 2**k.  Both scalings are exact (short of entries
    below 2**-1022 times the largest), so the value is the unscaled norm
    bit for bit; but a sum that would overflow stays finite, and a norm
    past the float range is inf, without a warning.  The scaled arrays are
    fresh copies that ``build`` owns: it may overwrite them, as
    ``absolute_sum`` does, instead of allocating its own temporaries.
    """
    exponent = np.frexp(max(np.abs(a).max(initial=0.0) for a in arrays))[1]
    value = p_norm(build(*(np.ldexp(a, -exponent) for a in arrays)), p)
    with np.errstate(over="ignore"):
        return float(np.ldexp(value, exponent))


def absolute_sum(A, B):
    """|A| + |B|, written over A (and |B| over B): for a ``scaled_norm``
    build, whose arrays are its own to overwrite."""
    return np.add(np.abs(A, out=A), np.abs(B, out=B), out=A)


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
    """Descending singular values of a 2-d array, from ``svd``: the
    package's one route for a single matrix."""
    return np.linalg.svd(m, compute_uv=False)


def commuting_spectrum(A, B):
    """``(c, lam)`` when A is symmetric and A + B = c I exactly, with lam
    the ascending eigenvalues of A from one ``eigvalsh``; else None.

    Exact in the stored floats, with no rounding anywhere: A equals its
    transpose entry for entry; off the diagonal fl(a + b) is 0, which under
    gradual underflow means b = -a exactly; and every diagonal sum is one
    finite c whose TwoSum error term is 0, so b_ii = c - a_ii exactly.  A
    sum past the float range or an inexact one gives None, without a
    warning.  Then B = c I - A is symmetric and commutes with A.
    """
    if not np.array_equal(A, A.T):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        total = A + B
        a, b, s = np.diag(A), np.diag(B), total.diagonal().copy()
        bb = s - a
        exact = np.all(s == s[0]) and np.isfinite(s[0]) and not np.any(
            (a - (s - bb)) + (b - bb))
    np.fill_diagonal(total, 0.0)
    if not exact or total.any():
        return None
    return float(s[0]), np.linalg.eigvalsh(A)


def pair_norms(dA, dB, p):
    """``(||dA||_p, ||dB||_p)`` of a pair of square matrices (p already
    checked), each ``p_norm`` except for one case.  At p = 2 both are first
    divided by s, their joint largest |entry|; when the scaled pair commutes
    (``commuting_spectrum``), its one ``eigvalsh`` gives both norms, s max
    |lam| and s max |c - lam|.  Where the scaled pair is the same for every
    multiple eps (dA, dB), as for the lattice bands (fl(eps x) / fl(2 eps)
    = x / 2), the eigensolve is too, and with s = 2 eps the norms are eps
    times those of the pair bit for bit.
    """
    s = max(np.abs(dA).max(), np.abs(dB).max())
    pair = commuting_spectrum(dA / s, dB / s) if p == 2 and s > 0 else None
    if pair is None:
        return p_norm(dA, p), p_norm(dB, p)
    c, lam = pair
    with np.errstate(over="ignore"):
        return float(s * np.abs(lam).max()), float(s * np.abs(c - lam).max())


def smallest_eigenvalue(m):
    """The smallest eigenvalue of the symmetric matrix whose lower triangle
    ``m`` holds, from one ``eigvalsh``."""
    return float(np.linalg.eigvalsh(m)[0])


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
# accepts before it falls back to ``eigvals``; power steps that
# ``contraction_certificate`` takes before it falls back to one solve.
_POWER_STEPS = 64
_BRACKET_RTOL = 1e-12
_CERTIFY_STEPS = 8


def _power_bracket(arr, steps, decided):
    """``(y, lo, hi)`` at the first of at most ``steps`` normalised power
    steps ``y <- m y / max(m y)`` from ``y = 1`` whose ``collatz_wielandt``
    bracket ``decided(lo, hi)`` accepts, which an inf or nan end must not
    pass; None when no step does, or once ``m y`` is not safely positive
    (a zero row, or a reducible, periodic or defective m)."""
    n = arr.shape[0]
    y = np.ones(n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for _ in range(steps):
            my = arr @ y
            # below n * tiny an underflowed product could exceed the margin
            if not my.min() > n * np.finfo(float).tiny:
                return None
            lo, hi = collatz_wielandt(y, my)
            if decided(lo, hi):
                return y, lo, hi
            y = my / my.max()
    return None


def _closed(lo, hi):
    return hi - lo <= _BRACKET_RTOL * lo


def spectral_radius_nonneg(m):
    """``(value, closed)``: the spectral radius of an entrywise nonnegative
    square matrix, and whether ``value`` is proven never below it.

    Normalised power steps (``_power_bracket``) close the Collatz-Wielandt
    bracket of ``collatz_wielandt``; once its relative width is at most
    1e-12 its upper end is returned with ``closed`` True, so ``value < 1``
    proves rho(m) < 1.  On a positive m with a gap below its Perron root
    that takes a few dozen matrix-vector products.  When the bracket has
    not closed after 64 products, or ``m y`` stops being positive (a zero
    row, or a reducible, periodic or defective m), the value comes from a
    dense ``eigvals`` instead, with ``closed`` False: an estimate, which
    can fall below the true radius (0.9999999999999999 for a reducible m
    whose radius is exactly 1).  A negative entry means the caller picked
    the wrong quantity, so it is rejected.
    """
    arr = as_square(m)
    if np.any(arr < 0):
        raise ValueError("spectral_radius_nonneg: matrix has negative entries")
    found = _power_bracket(arr, _POWER_STEPS, _closed)
    if found is not None:
        return found[2], True
    return float(np.max(np.abs(np.linalg.eigvals(arr)))), False


def contraction_certificate(m):
    """``(proven, cond)`` for an entrywise nonnegative square m.

    ``proven`` is True only if rho(m) < 1 is proven by a vector y > 0 whose
    ``collatz_wielandt`` upper end ``hi`` is below 1.  Up to 8 power steps
    (``_power_bracket``) look for one and stop at the first upper end below
    1, or at a lower end above 1, which disproves the premise.  Otherwise y
    = (I - m)^-1 1 from one ``np.linalg.solve`` is tried: in exact
    arithmetic it is positive exactly when rho(m) < 1, and the certificate
    holds whatever the accuracy of the solve.  No inverse is formed.

    ``cond`` bounds the inf-norm condition number of I - m from the
    certificate: (I - m)^-1 = sum_k m^k and m y <= hi y give
    ||(I - m)^-1||_inf <= max y / (min y (1 - hi)), times ||I - m||_inf.
    It is inf when a positive y was found but its upper end is not below
    1 (an inverse too large for y to resolve), and None when no positive y
    was found: a lower end above 1, a singular I - m, or a y that is not
    positive, all of which say rho(m) >= 1 or near it.
    """
    arr = as_square(m)
    if np.any(arr < 0):
        raise ValueError("contraction_certificate: matrix has negative entries")
    n = arr.shape[0]
    y, lo, hi = _power_bracket(arr, _CERTIFY_STEPS, lambda lo, hi: (
        hi < 1.0 or lo > 1.0 or _closed(lo, hi))) or (None, 0.0, np.inf)
    if lo > 1.0:
        return False, None
    if not hi < 1.0:
        try:
            y = np.linalg.solve(np.eye(n) - arr, np.ones(n))
        except np.linalg.LinAlgError:
            return False, None
        if not np.all((y > 0) & np.isfinite(y)):
            return False, None
        with np.errstate(over="ignore", invalid="ignore"):
            hi = collatz_wielandt(y, arr @ y)[1]
        if not hi < 1.0:
            return False, np.inf
    d = np.diag(arr)
    with np.errstate(over="ignore", divide="ignore"):
        norm = float((np.abs(1.0 - d) + arr.sum(axis=1) - d).max())
        return True, norm * float(y.max() / (y.min() * (1.0 - hi)))


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
    """The gate of ``inverse`` on a p-norm condition number (p = 1, 2 or
    inf): a SingularMatrixError, or an InapplicableBoundError naming
    ``condition``."""
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
