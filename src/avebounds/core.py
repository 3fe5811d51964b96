"""Absolute value equation problem data and structural checks.

Two problem forms are supported:

* ``type1``:  A x - B|x| = b   (the absolute value applied to x)
* ``type2``:  A x - |B x| = b  (the absolute value applied to B x)

Both reduce to an ordinary linear system when B = 0.
"""
from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .exceptions import InapplicableBoundError, SingularMatrixError

TYPE_ONE = "type1"
TYPE_TWO = "type2"
FORMS = (TYPE_ONE, TYPE_TWO)

VERDICT_PROVEN = "proven_unique"
VERDICT_INCONCLUSIVE = "inconclusive"
VERDICT_FAILS = "fails_all_sufficient_conditions"

# Members of the sign family stacked per batched LAPACK call.
_SIGN_CHUNK = 4096
_CORE = "I - |K|"     # the matrix the Neumann series inverts, in gate messages


@dataclass
class AveProblem:
    """An absolute value equation ``A x - B|x| = b`` (or the type2 variant)."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    form: str = TYPE_ONE

    def __post_init__(self):
        self.A = numerics.as_square(self.A, "A")
        self.B = numerics.as_square(self.B, "B")
        self.b = numerics.as_vector(self.b, "b")
        if self.B.shape != self.A.shape:
            raise ValueError(
                f"A and B must have the same shape, got {self.A.shape} vs {self.B.shape}"
            )
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError(
                f"b has length {self.b.shape[0]}, expected {self.A.shape[0]}"
            )
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {self.form!r}")

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def analysis(self):
        """The ``ProblemAnalysis`` of the current ``(A, B, form)``.

        It is rebuilt when A, B or form is reassigned.  Editing A or B in
        place after the first use leaves it stale: assign a new array.
        """
        current = self.__dict__.get("_analysis")
        if (current is None or current.A is not self.A or current.B is not self.B
                or current.form != self.form):
            current = self._analysis = ProblemAnalysis(self.A, self.B, self.form)
        return current

    def __getstate__(self):
        # The analysis holds a lock, which cannot be copied or pickled.
        state = self.__dict__.copy()
        state.pop("_analysis", None)
        return state

    def perturbed(self, dA, dB, db):
        """Return a new problem with the same form and shifted data."""
        return AveProblem(self.A + dA, self.B + dB, self.b + db, self.form)


class ProblemAnalysis:
    """Quantities of one ``(A, B, form)``, each computed on first request
    and then shared by the solver, the estimators and the solvability screen.

    K is A^-1 B (B A^-1 for type2).  Only singular values, scalars, the
    componentwise kernels and the solver's LU factors of A are kept; A^-1
    and K are rebuilt when a new quantity needs them.  The premise
    rho(|K|) < 1 is held as a Collatz-Wielandt certificate from one linear
    solve; rho(|K|) itself comes from ``eigvals`` only when the certificate
    fails or ``solvability_report`` asks for the number.  A per-analysis
    lock makes concurrent callers compute each quantity once.
    """

    def __init__(self, A, B, form):
        self.A, self.B, self.form = A, B, form
        self._memo = {}
        self._lock = threading.RLock()

    def memoised(self, key, compute):
        """The value stored under ``key``, from ``compute()`` on first use."""
        if key not in self._memo:
            with self._lock:
                if key not in self._memo:
                    value = compute()
                    if isinstance(value, np.ndarray):
                        value.flags.writeable = False    # shared by every caller
                    self._memo[key] = value
        return self._memo[key]

    def singular_values(self, name):
        """Descending singular values of ``"A"`` or ``"B"``."""
        return self.memoised(name, lambda: np.linalg.svd(getattr(self, name), compute_uv=False))

    def norm(self, name, p):
        """Induced p-norm of ``"A"`` or ``"B"`` (p already checked)."""
        if p == 2:
            return float(self.singular_values(name)[0])
        return numerics.p_norm(getattr(self, name), p)

    def require_regular(self, name, label=None):
        """Raise SingularMatrixError where ``numerics.inverse`` would."""
        cond = numerics.cond_from_singulars(self.singular_values(name))
        numerics.require_regular(cond, label or name)

    def _ratio(self):
        """Fresh (A^-1, K); A must have passed the gate."""
        A_inv = np.linalg.inv(self.A)
        return A_inv, (self.B @ A_inv if self.form == TYPE_TWO else A_inv @ self.B)

    def spectral_radius(self):
        """Spectral radius of |K|; A must have passed the gate."""
        return self.memoised(
            "rho", lambda: numerics.spectral_radius_nonneg(np.abs(self._ratio()[1])))

    def ratio_norm(self):
        """Largest singular value of K; A must have passed the gate."""
        return self.memoised("ratio_norm", lambda: numerics.p_norm(self._ratio()[1], 2))

    def _contraction(self):
        """Fresh (A^-1, |K|); InapplicableBoundError unless A is regular and
        rho(|K|) < 1.

        The Collatz-Wielandt certificate decides; rho(|K|) from ``eigvals``
        is computed only when the certificate fails."""
        try:
            self.require_regular("A")
        except SingularMatrixError as exc:
            raise InapplicableBoundError(str(exc), condition="invertible_A") from exc
        if self._memo.get("contracts", True):
            A_inv, M = self._ratio()
            np.abs(M, out=M)
            if self.memoised("contracts", lambda: numerics.certifies_contraction(M) or (
                    self.memoised("rho", lambda: numerics.spectral_radius_nonneg(M)) < 1.0)):
                return A_inv, M
        raise InapplicableBoundError(
            f"spectral radius of the absolute iteration matrix is {self._memo['rho']:.6g} >= 1",
            condition="spectral_radius",
        )

    def neumann_factor(self, p):
        """||A^-1||_p ||(I - |K|)^-1||_p (p already checked)."""
        def compute():
            A_inv, M = self._contraction()
            core = np.eye(len(M)) - M
            with _core_gate():
                if p != 2:
                    series = numerics.inverse(core, _CORE)
                    return numerics.p_norm(A_inv, p) * numerics.p_norm(series, p)
                s = np.linalg.svd(core, compute_uv=False)
                numerics.require_regular(numerics.cond_from_singulars(s), _CORE)
            return float((1.0 / self.singular_values("A")[-1]) * (1.0 / s[-1]))
        return self.memoised(("neumann", p), compute)

    def componentwise_kernel(self, kernel):
        """(I - |K|) |A^-1| (``"damped"``) or (I - |K|)^-1 |A^-1|
        (``"series"``), factors swapped for type2."""
        if kernel not in ("damped", "series"):
            raise ValueError(f"unknown kernel {kernel!r}; use 'damped' or 'series'")

        def compute():
            A_inv, M = self._contraction()
            core = np.eye(len(M)) - M
            if kernel == "series":
                with _core_gate():
                    core = numerics.inverse(core, _CORE)
            return np.abs(A_inv) @ core if self.form == TYPE_TWO else core @ np.abs(A_inv)
        return self.memoised(("kernel", kernel), compute)

    def kernel_norm(self, kernel, p):
        """||kernel (|A| + |B|)||_p (p already checked)."""
        return self.memoised(("kernel_norm", kernel, p), lambda: numerics.p_norm(
            self.componentwise_kernel(kernel) @ (np.abs(self.A) + np.abs(self.B)), p))


@contextmanager
def _core_gate():
    """A failed gate on I - |K| makes the bound inapplicable: rho(|K|) < 1
    does not keep its inverse within working precision."""
    try:
        yield
    except SingularMatrixError as exc:
        raise InapplicableBoundError(str(exc), condition="invertible_I_minus_K") from exc


def residual(problem, x):
    """Natural residual of ``x``: ``A x - B|x| - b`` (type1) or
    ``A x - |B x| - b`` (type2)."""
    x = numerics.as_vector(x, "x")
    if x.shape[0] != problem.n:
        raise ValueError(f"x has length {x.shape[0]}, expected {problem.n}")
    if problem.form == TYPE_ONE:
        return problem.A @ x - problem.B @ np.abs(x) - problem.b
    return problem.A @ x - np.abs(problem.B @ x) - problem.b


def sign_diagonal(a, b):
    """Diagonal ``d`` with ``|a| - |b| = d * (a - b)`` entrywise.

    Each entry satisfies |d_i| <= 1 (triangle inequality); entries where
    a_i == b_i are set to zero since any value in [-1, 1] would do.  This
    is the mean-value style factorisation that turns a difference of
    residuals into a single linear map.
    """
    a = numerics.as_vector(a, "a")
    b = numerics.as_vector(b, "b")
    if a.shape != b.shape:
        raise ValueError("sign_diagonal: vectors must have the same length")
    d = np.zeros_like(a)
    diff = a - b
    nz = diff != 0
    d[nz] = (np.abs(a[nz]) - np.abs(b[nz])) / diff[nz]
    # Roundoff at near-ties can push a hair outside [-1, 1]; clamp it.
    return np.clip(d, -1.0, 1.0)


@dataclass
class SolvabilityCheck:
    """One sufficient condition: ``value`` compared against ``threshold``."""

    name: str
    value: float
    threshold: float
    passed: bool
    note: str = ""


@dataclass
class SolvabilityReport:
    checks: list = field(default_factory=list)
    verdict: str = VERDICT_INCONCLUSIVE

    @property
    def proven(self):
        return self.verdict == VERDICT_PROVEN


def _sign_family(A, B, d_values, left=False):
    """Yield ``(block, stack)`` over chunks of the rows of ``d_values``:
    ``stack[i]`` is A - B diag(block[i]), or A - diag(block[i]) B when
    ``left``.  This is the one loop over members of a sign family."""
    for start in range(0, d_values.shape[0], _SIGN_CHUNK):
        block = d_values[start:start + _SIGN_CHUNK]
        if left:
            yield block, A[None, :, :] - block[:, :, None] * B[None, :, :]
        else:
            yield block, A[None, :, :] - B[None, :, :] * block[:, None, :]


def _vertex_witness(A, B, vertices, left=False):
    """None when every member at ``vertices`` has a determinant of one
    common strict sign, else the first vertex that breaks it.

    The determinant of A - B diag(d) is affine in each d_j, so one strict
    sign at all vertices of a box proves every member of the box regular,
    and a sign change proves a singular member.  A determinant counts as
    strict only when |det| > n eps prod_j ||col_j||_2, a rounding-size
    fraction of Hadamard's bound, which is scale-free.
    """
    n = A.shape[0]
    log_floor = math.log(n * np.finfo(float).eps)
    # The test is homogeneous; an exact 2**k scaling keeps the norms finite.
    exponent = np.frexp(max(np.abs(A).max(), np.abs(B).max()))[1]
    A, B = np.ldexp(A, -exponent), np.ldexp(B, -exponent)
    sign = 0.0
    for block, stack in _sign_family(A, B, vertices, left):
        signs, logdets = np.linalg.slogdet(stack)
        with np.errstate(divide="ignore"):      # a zero column has log norm -inf
            log_hadamard = np.log(np.linalg.norm(stack, axis=1)).sum(axis=1)
        if sign == 0.0:
            sign = signs[0]
        bad = (signs != sign) | ~(logdets > log_hadamard + log_floor)
        if np.any(bad):
            return block[np.argmax(bad)]
    return None


def sign_box_vertices(n):
    """All 2**n sign vectors in {-1, +1}**n as an array of shape (2**n, n)."""
    if n > 25:
        raise ValueError(f"refusing to enumerate 2**{n} sign vertices")
    counts = np.arange(2**n, dtype=np.int64)
    bits = (counts[:, None] >> np.arange(n)[None, :]) & 1
    return bits.astype(float) * 2.0 - 1.0


def solvability_report(problem, exhaustive_limit=20):
    """Screen a problem for unique solvability.

    Three sufficient conditions are evaluated (mirrored for type2):

    * spectral radius of |A^-1 B| below one,
    * smallest singular value of A above the largest of B,
    * largest singular value of A^-1 B below one.

    Any pass proves a unique solution exists for every right-hand side
    (``proven_unique``).  When all three fail and n <= ``exhaustive_limit``,
    the sign family A - B diag(d) decides (see ``_vertex_witness``):

    * one strict determinant sign at every vertex d in {-1,1}^n proves no
      member of the box singular -> ``proven_unique``,
    * otherwise ``inconclusive``: some right-hand sides may lack unique
      solutions; this particular b may or may not,
    * dimension over the limit   -> ``fails_all_sufficient_conditions``.

    A non-invertible A simply fails the conditions that need it; it is not
    an error here.
    """
    analysis = problem.analysis
    checks = []

    smin_a = float(analysis.singular_values("A")[-1])
    smax_b = float(analysis.singular_values("B")[0])
    checks.append(SolvabilityCheck(
        "singular_value_gap", smin_a - smax_b, 0.0, smin_a > smax_b,
        "smallest singular value of A minus largest of B, must be positive",
    ))

    try:
        analysis.require_regular("A")
    except SingularMatrixError:
        checks.append(SolvabilityCheck(
            "spectral_radius", math.inf, 1.0, False, "A is numerically singular"))
        checks.append(SolvabilityCheck(
            "largest_singular_ratio", math.inf, 1.0, False, "A is numerically singular"))
    else:
        rho = analysis.spectral_radius()
        checks.append(SolvabilityCheck(
            "spectral_radius", rho, 1.0, rho < 1.0,
            "spectral radius of |A^-1 B| (|B A^-1| for type2), must be below one",
        ))
        sigma = analysis.ratio_norm()
        checks.append(SolvabilityCheck(
            "largest_singular_ratio", sigma, 1.0, sigma < 1.0,
            "largest singular value of A^-1 B (B A^-1 for type2), must be below one",
        ))

    if any(c.passed for c in checks):
        return SolvabilityReport(checks, VERDICT_PROVEN)

    n = problem.n
    if n > exhaustive_limit:
        return SolvabilityReport(checks, VERDICT_FAILS)

    witness = _vertex_witness(problem.A, problem.B, sign_box_vertices(n),
                              left=problem.form == TYPE_TWO)
    if witness is None:
        checks.append(SolvabilityCheck(
            "sign_family_nonsingular", 1.0, 1.0, True,
            f"all {2**n} sign-vertex determinants share one strict sign, "
            "so every member of the box is nonsingular",
        ))
        return SolvabilityReport(checks, VERDICT_PROVEN)
    checks.append(SolvabilityCheck(
        "sign_family_nonsingular", 0.0, 1.0, False,
        "the box may hold a singular member: the determinant changes sign or "
        f"is of rounding size at d = {np.array2string(witness, precision=3)}; "
        "some right-hand sides may lack unique solutions",
    ))
    return SolvabilityReport(checks, VERDICT_INCONCLUSIVE)
