"""Absolute value equation problem data and structural checks.

Two problem forms are supported:

* ``type1``:  A x - B|x| = b   (the absolute value applied to x)
* ``type2``:  A x - |B x| = b  (the absolute value applied to B x)

Both reduce to an ordinary linear system when B = 0.
"""
from __future__ import annotations

import math
import threading
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
# Largest n whose 2**n sign-box vertices are enumerated.
SIGN_BOX_LIMIT = 20


@dataclass
class AveProblem:
    """An absolute value equation ``A x - B|x| = b`` (or the type2 variant)."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    form: str = TYPE_ONE

    def __post_init__(self):
        self.A = numerics.as_square(self.A, "A")
        self.B = numerics.as_square(self.B, "B", self.n)
        self.b = numerics.as_vector(self.b, "b", self.n)
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
        """A new problem of the same form, shifted by deltas of its size."""
        n, square = self.n, numerics.as_square
        return AveProblem(self.A + square(dA, "dA", n), self.B + square(dB, "dB", n),
                          self.b + numerics.as_vector(db, "db", n), self.form)


class ProblemAnalysis:
    """Quantities of one ``(A, B, form)``, each computed on first request
    and then shared by the solver, the estimators and the solvability screen.

    K is A^-1 B (B A^-1 for type2).  The memoised A^-1 is the one
    factorization of A: the solver, K, the Neumann factor and the kernels
    all read it.  The one inverse of I - |K| decides the premise
    rho(|K|) < 1 (a Collatz-Wielandt certificate) and serves every Neumann
    factor and the series kernel.  Both are gated on their own 1-norm
    condition number (``numerics.gated_inverse``), not on singular values.
    K is formed once, by one matrix product, and kept read-only.  No bound
    computes rho(|K|) itself.  A per-analysis lock makes concurrent callers
    compute each quantity once.
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
                    for item in value if isinstance(value, tuple) else (value,):
                        if isinstance(item, np.ndarray):
                            item.flags.writeable = False    # shared by every caller
                    self._memo[key] = value
        return self._memo[key]

    def singular_values(self, name):
        """Descending singular values of ``"A"`` or ``"B"``."""
        return self.memoised(name, lambda: numerics.singular_values(getattr(self, name)))

    def norm(self, name, p):
        """Induced p-norm of ``"A"`` or ``"B"`` (p already checked)."""
        if p == 2:
            return float(self.singular_values(name)[0])
        return numerics.p_norm(getattr(self, name), p)

    def inverse(self, label="A"):
        """A^-1, read-only; SingularMatrixError (naming ``label``) unless it
        passes the gate of ``numerics.inverse``.  A is inverted once, even
        when it fails."""
        inv, cond = self.memoised("A_inv", lambda: numerics.gated_inverse(self.A))
        numerics.require_regular(cond, label)
        return inv

    def _ratio(self):
        """K, read-only; A must have passed the gate."""
        def compute():
            A_inv = self.inverse()
            return self.B @ A_inv if self.form == TYPE_TWO else A_inv @ self.B
        return self.memoised("K", compute)

    def ratio_norm(self):
        """Largest singular value of K; A must have passed the gate."""
        return self.memoised("ratio_norm", lambda: numerics.p_norm(self._ratio(), 2))

    def _core_inverse(self):
        """(I - |K|)^-1, read-only; InapplicableBoundError unless A and then
        the memoised inverse of I - |K| pass the gate of ``numerics.inverse``,
        and its Collatz-Wielandt certificate proves rho(|K|) < 1
        (``numerics.contraction_inverse``).  A singular I - |K| fails the
        certificate: 1 is then an eigenvalue of |K|."""
        try:
            self.inverse()
        except SingularMatrixError as exc:
            raise InapplicableBoundError(str(exc), condition="invertible_A") from exc
        inv, cond, proven = self.memoised(
            "core", lambda: numerics.contraction_inverse(np.abs(self._ratio())))
        if inv is not None:
            try:
                numerics.require_regular(cond, "I - |K|")
            except SingularMatrixError as exc:
                raise InapplicableBoundError(
                    str(exc), condition="invertible_I_minus_K") from exc
        if not proven:
            raise InapplicableBoundError(
                "spectral radius of the absolute iteration matrix is not proven below 1",
                condition="spectral_radius",
            )
        return inv

    def neumann_factor(self, p):
        """||A^-1||_p ||(I - |K|)^-1||_p (p already checked); ||A^-1||_2 is
        1 / sigma_min(A)."""
        def compute():
            core = numerics.p_norm(self._core_inverse(), p)
            if p == 2:
                return float(core / self.singular_values("A")[-1])
            return numerics.p_norm(self.inverse(), p) * core
        return self.memoised(("neumann", p), compute)

    def componentwise_kernel(self, kernel):
        """(I - |K|) |A^-1| (``"damped"``) or (I - |K|)^-1 |A^-1|
        (``"series"``), factors swapped for type2."""
        if kernel not in ("damped", "series"):
            raise ValueError(f"unknown kernel {kernel!r}; use 'damped' or 'series'")

        def compute():
            core = self._core_inverse()     # both kernels need the premise
            if kernel == "damped":
                core = np.eye(self.A.shape[0]) - np.abs(self._ratio())
            A_inv = np.abs(self.inverse())
            return A_inv @ core if self.form == TYPE_TWO else core @ A_inv
        return self.memoised(("kernel", kernel), compute)

    def kernel_norm(self, kernel, p):
        """||kernel (|A| + |B|)||_p (p already checked)."""
        return self.memoised(("kernel_norm", kernel, p), lambda: numerics.p_norm(
            self.componentwise_kernel(kernel) @ (np.abs(self.A) + np.abs(self.B)), p))


def residual(problem, x):
    """Natural residual of ``x``: ``A x - B|x| - b`` (type1) or
    ``A x - |B x| - b`` (type2)."""
    x = numerics.as_vector(x, "x", problem.n)
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
    b = numerics.as_vector(b, "b", a.shape[0])
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


def sign_member(A, B, d, left=False):
    """A - B diag(d) (A - diag(d) B when ``left``), per leading index of d."""
    return A - d[..., :, None] * B if left else A - B * d[..., None, :]


def sign_box_scan(A, B, left=False, p=None, zero_one=False):
    """One pass over the members A - B diag(d) (A - diag(d) B when
    ``left``) at all 2**n vertices d of {-1, 1}**n ({0, 1}**n when
    ``zero_one``); returns ``(witness, peak)``.  Vertex k has d_j = 1
    exactly when bit j of k is set.  ValueError for n above
    ``SIGN_BOX_LIMIT``, before anything is enumerated.

    ``witness`` is None when every member has a determinant of one common
    strict sign, else the first vertex that breaks it.  The determinant is
    affine in each d_j, so one strict sign at all vertices of a box proves
    every member of the box regular, and a sign change proves a singular
    member.  A determinant counts as strict only when
    |det| > n eps prod_j ||col_j||_2, a rounding-size fraction of
    Hadamard's bound, which is scale-free.

    ``peak`` is None without ``p``, +inf with a witness, and otherwise the
    vertex maximum of ||(A - B diag(d))^-1 diag(|d|)||_p.  Each chunk's
    vertices come from its index range and its members are built once, so
    memory is bounded by one chunk; its inverses are formed only after its
    determinants pass, so a witness ends the scan before they are.
    """
    n = A.shape[0]
    if n > SIGN_BOX_LIMIT:
        raise ValueError(
            f"refusing to enumerate 2**{n} sign vertices (limit n <= {SIGN_BOX_LIMIT})")
    log_floor = math.log(n * np.finfo(float).eps)
    # The test is homogeneous; an exact 2**k scaling keeps the norms finite,
    # and 2**-k scales the inverse norms back exactly.
    exponent = np.frexp(max(np.abs(A).max(), np.abs(B).max()))[1]
    A, B = np.ldexp(A, -exponent), np.ldexp(B, -exponent)
    bits, low = 1 << np.arange(n), (0.0 if zero_one else -1.0)
    sign, peak = 0.0, 0.0
    for start in range(0, 2**n, _SIGN_CHUNK):
        index = np.arange(start, min(start + _SIGN_CHUNK, 2**n))
        block = np.where(index[:, None] & bits, 1.0, low)
        stack = sign_member(A, B, block, left)
        signs, logdets = np.linalg.slogdet(stack)
        with np.errstate(divide="ignore"):      # a zero column has log norm -inf
            log_hadamard = np.log(np.linalg.norm(stack, axis=1)).sum(axis=1)
        if sign == 0.0:
            sign = signs[0]
        bad = (signs != sign) | ~(logdets > log_hadamard + log_floor)
        if np.any(bad):
            return block[np.argmax(bad)], (None if p is None else float("inf"))
        if p is not None:
            inverses = np.linalg.inv(stack)
            if zero_one:                        # |d| = 1 at every sign vertex
                inverses *= block[:, None, :]
            peak = max(peak, float(numerics.batched_norms(inverses, p).max()))
    return None, (None if p is None else float(np.ldexp(peak, -exponent)))


def solvability_report(problem):
    """Screen a problem for unique solvability.

    Three sufficient conditions are evaluated (mirrored for type2):

    * spectral radius of |A^-1 B| below one,
    * smallest singular value of A above the largest of B,
    * largest singular value of A^-1 B below one.

    Any pass proves a unique solution exists for every right-hand side
    (``proven_unique``).  When all three fail and n <= ``SIGN_BOX_LIMIT``,
    the sign family A - B diag(d) decides (see ``sign_box_scan``):

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
        analysis.inverse()
    except SingularMatrixError:
        checks.append(SolvabilityCheck(
            "spectral_radius", math.inf, 1.0, False, "A is numerically singular"))
        checks.append(SolvabilityCheck(
            "largest_singular_ratio", math.inf, 1.0, False, "A is numerically singular"))
    else:
        rho = numerics.spectral_radius_nonneg(np.abs(analysis._ratio()))
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
    if n > SIGN_BOX_LIMIT:
        return SolvabilityReport(checks, VERDICT_FAILS)

    witness, _ = sign_box_scan(problem.A, problem.B, problem.form == TYPE_TWO)
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
