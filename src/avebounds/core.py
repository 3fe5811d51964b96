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

# Segment length and the thresholds by which the Gray-code walk of the sign
# box vouches for a segment (``_segment_walk``).
_FLIP_GUARD = 1e-8
_NEAR_FLOOR = 2.0**10
_ANCHOR_STEPS = 64
_ANCHOR_RTOL = 1e-10
_EPS = np.finfo(float).eps
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
    factor, the series kernel and the screen where its power bracket does
    not close.  Both are gated on their own 1-norm condition number
    (``numerics.gated_inverse``), not on singular values.
    K is formed once, by one matrix product, and kept read-only.  No bound
    computes rho(|K|) itself.  Norms of A and B come from
    ``numerics.p_norm``; their singular spectra (``singular_values``) are
    taken only for a factor that reads more than the largest value.  A
    per-analysis lock makes concurrent callers compute each quantity once.
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
        """Induced p-norm of ``"A"`` or ``"B"`` (p already checked), from
        ``numerics.p_norm``: no singular spectrum is taken for it."""
        return self.memoised(("norm", name, p), lambda: numerics.p_norm(getattr(self, name), p))

    def inverse(self, label="A", condition=None):
        """A^-1, read-only; ``require_regular``'s error (naming ``label``)
        unless it passes the gate of ``numerics.inverse``.  A is inverted
        once, even when it fails."""
        inv, cond = self.memoised("A_inv", lambda: numerics.gated_inverse(self.A))
        numerics.require_regular(cond, label, condition=condition)
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

    def _contraction(self):
        """``numerics.contraction_inverse(|K|)``, memoised: the inverse of
        I - |K|, its condition number and whether rho(|K|) < 1 is proven.
        A must have passed the gate."""
        return self.memoised(
            "core", lambda: numerics.contraction_inverse(np.abs(self._ratio())))

    def _core_inverse(self):
        """(I - |K|)^-1, read-only; InapplicableBoundError unless A and then
        the memoised inverse of I - |K| pass the gate of ``numerics.inverse``,
        and its Collatz-Wielandt certificate proves rho(|K|) < 1
        (``numerics.contraction_inverse``).  A singular I - |K| fails the
        certificate: 1 is then an eigenvalue of |K|."""
        self.inverse(condition="invertible_A")
        inv, cond, proven = self._contraction()
        if inv is not None:
            numerics.require_regular(cond, "I - |K|", condition="invertible_I_minus_K")
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
        return self.memoised(("kernel_norm", kernel, p), lambda: numerics.scaled_norm(
            lambda A, B: self.componentwise_kernel(kernel) @ (np.abs(A) + np.abs(B)),
            (self.A, self.B), p))


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


def flip_update(inverses, B, j, delta, left=False):
    """Move d_j by ``delta`` in every member of a batch, given the batch's
    inverses (shape (k, n, n)); returns the determinant ratios r (shape (k,)).

    The member A - B diag(d) changes by -delta b_j e_j^T (b_j column j of
    B); A - diag(d) B (``left``) by -delta e_j b_j^T (b_j row j of B).  So
    det(new) = r det(old) with r = 1 - delta (L^-1 b_j)_j (left:
    1 - delta (b_j^T L^-1)_j), and Sherman-Morrison updates each inverse in
    O(n^2).  The inverses are updated in place only when every |r| exceeds
    ``_FLIP_GUARD``; otherwise they are left as they were.
    """
    if left:
        u = inverses[:, :, j].copy()        # L^-1 e_j
        w = B[j] @ inverses                 # b_j^T L^-1
        ratio = 1.0 - delta * w[:, j]
    else:
        u = inverses @ B[:, j]              # L^-1 b_j
        w = inverses[:, j, :].copy()        # e_j^T L^-1
        ratio = 1.0 - delta * u[:, j]
    if np.abs(ratio).min() > _FLIP_GUARD:
        u *= (delta / ratio)[:, None]
        # The same sums as u[:, :, None] * w[:, None, :], but einsum's loop
        # is not cut into rows of length n: 1.0 against 1.4 ms a step at
        # n = 20 with 1024 members (2-CPU host).
        inverses += np.einsum("ki,kj->kij", u, w)
    return ratio


def _vertex_check(A, B, index, left, low, sign):
    """``(block, stack, signs, logdets, bad)`` for the vertices ``index``
    (bit j of k set means d_j = 1, else ``low``) and their members.

    ``bad`` marks a vertex whose determinant sign is not ``sign`` (the sign
    of vertex 0, read from ``signs[0]`` when ``sign`` is 0) or whose
    |det| is at most n eps prod_j ||col_j||_2."""
    n = A.shape[0]
    block = np.where(index[:, None] & (1 << np.arange(n)), 1.0, low)
    stack = sign_member(A, B, block, left)
    signs, logdets = np.linalg.slogdet(stack)
    with np.errstate(divide="ignore"):      # a zero column has log norm -inf
        log_hadamard = np.log(np.linalg.norm(stack, axis=1)).sum(axis=1)
    sign = sign or signs[0]
    bad = (signs != sign) | ~(logdets > log_hadamard + math.log(n * _EPS))
    return block, stack, signs, logdets, bad


def _two_norm_bound(stack):
    """Upper bounds on the 2-norms of a stack of square matrices, within a
    factor n**(1/16) of them: with G = X^T X, ||X||_2^16 = lambda_max(G)^8
    <= ||G^8||_F.  Each X is scaled by its largest entry first, so G^8
    neither overflows nor loses its largest eigenvalue to underflow."""
    scale, gram = numerics.scaled_gram(stack)
    for _ in range(3):
        gram = gram @ gram
    return scale * np.linalg.norm(gram, axis=(1, 2)) ** (1.0 / 16.0)


def _topped(peak, top, inverses, block, p, zero_one):
    """``(peak, top)`` raised to the largest ||L^-1 diag(|d|)||_p of a batch
    of inverses and its row of ``block``, where that tops ``peak``; at p = 2
    only members whose ``_two_norm_bound`` can top it get an eigensolve."""
    members = inverses * block[:, None, :] if zero_one else inverses  # |d| = 1 on {-1, 1}**n
    if p == 2:
        can_top = _two_norm_bound(members) * (1.0 + 1e-10) > peak
        members, block = members[can_top], block[can_top]
    if len(block):
        norms = numerics.batched_norms(members, p)
        k = np.argmax(norms)
        if norms[k] > peak:
            return norms[k], block[k].copy()
    return peak, top


def _direct_segment(A, B, left, p, zero_one, batches, sign, peak, top):
    """``(witness, state)`` of the ``batches`` (a range) built, tested and
    inverted directly in bit order (without ``p`` only the last): the first
    vertex failing its tests, or None and the walk's state at the last."""
    n, low = A.shape[0], (0.0 if zero_one else -1.0)
    for batch in batches:
        block, stack, signs, logdets, bad = _vertex_check(
            A, B, np.arange(batch << n // 2, (batch + 1) << n // 2), left, low, sign)
        if np.any(bad):
            return block[np.argmax(bad)], None
        if p is not None or batch == batches[-1]:
            inverses = np.linalg.inv(stack)
        if p is not None:
            peak, top = _topped(peak, top, inverses, block, p, zero_one)
    return None, (block, inverses, signs, logdets, batch, peak, top)


def _segment_walk(A, B, left, p, zero_one):
    """``(witness, peak)`` of ``sign_box_scan`` on the scaled pair.

    Batch g holds vertices g 2**h .. (g + 1) 2**h - 1 (h = n // 2); batch
    0 is built directly.  A segment is entered from the last batch of the
    one before by flipping the bits in which they differ, then walked in
    Gray-code order, one ``flip_update`` of the whole batch per step, with
    signs and log-determinants carried by the ratios and the Hadamard bound
    recomputed; its last batch is rebuilt directly.  A vertex failing its
    tests, a walked |det| within ``_NEAR_FLOOR`` of the floor, a ratio |r|
    at most ``_FLIP_GUARD`` or a rebuilt batch more than ``_ANCHOR_RTOL``
    (max entry, relative) from the walked inverses sends the segment to
    ``_direct_segment``.  The peak is read again from a direct inverse.
    """
    n, low = A.shape[0], (0.0 if zero_one else -1.0)
    h = n // 2
    index = np.arange(2**h)
    block, stack, signs, logdets, bad = _vertex_check(A, B, index, left, low, 0.0)
    if np.any(bad):
        return block[np.argmax(bad)], math.inf
    sign, inverses = signs[0], np.linalg.inv(stack)
    # Entry (i, k) of a member moves with d_k (d_i when left): the squared
    # column norms split into a per-member part over the low bits and a
    # part over the walked bits, shared by the batch.
    upper = np.arange(n) >= h
    upper = upper[:, None] if left else upper[None, :]
    low_squares = (stack**2 * ~upper).sum(axis=1)
    log_floor = math.log(n * _EPS * _NEAR_FLOOR)
    batches, batch, peak, top = 2**(n - h), 0, 0.0, block[0].copy()
    for first in range(0, batches, _ANCHOR_STEPS):
        last, entry, vouched = min(first + _ANCHOR_STEPS, batches) - 1, (peak, top), True
        low_bits = batch % _ANCHOR_STEPS    # so entering flips segment bits only
        for step in range(last + 1 - first):
            target = first | (step ^ step >> 1 ^ low_bits)
            changed, batch = batch ^ target, target
            while vouched and changed:      # one bit inside a segment
                bit = (changed & -changed).bit_length() - 1
                changed ^= 1 << bit
                j, value = h + bit, (1.0 if target >> bit & 1 else low)
                ratio = flip_update(inverses, B, j, value - block[0, j], left)
                vouched = np.abs(ratio).min() > _FLIP_GUARD
                if vouched:
                    block[:, j] = value
                    signs, logdets = signs * np.sign(ratio), logdets + np.log(np.abs(ratio))
            if vouched and first + step == last:
                _, stack, signs, logdets, bad = _vertex_check(
                    A, B, index + (batch << h), left, low, sign)
                vouched = not np.any(bad)
                if vouched:
                    walked, inverses = inverses, np.linalg.inv(stack)
                    vouched = not np.any(np.abs(walked - inverses).max(axis=(1, 2))
                                         > _ANCHOR_RTOL * np.abs(inverses).max(axis=(1, 2)))
            elif vouched and batch:         # batch 0 was tested when built
                upper_squares = (sign_member(A, B, block[0], left)**2 * upper).sum(axis=0)
                with np.errstate(divide="ignore"):
                    log_hadamard = 0.5 * np.log(low_squares + upper_squares).sum(axis=1)
                vouched = not np.any((signs != sign) | ~(logdets > log_hadamard + log_floor))
            if not vouched:
                break
            if p is not None:
                peak, top = _topped(peak, top, inverses, block, p, zero_one)
        if not vouched:
            witness, state = _direct_segment(
                A, B, left, p, zero_one, range(first, last + 1), sign, *entry)
            if witness is not None:
                return witness, math.inf
            block, inverses, signs, logdets, batch, peak, top = state
    if p is None:
        return None, 0.0
    inverse = np.linalg.inv(sign_member(A, B, top, left))[None]
    return None, float(_topped(0.0, top, inverse, top[None], p, zero_one)[0])


def sign_box_scan(A, B, left=False, p=None, zero_one=False):
    """One pass over the members A - B diag(d) (A - diag(d) B when
    ``left``) at all 2**n vertices d of {-1, 1}**n ({0, 1}**n when
    ``zero_one``); returns ``(witness, peak)``.  Vertex k has d_j = 1
    exactly when bit j of k is set.  ValueError for n above
    ``SIGN_BOX_LIMIT``, before anything is enumerated.

    ``witness`` is None when every member has a determinant of one common
    strict sign, else the first vertex in bit order that breaks it.  The
    determinant is affine in each d_j, so one strict sign at all vertices
    of a box proves every member of the box regular, and a sign change
    proves a singular member.  A determinant counts as strict only when
    |det| > n eps prod_j ||col_j||_2, a rounding-size fraction of
    Hadamard's bound, which is scale-free.

    ``peak`` is None without ``p``, +inf with a witness, and otherwise the
    vertex maximum of ||(A - B diag(d))^-1 diag(|d|)||_p.

    The vertices are read in batches of 2**(n // 2) members, in segments
    of ``_ANCHOR_STEPS`` batches taken in bit order.  A segment is walked
    with rank-one updates (``_segment_walk``) or, where the walk cannot
    vouch for it, built, tested and inverted directly, a batch inverted
    only after its determinants pass.  Every segment before it has passed,
    so the witness is always the first in bit order, and the scan stops
    after the batch holding it.  A witness among the first 2**(n // 2)
    vertices ends the call before any inverse is formed.  Memory is
    bounded by one batch.
    """
    n = A.shape[0]
    if n > SIGN_BOX_LIMIT:
        raise ValueError(
            f"refusing to enumerate 2**{n} sign vertices (limit n <= {SIGN_BOX_LIMIT})")
    # The test is homogeneous; an exact 2**k scaling keeps the norms finite,
    # and 2**-k scales the inverse norms back exactly.
    exponent = np.frexp(max(np.abs(A).max(), np.abs(B).max()))[1]
    A, B = np.ldexp(A, -exponent), np.ldexp(B, -exponent)
    witness, peak = _segment_walk(A, B, left, p, zero_one)
    return witness, (None if p is None else float(np.ldexp(peak, -exponent)))


def solvability_report(problem):
    """Screen a problem for unique solvability.

    Two sufficient conditions are evaluated, in the order of
    ``report.checks`` (mirrored for type2):

    * spectral radius of |A^-1 B| below one: the value is the upper end of
      a closed Collatz-Wielandt bracket, or an ``eigvals`` estimate where it
      does not close (``numerics.spectral_radius_nonneg``).  An estimate
      below one passes only with the contraction certificate of the
      analysis (``numerics.contraction_inverse``), so a pass is a proof,
    * largest singular value of A^-1 B below one.

    Either pass proves a unique solution exists for every right-hand side
    (``proven_unique``).  No SVD is taken: the singular-value gap
    sigma_min(A) > sigma_max(B) gives ||A^-1 B||_2 <= sigma_max(B) /
    sigma_min(A) < 1 (type2: ||B A^-1||_2), so the second check passes
    wherever a gap screen could (Rohn, Optim. Lett. 3 (2009) 603-606);
    the gap itself is reported where it is a premise, as the p = 2
    ``singular_gap`` entry of ``error_bound_report``.  When both fail and
    n <= ``SIGN_BOX_LIMIT``, the sign family A - B diag(d) decides (see
    ``sign_box_scan``):

    * one strict determinant sign at every vertex d in {-1,1}^n proves no
      member of the box singular -> ``proven_unique``,
    * otherwise ``inconclusive``: some right-hand sides may lack unique
      solutions; this particular b may or may not,
    * dimension over the limit   -> ``fails_all_sufficient_conditions``.

    A non-invertible A simply fails both conditions; it is not an error
    here.
    """
    analysis = problem.analysis
    checks = []
    try:
        analysis.inverse()
    except SingularMatrixError:
        checks.append(SolvabilityCheck(
            "spectral_radius", math.inf, 1.0, False, "A is numerically singular"))
        checks.append(SolvabilityCheck(
            "largest_singular_ratio", math.inf, 1.0, False, "A is numerically singular"))
    else:
        rho, closed = numerics.spectral_radius_nonneg(np.abs(analysis._ratio()))
        # An eigvals estimate below 1 is no proof; the certificate is.
        passed = rho < 1.0 and (closed or analysis._contraction()[2])
        checks.append(SolvabilityCheck(
            "spectral_radius", rho, 1.0, passed,
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
