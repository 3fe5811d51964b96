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


@dataclass(frozen=True)
class AveProblem:
    """An absolute value equation ``A x - B|x| = b`` (or the type2 variant):
    a value holding read-only copies of A, B and b, and ``analysis``, the
    ``ProblemAnalysis`` of its ``(A, B, form)``, built with it.  A changed
    problem is a new one, from ``perturbed`` or ``dataclasses.replace``."""

    A: np.ndarray
    B: np.ndarray
    b: np.ndarray
    form: str = TYPE_ONE

    def __post_init__(self):
        A = numerics.as_square(self.A, "A")
        data = {"A": A, "B": numerics.as_square(self.B, "B", len(A)),
                "b": numerics.as_vector(self.b, "b", len(A))}
        if self.form not in FORMS:
            raise ValueError(f"form must be one of {FORMS}, got {self.form!r}")
        # the caller's arrays stay writeable
        self._hold({name: value.copy() for name, value in data.items()})

    def _hold(self, data):
        """Keep the arrays of ``data``, which no one else holds, read-only,
        and build the analysis."""
        for name, value in data.items():
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "analysis", ProblemAnalysis(self.A, self.B, self.form))

    @property
    def n(self):
        return self.A.shape[0]

    def __getstate__(self):
        # The analysis holds a lock, which cannot be copied or pickled.
        state = self.__dict__.copy()
        del state["analysis"]
        return state

    def __setstate__(self, state):
        self.__init__(**state)      # read-only copies and a new analysis

    def perturbed(self, dA, dB, db):
        """A new problem of the same form, shifted by deltas of its size.
        The sums are fresh arrays: each is checked once and kept, not
        copied again."""
        n, square, vector = self.n, numerics.as_square, numerics.as_vector
        problem = object.__new__(AveProblem)
        object.__setattr__(problem, "form", self.form)
        problem._hold({"A": square(self.A + square(dA, "dA", n), "A"),
                       "B": square(self.B + square(dB, "dB", n), "B"),
                       "b": vector(self.b + vector(db, "db", n), "b")})
        return problem


class ProblemAnalysis:
    """Quantities of one ``(A, B, form)``, built once with its ``AveProblem``;
    each is computed on first request and then shared by the solver, the
    estimators and the solvability screen.

    K is A^-1 B (B A^-1 for type2).  The memoised A^-1 is the one
    factorization of A: the solver, K, the Neumann factor and the kernels
    all read it, gated on its own 1-norm condition number
    (``numerics.gated_inverse``), not on singular values.  The premise
    rho(|K|) < 1 is a Collatz-Wielandt certificate of a few power steps,
    or of one solve where they do not decide it
    (``numerics.contraction_certificate``); it also serves the screen
    where its power bracket does not close, and it bounds the condition
    number of I - |K| for that gate.  No inverse of I - |K| is formed for
    it: only the readers of its entries (the series kernel, the Neumann
    factors at p = 1 and inf, and at p = 2 for a non-commuting pair)
    invert I - |K|, once.  K is formed once, by one matrix product, and
    kept read-only.  No bound computes rho(|K|) itself.  Norms of A and B
    come from ``numerics.p_norm``; their singular spectra
    (``singular_values``) are taken only for a factor that reads more than
    the largest value.  A per-analysis lock makes concurrent callers
    compute each quantity once.

    A commuting pair takes one eigensolve for all of its 2-norm spectra:
    when A is exactly symmetric and A + B = c I holds exactly in the stored
    floats, as for an LCP in AVE form (A = I + M, B = I - M) with a
    symmetric M, the eigenvalues lam of A (``numerics.commuting_spectrum``)
    give sigma(A) = |lam|, sigma(B) = |c - lam|, ||A||_2, ||B||_2 and
    ||K||_2 = max |c / lam - 1|, since K = A^-1 B = B A^-1 = c A^-1 - I.
    These are identities of the stored pair, not estimates.  The symmetric
    |K| then gives the 2-norm Neumann factor from one more eigensolve, of
    I - |K| (``neumann_factor``).  Any other pair takes the SVD of
    ``numerics.singular_values`` and ``numerics.p_norm``.
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

    def _commuting(self):
        """``numerics.commuting_spectrum`` of the pair, memoised."""
        return self.memoised("commuting", lambda: numerics.commuting_spectrum(self.A, self.B))

    def singular_values(self, name):
        """Descending singular values of ``"A"`` or ``"B"``."""
        def compute():
            pair = self._commuting()
            if pair is None:
                return numerics.singular_values(getattr(self, name))
            c, lam = pair
            with np.errstate(over="ignore"):
                return np.sort(np.abs(lam if name == "A" else c - lam))[::-1]
        return self.memoised(name, compute)

    def norm(self, name, p):
        """Induced p-norm of ``"A"`` or ``"B"`` (p already checked), from
        ``numerics.p_norm``; a commuting pair's 2-norms are its largest
        singular values."""
        def compute():
            if p == 2 and self._commuting() is not None:
                return float(self.singular_values(name)[0])
            return numerics.p_norm(getattr(self, name), p)
        return self.memoised(("norm", name, p), compute)

    def inverse(self, label="A", condition=None):
        """A^-1, read-only; ``require_regular``'s error (naming ``label``)
        unless it passes the gate of ``numerics.inverse``.  A is inverted
        once, even when it fails."""
        inv, cond = self.memoised("A_inv", lambda: numerics.gated_inverse(self.A))
        numerics.require_regular(cond, label, condition=condition)
        return inv

    def _ratio(self):
        """K, read-only; A must have passed the gate.  A K past the float
        range is InapplicableBoundError (``finite_ratio``), formed once."""
        def compute():
            A_inv = self.inverse()
            with np.errstate(over="ignore", invalid="ignore"):
                K = self.B @ A_inv if self.form == TYPE_TWO else A_inv @ self.B
            return K if np.all(np.isfinite(K)) else None
        K = self.memoised("K", compute)
        if K is None:
            raise InapplicableBoundError("A^-1 B (B A^-1 for type2) overflows the float range",
                                         condition="finite_ratio")
        return K

    def ratio_norm(self):
        """Largest singular value of K; A must have passed the gate, and K
        must be finite.  For a commuting pair K = c A^-1 - I is symmetric,
        so it is max |c / lam - 1|."""
        def compute():
            K, pair = self._ratio(), self._commuting()
            if pair is None:
                return numerics.p_norm(K, 2)
            c, lam = pair
            with np.errstate(over="ignore", divide="ignore"):
                return float(np.abs(c / lam - 1.0).max())
        return self.memoised("ratio_norm", compute)

    def _contraction(self):
        """``numerics.contraction_certificate(|K|)``, memoised: whether
        rho(|K|) < 1 is proven, and the certificate's bound on the inf-norm
        condition number of I - |K|.  A must have passed the gate."""
        return self.memoised(
            "contraction", lambda: numerics.contraction_certificate(np.abs(self._ratio())))

    def _premise(self):
        """InapplicableBoundError unless A passes the gate, rho(|K|) < 1 is
        proven and the certificate's condition bound of I - |K| passes the
        gate of ``numerics.inverse`` (``invertible_I_minus_K``), checked
        first.  A certificate that finds no positive vector, as for a
        singular I - |K|, is ``spectral_radius``: 1 is then an eigenvalue
        of |K|, or rho(|K|) exceeds 1."""
        self.inverse(condition="invertible_A")
        proven, cond = self._contraction()
        if cond is not None:
            numerics.require_regular(cond, "I - |K|", np.inf, condition="invertible_I_minus_K")
        if not proven:
            raise InapplicableBoundError(
                "spectral radius of the absolute iteration matrix is not proven below 1",
                condition="spectral_radius",
            )

    def _damping(self):
        """I - |K|, formed anew for each reader in one array; A must have
        passed the gate.  0 - |k| then + 1 on the diagonal rounds as
        ``np.eye(n) - np.abs(K)`` does, bit for bit, +0.0 included."""
        out = np.abs(self._ratio())
        np.subtract(0.0, out, out=out)
        out.flat[::out.shape[0] + 1] += 1.0
        return out

    def _core_inverse(self):
        """(I - |K|)^-1, read-only, formed on first use by a reader of its
        entries after ``_premise`` passes, and gated itself as by
        ``numerics.inverse`` (``invertible_I_minus_K``)."""
        self._premise()
        inv, cond = self.memoised("core", lambda: numerics.gated_inverse(self._damping()))
        numerics.require_regular(cond, "I - |K|", condition="invertible_I_minus_K")
        return inv

    def neumann_factor(self, p):
        """||A^-1||_p ||(I - |K|)^-1||_p (p already checked); ||A^-1||_2 is
        1 / sigma_min(A).  A commuting pair's |K| is symmetric, so I - |K|
        is positive definite under the premise and ||(I - |K|)^-1||_2 is
        1 / lambda_min(I - |K|), from one ``numerics.smallest_eigenvalue``;
        a lambda_min that rounds to 0 or below takes the inverse."""
        def compute():
            if p == 2 and self._commuting() is not None:
                self._premise()
                lam = numerics.smallest_eigenvalue(self._damping())
                if lam > 0.0:
                    return float(1.0 / lam / self.singular_values("A")[-1])
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
            if kernel == "damped":
                self._premise()
                core = self._damping()
            else:
                core = self._core_inverse()
            A_inv = np.abs(self.inverse())
            return A_inv @ core if self.form == TYPE_TWO else core @ A_inv
        return self.memoised(("kernel", kernel), compute)

    def kernel_norm(self, kernel, p):
        """||kernel (|A| + |B|)||_p (p already checked), the product written
        over the scaled copy of B; the kernel is built first."""
        def compute():
            K = self.componentwise_kernel(kernel)
            return numerics.scaled_norm(
                lambda A, B: np.matmul(K, numerics.absolute_sum(A, B), out=B), (self.A, self.B), p)
        return self.memoised(("kernel_norm", kernel, p), compute)


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
    residuals into a single linear map.  Each pair is first scaled by the
    exact power of two near max(|a_i|, |b_i|), so a - b cannot overflow.
    """
    a = numerics.as_vector(a, "a")
    b = numerics.as_vector(b, "b", a.shape[0])
    exponent = np.frexp(np.maximum(np.abs(a), np.abs(b)))[1]
    a, b = np.ldexp(a, -exponent), np.ldexp(b, -exponent)
    d = np.zeros_like(a)
    diff = a - b
    nz = diff != 0
    d[nz] = (np.abs(a[nz]) - np.abs(b[nz])) / diff[nz]
    # Roundoff at near-ties can push a hair outside [-1, 1]; clamp it.
    return np.clip(d, -1.0, 1.0)


@dataclass
class SolvabilityCheck:
    """One sufficient condition and the value it was read from."""

    name: str
    value: float
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


def flip_update(inverses, B, j, delta):
    """Move d_j by ``delta`` in every member A - B diag(d) of a batch, given
    the batch's inverses (shape (k, n, n)); returns the determinant ratios r
    (shape (k,)).

    The member changes by -delta b_j e_j^T (b_j column j of B), so
    det(new) = r det(old) with r = 1 - delta (L^-1 b_j)_j, and
    Sherman-Morrison updates each inverse in O(n^2).  The inverses are
    updated in place only when every |r| exceeds ``_FLIP_GUARD``; otherwise
    they are left as they were.
    """
    u = inverses @ B[:, j]                  # L^-1 b_j
    w = inverses[:, j, :].copy()            # e_j^T L^-1
    ratio = 1.0 - delta * u[:, j]
    if np.abs(ratio).min() > _FLIP_GUARD:
        u *= (delta / ratio)[:, None]
        # The same sums as u[:, :, None] * w[:, None, :], but einsum's loop
        # is not cut into rows of length n: 1.0 against 1.4 ms a step at
        # n = 20 with 1024 members (2-CPU host).
        inverses += np.einsum("ki,kj->kij", u, w)
    return ratio


def _line_norms(A, B, low):
    """Log 2-norms, shape (2, n), of column j of A - B diag(d), the line d_j
    moves, at d_j = ``low`` and 1; ``np.hypot`` does not over- or underflow."""
    ends = sign_member(A, B, np.outer([low, 1.0], np.ones(A.shape[0])))
    with np.errstate(divide="ignore"):      # a zero column has log norm -inf
        return np.log(np.hypot.reduce(ends, axis=1))


def _vertex_check(A, B, index, low, sign, lines):
    """``(block, stack, signs, logdets, bad)`` for the vertices ``index``
    (bit j of k set means d_j = 1, else ``low``) and their members.

    ``bad`` marks a vertex whose determinant sign is not ``sign`` (the sign
    of vertex 0, read from ``signs[0]`` when ``sign`` is 0) or whose
    |det| is at most n eps prod_j ||col_j||_2, read from ``lines``."""
    n = A.shape[0]
    block = np.where(index[:, None] & (1 << np.arange(n)), 1.0, low)
    stack = sign_member(A, B, block)
    signs, logdets = np.linalg.slogdet(stack)
    log_hadamard = np.where(block == 1.0, lines[1], lines[0]).sum(axis=1)
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


def _topped(peak, top, inverses, block, p, zero_one, left):
    """``(peak, top)`` raised to the largest ||L^-1 diag(|d|)||_p (L^-T if
    ``left``) of the inverses and ``block`` rows, if above ``peak``; at p = 2
    only members whose ``_two_norm_bound`` can top it get an eigensolve."""
    members = inverses.swapaxes(1, 2) if left else inverses
    members = members * block[:, None, :] if zero_one else members  # |d| = 1 on {-1, 1}**n
    if p == 2:
        can_top = _two_norm_bound(members) * (1.0 + 1e-10) > peak
        members, block = members[can_top], block[can_top]
    if len(block):
        norms = numerics.batched_norms(members, p)
        k = np.argmax(norms)
        if norms[k] > peak:
            return norms[k], block[k].copy()
    return peak, top


def _direct_segment(A, B, left, p, zero_one, batches, sign, lines, peak, top):
    """``(witness, state)`` of the ``batches`` (a range) built, tested and
    inverted directly in bit order (without ``p`` only the last): the first
    vertex failing its tests, or None and the walk's state at the last."""
    n, low = A.shape[0], (0.0 if zero_one else -1.0)
    for batch in batches:
        block, stack, signs, logdets, bad = _vertex_check(
            A, B, np.arange(batch << n // 2, (batch + 1) << n // 2), low, sign, lines)
        if np.any(bad):
            return block[np.argmax(bad)], None
        if p is not None or batch == batches[-1]:
            inverses = np.linalg.inv(stack)
        if p is not None:
            peak, top = _topped(peak, top, inverses, block, p, zero_one, left)
    return None, (block, inverses, signs, logdets, batch, peak, top)


def _segment_walk(A, B, left, p, zero_one):
    """``(witness, peak)`` of ``sign_box_scan`` on the scaled pair.

    Batch g holds vertices g 2**h .. (g + 1) 2**h - 1 (h = n // 2); batch
    0 is built directly.  A segment is entered from the last batch of the
    one before by flipping the bits in which they differ, then walked in
    Gray-code order, one ``flip_update`` of the whole batch per step, with
    signs and log-determinants carried by the ratios and the Hadamard bound
    summed anew; its last batch is rebuilt directly.  A vertex failing its
    tests, a walked |det| within ``_NEAR_FLOOR`` of the floor, a ratio |r|
    at most ``_FLIP_GUARD`` or a rebuilt batch more than ``_ANCHOR_RTOL``
    (max entry, relative) from the walked inverses sends the segment to
    ``_direct_segment``.  The peak is read again from a direct inverse.
    """
    n, low = A.shape[0], (0.0 if zero_one else -1.0)
    h = n // 2
    index, lines = np.arange(2**h), _line_norms(A, B, low)
    block, stack, signs, logdets, bad = _vertex_check(A, B, index, low, 0.0, lines)
    if np.any(bad):
        return block[np.argmax(bad)], math.inf
    sign, inverses = signs[0], np.linalg.inv(stack)
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
                ratio = flip_update(inverses, B, j, value - block[0, j])
                vouched = np.abs(ratio).min() > _FLIP_GUARD
                if vouched:
                    block[:, j] = value
                    signs, logdets = signs * np.sign(ratio), logdets + np.log(np.abs(ratio))
            if vouched and first + step == last:
                _, stack, signs, logdets, bad = _vertex_check(
                    A, B, index + (batch << h), low, sign, lines)
                vouched = not np.any(bad)
                if vouched:
                    walked, inverses = inverses, np.linalg.inv(stack)
                    vouched = not np.any(np.abs(walked - inverses).max(axis=(1, 2))
                                         > _ANCHOR_RTOL * np.abs(inverses).max(axis=(1, 2)))
            elif vouched and batch:         # batch 0 was tested when built
                log_hadamard = np.where(block == 1.0, lines[1], lines[0]).sum(axis=1)
                vouched = not np.any((signs != sign) | ~(logdets > log_hadamard + log_floor))
            if not vouched:
                break
            if p is not None:
                peak, top = _topped(peak, top, inverses, block, p, zero_one, left)
        if not vouched:
            witness, state = _direct_segment(
                A, B, left, p, zero_one, range(first, last + 1), sign, lines, *entry)
            if witness is not None:
                return witness, math.inf
            block, inverses, signs, logdets, batch, peak, top = state
    if p is None:
        return None, 0.0
    inverse = np.linalg.inv(sign_member(A, B, top))[None]
    return None, float(_topped(0.0, top, inverse, top[None], p, zero_one, left)[0])


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
    Hadamard's bound.  ``left`` reads the transposes A^T - B^T diag(d), so
    the columns are the lines d moves, each with two norms taken once per
    scan; the floor and the row-pivoted LU of det ignore their scaling.

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
    A, B = (np.ldexp(M.T if left else M, -exponent) for M in (A, B))
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
      analysis (``numerics.contraction_certificate``), so a pass is a proof,
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

    A non-invertible A, or an A^-1 B past the float range, simply fails
    both conditions; it is not an error here.
    """
    analysis = problem.analysis
    checks, failed = [], None
    try:
        K = analysis._ratio()
    except SingularMatrixError:
        failed = "A is numerically singular"
    except InapplicableBoundError as exc:
        failed = str(exc)
    else:
        rho, closed = numerics.spectral_radius_nonneg(np.abs(K))
        # An eigvals estimate below 1 is no proof; the certificate is.
        passed = rho < 1.0 and (closed or analysis._contraction()[0])
        checks.append(SolvabilityCheck(
            "spectral_radius", rho, passed,
            "spectral radius of |A^-1 B| (|B A^-1| for type2), must be below one",
        ))
        sigma = analysis.ratio_norm()
        checks.append(SolvabilityCheck(
            "largest_singular_ratio", sigma, sigma < 1.0,
            "largest singular value of A^-1 B (B A^-1 for type2), must be below one",
        ))
    if failed:
        checks = [SolvabilityCheck(name, math.inf, False, failed)
                  for name in ("spectral_radius", "largest_singular_ratio")]

    if any(c.passed for c in checks):
        return SolvabilityReport(checks, VERDICT_PROVEN)

    n = problem.n
    if n > SIGN_BOX_LIMIT:
        return SolvabilityReport(checks, VERDICT_FAILS)

    witness, _ = sign_box_scan(problem.A, problem.B, problem.form == TYPE_TWO)
    if witness is None:
        checks.append(SolvabilityCheck(
            "sign_family_nonsingular", 1.0, True,
            f"all {2**n} sign-vertex determinants share one strict sign, "
            "so every member of the box is nonsingular",
        ))
        return SolvabilityReport(checks, VERDICT_PROVEN)
    checks.append(SolvabilityCheck(
        "sign_family_nonsingular", 0.0, False,
        "the box may hold a singular member: the determinant changes sign or "
        f"is of rounding size at d = {np.array2string(witness, precision=3)}; "
        "some right-hand sides may lack unique solutions",
    ))
    return SolvabilityReport(checks, VERDICT_INCONCLUSIVE)
