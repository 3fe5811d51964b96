"""The sign-box kernel: regularity is decided by the vertex determinants,
and the vertex enumerations of brute_force_alpha and beta_factor are exact
maxima over the whole box."""
import tracemalloc
import warnings

import numpy as np
import pytest

from avebounds import (
    AveProblem,
    HlcpProblem,
    TYPE_ONE,
    TYPE_TWO,
    beta_factor,
    brute_force_alpha,
    column_w_property,
    solvability_report,
)
from avebounds import core
from avebounds.core import VERDICT_INCONCLUSIVE, VERDICT_PROVEN, flip_update, sign_box_scan

from support import (
    box_vertices,
    exact_vertex_signs,
    random_hplus_lcp,
    regular_sign_family,
    sign_members,
)

NORMS = (1, 2, np.inf)


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_regular_family_with_tiny_vertex_determinants_is_proven(form):
    # At n = 12 some vertex determinant lies below an absolute floor of
    # 1e-12 * scale**n, yet every vertex determinant is positive, which
    # proves the whole box regular.
    n = 12
    problem = regular_sign_family(np.random.default_rng(4), n, form)
    dets = np.linalg.det(sign_members(problem.A, problem.B, box_vertices(n),
                                      left=form == TYPE_TWO))
    scale = max(np.linalg.norm(problem.A, np.inf), np.linalg.norm(problem.B, np.inf), 1.0)
    assert np.all(dets > 0)
    assert dets.min() <= 1e-12 * scale**n
    rep = solvability_report(problem)
    screens = {c.name: c.passed for c in rep.checks[:-1]}
    assert screens == {"spectral_radius": False, "largest_singular_ratio": False}
    assert rep.verdict == VERDICT_PROVEN
    assert rep.checks[-1].passed


def _w_pair(rng, n):
    """(M, N) = (T P D1, T D2) with P strictly diagonally dominant with a
    positive diagonal (a P-matrix), so the pair has the column W-property."""
    T = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    off = rng.uniform(-1.0, 1.0, (n, n))
    np.fill_diagonal(off, 0.0)
    P = off.copy()
    np.fill_diagonal(P, np.abs(off).sum(axis=1) + rng.uniform(0.5, 2.0, n))
    return T @ P * rng.uniform(0.5, 2.0, n)[None, :], T * rng.uniform(0.5, 2.0, n)[None, :]


@pytest.mark.parametrize("seed", [10, 24, 38])
def test_column_w_rejects_a_representative_with_repeated_columns(seed):
    # The representative taking column j from M and column k from N has two
    # equal columns; its computed determinant is rounding noise that, for
    # these seeds, is nonzero and of the common sign.
    n = 6
    rng = np.random.default_rng(seed)
    M, N = _w_pair(rng, n)
    assert column_w_property(HlcpProblem(M, N, np.ones(n)))
    j, k = rng.choice(n, size=2, replace=False)
    M[:, j] = N[:, k]
    assert not column_w_property(HlcpProblem(M, N, np.ones(n)))


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_mixed_vertex_signs_give_infinite_alpha(seed):
    # A sign change between two vertices puts a singular member on the
    # segment joining them, although no sampled point need hit it.
    n = 4
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 2.0 * np.eye(n)
    B = rng.standard_normal((n, n))
    dets = np.linalg.det(sign_members(A, B, box_vertices(n)))
    assert dets.min() < 0.0 < dets.max()
    problem = AveProblem(A, B, np.zeros(n))
    assert brute_force_alpha(problem) == np.inf
    assert solvability_report(problem).verdict == VERDICT_INCONCLUSIVE


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_vertex_verdict_does_not_depend_on_scale(scale):
    A, B = np.eye(2), np.array([[0.5, 2.0], [-0.3, 0.5]])
    problem = AveProblem(scale * A, scale * B, np.zeros(2))
    assert solvability_report(problem).verdict == VERDICT_PROVEN
    assert brute_force_alpha(problem) == pytest.approx(brute_force_alpha(
        AveProblem(A, B, np.zeros(2))) / scale, rel=1e-12)


def test_zero_column_counts_as_singular():
    # Under the pytest settings a divide-by-zero warning would fail this.
    A = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.0], [3.0, 0.0, 1.0]])
    problem = AveProblem(A, np.zeros((3, 3)), np.zeros(3))
    assert brute_force_alpha(problem) == np.inf
    assert solvability_report(problem).verdict == VERDICT_INCONCLUSIVE
    with pytest.warns(UserWarning):
        assert beta_factor(np.diag([1.0, 0.0])) == np.inf


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_extreme_scale_box_is_not_proven(form):
    # Every member's |det| is about 1e-200 of its Hadamard bound.  After
    # the 2**-665 scaling the short line's norm is about 1e-200, whose
    # square underflows; the floor takes the norm itself.
    problem = AveProblem(np.array([[2.0, 1e200], [0.0, 2.0]]), np.eye(2) / 2, np.zeros(2), form)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert solvability_report(problem).verdict == VERDICT_INCONCLUSIVE
        assert [brute_force_alpha(problem, p) for p in NORMS] == [np.inf] * 3


@pytest.mark.parametrize("corner", [1e307, 1e308])
@pytest.mark.parametrize("p", NORMS)
def test_extreme_scale_beta_box_is_not_proven(corner, p):
    # The member at lam = (1, 0) has rows (2, corner) and (0, 1): its
    # determinant 2 is below n eps times the product of its row norms.  The
    # exact vertex determinants are 1, 2, 2 and 4, so the warning says only
    # that the box may hold a singular member.
    with pytest.warns(UserWarning, match=r"may hold a singular member.* diagonal \[1\. 0\.\]"):
        assert beta_factor(np.array([[2.0, corner], [0.0, 2.0]]), p) == np.inf


def test_transposed_members_get_the_same_verdict():
    # (D A0, D B0) in type 2 has the transposes of the type-1 members of
    # (A0 D, B0 D), with the same determinants.  Its members have rows
    # scaled by 1e8 and 1e-8, so each column norm is about 1e8 while |det|
    # is about 3: a column floor would see a witness at d = (-1, -1).  The
    # floor over the rows, the lines d moves, is blind to that scaling.
    D, A0, B0 = np.diag([1e8, 1e-8]), np.array([[2.0, 1.0], [1.0, 2.0]]), np.eye(2) / 2
    right = AveProblem(A0 @ D, B0 @ D, np.zeros(2))
    mirror = AveProblem(D @ A0, D @ B0, np.zeros(2), TYPE_TWO)
    dual = {1: np.inf, 2: 2, np.inf: 1}
    for problem in (right, mirror):
        left = problem.form == TYPE_TWO
        assert sign_box_scan(problem.A, problem.B, left)[0] is None
        inverses = np.linalg.inv(sign_members(problem.A, problem.B, box_vertices(2), left))
        for p in NORMS:
            assert brute_force_alpha(problem, p) == pytest.approx(
                np.linalg.norm(inverses, ord=p, axis=(1, 2)).max(), rel=1e-12)
    for p, expect in zip(NORMS, (1.2e8, 1.442e8, 2e8)):
        assert brute_force_alpha(right, p) == pytest.approx(expect, rel=1e-3)
        assert brute_force_alpha(mirror, p) == pytest.approx(
            brute_force_alpha(right, dual[p]), rel=1e-12)


def test_every_proof_holds_for_the_exact_data():
    # Random pairs at n = 1-4 with row and column scales up to e**+-14,
    # and on every other pair per-entry scales up to 1e+-300 on about a
    # third of the entries: wherever the scan finds no witness, in either
    # form or on beta's {0, 1} box, the exact vertex determinants of the
    # float data share one strict sign.  Pair 299 in type 2 has badly
    # scaled rows: an LU of the members themselves, not of their
    # transposes, gives one computed sign where the exact ones change.
    rng = np.random.default_rng(2026)
    proofs = 0
    for pair in range(300):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n)) + rng.uniform(0.0, 2.0 * np.sqrt(n)) * np.eye(n)
        B = rng.uniform(0.1, 1.5) * rng.standard_normal((n, n))
        rows, cols = np.exp(rng.uniform(-14.0, 14.0, (2, n)))
        entries = np.where(rng.random((2, n, n)) < 0.3 * (pair % 2),
                           10.0 ** rng.uniform(-300.0, 300.0, (2, n, n)), 1.0)
        A, B = rows[:, None] * A * cols * entries[0], rows[:, None] * B * cols * entries[1]
        boxes = [(A, B, False, False), (A, B, True, False),
                 (np.eye(n), np.eye(n) - A, True, True)]
        for A_box, B_box, left, zero_one in boxes:
            if sign_box_scan(A_box, B_box, left, zero_one=zero_one)[0] is None:
                proofs += 1
                signs = exact_vertex_signs(A_box, B_box, left, 0.0 if zero_one else -1.0)
                assert signs in ({1}, {-1}), (pair, left, zero_one, A_box, B_box)
    assert proofs >= 300, proofs


def _regular(stacks, left):
    """Every determinant of one strict sign, well away from rounding size:
    Hadamard's bound is over the lines d moves, columns (rows when ``left``)."""
    dets = np.linalg.det(stacks)
    hadamard = np.prod(np.linalg.norm(stacks, axis=2 if left else 1), axis=1)
    return (np.all(dets > 0) or np.all(dets < 0)) and np.min(np.abs(dets) / hadamard) > 1e-6


def test_vertex_maximum_is_exact_and_dominates_interior_samples():
    # brute_force_alpha and beta_factor equal the largest norm over the
    # vertices, computed here independently, and no interior point exceeds it.
    rng = np.random.default_rng(20261018)
    worst = 0.0
    families = 0
    while families < 1000:
        n = int(rng.integers(1, 7))
        if families % 2 == 0:
            form = (TYPE_ONE, TYPE_TWO)[families // 2 % 2]
            A = rng.standard_normal((n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            B = rng.uniform(0.1, 1.5) * rng.standard_normal((n, n))
            vertices, interior = box_vertices(n), rng.uniform(-1.0, 1.0, (2000, n))
            left, scaled = form == TYPE_TWO, False
        else:
            M = rng.standard_normal((n, n)) + rng.uniform(0.0, 3.0) * np.eye(n)
            A, B = np.eye(n), np.eye(n) - M
            vertices = box_vertices(n, low=0.0)
            interior = rng.uniform(0.0, 1.0, (2000, n))
            left, scaled = True, True

        def inverses(d):
            inv = np.linalg.inv(sign_members(A, B, d, left))
            return inv * d[:, None, :] if scaled else inv

        if not _regular(sign_members(A, B, vertices, left), left):
            continue
        families += 1
        at_vertices, sampled = inverses(vertices), inverses(interior)
        for p in NORMS:
            if scaled:
                exact = beta_factor(M, p)
            else:
                exact = brute_force_alpha(AveProblem(A, B, np.zeros(n), form), p)
            assert exact == pytest.approx(
                np.linalg.norm(at_vertices, ord=p, axis=(1, 2)).max(), rel=1e-12)
            worst = max(worst, np.linalg.norm(sampled, ord=p, axis=(1, 2)).max() / exact - 1.0)
    assert worst <= 1e-12, worst


# n = 13: the walk reads the 2**13 vertices in 128 batches of
# 2**(13 // 2) = 64 members, two segments of core._ANCHOR_STEPS batches.
CHUNKED_N = 13


def _count_inverses(monkeypatch):
    calls = []
    inv = np.linalg.inv

    def counted(a):
        calls.append(a.shape)
        return inv(a)
    monkeypatch.setattr(np.linalg, "inv", counted)
    return calls


def test_sign_flip_between_chunks_is_found(monkeypatch):
    # det(I - B diag(d)) = 1 - 2 d_13 is 3 on the first 4096 vertices and
    # -1 from vertex 4096 on, so the first 64 batches alone look regular.
    n = CHUNKED_N
    A, B = np.eye(n), np.diag([0.0] * (n - 1) + [2.0])
    witness, peak = sign_box_scan(A, B, p=2)
    assert np.array_equal(witness, [-1.0] * (n - 1) + [1.0]) and peak == np.inf
    calls = _count_inverses(monkeypatch)
    assert brute_force_alpha(AveProblem(A, B, np.zeros(n))) == np.inf
    # The walk inverts its batch of the low n // 2 bits and the rebuilt
    # last batch of segment 0, and meets the sign change when it flips d_13
    # to enter segment 1; the direct scan of segment 1 stops in its first
    # batch, 64, before inverting it.
    assert calls == [(2 ** (n // 2), n, n)] * 2
    assert solvability_report(AveProblem(A, B, np.zeros(n))).verdict == VERDICT_INCONCLUSIVE


def test_direct_scan_stops_at_the_batch_of_the_first_witness(monkeypatch):
    # The same box: the walk tests its first batch and the rebuilt last
    # batch of segment 0, the direct scan of segment 1 its first batch,
    # every one of 2**(n // 2) members, and nothing after the batch holding
    # vertex 4096.
    n = CHUNKED_N
    A, B = np.eye(n), np.diag([0.0] * (n - 1) + [2.0])
    sizes = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: sizes.append(len(a)) or slogdet(a))
    witness, _ = sign_box_scan(A, B)
    assert np.array_equal(witness, [-1.0] * (n - 1) + [1.0])
    assert sizes == [2 ** (n // 2)] * 3 and sum(sizes) == 192


def test_witness_in_first_chunk_forms_no_inverse(monkeypatch):
    n = CHUNKED_N
    A, B = np.eye(n), np.diag([2.0] + [0.0] * (n - 1))
    calls = _count_inverses(monkeypatch)
    assert brute_force_alpha(AveProblem(A, B, np.zeros(n))) == np.inf
    with pytest.warns(UserWarning):
        assert beta_factor(np.diag([0.0] + [1.0] * (n - 1))) == np.inf
    assert calls == []


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_chunked_vertex_maximum_matches_an_independent_one(form):
    n = CHUNKED_N
    rng = np.random.default_rng(13)
    problem = regular_sign_family(rng, n, form)
    left = form == TYPE_TWO
    alpha_inverses = np.linalg.inv(
        sign_members(problem.A, problem.B, box_vertices(n), left))
    M = random_hplus_lcp(rng, n).M
    lam = box_vertices(n, low=0.0)
    beta_products = np.linalg.inv(sign_members(np.eye(n), np.eye(n) - M, lam, True)) \
        * lam[:, None, :]
    for p in NORMS:
        assert brute_force_alpha(problem, p) == pytest.approx(
            np.linalg.norm(alpha_inverses, ord=p, axis=(1, 2)).max(), rel=1e-12)
        assert beta_factor(M, p) == pytest.approx(
            np.linalg.norm(beta_products, ord=p, axis=(1, 2)).max(), rel=1e-12)


def test_limit_is_checked_before_anything_is_enumerated(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sign box enumerated above the limit")

    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    n = 21
    M = random_hplus_lcp(np.random.default_rng(21), n).M
    calls = (
        lambda: brute_force_alpha(AveProblem(M, np.eye(n), np.zeros(n))),
        lambda: beta_factor(M),
        lambda: column_w_property(HlcpProblem(M, np.eye(n), np.ones(n))),
    )
    for call in calls:
        with pytest.raises(ValueError, match="limit n <= 20"):
            call()


def _traced_peak(call):
    """``(call(), peak bytes traced while it ran)``."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_bounded_by_one_batch(monkeypatch):
    # The peak covers one batch of 2**(n // 2) members, their inverses and
    # LAPACK's copies of them: eight copies take 4.5 MiB at n = 17, where a
    # 2**n x n vertex array alone would take 17.8 MB.  The column W pair is
    # walked; on the late-witness box every vertex with d_n = 1 is
    # singular-signed, so the walk passes the first half of the box and
    # the direct scan of the next segment stops in its first batch.  That
    # box is also scanned at the limit, n = 20.
    n = 17
    M = random_hplus_lcp(np.random.default_rng(17), n).M
    regular, column_w_peak = _traced_peak(
        lambda: column_w_property(HlcpProblem(M, np.eye(n), np.ones(n))))
    alpha, alpha_peak = _traced_peak(lambda: brute_force_alpha(
        AveProblem(np.eye(n), np.diag([0.0] * (n - 1) + [2.0]), np.zeros(n)), p=2))
    assert regular and alpha == np.inf
    assert max(column_w_peak, alpha_peak) < 8 * 2 ** (n // 2) * n**2 * 8
    sizes = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda a: sizes.append(len(a)) or slogdet(a))
    for n in (17, core.SIGN_BOX_LIMIT):
        sizes.clear()
        B = np.diag([0.0] * (n - 1) + [2.0])
        (witness, _), scan_peak = _traced_peak(lambda: sign_box_scan(np.eye(n), B))
        assert np.array_equal(witness, [-1.0] * (n - 1) + [1.0])
        # Batch 0, the rebuilt last batch of each of the segments of
        # core._ANCHOR_STEPS = 64 batches before d_n = 1, and the witness's.
        assert sizes == [2 ** (n // 2)] * (2 ** (n - n // 2) // 128 + 2), sizes
        assert scan_peak < 8 * 2 ** (n // 2) * n**2 * 8, scan_peak


def _enumerated(A, B, left=False, p=None, zero_one=False):
    """``sign_box_scan``'s answer from every vertex at once, in bit order:
    the first vertex whose determinant differs in sign from vertex 0's or
    is at most n eps times Hadamard's bound over the lines that d moves,
    the columns (rows when ``left``), else the largest norm."""
    n = A.shape[0]
    vertices = box_vertices(n, low=0.0 if zero_one else -1.0)
    stacks = sign_members(A, B, vertices, left)
    dets = np.linalg.det(stacks)
    hadamard = np.prod(np.linalg.norm(stacks, axis=2 if left else 1), axis=1)
    floor = n * np.finfo(float).eps * hadamard
    bad = (np.sign(dets) != np.sign(dets[0])) | (np.abs(dets) <= floor)
    if bad.any():
        return vertices[np.argmax(bad)], (None if p is None else np.inf)
    if p is None:
        return None, None
    inverses = np.linalg.inv(stacks)
    if zero_one:
        inverses = inverses * vertices[:, None, :]
    return None, np.linalg.norm(inverses, ord=p, axis=(1, 2)).max()


def _count_direct_scans(monkeypatch):
    """The batch ranges of the segments built and tested directly."""
    calls = []
    direct = core._direct_segment

    def counted(*args):
        calls.append(args[5])
        return direct(*args)
    monkeypatch.setattr(core, "_direct_segment", counted)
    return calls


def _assert_same_answer(got, expect):
    (witness, peak), (expect_witness, expect_peak) = got, expect
    if expect_witness is None:
        assert witness is None
    else:
        assert np.array_equal(witness, expect_witness)
    if expect_peak is None or expect_peak == np.inf:
        assert peak == expect_peak
    else:
        assert peak == pytest.approx(expect_peak, rel=1e-12)


@pytest.mark.parametrize("n", range(2, 14))
def test_walk_matches_an_independent_enumeration(n, monkeypatch):
    # Regular pairs of both forms and the {0, 1} box of beta_factor: the
    # walk alone answers, and matches the enumeration in every norm.
    rng = np.random.default_rng(1000 + n)
    M = random_hplus_lcp(rng, n).M
    cases = [(regular_sign_family(rng, n, form), form == TYPE_TWO, False)
             for form in (TYPE_ONE, TYPE_TWO)]
    cases.append((AveProblem(np.eye(n), np.eye(n) - M, np.zeros(n)), True, True))
    direct = _count_direct_scans(monkeypatch)
    for problem, left, zero_one in cases:
        for p in (None, 1, 2, np.inf):
            expect = _enumerated(problem.A, problem.B, left, p, zero_one)
            assert expect[0] is None
            _assert_same_answer(sign_box_scan(problem.A, problem.B, left, p, zero_one), expect)
    assert direct == []


def _late_witness_pair(rng, n, left, zero_one):
    """A pair whose determinant at d is det(P) (w1 (1 - d_{n-1}) - t +
    sum_k beta_k d_k), from a bordered identity times a random P: positive
    at d_{n-1} = 0 or -1, and below the threshold t on about one in 20
    vertices with d_{n-1} = 1, mostly deep in their bit order since the
    weights beta_k grow like 1.3**k."""
    beta = rng.choice([-1.0, 1.0], n - 1) * rng.uniform(0.5, 1.0, n - 1) * 1.3 ** np.arange(n - 1)
    sums = np.sort(box_vertices(n - 1, low=0.0 if zero_one else -1.0) @ beta)
    t = sums[len(sums) // 20: len(sums) // 20 + 2].mean()
    w1 = t - sums[0] + 1.0
    A, B = np.eye(n), np.zeros((n, n))
    A[:-1, -1], A[-1, -1] = 1.0, w1 - t
    B[-1, :-1], B[-1, -1] = beta, w1
    P = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    return (A.T @ P, B.T @ P) if left else (P @ A, P @ B)


@pytest.mark.parametrize("seed", range(6))
def test_walk_witness_is_the_first_in_bit_order(seed):
    # Random pairs whose box holds singular members: the witness is the
    # enumeration's, wherever the walk met its first failing vertex.  At
    # n = 13 and 14 the first witness lies in segment 1, past the 64
    # batches of segment 0.
    rng = np.random.default_rng(seed)
    for n in range(2, 12):
        A = rng.standard_normal((n, n)) + rng.uniform(0.0, 2.0 * np.sqrt(n)) * np.eye(n)
        B = rng.standard_normal((n, n))
        for left in (False, True):
            for zero_one in (False, True):
                expect = _enumerated(A, B, left, 2, zero_one)
                _assert_same_answer(sign_box_scan(A, B, left, 2, zero_one), expect)
    for n in (13, 14):
        for left in (False, True):
            for zero_one in (False, True):
                A, B = _late_witness_pair(rng, n, left, zero_one)
                expect = _enumerated(A, B, left, 2, zero_one)
                index = np.flatnonzero(expect[0] == 1.0)
                assert (1 << index).sum() >= core._ANCHOR_STEPS * 2 ** (n // 2)
                _assert_same_answer(sign_box_scan(A, B, left, 2, zero_one), expect)


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_singular_vertex_met_mid_walk_gives_the_first_in_bit_order(form, monkeypatch):
    # det(A - B diag(d)) = det(A) (1 - 2 d_{n-1}), type2 alike: every vertex
    # with d_{n-1} = 1 is singular-signed.  In Gray-code order over the
    # walked upper bits the first such vertex also has d_{n-2} = 1; in bit
    # order the first has d_{n-2} = -1.
    n = 10
    rng = np.random.default_rng(7)
    A = np.eye(n) + 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
    scale = np.diag([0.0] * (n - 1) + [2.0])
    left = form == TYPE_TWO
    B = scale @ A if left else A @ scale
    direct = _count_direct_scans(monkeypatch)
    witness, peak = sign_box_scan(A, B, left, np.inf)
    assert np.array_equal(witness, [-1.0] * (n - 1) + [1.0]) and peak == np.inf
    assert direct == [range(2 ** (n - n // 2))]
    _assert_same_answer((witness, peak), _enumerated(A, B, left, np.inf))


def _nearly_dependent_pair(n, epsilons):
    """Type-1 pair with A - B diag(d) = I except for its last columns: the
    column n-1-i is e_i + eps_i e_{n-1-i} at d_{n-1-i} = 1 and e_{n-1-i} at
    d_{n-1-i} = -1.  So the determinant is the product of the eps_i whose
    d is 1, with Hadamard's bound near 1, and every determinant is
    positive."""
    A, B = np.eye(n), np.zeros((n, n))
    for i, eps in enumerate(epsilons):
        j = n - 1 - i
        at_one, at_minus_one = np.eye(n)[i] + eps * np.eye(n)[j], np.eye(n)[j]
        A[:, j], B[:, j] = (at_one + at_minus_one) / 2, (at_minus_one - at_one) / 2
    return A, B


@pytest.mark.parametrize("epsilons", [
    [1e-10],            # a flip ratio of 1e-10: below the guard, above the floor
    [1e-7, 1e-7],       # ratios of 1e-7, but |det| = 1e-14 is near the floor
])
def test_ill_conditioned_or_near_floor_pair_takes_the_direct_scan(epsilons, monkeypatch):
    # The walk hands over at the step that first sets d_{n-1}, the middle
    # of the Gray-code walk over the upper n - n // 2 bits, and the direct
    # scan gives the enumeration's answer.
    n = 12
    A, B = _nearly_dependent_pair(n, epsilons)
    direct, flips = _count_direct_scans(monkeypatch), []
    monkeypatch.setattr(core, "flip_update", lambda *args: flips.append(args[3]) or flip_update(*args))
    for p in (None, 1, 2, np.inf):
        expect = _enumerated(A, B, False, p)
        assert expect[0] is None
        _assert_same_answer(sign_box_scan(A, B, False, p), expect)
        assert direct == [range(2 ** (n - n // 2))] and len(flips) == 2 ** (n - n // 2 - 1)
        direct.clear(), flips.clear()


# "False" after zero_one in the ids: the column flip (not the row flip of
# A - diag(d) B).
@pytest.mark.parametrize("zero_one", [False, True], ids=["False-False", "True-False"])
def test_flip_update_matches_direct_inverses(zero_one):
    # One flip of d_j on a batch: the ratios are the determinant ratios and
    # the updated inverses are those of the flipped members.
    n, j = 6, 4
    rng = np.random.default_rng(5)
    A = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
    B = rng.standard_normal((n, n))
    low = 0.0 if zero_one else -1.0
    before = box_vertices(n, low)[:8]
    after = before.copy()
    after[:, j] = 1.0
    inverses = np.linalg.inv(sign_members(A, B, before))
    ratio = flip_update(inverses, B, j, 1.0 - low)
    old, new = (sign_members(A, B, d) for d in (before, after))
    assert np.allclose(ratio, np.linalg.det(new) / np.linalg.det(old), rtol=1e-12)
    direct = np.linalg.inv(new)
    assert np.abs(inverses - direct).max() <= 1e-12 * np.abs(direct).max()


# "False" in the id: the column flip (not the row flip of A - diag(d) B).
@pytest.mark.parametrize("left", [False], ids=["False"])
def test_flip_to_a_singular_member_leaves_the_batch_as_it_was(left):
    # A - B diag(d) = I at d = (-1, -1) and diag(0, 1) at d = (1, -1): the
    # ratio is exactly 0, and the inverses are not divided by it.
    A, B = 0.5 * np.eye(2), 0.5 * np.eye(2)
    inverses = np.eye(2)[None].copy()
    ratio = flip_update(inverses, B, 0, 2.0)
    assert np.array_equal(ratio, [0.0])
    assert np.array_equal(inverses, np.eye(2)[None])
    members = sign_members(A, B, np.array([[-1.0, -1.0], [1.0, -1.0]]), left)
    assert np.array_equal(members, [np.eye(2), np.diag([0.0, 1.0])])


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_drift_from_the_rebuilt_batch_takes_the_direct_scan(form, monkeypatch):
    # Every flip also scales the walked inverses by 1 + 1e-9: the
    # determinant signs and the floor test still pass, but at the final
    # re-anchor the walked inverses are about 6e-8 (relative) from the
    # rebuilt ones, so the direct scan decides.
    n = 12
    problem = regular_sign_family(np.random.default_rng(12), n, form)
    left = form == TYPE_TWO

    def drifting(inverses, *args):
        ratio = flip_update(inverses, *args)
        inverses *= 1.0 + 1e-9
        return ratio
    direct = _count_direct_scans(monkeypatch)
    monkeypatch.setattr(core, "flip_update", drifting)
    for p in (None, 2):
        expect = _enumerated(problem.A, problem.B, left, p)
        assert expect[0] is None
        _assert_same_answer(sign_box_scan(problem.A, problem.B, left, p), expect)
        assert direct == [range(2 ** (n - n // 2))]
        direct.clear()


@pytest.mark.parametrize("form", [TYPE_ONE, TYPE_TWO])
def test_drift_in_segment_one_redoes_that_segment_alone(form, monkeypatch):
    # From the 64th flip on, the first that enters segment 1, every flip
    # also scales the walked inverses by 1 + 1e-9.  Segment 0 is vouched
    # for; the rebuilt last batch of segment 1 is about 6e-8 (relative)
    # from the walked one, so only batches 64-127 are built directly.
    n = CHUNKED_N
    problem = regular_sign_family(np.random.default_rng(12), n, form)
    left, flips = form == TYPE_TWO, []

    def drifting(inverses, *args):
        ratio = flip_update(inverses, *args)
        flips.append(args[1])
        if len(flips) >= core._ANCHOR_STEPS:
            inverses *= 1.0 + 1e-9
        return ratio
    direct = _count_direct_scans(monkeypatch)
    monkeypatch.setattr(core, "flip_update", drifting)
    for p in (None, 2):
        expect = _enumerated(problem.A, problem.B, left, p)
        assert expect[0] is None
        _assert_same_answer(sign_box_scan(problem.A, problem.B, left, p), expect)
        assert direct == [range(64, 128)]
        direct.clear(), flips.clear()


def test_two_norm_bound_brackets_the_norm():
    # Upper bounds within n**(1/16) of the 2-norm, also for rank-one,
    # zero and badly scaled members.
    rng = np.random.default_rng(16)
    n = 9
    stack = rng.standard_normal((40, n, n)) * np.logspace(-150, 150, 40)[:, None, None]
    stack[0] = 0.0
    stack[1] = np.outer(rng.standard_normal(n), rng.standard_normal(n))
    exact = np.linalg.norm(stack, ord=2, axis=(1, 2))
    bound = core._two_norm_bound(stack)
    assert bound[0] == 0.0
    assert np.all(bound[1:] >= exact[1:] * (1 - 1e-13))
    assert np.all(bound[1:] <= exact[1:] * n ** (1 / 16) * (1 + 1e-13))
