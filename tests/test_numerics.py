import warnings

import numpy as np
import pytest

from avebounds import (
    AveProblem,
    HlcpProblem,
    LcpProblem,
    Perturbation,
    SolveOptions,
    componentwise_bound,
    hlcp_perturb_bound,
    lcp_min_residual,
    numerics,
    picard_solve,
    residual,
    rhs_only_bound,
    sign_diagonal,
)
from avebounds import harness
from avebounds.exceptions import SingularMatrixError

from support import spectral_radius


class TestCheckNorm:
    def test_accepts_supported(self):
        assert numerics.check_norm(1) == 1
        assert numerics.check_norm(2) == 2
        assert numerics.check_norm(np.inf) == np.inf
        assert numerics.check_norm(float("inf")) == np.inf
        assert numerics.check_norm("inf") == np.inf
        assert numerics.check_norm("INF") == np.inf

    def test_rejects_everything_else(self):
        for bad in (0, 3, -1, 1.5, "fro", None):
            with pytest.raises(ValueError):
                numerics.check_norm(bad)


class TestPNorm:
    def test_vector_norms(self):
        v = np.array([3.0, -4.0])
        assert numerics.p_norm(v, 1) == pytest.approx(7.0)
        assert numerics.p_norm(v, 2) == pytest.approx(5.0)
        assert numerics.p_norm(v, np.inf) == pytest.approx(4.0)

    def test_vector_two_norm_neither_overflows_nor_underflows(self):
        for scale in (1e-200, 1.0, 1e200):
            assert numerics.p_norm([3 * scale, -4 * scale], 2) == pytest.approx(
                5 * scale, rel=1e-15)
        assert numerics.p_norm([0.0, 0.0], 2) == 0.0

    @pytest.mark.parametrize("obj, p, expect", [
        ([1.5e308, 1.5e308], 1, np.inf),
        ([1.5e308, 1.5e308], 2, np.inf),
        ([1.5e308, 1.5e308], np.inf, 1.5e308),
        ([[1.5e308, 1.5e308]], 1, 1.5e308),
        ([[1.5e308, 1.5e308]], 2, np.inf),
        ([[1.5e308, 1.5e308]], np.inf, np.inf),
        ([[1.5e308, -1.5e308], [1.5e308, 1.5e308]], 2, np.inf),
    ])
    def test_norm_above_the_float_range_is_inf_without_a_warning(self, obj, p, expect):
        # The suite turns RuntimeWarning into an error, so an overflow
        # warning would fail this.
        assert numerics.p_norm(obj, p) == expect

    def test_matrix_operator_norms(self):
        m = np.array([[1.0, -2.0], [3.0, 4.0]])
        # max column sum / max row sum
        assert numerics.p_norm(m, 1) == pytest.approx(6.0)
        assert numerics.p_norm(m, np.inf) == pytest.approx(7.0)
        assert numerics.p_norm(m, 2) == pytest.approx(
            float(np.linalg.svd(m, compute_uv=False)[0]), rel=1e-14)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            numerics.p_norm(np.array([1.0, np.nan]))
        with pytest.raises(ValueError):
            numerics.p_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_rejects_higher_rank(self):
        with pytest.raises(ValueError):
            numerics.p_norm(np.zeros((2, 2, 2)))

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_matrix_has_norm_zero(self, shape, p):
        # An empty maximum has no identity in numpy: 7 of these 9 raised.
        assert numerics.p_norm(np.zeros(shape), p) == 0.0


class TestGramTwoNorm:
    """The matrix 2-norm from the scaled Gram matrix matches the SVD's."""

    @staticmethod
    def _cases():
        rng = np.random.default_rng(20241018)
        for shape in ((1, 1), (2, 2), (7, 7), (40, 40), (60, 9), (9, 60), (1, 30), (30, 1)):
            m = rng.normal(size=shape)
            yield m
            yield m * np.logspace(0, -8, shape[1])[None, :]     # column-scaled
            yield m * np.logspace(-8, 0, shape[0])[:, None]     # row-scaled
        m = rng.normal(size=(12, 12))
        yield m * 1e200
        yield m * 1e-200
        yield np.diag([1e200, 3.0, 1e-200])

    def test_matches_svd_norm(self):
        for m in self._cases():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = numerics.p_norm(m, 2)
            assert np.isfinite(got)
            assert got == pytest.approx(np.linalg.norm(m, 2), rel=1e-13, abs=0.0)

    def test_zero_and_scalar(self):
        assert numerics.p_norm(np.zeros((3, 5)), 2) == 0.0
        assert numerics.p_norm(np.zeros((1, 1)), 2) == 0.0
        assert numerics.p_norm(np.array([[-3.0]]), 2) == 3.0
        assert numerics.p_norm(np.array([[2e-300]]), 2) == pytest.approx(2e-300, rel=1e-15)


def _stochastic(rng, n):
    """Row-stochastic matrix with dyadic entries, so every row sums to
    exactly 1 in floating point and scaling by c gives rho exactly c."""
    total = 2.0 ** int(np.ceil(np.log2(8 * n)))
    counts = rng.integers(0, 8, size=(n, n)).astype(float)
    counts[:, -1] = 0.0
    counts[:, -1] = total - counts.sum(axis=1)
    return counts / total


def _certifies(m):
    return numerics.contraction_certificate(m)[0]


class TestCertifiesContraction:
    """A True certificate from ``contraction_certificate`` proves rho < 1;
    below 0.999 it is always found."""

    @staticmethod
    def _cases():
        """(matrix, rho) pairs with rho known exactly."""
        rng = np.random.default_rng(20241018)
        for n in (1, 2, 5, 20, 60):
            for c in (0.0, 0.5, 0.999, 1.0, 1.25):
                yield c * _stochastic(rng, n), c
            # reducible block triangular: rho is the larger diagonal block's
            k = n // 2 + 1
            for top, bottom in ((0.5, 0.9), (0.999, 0.25), (0.5, 1.0), (1.25, 0.5)):
                m = np.zeros((n + k, n + k))
                m[:n, :n] = top * _stochastic(rng, n)
                m[n:, n:] = bottom * _stochastic(rng, k)
                m[:n, n:] = rng.uniform(0.0, 2.0, size=(n, k))
                yield m, max(top, bottom)
            # a zero row over a block with rho = c: block lower triangular
            for c in (0.5, 1.0, 1.25):
                m = np.zeros((n + 1, n + 1))
                m[1:, 1:] = c * _stochastic(rng, n)
                m[1:, 0] = rng.uniform(0.0, 2.0, size=n)
                yield m, c
            yield np.triu(rng.uniform(0.0, 1.0, size=(n, n)), 1), 0.0     # nilpotent
            yield np.zeros((n, n)), 0.0

    def test_sound_and_complete_away_from_one(self):
        for m, rho in self._cases():
            # each case's rho from its construction, checked independently
            assert numerics.spectral_radius_nonneg(m)[0] == pytest.approx(rho, abs=1e-6)
            got = _certifies(m)
            if rho >= 1.0:
                assert got is False
            else:
                assert got is True

    def test_false_when_i_minus_m_singular(self):
        rng = np.random.default_rng(3)
        for m in (np.eye(1), np.eye(4), _stochastic(rng, 6),
                  np.array([[0.0, 1.0], [1.0, 0.0]])):
            assert _certifies(m) is False

    def test_scalar_literals(self):
        assert _certifies(np.array([[0.999]])) is True
        assert _certifies(np.array([[1.0]])) is False
        assert _certifies(np.array([[1.25]])) is False
        # y = 1 proves rho = 0.5 at the first power step; its bound on the
        # condition number of I - m is 0.5 * 1 / (1 * 0.5), up to the margin
        proven, cond = numerics.contraction_certificate(np.array([[0.5]]))
        assert proven is True and cond == pytest.approx(1.0, rel=1e-14)
        assert numerics.contraction_certificate(np.array([[1.0]])) == (False, None)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            numerics.contraction_certificate(np.array([[0.5, -0.1], [0.0, 0.5]]))


class TestPairNorms:
    @pytest.mark.parametrize("n", (225, 400))
    def test_lattice_bands_take_one_eigensolve(self, monkeypatch, n):
        """The lattice bands scaled by their largest entry 2 eps are the
        same pair for every eps, and commute (dA + dB = I): one ``eigvalsh``
        gives both 2-norms, eps times the unit ones bit for bit, within
        1e-12 of ``p_norm``."""
        unit = harness._scaled_bands("lattice", n, 1.0)
        want = [numerics.p_norm(m, 2) for m in unit]
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        norms = numerics.pair_norms(*unit, 2)
        assert calls == [(n, n)]
        assert norms == pytest.approx(want, rel=1e-12, abs=0.0)
        for eps in harness.BENCH_EPSILONS:
            scaled = numerics.pair_norms(*harness._scaled_bands("lattice", n, eps), 2)
            assert scaled == tuple(eps * norm for norm in norms)

    def test_other_pairs_are_p_norm_bit_for_bit(self):
        rng = np.random.default_rng(41)
        pairs = [harness._scaled_bands("tridiag", 40, 0.01),
                 (rng.normal(size=(6, 6)), rng.normal(size=(6, 6))),
                 (np.zeros((3, 3)), np.zeros((3, 3)))]
        for dA, dB in pairs:
            for p in (1, 2, np.inf):
                assert numerics.pair_norms(dA, dB, p) == (numerics.p_norm(dA, p),
                                                          numerics.p_norm(dB, p))


class TestExtremeSingulars:
    def test_diagonal(self):
        s = numerics.singular_values(np.diag([2.0, 3.0]))
        assert s[-1] == pytest.approx(2.0)
        assert s[0] == pytest.approx(3.0)

    def test_upper_triangular_literal(self):
        # sigma_min of [[2,1],[0,2]]; its product with sigma_max is |det| = 4
        s = numerics.singular_values(np.array([[2.0, 1.0], [0.0, 2.0]]))
        assert s[-1] == pytest.approx(1.5615528128088303, abs=1e-12)
        assert s[-1] * s[0] == pytest.approx(4.0, rel=1e-12)

    def test_rotation_scaled_literal(self):
        b = np.array([[0.9, -0.4], [0.4, 0.9]])
        assert numerics.singular_values(b)[0] == pytest.approx(0.9848857801796105, abs=1e-12)


def _symmetric(m):
    """The symmetric matrix with the upper triangle of ``m``."""
    return np.triu(m) + np.triu(m, 1).T


class TestSymmetricRoute:
    """A symmetric A in a commuting pair takes its singular values from the
    pair's one ``eigvalsh``, every other matrix from ``svd``; every 2-norm
    comes from the scaled Gram matrix.  All agree with ``np.linalg.svd`` to
    1e-13 of sigma_max."""

    @staticmethod
    def _symmetric_cases():
        rng = np.random.default_rng(20241019)
        for n in (2, 7, 40):
            yield _symmetric(rng.normal(size=(n, n)))                 # indefinite
            x = rng.normal(size=(n, max(1, n // 3)))
            yield _symmetric(x @ x.T)                                 # semidefinite, low rank
            yield np.diag(np.r_[rng.uniform(1.0, 2.0, n - 1), 0.0])  # an exact zero eigenvalue
            z = np.zeros((n, n))
            z[: n // 2, : n // 2] = _symmetric(rng.normal(size=(n // 2, n // 2)))
            yield z                                                   # a zero block
        m = _symmetric(rng.normal(size=(12, 12)))
        yield m * 1e200
        yield m * 1e-200
        yield np.array([[-3.0]])
        yield np.array([[2e-300]])
        yield np.zeros((1, 1))

    @staticmethod
    def _near_symmetric(rng, n):
        m = _symmetric(rng.normal(size=(n, n)))
        m[0, n - 1] = np.nextafter(m[0, n - 1], np.inf)               # one ulp off
        return m

    @staticmethod
    def _agree(got, m):
        want = np.linalg.svd(m, compute_uv=False)
        assert got.shape == want.shape and np.all(np.isfinite(got))
        assert np.all(np.abs(got - want) <= 1e-13 * want[0])

    def test_symmetric_singular_values_match_svd_without_svd(self, monkeypatch):
        # A symmetric A with B = -A is a commuting pair (c = 0): its spectra
        # come from the one eigvalsh of numerics.commuting_spectrum.
        cases = list(self._symmetric_cases())
        calls = []
        svd = np.linalg.svd
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                analyses = [AveProblem(m, -m, np.ones(len(m))).analysis for m in cases]
                got = [(a.singular_values("A"), a.singular_values("B")) for a in analyses]
        assert calls == []
        for (s_a, s_b), m in zip(got, cases):
            for s in (s_a, s_b):
                self._agree(s, m)
                assert np.all(np.diff(s) <= 0.0)

    def test_one_ulp_from_symmetric_takes_the_svd(self, monkeypatch):
        rng = np.random.default_rng(5)
        cases = [self._near_symmetric(rng, n) for n in (2, 9, 40)]
        calls = []
        svd = np.linalg.svd
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = [numerics.singular_values(m) for m in cases]
                paired = [AveProblem(m, -m, np.ones(len(m))).analysis.singular_values("A")
                          for m in cases]
        assert len(calls) == 2 * len(cases)
        for s, t, m in zip(got, paired, cases):
            self._agree(s, m)
            assert np.array_equal(s, t)

    def test_symmetric_stack_norms_match_their_eigenvalues(self):
        # One route for every 2-norm: a symmetric member's norm comes from
        # its scaled Gram matrix, within a few ulps of max |eigvalsh|.
        rng = np.random.default_rng(8)
        m = _symmetric(rng.normal(size=(9, 9)))
        x = rng.normal(size=(9, 3))
        z = np.zeros((9, 9))
        z[:4, :4] = _symmetric(rng.normal(size=(4, 4)))
        stacks = [np.stack([m, _symmetric(x @ x.T), z, 1e200 * m, 1e-200 * m, 0.0 * m]),
                  np.stack([_symmetric(rng.normal(size=(6, 6))), rng.normal(size=(6, 6)),
                            self._near_symmetric(rng, 6),
                            1e-200 * _symmetric(rng.normal(size=(6, 6)))])]
        stacks += [c[None] for c in self._symmetric_cases()]
        for stack in stacks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = numerics.batched_norms(stack, 2)
            for norm, member in zip(got, stack):
                if np.array_equal(member, member.T):
                    want = np.abs(np.linalg.eigvalsh(member)).max()
                    assert abs(norm - want) <= 16 * np.finfo(float).eps * want, (norm, want)

    def test_norms_of_all_cases_and_a_mixed_stack(self):
        rng = np.random.default_rng(9)
        singles = list(self._symmetric_cases()) + [self._near_symmetric(rng, 6)]
        mixed = np.stack([_symmetric(rng.normal(size=(6, 6))), rng.normal(size=(6, 6)),
                          self._near_symmetric(rng, 6), 1e-200 * _symmetric(rng.normal(size=(6, 6)))])
        for stack in [m[None] for m in singles] + [mixed]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = numerics.batched_norms(stack, 2)
            want = np.linalg.svd(stack, compute_uv=False)[:, 0]
            assert np.all(np.abs(got - want) <= 1e-13 * want)


@pytest.fixture
def eigvals_calls(monkeypatch):
    """The shapes passed to ``np.linalg.eigvals``, which still runs."""
    calls = []
    original = np.linalg.eigvals

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    return calls


def _random_abs_ratio(rng, n):
    """|A^-1 B| of a random dense pair: entrywise positive, and its row sums
    are not constant, so the bracket at y = 1 is not already closed."""
    A = rng.normal(size=(n, n)) + rng.uniform(0.5, 3.0) * np.sqrt(n) * np.eye(n)
    return np.abs(np.linalg.solve(A, rng.normal(size=(n, n))))


def _perron_cases(count, seed):
    """``count`` frozen (kind, m) pairs, n = 1-40, cycling through five
    kinds of nonnegative m, each taken as is, times 1e100 and times 1e-100."""
    def block_triangular(rng, n):
        n = max(n, 2)
        k = int(rng.integers(1, n))
        m = np.zeros((n, n))
        m[:k, :k] = rng.uniform(0.0, 1.0, size=(k, k))
        m[k:, k:] = rng.uniform(0.0, 1.0, size=(n - k, n - k)) * rng.uniform(0.2, 2.0)
        m[:k, k:] = rng.uniform(0.0, 1.0, size=(k, n - k))
        order = rng.permutation(n)
        return m[order][:, order]

    def weighted_permutation(rng, n):     # periodic; a block per cycle
        m = np.zeros((n, n))
        m[np.arange(n), rng.permutation(n)] = rng.uniform(0.1, 2.0, size=n)
        return m

    def zero_rows(rng, n):
        m = rng.uniform(0.0, 1.0, size=(n, n))
        m[rng.random(n) < 0.3] = 0.0
        return m

    kinds = {
        "dense": lambda rng, n: rng.uniform(0.0, 1.0, size=(n, n)),
        "sparse": lambda rng, n: rng.uniform(0.0, 1.0, size=(n, n)) * (
            rng.random((n, n)) < rng.uniform(0.05, 0.5)),
        "block_triangular": block_triangular,
        "weighted_permutation": weighted_permutation,
        "zero_rows": zero_rows,
    }
    rng = np.random.default_rng(seed)
    for i in range(count):
        kind = list(kinds)[i % len(kinds)]
        m = kinds[kind](rng, int(rng.integers(1, 41)))
        yield kind, m * (1.0, 1e100, 1e-100)[i // len(kinds) % 3]


class TestSpectralRadius:
    """The value is a proven upper end of the spectral radius, within 1e-12
    of it where the bracket closes; no ``eigvals`` runs."""

    @staticmethod
    def _check(m, calls):
        """Compare with the ``eigvals`` oracle; True if the bracket closed."""
        want = spectral_radius(m)
        calls.clear()
        got, closed = numerics.spectral_radius_nonneg(m)
        assert not calls
        assert got >= want * (1.0 - 1e-13)
        if closed:
            assert got - want <= 1e-12 * want
        return closed

    def test_exact_cases_never_below_the_radius(self, eigvals_calls):
        closed = [self._check(m, eigvals_calls)
                  for m, _ in TestCertifiesContraction._cases()]
        # only the block triangular cases whose leading block has the larger
        # radius stay open: the Perron vector is zero on the trailing block
        assert 0 < sum(closed) < len(closed)

    def test_random_dense_ratios_close_without_eigvals(self, eigvals_calls):
        rng = np.random.default_rng(20261018)
        # log-uniform in 5-400, and 400 itself
        sizes = np.exp(rng.uniform(np.log(5), np.log(400), size=199)).round().astype(int)
        for n in [*sizes, 400]:
            assert self._check(_random_abs_ratio(rng, n), eigvals_calls)

    def test_defective_closes_and_reducible_stays_proven(self, eigvals_calls):
        # defective: power steps close the bracket only like 1/k, shifted
        # solves close it
        defective = np.array([[0.8, 0.4], [0.0, 0.8]])
        assert self._check(defective, eigvals_calls)
        assert numerics.spectral_radius_nonneg(defective)[0] == pytest.approx(0.8, rel=1e-12)
        # block diagonal with roots 0.5 and 0.9: at every y the bracket
        # spans both roots, but its upper end reaches 0.9
        rng = np.random.default_rng(5)
        blocks = np.zeros((9, 9))
        blocks[:4, :4] = 0.5 * _stochastic(rng, 4)
        blocks[4:, 4:] = 0.9 * _stochastic(rng, 5)
        assert not self._check(blocks, eigvals_calls)
        assert numerics.spectral_radius_nonneg(blocks)[0] == pytest.approx(0.9, rel=1e-12)

    def test_frozen_nonnegative_matrices(self, eigvals_calls, monkeypatch):
        """1500 matrices of five kinds: never below the oracle, closed within
        1e-12 of it, and every dense positive m closes, in at most 13
        solves.  An open bracket's upper end is within 1e-6 of the oracle
        but on one sparse reducible m (n = 13), where rounding stops the
        solves at 1.1e-5: the components outside its dominant class shrink
        below the solve's accuracy."""
        solves, solve = [], np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
        gaps = []
        for kind, m in _perron_cases(1500, 20261022):
            solves.clear()
            closed = self._check(m, eigvals_calls)
            assert len(solves) <= 13
            if not closed:
                assert kind != "dense"
                gaps.append(numerics.spectral_radius_nonneg(m)[0] / spectral_radius(m) - 1.0)
        assert sum(gap > 1e-6 for gap in gaps) <= 1 and max(gaps) <= 1e-4

    def test_extreme_scales(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = numerics.spectral_radius_nonneg(np.full((2, 2), 1e-310))
            least = numerics.spectral_radius_nonneg([[2.0**-1074]])
            huge = numerics.spectral_radius_nonneg(np.full((2, 2), 1e308))
        assert tiny[1] and 2e-310 <= tiny[0] <= 2e-310 * (1.0 + 1e-12)
        # 2**-1074 (1 + 4 eps), the bracket's end, rounds up to 2**-1073
        assert least[0] == 2.0**-1073
        assert huge[0] == np.inf

    def test_bracket_holds_for_any_positive_y(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 30):
            m = _random_abs_ratio(rng, n)
            rho = spectral_radius(m)
            for _ in range(20):
                y = rng.uniform(1e-3, 1.0, size=n)
                lo, hi = numerics.collatz_wielandt(y, m @ y)
                assert lo <= rho * (1.0 + 1e-13) and rho * (1.0 - 1e-13) <= hi
        # the ends move out by (2 n + 2) eps
        eps = np.finfo(float).eps
        assert numerics.collatz_wielandt(np.ones(1), np.array([0.5])) == (
            0.5 * (1.0 - 4 * eps), 0.5 * (1.0 + 4 * eps))

    def test_nonnegative_literal(self):
        b = np.abs(np.array([[0.9, -0.4], [0.4, 0.9]]))
        rho, closed = numerics.spectral_radius_nonneg(b)
        assert closed and rho == pytest.approx(1.3, abs=1e-12)

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            numerics.spectral_radius_nonneg(np.array([[0.5, -0.1], [0.0, 0.5]]))


class TestInverse:
    def test_roundtrip(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        inv = numerics.inverse(m, "m")
        assert np.allclose(inv @ m, np.eye(4), atol=1e-12)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            numerics.inverse(np.zeros((2, 2)), "m")

    def test_near_singular_raises(self):
        m = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-16]])
        with pytest.raises(SingularMatrixError, match="1-norm cond"):
            numerics.inverse(m, "m")

    @staticmethod
    def _gate_cases():
        """(label, matrix, cond_2 from the SVD) for matrices with cond_2 in
        {1, 1e3, 1e9, 1e12} and singular ones."""
        rng = np.random.default_rng(20241019)
        yield "zero_column", np.zeros((1, 1)), np.inf
        for n in (2, 5, 20, 60):
            U = np.linalg.qr(rng.normal(size=(n, n)))[0]
            V = np.linalg.qr(rng.normal(size=(n, n)))[0]
            cases = [(f"cond{c:g}", U * np.logspace(0, -np.log10(c), n) @ V.T)
                     for c in (1.0, 1e3, 1e9, 1e12)]
            cases.append(("rounded", U * np.r_[np.ones(n - 1), 0.0] @ V.T))  # rank n - 1
            exact = rng.integers(-3, 4, size=(n, n)).astype(float)
            exact[-1] = exact[0] + exact[-2]                  # rows exactly dependent
            zero_column = rng.normal(size=(n, n))
            zero_column[:, n // 2] = 0.0
            cases += [("exact", exact), ("zero_column", zero_column)]
            for label, m in cases:
                yield label, m, numerics.cond_from_singulars(np.linalg.svd(m, compute_uv=False))

    @staticmethod
    def _accepts(m):
        try:
            numerics.inverse(m, "m")
        except SingularMatrixError:
            return False
        return True

    def test_gate_agrees_with_the_svd_gate_outside_a_factor_n(self):
        """The 1-norm gate on the computed inverse decides as the 2-norm gate
        on singular values wherever cond_2 is outside [1e14/n, n 1e14]."""
        checked = 0
        for label, m, cond in self._gate_cases():
            n = m.shape[0]
            accepted = self._accepts(m)
            assert accepted == label.startswith("cond"), (label, n)
            if 1e14 / n <= cond <= n * 1e14:
                continue
            try:
                numerics.require_regular(cond, "m", 2)
            except SingularMatrixError:
                assert not accepted, (label, n)
            else:
                assert accepted, (label, n)
            checked += 1
        assert checked == 29

    def test_gate_is_scale_free(self):
        """Scaling by 1e-200 or 1e200 changes no verdict and warns of nothing."""
        for label, m, _ in self._gate_cases():
            want = self._accepts(m)
            for scale in (1e-200, 1e200):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert self._accepts(scale * m) == want, (label, m.shape[0], scale)

    def test_gate_survives_extreme_entries(self):
        """Column sums above 1e308 do not make a well-conditioned matrix
        singular, and a condition number above 1e308 is inf, not a warning."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = numerics.gated_inverse(np.array([[1e308, 1e308], [1e308, -1e308]]))
            assert big[1] == pytest.approx(2.0)
            assert numerics.gated_inverse(np.diag([1e-300, 1e10])) == (None, np.inf)

    def test_gate_makes_no_svd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the inverse gate ran a singular-value routine")
        for name in ("svd", "eigvalsh", "cond"):
            monkeypatch.setattr(np.linalg, name, refuse)
        numerics.inverse(np.diag([1.0, 2.0, 3.0]), "m")
        with pytest.raises(SingularMatrixError):
            numerics.inverse(np.ones((3, 3)), "m")

    def test_nonfinite_inverse_is_singular(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "inv", lambda m: np.full(m.shape, np.nan))
        inv, cond = numerics.gated_inverse(np.eye(2))
        assert inv is None and cond == np.inf
        with pytest.raises(SingularMatrixError, match="cond ~ inf"):
            numerics.inverse(np.eye(2), "m")


class TestShapeHelpers:
    def test_as_vector_accepts_lists(self):
        v = numerics.as_vector([1, 2, 3])
        assert v.shape == (3,)
        assert v.dtype == float

    def test_as_vector_rejects_matrix_and_nan(self):
        with pytest.raises(ValueError):
            numerics.as_vector(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            numerics.as_vector([1.0, np.nan])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_as_matrix_names_a_non_finite_matrix(self, bad):
        with pytest.raises(ValueError, match="^A: entries must be finite$"):
            numerics.as_matrix([[1.0, bad], [0.0, 1.0]], "A")
        with pytest.raises(ValueError, match="^A: entries must be finite$"):
            AveProblem([[1.0, bad], [0.0, 1.0]], np.eye(2), np.ones(2))

    def test_as_square_rejects_rectangular(self):
        with pytest.raises(ValueError):
            numerics.as_square(np.zeros((2, 3)))

    def test_comparison_matrix(self):
        # diagonal keeps |.|, off-diagonal flips to -|.|
        m = np.array([[2.0, -1.0], [3.0, -4.0]])
        got = numerics.comparison_matrix(m)
        assert got[0, 0] == 2.0 and got[1, 1] == 4.0
        assert got[0, 1] == -1.0 and got[1, 0] == -3.0

    def test_positive_part(self):
        v = np.array([1.5, -2.0, 0.0])
        assert np.array_equal(numerics.positive_part(v), [1.5, 0.0, 0.0])


_I2, _I3, _ONE2, _ONE3 = np.eye(2), np.eye(3), np.ones(2), np.ones(3)
_AVE = AveProblem(2.0 * _I2, _I2, _ONE2)
_LCP = LcpProblem(_I2, _ONE2)
_HLCP = HlcpProblem(2.0 * _I2, _I2, _ONE2)


@pytest.mark.parametrize("name,call", [
    ("B", lambda: AveProblem(_I2, _I3, _ONE2)),
    ("b", lambda: AveProblem(_I2, _I2, _ONE3)),
    ("x", lambda: residual(_AVE, _ONE3)),
    ("b", lambda: sign_diagonal(_ONE2, _ONE3)),
    ("initial guess", lambda: picard_solve(_AVE, SolveOptions(initial=_ONE3))),
    ("db", lambda: rhs_only_bound(_AVE, _ONE3)),
    ("x_star", lambda: componentwise_bound(_AVE, _ONE3, 0.01)),
    ("dB", lambda: Perturbation(_I2, _I3, _ONE2)),
    ("db", lambda: Perturbation(_I2, _I2, _ONE3)),
    ("q", lambda: LcpProblem(_I2, _ONE3)),
    ("N", lambda: HlcpProblem(_I2, _I3, _ONE2)),
    ("q", lambda: HlcpProblem(_I2, _I2, _ONE3)),
    ("z", lambda: lcp_min_residual(_LCP, _ONE3)),
    ("dM", lambda: hlcp_perturb_bound(_HLCP, _I3, _I2, _ONE2)),
    ("dN", lambda: hlcp_perturb_bound(_HLCP, _I2, _I3, _ONE2)),
    ("dq", lambda: hlcp_perturb_bound(_HLCP, _I2, _I2, _ONE3)),
], ids=["AveProblem.B", "AveProblem.b", "residual", "sign_diagonal", "picard_solve",
        "rhs_only_bound", "componentwise_bound", "Perturbation.dB", "Perturbation.db",
        "LcpProblem.q", "HlcpProblem.N", "HlcpProblem.q", "lcp_min_residual",
        "hlcp_perturb_bound.dM", "hlcp_perturb_bound.dN", "hlcp_perturb_bound.dq"])
def test_wrong_size_names_the_argument(name, call):
    # Every size rule is stated once, by as_vector / as_square at the boundary.
    wrong = r"(length 3, expected 2|shape \(3, 3\), expected \(2, 2\))"
    with pytest.raises(ValueError, match=rf"^{name} has {wrong}$"):
        call()


_Z2 = _I2 + 0.5j * _I2


@pytest.mark.parametrize("name,call", [
    ("A", lambda: AveProblem([[2 + 5j]], [[0.0]], [4.0])),
    ("B", lambda: AveProblem(_I2, _Z2, _ONE2)),
    ("b", lambda: AveProblem(_I2, _I2, _ONE2 + 1j)),
    ("b", lambda: AveProblem([[1.0]], [[0.0]], [1 + 2j])),
    ("q", lambda: LcpProblem(_I2, _ONE2 - 1j)),
    ("N", lambda: HlcpProblem(_I2, _Z2, _ONE2)),
    ("dA", lambda: Perturbation(_Z2, _I2, _ONE2)),
    ("x", lambda: residual(_AVE, _ONE2 + 1j)),
    ("p_norm", lambda: numerics.p_norm(np.array([3 + 4j]), 2)),
    ("p_norm", lambda: numerics.p_norm(_Z2, 1)),
    ("p_norm", lambda: numerics.p_norm(np.array([1 + 2j], dtype=object))),
    ("b", lambda: AveProblem([[1.0]], [[0.0]], np.array([1 + 2j], dtype=object))),
], ids=["AveProblem.A", "AveProblem.B", "AveProblem.b", "AveProblem.b-list", "LcpProblem.q",
        "HlcpProblem.N", "Perturbation.dA", "residual", "p_norm.vector", "p_norm.matrix",
        "p_norm.object", "AveProblem.b-object"])
def test_complex_input_names_the_argument(name, call):
    # A cast to float would keep the real part alone (a list fails the cast
    # with a bare TypeError); the boundary refuses complex entries instead,
    # as matrixio refuses a complex file.  An object array's dtype does not
    # say it holds a complex number; its failed cast does.
    with pytest.raises(ValueError, match=rf"^{name}: complex entries are not supported$"):
        call()


@pytest.mark.parametrize("name,call", [
    ("A", lambda: AveProblem([[1.0, 2.0], [3.0]], _I2, _ONE2)),
    ("b", lambda: AveProblem([[1.0]], [[0.0]], ["a"])),
], ids=["ragged", "string"])
def test_failed_cast_names_the_argument(name, call):
    with pytest.raises(ValueError, match=rf"^{name}: "):
        call()
