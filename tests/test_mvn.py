"""Tests for the multivariate normal primitives."""

import math

import numpy as np
import pytest

from dmse.errors import DimMismatch, NotPositiveDefinite
from dmse.mvn import (
    MvnProblem,
    Rectangle,
    SamplerConfig,
    cdf_rectangle,
    cdf_rectangles,
    cholesky,
    clip_rectangle,
    mvn_logpdf,
    mvn_pdf,
    sample_truncated,
    truncation_bound,
)
from oracles import (
    batch_se,
    bvn_orthant,
    quadrature_rectangle,
    random_correlation,
    rejection_truncated,
)


class TestCholesky:
    def test_identity(self):
        L, jittered = cholesky(np.eye(3))
        np.testing.assert_array_equal(L, np.eye(3))
        assert not jittered

    def test_two_by_two_closed_form(self):
        cov = np.array([[4.0, 2.0], [2.0, 3.0]])
        L, jittered = cholesky(cov)
        np.testing.assert_allclose(L, [[2.0, 0.0], [1.0, math.sqrt(2.0)]], atol=1e-12)
        np.testing.assert_allclose(L @ L.T, cov, atol=1e-12)
        assert not jittered

    def test_rank_deficient_uses_jitter(self):
        # Eigenvalues {2, 0}: PSD but singular, rescued by the jitter pass.
        L, jittered = cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert jittered
        np.testing.assert_allclose(L @ L.T, [[1.0, 1.0], [1.0, 1.0]], atol=1e-6)

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky(np.array([[1.0, 0.0], [0.0, -1.0]]))

    def test_non_square_raises(self):
        with pytest.raises(DimMismatch):
            cholesky(np.zeros((2, 3)))


class TestPdf:
    def test_univariate_standard_at_zero(self):
        p = MvnProblem([0.0], [[1.0]])
        np.testing.assert_allclose(mvn_pdf(p, [0.0]), 1.0 / math.sqrt(2 * math.pi), rtol=1e-12)

    def test_bivariate_standard_at_zero(self):
        p = MvnProblem([0.0, 0.0], np.eye(2))
        np.testing.assert_allclose(mvn_pdf(p, [0.0, 0.0]), 1.0 / (2 * math.pi), rtol=1e-12)

    def test_maximum_at_mean(self):
        rng = np.random.default_rng(3)
        cov = random_correlation(rng, 3)
        mean = rng.normal(size=3)
        p = MvnProblem(mean, cov)
        at_mean = mvn_logpdf(p, mean)
        for _ in range(20):
            assert mvn_logpdf(p, mean + rng.normal(size=3)) < at_mean

    def test_matches_quadratic_form(self):
        rng = np.random.default_rng(4)
        cov = random_correlation(rng, 3)
        mean = rng.normal(size=3)
        x = rng.normal(size=3)
        p = MvnProblem(mean, cov)
        d = x - mean
        direct = (
            -1.5 * math.log(2 * math.pi)
            - 0.5 * math.log(np.linalg.det(cov))
            - 0.5 * d @ np.linalg.inv(cov) @ d
        )
        np.testing.assert_allclose(mvn_logpdf(p, x), direct, rtol=1e-10)


class TestCdfRectangle:
    def test_univariate_halfline(self):
        p = MvnProblem([0.0], [[1.0]])
        est = cdf_rectangle(p, Rectangle([0.0], [np.inf]))
        np.testing.assert_allclose(est.value, 0.5, atol=1e-12)
        assert est.tolerance_reached

    def test_independent_orthant(self):
        p = MvnProblem([0.0, 0.0], np.eye(2))
        est = cdf_rectangle(p, Rectangle.from_presence([1, 1]), tol=1e-6, seed=1)
        np.testing.assert_allclose(est.value, 0.25, atol=1e-6)

    def test_correlated_orthant_closed_form(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        p = MvnProblem([0.0, 0.0], cov)
        est = cdf_rectangle(p, Rectangle.from_presence([1, 1]), tol=1e-6, seed=2)
        np.testing.assert_allclose(est.value, 1.0 / 3.0, atol=1e-6)

    def test_trivariate_against_quadrature(self):
        mean = np.array([0.3, -0.2, 0.1])
        cov = np.full((3, 3), 0.4)
        np.fill_diagonal(cov, 1.0)
        p = MvnProblem(mean, cov)
        est = cdf_rectangle(p, Rectangle.from_presence([1, 1, 1]), tol=1e-6, seed=3)
        oracle = quadrature_rectangle(mean, cov, [0.0] * 3, [np.inf] * 3)
        np.testing.assert_allclose(est.value, oracle, atol=2e-6)

    def test_orthant_formula_grid(self):
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            cov = np.array([[1.0, rho], [rho, 1.0]])
            p = MvnProblem([0.0, 0.0], cov)
            est = cdf_rectangle(p, Rectangle.from_presence([1, 1]), tol=1e-6, seed=7)
            assert abs(est.value - bvn_orthant(rho)) <= 1e-6

    def test_full_space_is_one_up_to_n10(self):
        rng = np.random.default_rng(5)
        for n in range(1, 11):
            cov = random_correlation(rng, n)
            p = MvnProblem(rng.normal(size=n), cov)
            rect = Rectangle([-np.inf] * n, [np.inf] * n)
            est = cdf_rectangle(p, rect, tol=1e-6, seed=n)
            np.testing.assert_allclose(est.value, 1.0, atol=1e-6)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complement_pieces_sum_to_one(self, n):
        rng = np.random.default_rng(10 + n)
        cov = random_correlation(rng, n)
        mean = 0.3 * rng.normal(size=n)
        p = MvnProblem(mean, cov)
        lo = mean - rng.uniform(0.5, 1.5, n)
        hi = mean + rng.uniform(0.5, 1.5, n)
        # Slab decomposition: complement = union over j of the two slabs
        # where coordinate j lies outside [lo_j, hi_j], coordinates < j lie
        # inside, and coordinates > j are free.
        pieces = [Rectangle(lo, hi)]
        for j in range(n):
            below_lo = np.concatenate([lo[:j], [-np.inf], [-np.inf] * (n - j - 1)])
            below_hi = np.concatenate([hi[:j], [lo[j]], [np.inf] * (n - j - 1)])
            above_lo = np.concatenate([lo[:j], [hi[j]], [-np.inf] * (n - j - 1)])
            above_hi = np.concatenate([hi[:j], [np.inf], [np.inf] * (n - j - 1)])
            pieces.append(Rectangle(below_lo, below_hi))
            pieces.append(Rectangle(above_lo, above_hi))
        total = sum(
            cdf_rectangle(p, piece, tol=1e-6, seed=k).value
            for k, piece in enumerate(pieces)
        )
        assert abs(total - 1.0) <= 2e-6

    def test_monotone_under_enlargement(self):
        rng = np.random.default_rng(21)
        cov = random_correlation(rng, 3)
        p = MvnProblem(rng.normal(size=3) * 0.3, cov)
        small = Rectangle([-0.5, -0.3, -0.8], [0.4, 0.9, 0.2])
        large = Rectangle([-1.0, -0.3, -1.5], [0.8, 1.5, 0.2])
        e_small = cdf_rectangle(p, small, tol=1e-6, seed=1)
        e_large = cdf_rectangle(p, large, tol=1e-6, seed=2)
        assert e_large.value >= e_small.value - (e_small.error_estimate + e_large.error_estimate)

    def test_estimate_invariants(self):
        rng = np.random.default_rng(30)
        for k in range(5):
            cov = random_correlation(rng, 3)
            p = MvnProblem(rng.normal(size=3), cov)
            est = cdf_rectangle(p, Rectangle.from_presence(rng.integers(0, 2, 3)), seed=k)
            assert est.value - est.error_estimate >= -1e-12
            assert est.value + est.error_estimate <= 1.0 + 1e-12
            assert est.samples_used >= 0

    def test_budget_exhaustion_sets_flag(self):
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        p = MvnProblem([0.0, 0.0], cov)
        est = cdf_rectangle(
            p, Rectangle.from_presence([1, 1]), tol=1e-12, max_samples=5000, seed=4
        )
        assert not est.tolerance_reached
        assert est.samples_used >= 5000

    def test_dim_mismatch(self):
        p = MvnProblem([0.0, 0.0], np.eye(2))
        with pytest.raises(DimMismatch):
            cdf_rectangle(p, Rectangle.from_presence([1, 1, 1]))


class TestCdfRectangles:
    def setup_method(self):
        rng = np.random.default_rng(40)
        self.cov = random_correlation(rng, 3)
        self.mean = rng.normal(size=(4, 3))
        self.bits = rng.integers(0, 2, (4, 3))

    def test_rows_equal_scalar_calls(self):
        p, rect = MvnProblem(self.mean, self.cov), Rectangle.from_presence(self.bits)
        seeds = [7, 8, 2**63 + 5, 0]
        got = cdf_rectangles(p, rect, seeds, tol=1e-4, max_samples=20_000)
        want = [
            cdf_rectangle(MvnProblem(m, self.cov), Rectangle.from_presence(b), 1e-4, 20_000, s)
            for m, b, s in zip(self.mean, self.bits, seeds)
        ]
        assert got == want

    def test_one_rectangle_broadcasts_over_means(self):
        p, rect = MvnProblem(self.mean, self.cov), Rectangle.from_presence([1, 0, 1])
        got = cdf_rectangles(p, rect, range(4), tol=1e-4)
        want = [cdf_rectangle(p.with_mean(m), rect, 1e-4, seed=s) for s, m in enumerate(self.mean)]
        assert got == want

    def test_one_mean_broadcasts_over_rectangles(self):
        p = MvnProblem(self.mean[0], self.cov)
        got = cdf_rectangles(p, Rectangle.from_presence(self.bits), [3] * 4, tol=1e-4)
        want = [cdf_rectangle(p, Rectangle.from_presence(b), 1e-4, seed=3) for b in self.bits]
        assert got == want

    def test_empty_batch(self):
        p = MvnProblem(np.zeros((0, 3)), self.cov)
        assert cdf_rectangles(p, Rectangle.from_presence(np.zeros((0, 3))), []) == []
        one_mean = p.with_mean(np.zeros(3))
        assert cdf_rectangles(one_mean, Rectangle.from_presence([1, 1, 0]), []) == []

    @pytest.mark.parametrize("rows, bits, n_seeds", [
        (4, [1, 1], 4),  # rectangle of another dimension
        (4, [1, 1, 1], 3),  # fewer seeds than means
        (1, np.ones((2, 3)), 3),  # seeds disagree with the rectangles
    ])
    def test_mismatch_rejected(self, rows, bits, n_seeds):
        p = MvnProblem(self.mean[:rows], self.cov)
        with pytest.raises(DimMismatch):
            cdf_rectangles(p, Rectangle.from_presence(bits), range(n_seeds))


class TestTruncationBound:
    def test_k1(self):
        # exp(-1/2)/sqrt(2 pi) evaluated directly.
        np.testing.assert_allclose(truncation_bound(1.0), 0.24197072451914337, rtol=1e-12)

    def test_k5(self):
        np.testing.assert_allclose(truncation_bound(5.0), 2.9734390294685958e-07, rtol=1e-10)

    def test_vanishes_at_infinity(self):
        assert truncation_bound(50.0) < 1e-300 or truncation_bound(50.0) < truncation_bound(40.0)
        assert truncation_bound(40.0) < 1e-100

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            truncation_bound(0.0)

    def test_dominates_one_sided_clipped_mass(self):
        # The mass a clip discards on each side is the one-sided tail,
        # which the bound dominates; check empirically per coordinate.
        rng = np.random.default_rng(17)
        cov = random_correlation(rng, 2)
        mean = np.array([0.4, -0.2])
        chol = np.linalg.cholesky(cov)
        draws = mean + rng.standard_normal((200_000, 2)) @ chol.T
        for k in (2.0, 3.0):
            bound = truncation_bound(k)
            for j in range(2):
                sd = math.sqrt(cov[j, j])
                above = np.mean(draws[:, j] > mean[j] + k * sd)
                below = np.mean(draws[:, j] < mean[j] - k * sd)
                se = math.sqrt(bound / len(draws))
                assert above <= bound + 3 * se
                assert below <= bound + 3 * se


class TestClipRectangle:
    def test_halfline_clips_at_k_sigma(self):
        p = MvnProblem([0.0], [[1.0]])
        out = clip_rectangle(Rectangle([0.0], [np.inf]), p, 5.0)
        np.testing.assert_allclose(out.lower, [0.0])
        np.testing.assert_allclose(out.upper, [5.0])
        assert out.widened == ()

    def test_offset_mean(self):
        p = MvnProblem([2.0], [[1.0]])
        out = clip_rectangle(Rectangle([-np.inf], [0.0]), p, 3.0)
        np.testing.assert_allclose(out.lower, [-1.0])
        np.testing.assert_allclose(out.upper, [0.0])

    def test_interior_rectangle_unchanged(self):
        p = MvnProblem([0.0, 0.0], np.eye(2))
        rect = Rectangle([-1.0, -2.0], [1.0, 2.0])
        out = clip_rectangle(rect, p, 5.0)
        np.testing.assert_array_equal(out.lower, rect.lower)
        np.testing.assert_array_equal(out.upper, rect.upper)

    def test_far_mean_widens_window(self):
        # Mean far above an upper bound of 0: the naive window is empty, so
        # the clip recenters on the rectangle-projected mean and flags it.
        p = MvnProblem([10.0], [[1.0]])
        out = clip_rectangle(Rectangle([-np.inf], [0.0]), p, 3.0)
        assert out.widened == (0,)
        assert out.lower[0] < out.upper[0] <= 0.0


class TestSampleTruncated:
    def test_halfline_mean(self):
        p = MvnProblem([0.0], [[1.0]])
        rect = clip_rectangle(Rectangle([0.0], [np.inf]), p, 5.0)
        cfg = SamplerConfig(n_samples=100_000, burn_in_sweeps=50, thinning=1, rng_seed=9)
        draws = sample_truncated(p, rect, cfg)
        se = batch_se(draws[:, 0])
        # Clipping at 5 sd biases the mean by < 3e-7, far below the MC noise.
        assert abs(draws.mean() - math.sqrt(2 / math.pi)) <= 3 * se

    def test_independent_coordinates_uncorrelated(self):
        p = MvnProblem([0.0, 0.0], np.eye(2))
        rect = clip_rectangle(Rectangle.from_presence([1, 1]), p, 5.0)
        cfg = SamplerConfig(n_samples=50_000, burn_in_sweeps=50, thinning=1, rng_seed=3)
        draws = sample_truncated(p, rect, cfg)
        centered = (draws - draws.mean(axis=0)) / draws.std(axis=0)
        prod = centered[:, 0] * centered[:, 1]
        assert abs(prod.mean()) <= 3 * batch_se(prod)

    def test_moments_match_rejection_oracle(self):
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        p = MvnProblem([0.0, 0.0], cov)
        rect = clip_rectangle(Rectangle.from_presence([1, 1]), p, 5.0)
        cfg = SamplerConfig(n_samples=60_000, burn_in_sweeps=50, thinning=2, rng_seed=12)
        gibbs = sample_truncated(p, rect, cfg)
        oracle = rejection_truncated([0.0, 0.0], cov, [0.0, 0.0], [np.inf, np.inf], 200_000, seed=8)
        for j in range(2):
            se = math.hypot(batch_se(gibbs[:, j]), oracle[:, j].std() / math.sqrt(len(oracle)))
            assert abs(gibbs[:, j].mean() - oracle[:, j].mean()) <= 3 * se
            sq_se = math.hypot(
                batch_se(gibbs[:, j] ** 2),
                (oracle[:, j] ** 2).std() / math.sqrt(len(oracle)),
            )
            assert abs((gibbs[:, j] ** 2).mean() - (oracle[:, j] ** 2).mean()) <= 3 * sq_se

    def test_draws_strictly_inside(self):
        rng = np.random.default_rng(14)
        cov = random_correlation(rng, 3)
        p = MvnProblem(rng.normal(size=3), cov)
        rect = clip_rectangle(Rectangle.from_presence([1, 0, 1]), p, 5.0)
        cfg = SamplerConfig(n_samples=5000, burn_in_sweeps=20, thinning=1, rng_seed=2)
        draws = sample_truncated(p, rect, cfg)
        assert np.all(draws > rect.lower)
        assert np.all(draws < rect.upper)
        # Two observations in one call, with disjoint rectangles: each row
        # stays inside its own bounds.
        batch = p.with_mean(np.stack([p.mean, -p.mean]))
        rects = clip_rectangle(Rectangle.from_presence([[1, 0, 1], [0, 1, 0]]), batch, 5.0)
        draws = sample_truncated(batch, rects, cfg)
        assert draws.shape[0] == 2
        assert np.all(draws > rects.lower[:, None, :])
        assert np.all(draws < rects.upper[:, None, :])

    def test_reproducible_bitwise(self):
        cov = np.array([[1.0, -0.4], [-0.4, 1.0]])
        p = MvnProblem([0.2, -0.1], cov)
        rect = clip_rectangle(Rectangle.from_presence([0, 1]), p, 5.0)
        cfg = SamplerConfig(n_samples=500, burn_in_sweeps=30, thinning=2, rng_seed=77)
        a = sample_truncated(p, rect, cfg)
        b = sample_truncated(p, rect, cfg)
        np.testing.assert_array_equal(a, b)

    def test_far_tail_interval(self):
        # Interval entirely beyond 4 sd exercises the rejection path.
        p = MvnProblem([0.0], [[1.0]])
        cfg = SamplerConfig(n_samples=20_000, burn_in_sweeps=10, thinning=1, rng_seed=5)
        draws = sample_truncated(p, Rectangle([5.0], [7.0]), cfg)
        assert np.all((draws > 5.0) & (draws < 7.0))
        from scipy.stats import truncnorm

        exact = truncnorm(5.0, 7.0).mean()
        assert abs(draws.mean() - exact) <= 4 * batch_se(draws[:, 0]) + 1e-3


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_samples=0)
        with pytest.raises(ValueError):
            SamplerConfig(thinning=0)
        with pytest.raises(ValueError):
            SamplerConfig(cutoff_k=2.0)
        for bad in ({"cutoff_k": math.nan}, {"cutoff_k": math.inf}, {"burn_in_sweeps": -1}):
            key, value = next(iter(bad.items()))
            with pytest.raises(ValueError, match=f"{key} must be .*, got {value!r}"):
                SamplerConfig(**bad)


class TestMvnProblem:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(ValueError):
            MvnProblem([0.0, 0.0], [[1.0, 0.2], [0.3, 1.0]])

    def test_precision_times_cov_is_identity(self):
        rng = np.random.default_rng(2)
        cov = random_correlation(rng, 4)
        p = MvnProblem(np.zeros(4), cov)
        np.testing.assert_allclose(p.precision @ cov, np.eye(4), atol=1e-9)

    def test_factor_is_computed_only(self):
        with pytest.raises(TypeError):
            MvnProblem([0.0, 0.0], np.eye(2), chol=np.eye(2))

    def test_with_mean_shares_factor_and_checks_shape(self):
        p = MvnProblem(np.zeros(2), np.array([[1.0, 0.4], [0.4, 1.0]]))
        q = p.with_mean(np.ones((3, 2)))
        assert q.chol is p.chol and q.precision is p.precision
        np.testing.assert_array_equal(q.mean, np.ones((3, 2)))
        np.testing.assert_array_equal(p.mean, np.zeros(2))
        for bad in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(DimMismatch):
                p.with_mean(bad)
