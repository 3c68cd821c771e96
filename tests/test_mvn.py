"""Tests for the multivariate normal primitives."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

from dmse import mvn
from dmse.errors import DimMismatch, NotPositiveDefinite
from dmse.model import sigma_from_lambda
from dmse.mvn import (
    _CHUNK,
    N_RANDOMIZATIONS,
    MvnProblem,
    Rectangle,
    SamplerConfig,
    cdf_rectangle,
    cdf_rectangles,
    cholesky,
    sample_truncated,
    _cbc_lattice,
    _lattice_means,
    _ordered_cholesky,
    _powers_mod,
    _tilts,
)
from oracles import (
    batch_se,
    botev_gradient,
    bvn_orthant,
    equicorrelated_log_prob,
    lattice_means_dense,
    ordered_cholesky_loop,
    quadrature_rectangle,
    random_correlation,
    rejection_truncated,
    sample_truncated_reference,
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


class TestRectangle:
    """Every coordinate of a rectangle is a half-line with a finite end,
    checked once at construction."""

    @pytest.mark.parametrize("lower, upper", [
        (0.0, 1.0), (-np.inf, np.inf), (np.nan, np.inf), (-np.inf, np.nan),
        (np.inf, np.inf), (-np.inf, -np.inf), (1.0, 0.0),
    ], ids=["two-sided", "whole-line", "nan-lower", "nan-upper", "lower-inf", "upper-minus-inf",
            "reversed"])
    def test_rejects_what_is_not_a_half_line(self, lower, upper):
        with pytest.raises(ValueError, match=r"coordinate 1 is \[.*\], not a half-line"):
            Rectangle([0.0, lower], [np.inf, upper])

    def test_accepts_both_sides(self):
        rect = Rectangle([-np.inf, -2.5], [1.5, np.inf])
        np.testing.assert_array_equal(rect.lower, [-np.inf, -2.5])
        np.testing.assert_array_equal(rect.upper, [1.5, np.inf])
        presence = Rectangle.from_presence([[1, 0], [0, 1]])
        assert Rectangle(presence.lower, presence.upper).dim == 2

    @pytest.mark.parametrize("lower, upper, message", [
        (np.zeros(2), np.full(3, np.inf), r"bound shapes differ: \(2,\) vs \(3,\)"),
        (np.zeros((2, 2, 2)), np.full((2, 2, 2), np.inf),
         r"bounds of shape \(2, 2, 2\) are neither \(n,\) nor \(B, n\)"),
        (0.0, np.inf, r"bounds of shape \(\) are neither"),
    ], ids=["differ", "three-axes", "scalar"])
    def test_bad_shape_is_named(self, lower, upper, message):
        with pytest.raises(DimMismatch, match=message):
            Rectangle(lower, upper)

    def test_batch_names_the_bad_row(self):
        lower = np.array([[0.0, -np.inf], [-np.inf, -np.inf], [0.0, -1.0]])
        upper = np.array([[np.inf, 0.0], [0.0, 0.0], [np.inf, 1.0]])
        Rectangle(lower[:2], upper[:2])
        with pytest.raises(ValueError, match="coordinate 1 of row 2 is"):
            Rectangle(lower, upper)


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

    def test_monotone_under_enlargement(self):
        """Moving half-line bounds outward never loses mass."""
        rng = np.random.default_rng(21)
        cov = random_correlation(rng, 3)
        p = MvnProblem(rng.normal(size=3) * 0.3, cov)
        small = Rectangle([-0.5, -np.inf, -0.8], [np.inf, 0.9, np.inf])
        large = Rectangle([-1.0, -np.inf, -1.5], [np.inf, 1.5, np.inf])
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

    @pytest.mark.parametrize("tol", [0.0, 1e-6])
    @pytest.mark.parametrize("mu0", [0.0, -9.0, -15.0, -30.0])
    def test_univariate_meets_the_tolerance_it_reports(self, mu0, tol):
        """One variable is the closed form ``ndtr``: its error is 0, so a
        reported success holds at any tolerance, deep in the tail too."""
        p = MvnProblem([[mu0], [mu0]], [[1.0]])
        for est in cdf_rectangles(p, Rectangle.from_presence([[1], [0]]), [0, 1], tol):
            assert est.tolerance_reached
            assert est.error_estimate <= tol * max(est.value, 1e-300)
            assert est.value - est.error_estimate >= 0.0

    def test_budget_exhaustion_sets_flag(self, monkeypatch):
        """A row stops once what is left of the budget cannot pay for a
        pass of 256 points a shift, and reports the miss."""
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        p = MvnProblem([0.0, 0.0], cov)
        for budget in (5000, 100_000):
            monkeypatch.setattr(mvn, "MAX_SAMPLES", budget)
            est = cdf_rectangle(p, Rectangle.from_presence([1, 1]), tol=1e-12, seed=4)
            assert not est.tolerance_reached
            assert budget - N_RANDOMIZATIONS * 256 < est.samples_used <= max(budget, 3084)

    @pytest.mark.parametrize("budget", [3084, 3085, 45_912, 50_000])
    def test_budget_is_checked_between_passes(self, budget, monkeypatch):
        """``MAX_SAMPLES`` is a cap: the first pass always runs, each later
        pass is clipped to the budget left, and a row stops once less than
        256 points a shift are left."""
        passes = _record_passes(monkeypatch)
        p = MvnProblem([0.3, -0.2, 0.1], random_correlation(np.random.default_rng(31), 3))
        monkeypatch.setattr(mvn, "MAX_SAMPLES", budget)
        est = cdf_rectangle(p, Rectangle.from_presence([1, 0, 1]), tol=0.0, seed=3)
        assert not est.tolerance_reached
        assert est.samples_used == sum(n_eval for _, n_eval in passes) <= max(budget, 3084)
        assert budget - est.samples_used < N_RANDOMIZATIONS * 256
        assert passes[0] == (256, 3084)
        if budget < 3084 + N_RANDOMIZATIONS * 256:
            assert len(passes) == 1

    @pytest.mark.parametrize("n", [2, 20, 100])
    def test_infinite_tolerance_is_one_pass(self, n):
        """``tol=math.inf`` means exactly one pass of 12 shifts of 61
        points, and that pass meets the tolerance."""
        rng = np.random.default_rng(n)
        p = MvnProblem(rng.normal(size=n), random_correlation(rng, n))
        rect = Rectangle.from_presence(rng.integers(0, 2, n))
        est = cdf_rectangle(p, rect, tol=math.inf, seed=1)
        assert est.samples_used == 732 == N_RANDOMIZATIONS * 61
        assert est.tolerance_reached

    def test_dim_mismatch(self):
        p = MvnProblem([0.0, 0.0], np.eye(2))
        with pytest.raises(DimMismatch):
            cdf_rectangle(p, Rectangle.from_presence([1, 1, 1]))
        # One coordinate is not broadcast over every variable.
        p = MvnProblem(np.zeros(3), np.eye(3))
        with pytest.raises(DimMismatch, match="rectangle dim 1 != problem dim 3"):
            cdf_rectangle(p, Rectangle([0.0], [np.inf]))


def _record_passes(monkeypatch):
    """Patch ``_lattice_means`` to append each pass's ``(points asked for,
    evaluations)`` to the list returned."""
    passes = []
    real = mvn._lattice_means

    def recording(cho, hi, n_points, shifts, mu):
        means, n_eval = real(cho, hi, n_points, shifts, mu)
        passes.append((n_points, n_eval))
        return means, n_eval

    monkeypatch.setattr(mvn, "_lattice_means", recording)
    return passes


def _equicorrelated(mu0, bits, rho=0.5):
    """Species 0 at mean ``mu0`` and the rest at 0, every correlation
    ``rho``: the problem, the rectangle of ``bits`` and its exact probability."""
    n = len(bits)
    mean = np.zeros(n)
    mean[0] = mu0
    cov = np.full((n, n), rho) + (1.0 - rho) * np.eye(n)
    exact = math.exp(equicorrelated_log_prob(mean, bits, rho))
    return MvnProblem(mean, cov), Rectangle.from_presence(bits), exact


class TestFarTails:
    """Intervals far out in a tail, against the equicorrelation oracle. An
    interval ``[lo, inf)`` integrated as ``1 - ndtr(lo - s)`` cancels to 0
    once ``lo - s`` passes about 8.3, and the estimate still reported
    success."""

    @pytest.mark.parametrize("mu0", [-7.0, -9.0, -15.0])
    def test_univariate_presence_is_exact(self, mu0):
        p, rect, exact = _equicorrelated(mu0, [1])
        est = cdf_rectangle(p, rect)
        assert abs(est.value - exact) <= 1e-13 * exact

    @pytest.mark.parametrize("mu0", [-7.0, -8.0, -9.0, -15.0])
    def test_bivariate_presence_meets_its_tolerance(self, mu0):
        p, rect, exact = _equicorrelated(mu0, [1, 0])
        est = cdf_rectangle(p, rect, tol=1e-6, seed=0)
        assert est.tolerance_reached
        assert abs(est.value - exact) <= 1e-6 * exact

    def test_deep_absence_meets_its_tolerance(self):
        # (-inf, -10] has mass 7.6e-24: a uniform floor of 1e-16 put the
        # conditioning draw at -8.2, outside the interval.
        p, rect, exact = _equicorrelated(10.0, [0] * 5)
        est = cdf_rectangle(p, rect, tol=1e-6, seed=0)
        assert est.tolerance_reached
        assert abs(est.value - exact) <= 1e-6 * exact

    @pytest.mark.parametrize("n", [3, 5])
    def test_far_presence_reports_a_miss_not_a_wrong_value(self, n, monkeypatch):
        monkeypatch.setattr(mvn, "MAX_SAMPLES", 100_000)
        p, rect, exact = _equicorrelated(-9.0, [1] + [0] * (n - 1))
        est = cdf_rectangle(p, rect, tol=1e-6, seed=0)
        assert not est.tolerance_reached
        assert abs(est.value - exact) <= est.error_estimate

    @pytest.mark.parametrize("mu0", [-5.0, -9.0])
    @pytest.mark.parametrize("n", [20, 100])
    def test_one_pass_is_right_in_the_tail(self, n, mu0):
        """Training's one ``tol=math.inf`` pass, over 40 seeds: at most 4
        of the 3-SE intervals miss the exact value (a 1% chance at a true
        miss rate of 2%), and every log value is within 0.1 of the exact
        one. An untilted pass of 257 points a shift missed 7, 14, 34 and 38
        of 40 in these cases, with log errors up to 0.85, 2.2, 4.3 and 7.5."""
        p, rect, exact = _equicorrelated(mu0, [1] + [0] * (n - 1))
        p = MvnProblem(np.tile(p.mean, (40, 1)), p.cov)
        got = cdf_rectangles(p, rect, range(40), math.inf)
        assert sum(abs(est.value - exact) > est.error_estimate for est in got) <= 4
        assert max(abs(math.log(est.value) - math.log(exact)) for est in got) <= 0.1


def _covariance(kind, n, rng):
    if kind == "equicorrelated":
        return np.full((n, n), 0.3) + 0.7 * np.eye(n)
    if kind == "negative":
        rho = -0.5 / (n - 1)
        return np.full((n, n), rho) + (1.0 - rho) * np.eye(n)
    if kind == "random_spd":  # no unit diagonal, so the rescaling matters
        a = rng.normal(size=(n, n))
        return a @ a.T / n + 0.1 * np.eye(n)
    # Rank-deficient: d2 < n interaction rows, as sigma_from_lambda builds.
    return sigma_from_lambda(rng.normal(size=(max(1, n // 4), n)))


def _bounds(n, rng, cov):
    """Half-line bounds, centred on the mean, around a latent draw: an
    all-present orthant at mean 0 (exact ties), a presence pattern, and
    half-lines on mixed sides at random thresholds, so the bounds are not
    all minus the mean."""
    mean = rng.normal(size=n)
    x = mean + np.linalg.cholesky(cov + 1e-9 * np.eye(n)) @ rng.normal(size=n)
    bits = x > 0
    up = rng.random(n) < 0.5
    t = np.where(up, x - rng.uniform(0.5, 2.0, n), x + rng.uniform(0.5, 2.0, n))
    return {
        "ties": (np.zeros(n), np.full(n, np.inf)),
        "presence": (np.where(bits, 0.0, -np.inf) - mean, np.where(bits, np.inf, 0.0) - mean),
        "mixed": (np.where(up, t, -np.inf) - mean, np.where(up, np.inf, t) - mean),
    }


def _presented(cov, lo, hi):
    """Centred half-line bounds as cdf_rectangles hands them to the
    ordering: each ``[l, inf)`` mirrored to ``(-inf, -l]``, with the
    covariance of the mirrored variables. Returns ``(cov, hi)``."""
    sign = np.where(hi == np.inf, -1.0, 1.0)
    return cov * np.outer(sign, sign), np.where(hi == np.inf, -lo, hi)


_KINDS = ["equicorrelated", "negative", "random_spd", "rank_deficient"]


def _assert_row_matches_loop(got, row, cov, hi, msg):
    """Row ``row`` of a batched ordering equals the general reference loop,
    given lower bounds of -inf, bit for bit: lower triangle and bounds, with
    the upper triangle 0."""
    cho, lo_, hi_ = ordered_cholesky_loop(cov, np.full_like(hi, -np.inf), hi)
    assert np.all(lo_ == -np.inf), msg
    for part, a, b in zip(("cho", "hi"), got, (np.tril(cho), hi_), strict=True):
        np.testing.assert_array_equal(a[row], b, err_msg=f"{msg}: {part}")


class TestOrderedCholesky:
    """The batched ordering against the reference per-candidate loop."""

    @pytest.mark.parametrize("n", [2, 5, 20, 100])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_matches_loop(self, kind, n):
        rng = np.random.default_rng(n)
        cov = _covariance(kind, n, rng)
        for name, bounds in _bounds(n, rng, cov).items():
            cov_p, hi = _presented(cov, *bounds)
            got = _ordered_cholesky(cov_p[None], hi[None])
            _assert_row_matches_loop(got, 0, cov_p, hi, name)
            if kind == "rank_deficient":
                # Only d2 pivots survive; the rest are zeroed as exhausted.
                assert np.count_nonzero(np.diag(got[0][0])) == max(1, n // 4)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_mixed_batch_rows_match_loop(self, n):
        """One call orders rows of every covariance kind, sign-flipped as
        cdf_rectangles flips half-lines, under every kind of bound: live
        and exhausted rows share each step."""
        rng = np.random.default_rng(100 + n)
        rows = []
        for kind in _KINDS:
            cov = _covariance(kind, n, rng)
            for name, bounds in _bounds(n, rng, cov).items():
                rows.append((f"{kind}/{name}", *_presented(cov, *bounds)))
        got = _ordered_cholesky(*(np.array([r[i] for r in rows]) for i in (1, 2)))
        for row, (msg, cov, hi) in enumerate(rows):
            _assert_row_matches_loop(got, row, cov, hi, msg)
        live = np.count_nonzero(np.diagonal(got[0], axis1=1, axis2=2), axis=1)
        assert live.min() == max(1, n // 4) < live.max() == n

    def test_memory_is_bounded_at_any_batch_size(self, monkeypatch):
        """cdf_rectangles orders 1,000 rows at n=50 a slice at a time: one
        ordering call over the whole batch peaked near 80 MiB."""
        monkeypatch.setattr(mvn, "_lattice_means", lambda cho, hi, n_points, shifts, mu: (
            shifts[:, 0], n_points))
        rng = np.random.default_rng(41)
        p = MvnProblem(rng.normal(size=(1000, 50)), random_correlation(rng, 50))
        rect = Rectangle.from_presence(rng.integers(0, 2, (1000, 50)))
        tracemalloc.start()
        try:
            got = cdf_rectangles(p, rect, range(1000), tol=math.inf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 1000 and all(est.tolerance_reached for est in got)
        assert peak < 16 * 2**20


class TestCbcLattice:
    @pytest.mark.parametrize("n", [3, 5, 257, 4093, 65537, 833_309])
    def test_powers_match_the_loop(self, n):
        """The block-doubling powers equal the one-at-a-time loop they
        replace, up to the largest lattice the default budget allows."""
        g, m = mvn._primitive_root(n), (n - 1) // 2
        want, x = [], 1
        for _ in range(m):
            want.append(x)
            x = x * g % n
        np.testing.assert_array_equal(_powers_mod(g, m, n), want)


def _dense_sizes(n):
    """Pass sizes to check against the dense reference, which holds every
    point of a pass: about 130 MB at n=100 and 4,096 points."""
    return (256, _CHUNK, 5 * _CHUNK) if n <= 20 else (256, _CHUNK)


class TestLatticeMeans:
    """The chunked lattice pass against the reference all-points pass."""

    @pytest.mark.parametrize("n", [2, 5, 20, 33, 100])
    @pytest.mark.parametrize("name", ["presence", "mixed"])
    def test_matches_dense_pass(self, name, n):
        """Up to 32 variables the blocked pass makes the reference's
        conditioning sums, one gemv a variable; past that, each block of 32
        sums one GEMM over the earlier variables and one gemv, which moves
        the result by a few ulps. The reference takes lower bounds of -inf
        through ``ndtr`` as well."""
        rng = np.random.default_rng(50 + n)
        cov = random_correlation(rng, n)
        cov, hi = _presented(cov, *_bounds(n, rng, cov)[name])
        (cho,), (hi,) = _ordered_cholesky(cov[None], hi[None])
        for n_points in _dense_sizes(n):
            shifts = rng.random((N_RANDOMIZATIONS, n - 1))
            gen, size = _cbc_lattice(n - 1, n_points)
            got, evals = _lattice_means(cho, hi, n_points, shifts, np.zeros(n - 1))
            want = lattice_means_dense(cho, np.full(n, -np.inf), hi, gen, size, shifts)
            assert evals == N_RANDOMIZATIONS * size
            if n > mvn._COND_BLOCK:
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
            elif size <= _CHUNK:  # one chunk: the same operations, bit for bit
                np.testing.assert_array_equal(got, want)
            else:  # chunk sums change only the order of the final sum
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("n", [2, 5, 20, 33, 100])
    @pytest.mark.parametrize("name", ["presence", "mixed"])
    def test_tilted_matches_dense_pass(self, name, n):
        """A tilted pass against the reference, which moves the bounds and
        sums the log likelihood ratio coordinate by coordinate."""
        rng = np.random.default_rng(60 + n)
        cov = random_correlation(rng, n)
        cov, hi = _presented(cov, *_bounds(n, rng, cov)[name])
        cho, hi = _ordered_cholesky(cov[None], hi[None])
        mu = _tilts(cho, hi)[1][0]
        assert mu.any()
        for n_points in (256, _dense_sizes(n)[-1]):
            shifts = rng.random((N_RANDOMIZATIONS, n - 1))
            gen, size = _cbc_lattice(n - 1, n_points)
            got, evals = _lattice_means(cho[0], hi[0], n_points, shifts, mu)
            want = lattice_means_dense(cho[0], np.full(n, -np.inf), hi[0], gen, size, shifts, mu)
            assert evals == N_RANDOMIZATIONS * size
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    def test_blocked_pass_memory_is_bounded(self):
        """A pass of 5 chunks at n=100 holds one block of 8,184 columns per
        variable (6.5 MiB) and one 32-variable GEMM block (2 MiB), 9.1 MiB
        in all; the pass that made each chunk whole peaked at 76 MiB."""
        n = 100
        rng = np.random.default_rng(12)
        cov = random_correlation(rng, n)
        cov, hi = _presented(cov, *_bounds(n, rng, cov)["presence"])
        (cho,), (hi,) = _ordered_cholesky(cov[None], hi[None])
        shifts = rng.random((N_RANDOMIZATIONS, n - 1))
        tracemalloc.start()
        try:
            _lattice_means(cho, hi, 5 * _CHUNK, shifts, np.zeros(n - 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_peak_memory_is_bounded(self, monkeypatch):
        """About 800k evaluations at n=20 hold under 32 MiB of numpy arrays;
        materializing every point of a pass took about 200 MiB."""
        rng = np.random.default_rng(11)
        n = 20
        cov = sigma_from_lambda(rng.normal(size=(5, n)))
        p = MvnProblem(rng.normal(size=n), cov)
        x = p.mean + np.linalg.cholesky(cov + 1e-9 * np.eye(n)) @ rng.normal(size=n)
        rect = Rectangle.from_presence((x > 0).astype(int))
        monkeypatch.setattr(mvn, "MAX_SAMPLES", 800_000)
        tracemalloc.start()
        try:
            est = cdf_rectangle(p, rect, tol=0.0, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 750_000 < est.samples_used <= 800_000 and est.value > 0.0
        assert peak < 32 * 2**20


class TestTilting:
    """Rows of three or more variables out of the bulk are integrated under
    Botev's minimax tilt, at every tolerance; ``tol=math.inf`` is one such
    pass."""

    @pytest.mark.parametrize("mu0", [-7.0, -9.0, -15.0])
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_far_presence_meets_its_tolerance(self, n, mu0):
        # Untilted, each of these ran the whole budget (12,579,288
        # evaluations) and missed, with relative errors up to 6.1e-3.
        p, rect, exact = _equicorrelated(mu0, [1] + [0] * (n - 1))
        est = cdf_rectangle(p, rect, tol=1e-6, seed=0)
        assert est.tolerance_reached
        assert abs(est.value - exact) <= 1e-6 * exact
        assert est.samples_used <= 3_002_796

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_psi_bounds_the_log_probability(self, n):
        """psi at the saddle point is Botev's upper bound on log P, and a
        tight one: within 0.1 of the exact value far out in the tail."""
        p, rect, exact = _equicorrelated(-9.0, [1] + [0] * (n - 1))
        cov, hi = _presented(p.cov, rect.lower - p.mean, rect.upper - p.mean)
        psi = _tilts(*_ordered_cholesky(cov[None], hi[None]))[2][0]
        assert math.log(exact) <= psi <= math.log(exact) + 0.1

    @pytest.mark.parametrize("mean, bits, cov, tol, plain", [
        # n=2, where the lattice is one-dimensional; probability 0.083, so
        # not in the bulk: tilted, 1,569,324 (with doubling passes).
        ([-0.5257, 0.1388], [1, 1], [[1.0, -0.5696], [-0.5696, 1.0]], 5e-7, 141_204),
        # A row of probability 0.73, in the bulk: tilted, 193,320 (with
        # doubling passes).
        ([-0.89, -1.15, -2.73], [0, 0, 0], np.full((3, 3), 0.3) + 0.7 * np.eye(3), 1e-6, 33_768),
    ], ids=["bivariate", "bulk"])
    def test_smooth_rows_keep_the_plain_pass(self, mean, bits, cov, tol, plain, monkeypatch):
        """Rows whose plain integrand converges faster on the lattice than
        the tilted one, which is singular at the lattice's ends, are not
        tilted."""
        tilted = []
        real = mvn._lattice_means
        monkeypatch.setattr(mvn, "_lattice_means", lambda *args: (
            tilted.append(args[-1].any()) or real(*args)))
        est = cdf_rectangle(MvnProblem(mean, cov), Rectangle.from_presence(bits), tol=tol, seed=0)
        assert est.tolerance_reached and est.samples_used == plain
        assert tilted and not any(tilted)

    @pytest.mark.parametrize("n", [2, 5, 20])
    @pytest.mark.parametrize("kind", _KINDS)
    def test_solver_zeroes_the_gradient(self, kind, n):
        """The returned point is a saddle point of Botev's psi, checked
        against a 50-digit gradient; a row with an exhausted pivot keeps 0."""
        rng = np.random.default_rng(n)
        cov = _covariance(kind, n, rng)
        for name, bounds in _bounds(n, rng, cov).items():
            cov_p, hi = _presented(cov, *bounds)
            cho, hi = _ordered_cholesky(cov_p[None], hi[None])
            x, mu, psi = _tilts(cho, hi)
            if kind == "rank_deficient":
                assert not x.any() and not mu.any() and psi[0] == 0.0, name
                continue
            g_x, g_mu = botev_gradient(cho[0], np.full(n, -np.inf), hi[0], x[0], mu[0])
            assert np.abs(np.concatenate([g_x, g_mu])).max() <= 1e-8, name

    @pytest.mark.parametrize("n", [2, 3, 20])
    def test_infinite_tolerance_tilts_by_the_finite_rule(self, n, monkeypatch):
        """Each row's one ``tol=math.inf`` pass gets the tilt of its first
        pass at ``tol=1e-3``: Botev's shift for far-presence rows at
        n >= 3, and zero for bulk rows (exp(psi) >= 0.1) and at n = 2."""
        passes = []
        real = mvn._lattice_means
        monkeypatch.setattr(mvn, "_lattice_means", lambda cho, hi, n_points, shifts, mu: (
            passes.append((shifts, mu.copy())) or real(cho, hi, n_points, shifts, mu)))
        # Rows 0-3: species 0 present at -7, the rest absent at 0. Rows 4-7:
        # every species absent at about -2.5, a probability near 1.
        rng = np.random.default_rng(70 + n)
        mean = np.vstack([np.zeros((4, n)), rng.normal(-2.5, 0.3, (4, n))])
        mean[:4, 0] = -7.0
        bits = np.zeros((8, n), dtype=int)
        bits[:4, 0] = 1
        p = MvnProblem(mean, np.full((n, n), 0.5) + 0.5 * np.eye(n))
        rect = Rectangle.from_presence(bits)
        cdf_rectangles(p, rect, range(8), tol=math.inf)
        one_pass = passes[:]
        assert len(one_pass) == 8
        passes.clear()
        cdf_rectangles(p, rect, range(8), tol=1e-3)
        for row, (shifts, mu) in enumerate(one_pass):
            # A row's first pass draws the first shifts of its seed's stream.
            first = [m for s, m in passes if np.array_equal(s, shifts)]
            assert len(first) == 1, row
            np.testing.assert_array_equal(mu, first[0], err_msg=f"row {row}")
            assert mu.any() == (n > 2 and row < 4), row

    def test_memory_is_bounded_at_any_batch_size(self, monkeypatch):
        """The Newton solve of 1,000 tilted rows at n=50 runs a slice at a
        time, in the ordering's memory."""
        tilts = []
        monkeypatch.setattr(mvn, "_lattice_means", lambda cho, hi, n_points, shifts, mu: (
            tilts.append(mu.any()) or np.full(len(shifts), 0.5), n_points))
        rng = np.random.default_rng(41)
        p = MvnProblem(rng.normal(size=(1000, 50)), random_correlation(rng, 50))
        rect = Rectangle.from_presence(rng.integers(0, 2, (1000, 50)))
        tracemalloc.start()
        try:
            got = cdf_rectangles(p, rect, range(1000), tol=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 1000 and all(est.tolerance_reached for est in got)
        assert len(tilts) == 1000 and all(tilts)
        assert peak < 16 * 2**20


def _random_rows(n, rows, seed):
    """``rows`` random problems at n: equicorrelation 0.3, means drawn from
    N(0, 1.5^2), random presence bits; with their exact probabilities."""
    rng = np.random.default_rng(seed)
    mean = rng.normal(0.0, 1.5, (rows, n))
    bits = rng.integers(0, 2, (rows, n))
    cov = np.full((n, n), 0.3) + 0.7 * np.eye(n)
    exact = [math.exp(equicorrelated_log_prob(m, b, 0.3)) for m, b in zip(mean, bits)]
    return MvnProblem(mean, cov), Rectangle.from_presence(bits), np.array(exact)


class TestPassSchedule:
    """Each pass after the first is sized to close the error left, 1x to
    16x the last, within a budget that caps every row."""

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_each_pass_is_1_to_16_times_the_last(self, n, monkeypatch):
        passes = _record_passes(monkeypatch)
        p, rect, _ = _random_rows(n, 6, seed=80 + n)
        schedules = []
        for row in range(6):
            start = len(passes)
            one = Rectangle(rect.lower[row], rect.upper[row])
            est = cdf_rectangle(MvnProblem(p.mean[row], p.cov), one, tol=1e-6, seed=row)
            assert est.tolerance_reached
            schedules.append([n_points for n_points, _ in passes[start:]])
        for schedule in schedules:
            for last, this in zip(schedule, schedule[1:]):
                assert last <= this <= 16 * last
        assert max(map(len, schedules)) >= 3

    def test_zero_tolerance_grows_16x(self, monkeypatch):
        passes = _record_passes(monkeypatch)
        monkeypatch.setattr(mvn, "MAX_SAMPLES", 1_000_000)
        p = MvnProblem([0.3, -0.2, 0.1], random_correlation(np.random.default_rng(31), 3))
        cdf_rectangle(p, Rectangle.from_presence([1, 0, 1]), tol=0.0, seed=3)
        assert [n_points for n_points, _ in passes[:3]] == [256, 4096, 65536]

    @pytest.mark.parametrize("tol", [0.0, 1e-9, 1e-6])
    # 39,084 leaves 3,000 points a shift after the first pass, and 3,001 is
    # prime: a pass asking for all 3,000 would get 3,001.
    @pytest.mark.parametrize("budget", [1, 3084, 3085, 20_000, 39_084, 200_000])
    def test_samples_used_is_capped(self, budget, tol, monkeypatch):
        monkeypatch.setattr(mvn, "MAX_SAMPLES", budget)
        p, rect, _ = _random_rows(5, 4, seed=90)
        for est in cdf_rectangles(p, rect, range(4), tol):
            assert est.samples_used <= max(budget, 3084)
            if not est.tolerance_reached:
                assert budget - est.samples_used < N_RANDOMIZATIONS * 256

    @pytest.mark.parametrize("n, rows, doubling_misses", [(3, 48, 2), (5, 16, 0), (8, 8, 0)])
    def test_no_more_oracle_misses_than_doubling(self, n, rows, doubling_misses):
        """At tol=1e-6, no more rows are off the exact probability by more
        than tol than with passes that double, which missed
        ``doubling_misses`` of these rows."""
        p, rect, exact = _random_rows(n, rows, seed=100 + n)
        values = np.array([est.value for est in cdf_rectangles(p, rect, range(rows), 1e-6)])
        assert np.sum(np.abs(values - exact) > 1e-6 * exact) <= doubling_misses


class TestCdfRectangles:
    def setup_method(self):
        rng = np.random.default_rng(40)
        self.cov = random_correlation(rng, 3)
        self.mean = rng.normal(size=(4, 3))
        self.bits = rng.integers(0, 2, (4, 3))

    def test_rows_equal_scalar_calls(self):
        p, rect = MvnProblem(self.mean, self.cov), Rectangle.from_presence(self.bits)
        seeds = [7, 8, 2**63 + 5, 0]
        got = cdf_rectangles(p, rect, seeds, tol=1e-4)
        want = [
            cdf_rectangle(MvnProblem(m, self.cov), Rectangle.from_presence(b), 1e-4, s)
            for m, b, s in zip(self.mean, self.bits, seeds)
        ]
        assert got == want

    def test_one_rectangle_broadcasts_over_means(self):
        p, rect = MvnProblem(self.mean, self.cov), Rectangle.from_presence([1, 0, 1])
        got = cdf_rectangles(p, rect, range(4), tol=1e-4)
        want = [cdf_rectangle(MvnProblem(m, self.cov), rect, 1e-4, seed=s)
                for s, m in enumerate(self.mean)]
        assert got == want

    def test_one_mean_broadcasts_over_rectangles(self):
        p = MvnProblem(self.mean[0], self.cov)
        got = cdf_rectangles(p, Rectangle.from_presence(self.bits), [3] * 4, tol=1e-4)
        want = [cdf_rectangle(p, Rectangle.from_presence(b), 1e-4, seed=3) for b in self.bits]
        assert got == want

    def test_each_missed_row_warns_once_through_dmse(self, monkeypatch):
        """A missed row is logged on ``dmse.mvn`` and reaches a handler on
        the package logger ``dmse``, once per row."""
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        monkeypatch.setattr(mvn, "MAX_SAMPLES", 1)
        package_log = logging.getLogger("dmse")
        package_log.addHandler(handler)
        try:
            p, rect = MvnProblem(self.mean, self.cov), Rectangle.from_presence(self.bits)
            got = cdf_rectangles(p, rect, range(4), tol=1e-12)
        finally:
            package_log.removeHandler(handler)
        assert not any(est.tolerance_reached for est in got)
        assert [r.name for r in records] == ["dmse.mvn"] * 4
        assert all(r.levelno == logging.WARNING for r in records)
        assert all("tolerance" in r.getMessage() for r in records)

    @pytest.mark.parametrize("tol", [math.nan, -1e-6, -math.inf])
    def test_tolerance_must_be_non_negative(self, tol):
        # A NaN tolerance is never met, so every row would run to the budget.
        p, rect = MvnProblem(self.mean, self.cov), Rectangle.from_presence(self.bits)
        with pytest.raises(ValueError, match="tol must be >= 0"):
            cdf_rectangles(p, rect, range(4), tol)

    def test_empty_batch(self):
        p = MvnProblem(np.zeros((0, 3)), self.cov)
        assert cdf_rectangles(p, Rectangle.from_presence(np.zeros((0, 3))), []) == []
        one_mean = MvnProblem(np.zeros(3), self.cov)
        assert cdf_rectangles(one_mean, Rectangle.from_presence([1, 1, 0]), []) == []

    @pytest.mark.parametrize("rows, bits, n_seeds", [
        (4, [1, 1], 4),  # rectangle of another dimension
        (4, [1, 1, 1], 3),  # fewer seeds than means
        (1, np.ones((2, 3)), 3),  # seeds disagree with the rectangles
        (4, [1], 4),  # one coordinate, which would broadcast over three
    ])
    def test_mismatch_rejected(self, rows, bits, n_seeds):
        p = MvnProblem(self.mean[:rows], self.cov)
        with pytest.raises(DimMismatch):
            cdf_rectangles(p, Rectangle.from_presence(bits), range(n_seeds))


class TestSampleTruncated:
    def test_halfline_mean(self):
        p = MvnProblem([0.0], [[1.0]])
        rect = Rectangle([0.0], [np.inf])
        cfg = SamplerConfig(n_samples=100_000, burn_in_sweeps=50, thinning=1)
        draws = sample_truncated(p, rect, cfg, 9)
        se = batch_se(draws[:, 0])
        assert abs(draws.mean() - math.sqrt(2 / math.pi)) <= 3 * se

    def test_independent_coordinates_uncorrelated(self):
        p = MvnProblem([0.0, 0.0], np.eye(2))
        rect = Rectangle.from_presence([1, 1])
        cfg = SamplerConfig(n_samples=50_000, burn_in_sweeps=50, thinning=1)
        draws = sample_truncated(p, rect, cfg, 3)
        centered = (draws - draws.mean(axis=0)) / draws.std(axis=0)
        prod = centered[:, 0] * centered[:, 1]
        assert abs(prod.mean()) <= 3 * batch_se(prod)

    def test_moments_match_rejection_oracle(self):
        cov = np.array([[1.0, 0.8], [0.8, 1.0]])
        p = MvnProblem([0.0, 0.0], cov)
        rect = Rectangle.from_presence([1, 1])
        cfg = SamplerConfig(n_samples=60_000, burn_in_sweeps=50, thinning=2)
        gibbs = sample_truncated(p, rect, cfg, 12)
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
        rect = Rectangle.from_presence([1, 0, 1])
        cfg = SamplerConfig(n_samples=5000, burn_in_sweeps=20, thinning=1)
        draws = sample_truncated(p, rect, cfg, 2)
        assert np.all(draws > rect.lower)
        assert np.all(draws < rect.upper)
        # Two observations in one call, with disjoint rectangles: each row
        # stays inside its own bounds.
        batch = MvnProblem(np.stack([p.mean, -p.mean]), cov)
        rects = Rectangle.from_presence([[1, 0, 1], [0, 1, 0]])
        draws = sample_truncated(batch, rects, cfg, 2)
        assert draws.shape[0] == 2
        assert np.all(draws > rects.lower[:, None, :])
        assert np.all(draws < rects.upper[:, None, :])

    def test_reproducible_bitwise(self):
        cov = np.array([[1.0, -0.4], [-0.4, 1.0]])
        p = MvnProblem([0.2, -0.1], cov)
        rect = Rectangle.from_presence([0, 1])
        cfg = SamplerConfig(n_samples=500, burn_in_sweeps=30, thinning=2)
        a = sample_truncated(p, rect, cfg, 77)
        b = sample_truncated(p, rect, cfg, 77)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n", [2, 5, 20, 100])
    @pytest.mark.parametrize("kind", ["presence", "far"])
    def test_matches_reference_stream(self, kind, n, monkeypatch):
        """The in-place sweep draws what the reference sampler draws, bit
        for bit: on rows in the bulk, whose inverse CDFs stay in the normal
        float range, and with a row whose conditionals lie 40 sd out, past
        ``ndtr``'s range, which take the log-space inverse CDF (the
        reference takes it on its general ``[a, b]`` interval with
        ``a = -inf``)."""
        rng = np.random.default_rng(90 + n)
        cov = random_correlation(rng, n)
        mean = rng.normal(size=(3, n))
        if kind == "presence":
            bits = rng.integers(0, 2, size=(3, n))
            # Row 2: present species 40 sd below their bound, absent ones 40 above.
            mean[2] = np.where(bits[2] == 1, -40.0, 40.0)
            presence = Rectangle.from_presence(bits)
            lower, upper = presence.lower, presence.upper
        else:
            # Half-lines on random sides at thresholds around the mean.
            up = rng.random((3, n)) < 0.5
            t = mean + rng.normal(size=(3, n))
            lower, upper = np.where(up, t, -np.inf), np.where(up, np.inf, t)
            # Row 2: species 0 confined to [40 sd above its mean, inf).
            lower[2, 0], upper[2, 0] = mean[2, 0] + 40.0, np.inf
        cfg = SamplerConfig(n_samples=64, burn_in_sweeps=3, thinning=2)
        real = mvn._trunc_std_normal
        tails = []

        def spying(u, h, z):
            tails.append((ndtr(h) * u).min() < np.finfo(float).tiny)
            return real(u, h, z)

        monkeypatch.setattr(mvn, "_trunc_std_normal", spying)
        for rows, far in ((slice(0, 2), False), (slice(0, 3), True)):
            tails.clear()
            p, rect = MvnProblem(mean[rows], cov), Rectangle(lower[rows], upper[rows])
            got = sample_truncated(p, rect, cfg, 21)
            assert any(tails) if far else not all(tails)
            np.testing.assert_array_equal(got, sample_truncated_reference(p, rect, cfg, 21))

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_no_preferred_side(self, n):
        """Negating a subset of coordinates (the mean, the covariance's rows
        and columns, and each half-line moved to the other side) negates the
        draws bit for bit at the same seed, and leaves the integrator's
        estimates equal: both work below one mirrored bound per variable,
        whichever side a half-line is on."""
        rng = np.random.default_rng(70 + n)
        cov = random_correlation(rng, n)
        mean = rng.normal(size=(3, n))
        # Half-lines on random sides at thresholds around the mean.
        up = rng.random((3, n)) < 0.5
        t = mean + rng.normal(size=(3, n))
        # Row 2: species 0 confined to [40 sd above its mean, inf), which
        # takes the log-space inverse CDF.
        up[2, 0], t[2, 0] = True, mean[2, 0] + 40.0
        s = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        s[0] = -1.0

        def problem_and_rect(mean, cov, up, t):
            rect = Rectangle(np.where(up, t, -np.inf), np.where(up, np.inf, t))
            return MvnProblem(mean, cov), rect

        given = problem_and_rect(mean, cov, up, t)
        negated = problem_and_rect(mean * s, cov * np.outer(s, s), up ^ (s < 0), t * s)
        cfg = SamplerConfig(n_samples=64, burn_in_sweeps=3, thinning=2)
        draws = sample_truncated(*given, cfg, 21)
        assert np.all(draws[2, :, 0] > t[2, 0])
        np.testing.assert_array_equal(sample_truncated(*negated, cfg, 21), s * draws)
        assert (cdf_rectangles(*negated, [5, 6, 7], tol=1e-3)
                == cdf_rectangles(*given, [5, 6, 7], tol=1e-3))

    def test_far_tail_interval(self):
        # Half-lines 5 sd out on either side of the mean, and 40 and 150 sd
        # out, past ndtr's range, where the inverse CDF is taken in log space.
        from scipy.stats import truncnorm

        p = MvnProblem([0.0], [[1.0]])
        cfg = SamplerConfig(n_samples=20_000, burn_in_sweeps=10, thinning=1)
        for h in (5.0, 40.0, 150.0):
            for lo, hi in ((h, np.inf), (-np.inf, -h)):
                draws = sample_truncated(p, Rectangle([lo], [hi]), cfg, 5)
                assert np.all((draws > lo) & (draws < hi))
                exact = truncnorm(lo, hi).mean()
                assert abs(draws.mean() - exact) <= 4 * batch_se(draws[:, 0])


class TestSamplerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(n_samples=0)
        # One draw is one chain, and a between-chain SE needs two.
        with pytest.raises(ValueError, match="n_samples must be >= 2, got 1"):
            SamplerConfig(n_samples=1)
        with pytest.raises(ValueError):
            SamplerConfig(thinning=0)
        with pytest.raises(ValueError, match="burn_in_sweeps must be .*, got -1"):
            SamplerConfig(burn_in_sweeps=-1)

    def test_fields_are_the_sampling_budget(self):
        # The seed is an argument of each sampling call, not configuration.
        names = [f.name for f in dataclasses.fields(SamplerConfig)]
        assert names == ["n_samples", "burn_in_sweeps", "thinning"]


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
            MvnProblem([0.0, 0.0], np.eye(2), precision=np.eye(2))

    def test_mean_shape_checked(self):
        cov = np.array([[1.0, 0.4], [0.4, 1.0]])
        np.testing.assert_array_equal(MvnProblem(np.ones((3, 2)), cov).mean, np.ones((3, 2)))
        for bad in (np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(DimMismatch):
                MvnProblem(bad, cov)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(2,), (3, 2)], ids=["row", "batch"])
    def test_non_finite_mean_rejected(self, bad, shape):
        # Accepted, such a row would run the integrator's whole budget.
        mean = np.zeros(shape)
        mean.flat[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            MvnProblem(mean, np.eye(2))
