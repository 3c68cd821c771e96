"""Tests for the embedding model: correlation map, forward maps, likelihood."""

import math

import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr

from dmse.dataio import Dataset
from dmse.errors import DimMismatch, ZeroColumn
from dmse.model import (
    FeatureStandardization,
    ModelParams,
    init_model_params,
    log_likelihood,
    mu_forward,
    predict_marginal,
    sigma_from_lambda,
)
from oracles import all_patterns, bvn_orthant, random_correlation


def direct_params(n, lambda_raw):
    """Model with identity extractor and S = W = I, so mu(l) = l exactly."""
    return ModelParams(
        species_names=[f"s{j}" for j in range(n)],
        feature_names=[f"f{j}" for j in range(n)],
        S=np.eye(n),
        Lambda_raw=np.asarray(lambda_raw, dtype=float),
        W=np.eye(n),
        mlp=None,
        standardization=FeatureStandardization.identity(n),
    )


def lambda_for_sigma(sigma, d2=None):
    """Raw interaction matrix whose normalized Gram product equals sigma."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    chol = np.linalg.cholesky(sigma + 1e-14 * np.eye(n))
    lam = chol.T  # columns have unit norm since diag(sigma) = 1
    if d2 is not None and d2 > n:
        lam = np.vstack([lam, np.zeros((d2 - n, n))])
    return lam


class TestSigmaFromLambda:
    def test_equal_columns_give_all_ones(self):
        lam = np.tile(np.array([[0.3], [0.4]]), (1, 3))
        sigma = sigma_from_lambda(lam)
        np.testing.assert_allclose(sigma, 1.0 - 1e-12, atol=2e-12)
        np.testing.assert_array_equal(np.diag(sigma), 1.0)

    def test_orthogonal_columns_give_identity(self):
        sigma = sigma_from_lambda(np.eye(3) * 2.5)
        np.testing.assert_array_equal(sigma, np.eye(3))

    def test_known_pair(self):
        lam = np.array([[1.0, 1.0], [0.0, 1.0]])
        sigma = sigma_from_lambda(lam)
        np.testing.assert_allclose(sigma[0, 1], 1.0 / math.sqrt(2.0), rtol=1e-12)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(4)
        lam = rng.normal(size=(5, 4))
        # Power-of-two scalings divide out exactly in IEEE arithmetic.
        a = sigma_from_lambda(lam)
        b = sigma_from_lambda(lam * np.array([1.0, 2.0, 0.25, 1024.0]))
        np.testing.assert_array_equal(a, b)
        # General positive scalings agree to rounding.
        c = sigma_from_lambda(lam * np.array([1.0, 7.5, 0.01, 3e4]))
        np.testing.assert_allclose(a, c, atol=1e-14)

    def test_unit_diagonal_and_symmetry(self):
        rng = np.random.default_rng(5)
        sigma = sigma_from_lambda(rng.normal(size=(6, 5)))
        np.testing.assert_array_equal(np.diag(sigma), 1.0)
        np.testing.assert_array_equal(sigma, sigma.T)
        assert np.abs(sigma).max() <= 1.0

    def test_zero_column_rejected(self):
        lam = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroColumn):
            sigma_from_lambda(lam)

    def test_lambda_for_sigma_roundtrip(self):
        rng = np.random.default_rng(6)
        target = random_correlation(rng, 4)
        lam = lambda_for_sigma(target)
        np.testing.assert_allclose(sigma_from_lambda(lam), target, atol=1e-9)


class TestMuForward:
    def test_zero_S_gives_zero_mu(self):
        params = init_model_params(["a", "b"], ["x", "y", "z"], d1=4, d2=4,
                                   hidden_dims=(5,), seed=1)
        params.S[:] = 0.0
        mu, _, _ = mu_forward(params, np.array([0.3, -1.0, 2.0]))
        np.testing.assert_array_equal(mu, 0.0)

    def test_zero_W_gives_zero_mu(self):
        params = init_model_params(["a", "b"], ["x", "y"], d1=4, d2=4,
                                   hidden_dims=(5,), seed=2)
        params.W[:] = 0.0
        mu, _, h = mu_forward(params, np.array([0.3, -1.0]))
        np.testing.assert_array_equal(mu, 0.0)
        np.testing.assert_array_equal(h, 0.0)

    def test_matches_compositional_oracle(self):
        from dmse.mlp import mlp_forward

        rng = np.random.default_rng(7)
        params = init_model_params(["a", "b", "c"], ["x", "y"], d1=5, d2=3,
                                   hidden_dims=(6, 4), seed=3)
        l = rng.normal(size=2)
        mu, tape, h = mu_forward(params, l)
        out, _ = mlp_forward(params.mlp, l)
        h_oracle = params.W @ out
        mu_oracle = np.array([params.S[:, j] @ h_oracle for j in range(3)])
        np.testing.assert_allclose(h, h_oracle, atol=1e-12)
        np.testing.assert_allclose(mu, mu_oracle, atol=1e-12)

    def test_identity_extractor(self):
        params = direct_params(2, np.eye(2))
        l = np.array([0.7, -0.2])
        mu, tape, h = mu_forward(params, l)
        assert tape is None
        np.testing.assert_array_equal(mu, l)

    def test_dim_mismatch(self):
        params = direct_params(2, np.eye(2))
        with pytest.raises(DimMismatch):
            mu_forward(params, np.array([1.0, 2.0, 3.0]))


class TestPredictMarginal:
    def test_zero_mu_gives_half(self):
        params = direct_params(2, np.eye(2))
        np.testing.assert_allclose(predict_marginal(params, np.zeros(2)), 0.5, atol=1e-15)

    def test_quantile_value(self):
        params = direct_params(1, np.eye(1))
        p = predict_marginal(params, np.array([1.96]))
        np.testing.assert_allclose(p, [0.9750021048517795], rtol=1e-10)

    def test_large_negative_limit(self):
        params = direct_params(1, np.eye(1))
        assert predict_marginal(params, np.array([-40.0]))[0] == 0.0

    def test_independent_of_lambda(self):
        rng = np.random.default_rng(8)
        l = rng.normal(size=3)
        a = direct_params(3, np.eye(3))
        b = direct_params(3, rng.normal(size=(3, 3)))
        np.testing.assert_array_equal(predict_marginal(a, l), predict_marginal(b, l))


class TestLogLikelihoodObs:
    def test_independent_fair_coins(self):
        params = direct_params(2, np.eye(2))
        ll = log_likelihood(params, [[1, 1]], [[0.0, 0.0]], tol=1e-7, seed=1)
        np.testing.assert_allclose(ll, math.log(0.25), atol=1e-6)

    def test_independent_factorization(self):
        rng = np.random.default_rng(9)
        params = direct_params(3, np.eye(3))
        for trial in range(4):
            mu = rng.normal(size=3)
            b = rng.integers(0, 2, 3)
            ll = log_likelihood(params, [b], [mu], tol=1e-7, seed=trial)
            exact = float(np.sum(log_ndtr((2.0 * b - 1.0) * mu)))
            np.testing.assert_allclose(ll, exact, atol=1e-5)

    def test_correlated_orthant(self):
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        params = direct_params(2, lambda_for_sigma(sigma))
        ll = log_likelihood(params, [[1, 1]], [[0.0, 0.0]], tol=1e-7, seed=2)
        np.testing.assert_allclose(ll, math.log(1.0 / 3.0), atol=1e-6)


class TestLogLikelihoodDataset:
    def test_empty_dataset_is_zero(self):
        params = direct_params(2, np.eye(2))
        empty = Dataset(np.zeros((0, 2)), np.zeros((0, 2)), ["s0", "s1"], ["f0", "f1"])
        assert log_likelihood(params, empty.presence, empty.features) == 0.0

    def test_rows_are_single_row_calls_at_xor_seeds(self):
        sigma = np.array([[1.0, -0.3], [-0.3, 1.0]])
        params = direct_params(2, lambda_for_sigma(sigma))
        b, l = [[0, 1], [1, 1]], [[0.2, -0.5], [-0.4, 0.9]]
        total = log_likelihood(params, b, l, tol=1e-5, seed=5)
        row0 = log_likelihood(params, b[:1], l[:1], tol=1e-5, seed=5)
        row1 = log_likelihood(params, b[1:], l[1:], tol=1e-5, seed=5 ^ 1)
        np.testing.assert_allclose(total, row0 + row1, rtol=1e-12)

    @pytest.mark.parametrize("b, l", [
        ([[0, 1, 1]], [[0.2, -0.5]]),  # presence wider than the species count
        ([[0, 1]], [[0.2, -0.5], [0.1, 0.3]]),  # row counts disagree
        ([0, 1], [[0.2, -0.5]]),  # presence not a matrix
    ])
    def test_shape_mismatch_rejected(self, b, l):
        params = direct_params(2, np.eye(2))
        with pytest.raises(DimMismatch):
            log_likelihood(params, b, l)

    def test_additivity_independent_case(self):
        params = direct_params(2, np.eye(2))
        data = Dataset([[1, 0], [0, 0]], [[0.3, 0.3], [-0.2, 1.0]], ["s0", "s1"], ["f0", "f1"])
        total = log_likelihood(params, data.presence, data.features, tol=1e-7, seed=0)
        exact = (
            log_ndtr(0.3) + log_ndtr(-0.3) + log_ndtr(0.2) + log_ndtr(-1.0)
        )
        np.testing.assert_allclose(total, float(exact), atol=2e-5)


class TestJointDistributionProperties:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pattern_sums_recover_marginals(self, n):
        """Summing joint probabilities over patterns with species j present
        must reproduce the probit marginal regardless of the correlations."""
        rng = np.random.default_rng(40 + n)
        sigma = random_correlation(rng, n)
        params = direct_params(n, lambda_for_sigma(sigma))
        mu = rng.normal(size=n) * 0.8
        # Per-pattern relative 1e-5 keeps the summed error well inside 1e-4.
        obs_ll = {}
        for k, pattern in enumerate(all_patterns(n)):
            obs_ll[tuple(pattern)] = math.exp(
                log_likelihood(params, [pattern], [mu], tol=1e-5, seed=k)
            )
        for j in range(n):
            marginal = sum(p for bits, p in obs_ll.items() if bits[j] == 1)
            np.testing.assert_allclose(marginal, ndtr(mu[j]), atol=1e-4)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pattern_probabilities_normalize(self, n):
        rng = np.random.default_rng(50 + n)
        sigma = random_correlation(rng, n)
        params = direct_params(n, lambda_for_sigma(sigma))
        mu = rng.normal(size=n) * 0.5
        tol = 1e-6 if n <= 3 else 1e-5
        total = sum(
            math.exp(log_likelihood(params, [p], [mu], tol=tol, seed=k))
            for k, p in enumerate(all_patterns(n))
        )
        assert abs(total - 1.0) <= 4 * tol * 2**n

    def test_marginal_unchanged_by_correlation(self):
        """Presence marginals are independent of the off-diagonal entries."""
        rng = np.random.default_rng(60)
        mu = rng.normal(size=2)
        p_indep = predict_marginal(direct_params(2, np.eye(2)), mu)
        for rho in (-0.7, 0.3, 0.9):
            sigma = np.array([[1.0, rho], [rho, 1.0]])
            p_corr = predict_marginal(direct_params(2, lambda_for_sigma(sigma)), mu)
            np.testing.assert_array_equal(p_indep, p_corr)
        # And through the joint: brute-force marginal at rho=0.6 equals Phi(mu).
        sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
        params = direct_params(2, lambda_for_sigma(sigma))
        total = sum(
            math.exp(log_likelihood(params, [p], [mu], tol=1e-7, seed=k))
            for k, p in enumerate(all_patterns(2))
            if p[0] == 1
        )
        np.testing.assert_allclose(total, ndtr(mu[0]), atol=1e-5)

    def test_independence_factorization(self):
        rng = np.random.default_rng(70)
        params = direct_params(3, np.eye(3) * 4.0)
        mu = rng.normal(size=3)
        b = np.array([1, 0, 1], dtype=np.int8)
        joint = math.exp(log_likelihood(params, [b], [mu], tol=1e-6, seed=1))
        product = float(np.prod(ndtr((2.0 * b - 1.0) * mu)))
        np.testing.assert_allclose(joint, product, atol=1e-6)

    def test_correlated_orthant_example(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        params = direct_params(2, lambda_for_sigma(sigma))
        prob = math.exp(
            log_likelihood(params, [[1, 1]], [[0.0, 0.0]], tol=1e-7, seed=3)
        )
        np.testing.assert_allclose(prob, bvn_orthant(0.9), atol=1e-6)


class TestInitModelParams:
    def test_deterministic(self):
        a = init_model_params(["a"], ["x", "y"], d1=6, d2=6, hidden_dims=(4,), seed=9)
        b = init_model_params(["a"], ["x", "y"], d1=6, d2=6, hidden_dims=(4,), seed=9)
        np.testing.assert_array_equal(a.S, b.S)
        np.testing.assert_array_equal(a.Lambda_raw, b.Lambda_raw)
        np.testing.assert_array_equal(a.W, b.W)

    def test_no_mlp_requires_square_W(self):
        params = init_model_params(["a", "b"], ["x", "y", "z"], d1=4, d2=4,
                                   hidden_dims=(), seed=0)
        assert params.mlp is None
        assert params.W.shape == (4, 3)

    def test_validate_rejects_inconsistent(self):
        params = init_model_params(["a", "b"], ["x"], d1=3, d2=3, hidden_dims=(4,), seed=0)
        params.S = np.zeros((3, 5))
        with pytest.raises(DimMismatch):
            params.validate()
