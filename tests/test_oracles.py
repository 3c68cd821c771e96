"""Self-checks of the test oracles against closed forms.

The quadrature, equicorrelation and rejection oracles pin expected values
elsewhere in the suite, so they are validated here against independently
known results before anything trusts them.
"""

import math

import numpy as np
from scipy.special import log_ndtr, ndtr

from oracles import bvn_orthant, equicorrelated_log_prob, quadrature_rectangle, rejection_truncated


class TestQuadratureOracle:
    def test_univariate_matches_phi(self):
        v = quadrature_rectangle([0.3], [[2.0]], [-1.0], [2.0])
        s = math.sqrt(2.0)
        exact = ndtr((2.0 - 0.3) / s) - ndtr((-1.0 - 0.3) / s)
        np.testing.assert_allclose(v, exact, atol=1e-12)

    def test_bivariate_orthant_matches_arcsin_formula(self):
        for rho in (-0.9, -0.5, 0.0, 0.5, 0.9):
            cov = np.array([[1.0, rho], [rho, 1.0]])
            v = quadrature_rectangle([0.0, 0.0], cov, [0.0, 0.0], [np.inf, np.inf])
            np.testing.assert_allclose(v, bvn_orthant(rho), atol=1e-10)

    def test_trivariate_independent_factorizes(self):
        mean = np.array([0.1, -0.2, 0.4])
        v = quadrature_rectangle(mean, np.eye(3), [0.0, -np.inf, 0.0], [np.inf, 0.0, 1.0])
        exact = ndtr(0.1) * ndtr(0.2) * (ndtr(1.0 - 0.4) - ndtr(-0.4))
        np.testing.assert_allclose(v, exact, atol=1e-10)

    def test_full_space_is_one(self):
        cov = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]])
        v = quadrature_rectangle(
            [0.0, 0.0, 0.0], cov, [-np.inf] * 3, [np.inf] * 3
        )
        np.testing.assert_allclose(v, 1.0, atol=1e-10)


class TestEquicorrelationOracle:
    def test_one_species_matches_log_ndtr(self):
        # At mu = +-9 the smaller probability is below 1e-18, where
        # 1 - Phi(9) no longer differs from 0 in floating point.
        assert log_ndtr(-9.0) < math.log(1e-18)
        for rho in (0.0, 0.5, 0.9):
            for mu in (-9.0, -3.0, 0.0, 3.0, 9.0):
                for bit in (0, 1):
                    got = equicorrelated_log_prob([mu], [bit], rho)
                    want = log_ndtr((2 * bit - 1) * mu)
                    assert abs(got - want) <= 1e-13, (rho, mu, bit)

    def test_two_species_orthant_matches_arcsin_formula(self):
        for rho in (0.0, 0.3, 0.5, 0.9):
            both = equicorrelated_log_prob([0.0, 0.0], [1, 1], rho)
            one = equicorrelated_log_prob([0.0, 0.0], [1, 0], rho)
            np.testing.assert_allclose(math.exp(both), bvn_orthant(rho), rtol=1e-13)
            np.testing.assert_allclose(math.exp(one), 0.5 - bvn_orthant(rho), rtol=1e-13)


class TestRejectionOracle:
    def test_halfline_mean_matches_closed_form(self):
        draws = rejection_truncated([0.0], [[1.0]], [0.0], [np.inf], 200_000, seed=5)
        # E[X | X > 0] = sqrt(2/pi) for a standard normal.
        np.testing.assert_allclose(
            draws.mean(), math.sqrt(2.0 / math.pi), atol=4 * draws.std() / math.sqrt(len(draws))
        )

    def test_orthant_acceptance_matches_arcsin_formula(self):
        rho = 0.6
        cov = np.array([[1.0, rho], [rho, 1.0]])
        rng = np.random.default_rng(11)
        chol = np.linalg.cholesky(cov)
        draws = rng.standard_normal((400_000, 2)) @ chol.T
        frac = np.mean(np.all(draws > 0, axis=1))
        p = bvn_orthant(rho)
        np.testing.assert_allclose(frac, p, atol=4 * math.sqrt(p * (1 - p) / 400_000))
