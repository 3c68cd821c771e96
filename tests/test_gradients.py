"""Tests for the Monte-Carlo gradient estimators and chain-rule assembly.

The oracle throughout is central finite differences of the log
rectangle-probability computed by the lattice integrator, which shares no
machinery with the Gibbs-sampling gradient path. FD tolerances combine
three Monte-Carlo standard errors with the oracle's own noise floor
(integration tolerance / step size).
"""

import math

import numpy as np
from scipy.special import ndtr

from dmse.gradients import (
    GradientBundle,
    assemble_bundle,
    grad_mu_sigma,
    lambda_grad_from_sigma,
    score_F,
    score_G,
)
from dmse.model import (
    FeatureStandardization,
    ModelParams,
    log_likelihood,
    mu_forward,
    sigma_from_lambda,
)
from dmse.mlp import mlp_init
from dmse.mvn import MvnProblem, Rectangle, SamplerConfig, cdf_rectangle
from oracles import random_correlation


def log_cdf(mean, cov, rect, tol=1e-7, seed=0):
    est = cdf_rectangle(MvnProblem(mean, cov), rect, tol=tol, seed=seed)
    return math.log(max(est.value, 1e-300))


def fd_logp_mu(mean, cov, rect, h=1e-4, tol=1e-7):
    n = len(mean)
    out = np.empty(n)
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        up = log_cdf(mean + e, cov, rect, tol, seed=1000 + j)
        dn = log_cdf(mean - e, cov, rect, tol, seed=2000 + j)
        out[j] = (up - dn) / (2 * h)
    return out


def fd_logp_sigma(mean, cov, rect, h=1e-4, tol=1e-7):
    """FD matrix comparable to the covariance score.

    Off-diagonal entries perturb the symmetric pair, so the finite
    difference equals twice the per-entry derivative and is halved here;
    the diagonal perturbs a single entry.
    """
    n = len(mean)
    out = np.empty((n, n))
    for j in range(n):
        for t in range(j, n):
            pert = np.zeros((n, n))
            pert[j, t] = h
            pert[t, j] = h  # same cell when j == t: step is h, not 2h
            up = log_cdf(mean, cov + pert, rect, tol, seed=3000 + 10 * j + t)
            dn = log_cdf(mean, cov - pert, rect, tol, seed=4000 + 10 * j + t)
            fd = (up - dn) / (2 * h)
            if j == t:
                out[j, j] = fd
            else:
                # Symmetric pair: the step moves two entries, each with the
                # same per-entry derivative.
                out[j, t] = out[t, j] = fd / 2.0
    return out


def fd_noise(h, tol):
    """Worst-case FD oracle error: integration noise plus truncation."""
    return 2.0 * tol / h + 10.0 * h * h


class TestScoreFunctions:
    def test_F_identity_covariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=3)
        np.testing.assert_allclose(score_F(np.eye(3), np.zeros(3), x), x, atol=1e-15)

    def test_F_at_mean_is_zero(self):
        mu = np.array([0.3, -0.7])
        np.testing.assert_array_equal(score_F(np.eye(2), mu, mu), 0.0)

    def test_F_diagonal_example(self):
        sigma_inv = np.diag([0.25, 1.0])  # inverse of diag(4, 1)
        out = score_F(sigma_inv, np.zeros(2), np.array([2.0, 3.0]))
        np.testing.assert_allclose(out, [0.5, 3.0], atol=1e-15)

    def test_G_at_center(self):
        out = score_G(np.eye(2), np.zeros(2), np.zeros(2))
        np.testing.assert_allclose(out, -0.5 * np.eye(2), atol=1e-15)

    def test_G_unit_vector(self):
        e1 = np.array([1.0, 0.0])
        out = score_G(np.eye(2), np.zeros(2), e1)
        np.testing.assert_allclose(out, -0.5 * (np.eye(2) - np.outer(e1, e1)), atol=1e-15)

    def test_G_matches_logpdf_finite_differences(self):
        """G must be the entrywise derivative of the log-density in Sigma."""
        rng = np.random.default_rng(2)
        cov = random_correlation(rng, 3)
        mu = rng.normal(size=3)
        x = rng.normal(size=3)
        g = score_G(np.linalg.inv(cov), mu, x)

        def logpdf(sigma):
            d = x - mu
            return float(
                -1.5 * math.log(2 * math.pi)
                - 0.5 * math.log(np.linalg.det(sigma))
                - 0.5 * d @ np.linalg.inv(sigma) @ d
            )

        h = 1e-6
        for j in range(3):
            for t in range(3):
                pert = np.zeros((3, 3))
                pert[j, t] = h
                fd = (logpdf(cov + pert) - logpdf(cov - pert)) / (2 * h)
                np.testing.assert_allclose(g[j, t], fd, rtol=1e-6, atol=1e-9)


class TestGradMuSigma:
    def test_univariate_presence_closed_form(self):
        """d/dmu log Phi(mu) at 0 is phi(0)/Phi(0) = 2 phi(0)."""
        p = MvnProblem([0.0], [[1.0]])
        cfg = SamplerConfig(n_samples=100_000, burn_in_sweeps=50, thinning=1, rng_seed=3)
        out = grad_mu_sigma(p, Rectangle.from_presence([1]), cfg)
        exact = 2.0 / math.sqrt(2 * math.pi)
        assert abs(out.d_mu[0] - exact) <= 3 * out.se_mu[0]

    def test_univariate_absence_sign_flip(self):
        p = MvnProblem([0.0], [[1.0]])
        cfg = SamplerConfig(n_samples=100_000, burn_in_sweeps=50, thinning=1, rng_seed=4)
        out = grad_mu_sigma(p, Rectangle.from_presence([0]), cfg)
        exact = -2.0 / math.sqrt(2 * math.pi)
        assert abs(out.d_mu[0] - exact) <= 3 * out.se_mu[0]

    def test_univariate_nonzero_mean(self):
        mu = 0.7
        p = MvnProblem([mu], [[1.0]])
        cfg = SamplerConfig(n_samples=100_000, burn_in_sweeps=50, thinning=1, rng_seed=5)
        out = grad_mu_sigma(p, Rectangle.from_presence([1]), cfg)
        phi = math.exp(-0.5 * mu * mu) / math.sqrt(2 * math.pi)
        exact = phi / ndtr(mu)
        assert abs(out.d_mu[0] - exact) <= 3 * out.se_mu[0]

    def test_bivariate_matches_fd_oracle(self):
        mean = np.array([0.2, -0.3])
        cov = np.array([[1.0, 0.4], [0.4, 1.0]])
        rect = Rectangle.from_presence([1, 0])
        p = MvnProblem(mean, cov)
        cfg = SamplerConfig(n_samples=100_000, burn_in_sweeps=50, thinning=1, rng_seed=6)
        out = grad_mu_sigma(p, rect, cfg)
        h, tol = 1e-4, 1e-7
        fd_mu = fd_logp_mu(mean, cov, rect, h, tol)
        fd_sigma = fd_logp_sigma(mean, cov, rect, h, tol)
        allowance = fd_noise(h, tol)
        np.testing.assert_array_less(
            np.abs(out.d_mu - fd_mu), 3 * out.se_mu + allowance
        )
        # Off-diagonal covariance gradient; the diagonal is checked too
        # since the FD perturbs variances directly.
        np.testing.assert_array_less(
            np.abs(out.d_sigma - fd_sigma), 3 * out.se_sigma + allowance
        )

    def test_reported_se_is_calibrated(self):
        """Replicate std of the estimator should match the batch-means SE."""
        mean = np.array([0.1, -0.2])
        cov = np.array([[1.0, 0.5], [0.5, 1.0]])
        rect = Rectangle.from_presence([1, 1])
        p = MvnProblem(mean, cov)
        reps = []
        ses = []
        for r in range(40):
            cfg = SamplerConfig(n_samples=2000, burn_in_sweeps=30, thinning=1, rng_seed=100 + r)
            out = grad_mu_sigma(p, rect, cfg)
            reps.append(out.d_mu)
            ses.append(out.se_mu)
        empirical = np.std(np.array(reps), axis=0, ddof=1)
        reported = np.mean(np.array(ses), axis=0)
        ratio = empirical / reported
        assert np.all(ratio > 0.5) and np.all(ratio < 2.0)

    def test_se_scales_like_inverse_sqrt_m(self):
        """Quadrupling the sample count halves the replicate SE (within 20%)."""
        mean = np.array([0.2, -0.3])
        cov = np.array([[1.0, 0.4], [0.4, 1.0]])
        rect = Rectangle.from_presence([1, 0])
        p = MvnProblem(mean, cov)

        def replicate_std(m, base_seed):
            reps = []
            for r in range(50):
                cfg = SamplerConfig(
                    n_samples=m, burn_in_sweeps=30, thinning=1, rng_seed=base_seed + r
                )
                reps.append(grad_mu_sigma(p, rect, cfg).d_mu)
            return np.std(np.array(reps), axis=0, ddof=1)

        s1 = replicate_std(800, 10_000)
        s4 = replicate_std(3200, 20_000)
        ratio = s4 / s1
        assert np.all(ratio > 0.5 * 0.8)
        assert np.all(ratio < 0.5 * 1.2)

    def test_deterministic_given_seed(self):
        p = MvnProblem([0.0, 0.0], np.array([[1.0, 0.3], [0.3, 1.0]]))
        cfg = SamplerConfig(n_samples=500, burn_in_sweeps=20, thinning=2, rng_seed=9)
        a = grad_mu_sigma(p, Rectangle.from_presence([1, 1]), cfg)
        b = grad_mu_sigma(p, Rectangle.from_presence([1, 1]), cfg)
        np.testing.assert_array_equal(a.d_mu, b.d_mu)
        np.testing.assert_array_equal(a.d_sigma, b.d_sigma)

    def test_d_sigma_exactly_symmetric(self):
        rng = np.random.default_rng(11)
        cov = random_correlation(rng, 3)
        p = MvnProblem(rng.normal(size=3), cov)
        cfg = SamplerConfig(n_samples=1000, burn_in_sweeps=20, thinning=1, rng_seed=12)
        out = grad_mu_sigma(p, Rectangle.from_presence([1, 0, 1]), cfg)
        np.testing.assert_array_equal(out.d_sigma, out.d_sigma.T)

    def test_offdiagonal_gradient_vanishes_at_truth(self):
        """With independent data generated at the model's own parameters,
        the averaged covariance gradient's off-diagonal is zero (score
        identity at the maximizer)."""
        mu = np.array([0.3, -0.4])
        marginals = ndtr(mu)
        rng = np.random.default_rng(21)
        n_obs = 300
        p = MvnProblem(mu, np.eye(2))
        vals = []
        for i in range(n_obs):
            b = (rng.random(2) < marginals).astype(int)
            cfg = SamplerConfig(n_samples=400, burn_in_sweeps=20, thinning=1, rng_seed=500 + i)
            vals.append(grad_mu_sigma(p, Rectangle.from_presence(b), cfg).d_sigma[0, 1])
        vals = np.array(vals)
        se = vals.std(ddof=1) / math.sqrt(n_obs)
        assert abs(vals.mean()) <= 3 * se


class TestLambdaBackprop:
    def test_tangency(self):
        rng = np.random.default_rng(30)
        lam = rng.normal(size=(4, 3))
        d_sigma = rng.normal(size=(3, 3))
        d_sigma = 0.5 * (d_sigma + d_sigma.T)
        grad = lambda_grad_from_sigma(lam, d_sigma)
        lhat = lam / np.linalg.norm(lam, axis=0)
        for j in range(3):
            assert abs(grad[:, j] @ lhat[:, j]) <= 1e-10

    def test_matches_finite_differences_through_normalization(self):
        """FD of <probe, sigma_from_lambda(raw)> against the analytic map."""
        rng = np.random.default_rng(31)
        lam = rng.normal(size=(4, 3))
        probe = rng.normal(size=(3, 3))
        probe = 0.5 * (probe + probe.T)
        np.fill_diagonal(probe, 0.0)  # diagonal direction is infeasible

        def objective(raw):
            return float(np.sum(probe * sigma_from_lambda(raw)))

        grad = lambda_grad_from_sigma(lam, probe)
        h = 1e-6
        fd = np.zeros_like(lam)
        for i in range(lam.shape[0]):
            for j in range(lam.shape[1]):
                up = lam.copy()
                up[i, j] += h
                dn = lam.copy()
                dn[i, j] -= h
                fd[i, j] = (objective(up) - objective(dn)) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-8)

    def test_diagonal_of_d_sigma_is_ignored(self):
        rng = np.random.default_rng(32)
        lam = rng.normal(size=(4, 3))
        off = rng.normal(size=(3, 3))
        off = 0.5 * (off + off.T)
        np.fill_diagonal(off, 0.0)
        with_diag = off + np.diag(rng.normal(size=3))
        np.testing.assert_array_equal(
            lambda_grad_from_sigma(lam, off), lambda_grad_from_sigma(lam, with_diag)
        )


def tiny_model(seed=0, hidden=(3,)):
    params = ModelParams(
        species_names=["a", "b"],
        feature_names=["x", "y"],
        S=np.random.default_rng(seed).normal(size=(2, 2)) * 0.6,
        Lambda_raw=np.random.default_rng(seed + 1).normal(size=(2, 2)),
        W=np.random.default_rng(seed + 2).normal(size=(2, len(hidden) and hidden[-1] or 2)) * 0.6,
        mlp=mlp_init((2,) + tuple(hidden), seed + 3) if hidden else None,
        standardization=FeatureStandardization.identity(2),
    )
    params.validate()
    return params


class TestAssembleBundle:
    def test_zero_musig_gives_zero_bundle(self):
        from dmse.gradients import MuSigmaGrad

        params = tiny_model()
        l = np.array([0.2, -0.5])
        _, tape, h = mu_forward(params, l)
        musig = MuSigmaGrad(np.zeros(2), np.zeros((2, 2)), np.zeros(2), np.zeros((2, 2)))
        bundle = assemble_bundle(params, l, musig, tape, h)
        np.testing.assert_array_equal(bundle.d_S, 0.0)
        np.testing.assert_array_equal(bundle.d_Lambda_raw, 0.0)
        np.testing.assert_array_equal(bundle.d_W, 0.0)
        for g in bundle.d_mlp.weights + bundle.d_mlp.biases:
            np.testing.assert_array_equal(g, 0.0)

    def test_batch_is_mean_of_single_rows(self):
        from dmse.gradients import MuSigmaGrad

        params = tiny_model(seed=4)
        rng = np.random.default_rng(40)
        rows = [(rng.integers(0, 2, 2), rng.normal(size=2)) for _ in range(5)]
        d_mu = rng.normal(size=(5, 2))
        d_sigma = rng.normal(size=(5, 2, 2))
        d_sigma = d_sigma + np.swapaxes(d_sigma, 1, 2)
        singles = []
        for i, (_, l) in enumerate(rows):
            _, tape, h = mu_forward(params, l)
            musig = MuSigmaGrad(d_mu[i], d_sigma[i], np.zeros(2), np.zeros((2, 2)))
            singles.append(assemble_bundle(params, l, musig, tape, h))
        stacked = np.array([l for _, l in rows])
        _, tape, h = mu_forward(params, stacked)
        musig = MuSigmaGrad(d_mu, d_sigma, np.zeros((5, 2)), np.zeros((5, 2, 2)))
        batch = assemble_bundle(params, stacked, musig, tape, h)
        assert batch.n_obs == 5

        def tensors(b):
            return [b.d_S, b.d_Lambda_raw, b.d_W] + b.d_mlp.weights + b.d_mlp.biases

        for got, *parts in zip(tensors(batch), *map(tensors, singles)):
            np.testing.assert_allclose(got, np.mean(parts, axis=0), rtol=0, atol=1e-12)

    def test_raw_column_scale_does_not_change_loglik(self):
        params = tiny_model(seed=5)
        b, l = [1, 1], [0.3, 0.1]
        base = log_likelihood(params, [b], [l], tol=1e-7, seed=1)
        params.Lambda_raw[:, 0] *= 4.0  # power of two: exact normalization
        rescaled = log_likelihood(params, [b], [l], tol=1e-7, seed=1)
        assert base == rescaled

    def test_end_to_end_matches_finite_differences(self):
        """Every parameter gradient of the log-likelihood against central
        FD of the integrated probability, on a tiny model."""
        params = tiny_model(seed=8)
        b, l = np.array([1, 0]), np.array([0.4, -0.7])
        fd_tol, fd_h = 1e-8, 1e-3

        def loglik():
            return log_likelihood(params, [b], [l], tol=fd_tol, seed=77)

        # Replicated bundles give the estimate and an honest empirical SE.
        mu, tape, h = mu_forward(params, l)
        sigma = sigma_from_lambda(params.Lambda_raw)
        problem = MvnProblem(mu, sigma)
        rect = Rectangle.from_presence(b)
        reps = []
        for r in range(12):
            cfg = SamplerConfig(n_samples=8000, burn_in_sweeps=30, thinning=1,
                                rng_seed=900 + r)
            musig = grad_mu_sigma(problem, rect, cfg)
            reps.append(assemble_bundle(params, l, musig, tape, h))

        def flatten(bundle):
            parts = [bundle.d_S.ravel(), bundle.d_Lambda_raw.ravel(), bundle.d_W.ravel()]
            parts += [g.ravel() for g in bundle.d_mlp.weights]
            parts += [g.ravel() for g in bundle.d_mlp.biases]
            return np.concatenate(parts)

        flat = np.array([flatten(b) for b in reps])
        est = flat.mean(axis=0)
        se = flat.std(axis=0, ddof=1) / math.sqrt(len(reps))

        tensors = [params.S, params.Lambda_raw, params.W]
        tensors += params.mlp.weights + params.mlp.biases
        fd = []
        for tensor in tensors:
            view = tensor.reshape(-1)
            for i in range(view.shape[0]):
                orig = view[i]
                view[i] = orig + fd_h
                up = loglik()
                view[i] = orig - fd_h
                dn = loglik()
                view[i] = orig
                fd.append((up - dn) / (2 * fd_h))
        fd = np.array(fd)
        allowance = fd_noise(fd_h, fd_tol)
        bad = np.abs(est - fd) > 3 * se + allowance
        assert not bad.any(), (
            f"{bad.sum()} of {bad.size} parameter gradients off: "
            f"max dev {np.abs(est - fd).max():.3e}"
        )


class TestGradientBundle:
    def test_is_finite_detects_nan(self):
        params = tiny_model(seed=3)
        b = GradientBundle.zeros_like(params)
        assert b.is_finite()
        b.d_W[0, 0] = np.nan
        assert not b.is_finite()
