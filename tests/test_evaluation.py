"""Tests for AUC and the model evaluation report."""

import logging

import numpy as np
import pytest
from scipy.special import log_ndtr

from dmse import evaluation, model, mvn
from dmse.dataio import Dataset
from dmse.errors import DegenerateLabels, DimMismatch
from dmse.evaluation import auc, evaluate
from dmse.model import FeatureStandardization, ModelParams, joint_estimates, log_likelihood
from dmse.seeding import derive_seed


def truth_model(coef, sigma, d2_pad=0):
    """Exact model for data generated with mu = coef @ l and the given
    correlations: identity extractor, W = I, S = coef^T."""
    n, m = coef.shape
    chol = np.linalg.cholesky(sigma + 1e-14 * np.eye(n))
    lam = chol.T
    if d2_pad:
        lam = np.vstack([lam, np.zeros((d2_pad, n))])
    return ModelParams(
        species_names=[f"s{j}" for j in range(n)],
        feature_names=[f"f{j}" for j in range(m)],
        S=coef.T.copy(),
        Lambda_raw=lam,
        W=np.eye(m),
        mlp=None,
        standardization=FeatureStandardization.identity(m),
    )


def generate(coef, sigma, n_obs, seed):
    n, m = coef.shape
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-1.0, 1.0, size=(n_obs, m))
    mu = feats @ coef.T
    latent = mu + rng.standard_normal((n_obs, n)) @ np.linalg.cholesky(sigma).T
    bits = (latent > 0).astype(np.int8)
    return Dataset(
        bits,
        feats,
        [f"s{j}" for j in range(n)],
        [f"f{j}" for j in range(m)],
    )


class TestAuc:
    def test_pair_counting_example(self):
        assert auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75

    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_matches_brute_force_pair_counting(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            scores = np.round(rng.normal(size=30), 1)  # rounding forces ties
            labels = rng.integers(0, 2, 30)
            if labels.min() == labels.max():
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum((p > q) + 0.5 * (p == q) for p in pos for q in neg)
            np.testing.assert_allclose(auc(scores, labels), wins / (len(pos) * len(neg)))

    def test_degenerate_labels_raise(self):
        with pytest.raises(DegenerateLabels):
            auc([0.1, 0.2], [1, 1])
        with pytest.raises(DegenerateLabels):
            auc([0.1, 0.2], [0, 0])

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50)
        labels = rng.integers(0, 2, 50)
        base = auc(scores, labels)
        assert auc(np.exp(scores), labels) == base
        assert auc(scores * 10.0 + 3.0, labels) == base


class TestEvaluate:
    def test_identity_sigma_closes_the_gap(self):
        rng = np.random.default_rng(3)
        coef = rng.normal(size=(2, 2))
        params = truth_model(coef, np.eye(2))
        data = generate(coef, np.eye(2), 300, seed=4)
        report = evaluate(params, data, cdf_tol=1e-6, seed=5)
        np.testing.assert_allclose(report.joint_loglik, report.independent_loglik, atol=1e-8)

    def test_correlated_truth_beats_independent(self):
        rng = np.random.default_rng(6)
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        coef = rng.normal(size=(2, 2))
        params = truth_model(coef, sigma)
        data = generate(coef, sigma, 1000, seed=7)
        report = evaluate(params, data, cdf_tol=1e-5, seed=8)
        assert report.joint_loglik > report.independent_loglik
        # Per-observation gap is macroscopic for rho = 0.8.
        assert (report.joint_loglik - report.independent_loglik) / report.n_obs > 0.02

    @pytest.mark.parametrize("n", [2, 3])
    def test_expected_gap_positive_on_synthetic(self, n):
        rng = np.random.default_rng(10 + n)
        sigma = np.full((n, n), 0.6)
        np.fill_diagonal(sigma, 1.0)
        coef = rng.normal(size=(n, 2))
        params = truth_model(coef, sigma)
        data = generate(coef, sigma, 5000, seed=11)
        report = evaluate(params, data, cdf_tol=1e-4, seed=12)
        assert report.joint_loglik > report.independent_loglik

    def test_independent_baseline_ignores_correlations(self):
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        params = truth_model(np.eye(2), sigma)
        data = Dataset([[1, 1]], [[0.1, 0.2]], ["s0", "s1"], ["f0", "f1"])
        indep = evaluate(params, data).independent_loglik
        exact = float(log_ndtr(0.1) + log_ndtr(0.2))
        np.testing.assert_allclose(indep, exact, rtol=1e-12)

    def test_single_class_species_reported_absent(self):
        rng = np.random.default_rng(13)
        coef = rng.normal(size=(2, 2))
        params = truth_model(coef, np.eye(2))
        data = generate(coef, np.eye(2), 50, seed=14)
        # Force species s1 to be always absent.
        forced = Dataset(
            np.column_stack([data.presence[:, 0], np.zeros(len(data), dtype=np.int8)]),
            data.features,
            data.species_names,
            data.feature_names,
        )
        report = evaluate(params, forced, cdf_tol=1e-4, seed=15)
        assert report.per_species_auc["s1"] is None
        assert report.per_species_auc["s0"] is not None

    def test_auc_identical_under_any_correlations(self):
        rng = np.random.default_rng(16)
        coef = rng.normal(size=(2, 3))
        sigma = np.array([[1.0, 0.7], [0.7, 1.0]])
        data = generate(coef, sigma, 400, seed=17)
        with_truth = evaluate(truth_model(coef, sigma), data, cdf_tol=1e-4, seed=18)
        with_identity = evaluate(truth_model(coef, np.eye(2)), data, cdf_tol=1e-4, seed=18)
        assert with_truth.per_species_auc == with_identity.per_species_auc

    def test_empty_dataset_rejected(self):
        params = truth_model(np.ones((2, 2)), np.eye(2))
        empty = Dataset(np.zeros((0, 2)), np.zeros((0, 2)), params.species_names,
                        params.feature_names)
        with pytest.raises(DimMismatch):
            evaluate(params, empty)

    def test_schema_mismatch_names_missing_species(self):
        rng = np.random.default_rng(19)
        coef = rng.normal(size=(2, 2))
        params = truth_model(coef, np.eye(2))
        data = generate(coef, np.eye(2), 20, seed=20)
        renamed = Dataset(data.presence, data.features, ["s0", "other"], data.feature_names)
        with pytest.raises(DimMismatch) as err:
            evaluate(params, renamed, cdf_tol=1e-4, seed=21)
        assert "s1" in str(err.value)

    def test_report_serialization(self, tmp_path):
        rng = np.random.default_rng(22)
        coef = rng.normal(size=(2, 2))
        params = truth_model(coef, np.eye(2))
        data = generate(coef, np.eye(2), 60, seed=23)
        report = evaluate(params, data, cdf_tol=1e-4, seed=24)
        text = report.to_text()
        assert "joint_loglik" in text and "mean_auc" in text
        assert f"tol_misses = {report.tol_misses}\n" in text
        assert f"max_rel_err = {report.max_rel_err!r}\n" in text
        assert f"samples_used = {report.samples_used}\n" in text
        path = tmp_path / "report.csv"
        report.write_csv(path)
        rows = path.read_text().splitlines()
        assert rows[0] == "metric,species,value"
        assert any(row.startswith("auc,s0,") for row in rows)
        assert f"tol_misses,,{report.tol_misses}" in rows
        assert f"max_rel_err,,{report.max_rel_err!r}" in rows
        assert f"samples_used,,{report.samples_used}" in rows


class TestIntegratorHealth:
    """``tol_misses``, ``max_rel_err`` and ``samples_used`` come from the
    joint-likelihood pass."""

    def setup_method(self):
        rng = np.random.default_rng(30)
        sigma = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.4], [0.2, 0.4, 1.0]])
        coef = rng.normal(size=(3, 2))
        self.params = truth_model(coef, sigma)
        self.data = generate(coef, sigma, 12, seed=31)

    def estimates(self, tol, seed):
        # The model's standardization is the identity, so the raw features
        # are the standardized ones evaluate maps.
        mu, _, _ = model.mu_forward(self.params, self.data.features)
        return joint_estimates(self.params, self.data.presence, mu, tol, seed)

    def test_within_tolerance(self):
        report = evaluate(self.params, self.data, cdf_tol=1e-4, seed=32)
        ests = self.estimates(1e-4, derive_seed(32, "joint"))
        assert report.tol_misses == 0
        assert report.max_rel_err == max(e.error_estimate / e.value for e in ests)
        assert 0.0 < report.max_rel_err <= 1e-4
        assert report.joint_loglik == log_likelihood(
            self.params, self.data.presence, self.data.features, 1e-4, derive_seed(32, "joint")
        )

    def test_misses_counted_and_logged(self, monkeypatch, caplog):
        # One lattice pass per row, at a tolerance no pass can reach.
        monkeypatch.setattr(mvn, "MAX_SAMPLES", 1)
        with caplog.at_level(logging.WARNING, logger="dmse.mvn"):
            report = evaluate(self.params, self.data, cdf_tol=1e-12, seed=33)
        assert report.tol_misses == len(self.data) == len(caplog.records)
        ests = self.estimates(1e-12, derive_seed(33, "joint"))
        assert report.max_rel_err == max(e.error_estimate / e.value for e in ests)
        assert report.max_rel_err > 1e-12

    def test_samples_used_is_the_rows_total(self):
        report = evaluate(self.params, self.data, cdf_tol=1e-6, seed=34)
        ests = self.estimates(1e-6, derive_seed(34, "joint"))
        assert report.samples_used == sum(e.samples_used for e in ests)
        assert report.samples_used > len(self.data) * 3084

    def test_means_are_mapped_once(self, monkeypatch):
        calls = []
        real = model.mu_forward

        def counting(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(model, "mu_forward", counting)
        monkeypatch.setattr(evaluation, "mu_forward", counting)
        evaluate(self.params, self.data, cdf_tol=1e-4, seed=35)
        assert len(calls) == 1
