"""Tests for CSV ingestion, standardization, filtering, and synthesis."""

import math

import numpy as np
import pytest

from dmse.dataio import (
    Dataset,
    SynthSpec,
    filter_top_species,
    load_csv,
    load_features_csv,
    save_csv,
    standardize,
    synth_generate,
    true_mu,
)
from dmse.errors import (
    DimMismatch,
    MalformedHeader,
    MalformedRow,
    NonBinaryPresence,
    NonFiniteFeature,
    NotPositiveDefinite,
)
from dmse.model import MvnProblem
from dmse.mvn import Rectangle, cdf_rectangle
from oracles import all_patterns, bvn_orthant


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_smallest_well_formed(self, tmp_path):
        path = write(tmp_path, "sp:a,env:x\n1,0.5\n0,-1.25\n")
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.species_names == ["a"]
        assert ds.feature_names == ["x"]
        np.testing.assert_array_equal(ds.presence, [[1], [0]])
        np.testing.assert_allclose(ds.features, [[0.5], [-1.25]])

    def test_header_only_keeps_column_shapes(self, tmp_path):
        ds = load_csv(write(tmp_path, "sp:a,sp:b,env:x\n"))
        assert len(ds) == 0
        assert ds.presence.shape == (0, 2) and ds.features.shape == (0, 1)

    def test_column_order_preserved(self, tmp_path):
        path = write(tmp_path, "sp:b,env:y,sp:a,env:x\n1,2.0,0,1.0\n")
        ds = load_csv(path)
        assert ds.species_names == ["b", "a"]
        assert ds.feature_names == ["y", "x"]

    def test_non_binary_presence_names_row_and_col(self, tmp_path):
        path = write(tmp_path, "sp:a,env:x\n1,0.5\n2,0.1\n")
        with pytest.raises(NonBinaryPresence) as err:
            load_csv(path)
        assert err.value.row == 3
        assert err.value.col == "sp:a"

    def test_non_finite_feature_rejected(self, tmp_path):
        for bad in ("nan", "inf", "spam"):
            path = write(tmp_path, f"sp:a,env:x\n1,{bad}\n", name=f"{bad}.csv")
            with pytest.raises(NonFiniteFeature) as err:
                load_csv(path)
            assert err.value.row == 2
            assert err.value.col == "env:x"

    def test_unknown_column_prefix(self, tmp_path):
        path = write(tmp_path, "sp:a,weather\n1,2\n")
        with pytest.raises(MalformedHeader):
            load_csv(path)

    def test_missing_species_or_features(self, tmp_path):
        with pytest.raises(MalformedHeader):
            load_csv(write(tmp_path, "env:x\n1.0\n"))
        with pytest.raises(MalformedHeader):
            load_csv(write(tmp_path, "sp:a\n1\n", name="b.csv"))

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "sp:a,env:x\n1,0.5,9\n")
        with pytest.raises(MalformedRow):
            load_csv(path)

    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        rows = [
            (rng.integers(0, 2, 3), rng.normal(size=2) * 10.0 ** rng.integers(-8, 8))
            for _ in range(20)
        ]
        ds = Dataset([b for b, _ in rows], [l for _, l in rows], ["a", "b", "c"], ["x", "y"])
        path = tmp_path / "rt.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.presence, ds.presence)
        np.testing.assert_array_equal(back.features, ds.features)
        assert back.species_names == ds.species_names
        assert back.feature_names == ds.feature_names

    def test_features_only_loader_ignores_species(self, tmp_path):
        path = write(tmp_path, "sp:a,env:x,env:y\n1,0.5,1.5\n0,2.5,3.5\n")
        names, feats = load_features_csv(path)
        assert names == ["x", "y"]
        np.testing.assert_allclose(feats, [[0.5, 1.5], [2.5, 3.5]])


class TestDataset:
    @pytest.mark.parametrize("presence, features, names, error", [
        ([[2]], [[0.0]], ["a"], ValueError),  # presence not 0/1
        ([[1], [0]], [[0.0]], ["a"], DimMismatch),  # row counts differ
        ([1, 0], [[0.0], [1.0]], ["a"], DimMismatch),  # presence not 2-D
        ([[1, 0]], [[0.0]], ["a"], DimMismatch),  # presence columns != species names
        ([[1]], [[0.0, 1.0]], ["a"], DimMismatch),  # feature columns != feature names
        ([[1, 0]], [[0.0]], ["a", "a"], MalformedHeader),  # duplicate species names
    ], ids=["non-binary", "row-counts", "presence-1d", "species-columns",
            "feature-columns", "duplicate-names"])
    def test_inconsistent_arrays_rejected(self, presence, features, names, error):
        with pytest.raises(error):
            Dataset(presence, features, names, ["x"])

    def test_subset_indexes_both_arrays(self):
        ds = Dataset([[1, 0], [0, 1], [1, 1]], [[0.0], [1.0], [2.0]], ["a", "b"], ["x"])
        sub = ds.subset([2, 0])
        assert sub.presence.dtype == np.int8
        np.testing.assert_array_equal(sub.presence, [[1, 1], [1, 0]])
        np.testing.assert_array_equal(sub.features, [[2.0], [0.0]])
        assert len(ds.subset([])) == 0 and ds.subset([]).presence.shape == (0, 2)


class TestStandardize:
    def test_population_convention(self):
        ds = Dataset([[1], [0]], [[0.0], [10.0]], ["a"], ["x"])
        out, stats = standardize(ds)
        np.testing.assert_allclose(stats.mean, [5.0])
        np.testing.assert_allclose(stats.std, [5.0])
        np.testing.assert_allclose(out.features, [[-1.0], [1.0]])
        assert not stats.constant[0]

    def test_constant_feature_flagged_and_centered(self):
        ds = Dataset([[1], [0]], [[3.0], [3.0]], ["a"], ["x"])
        out, stats = standardize(ds)
        assert stats.constant[0]
        np.testing.assert_array_equal(stats.std, [1.0])
        np.testing.assert_array_equal(out.features, [[0.0], [0.0]])

    def test_idempotent_on_zscores(self):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=40)
        feats = (feats - feats.mean()) / feats.std()
        ds = Dataset(np.ones((len(feats), 1)), feats[:, None], ["a"], ["x"])
        out, stats = standardize(ds)
        np.testing.assert_allclose(out.features.ravel(), feats, atol=1e-12)


class TestFilterTopSpecies:
    def make(self):
        # Presence counts: a=5, b=3, c=1.
        presence = [[1, 1 if i < 3 else 0, 1 if i < 1 else 0] for i in range(5)]
        return Dataset(presence, np.zeros((5, 1)), ["a", "b", "c"], ["x"])

    def test_identity_when_k_equals_n(self):
        ds = self.make()
        out, coverage = filter_top_species(ds, 3)
        assert out.species_names == ["a", "b", "c"]
        assert coverage == 1.0

    def test_counts_and_coverage(self):
        out, coverage = filter_top_species(self.make(), 2)
        assert out.species_names == ["a", "b"]
        np.testing.assert_allclose(coverage, 8.0 / 9.0)

    def test_tie_broken_by_name(self):
        ds = Dataset([[1, 0, 1], [0, 1, 1]], [[0.0], [0.0]], ["zeta", "alpha", "mid"], ["x"])
        out, _ = filter_top_species(ds, 2)
        # mid has count 2; alpha and zeta tie at 1 -> alpha wins by name.
        assert sorted(out.species_names) == ["alpha", "mid"]

    def test_coverage_is_exact_ratio(self):
        ds = self.make()
        out, coverage = filter_top_species(ds, 1)
        assert coverage == 5.0 / 9.0


class TestSynthGenerate:
    def test_fair_coin_rates(self):
        spec = SynthSpec(n_species=3, m_features=2, n_obs=20_000, mu_scale=1e-9, seed=1)
        ds, _ = synth_generate(spec)
        rates = ds.presence.mean(axis=0)
        np.testing.assert_allclose(rates, 0.5, atol=3.0 / math.sqrt(len(ds)))

    def test_correlated_cooccurrence_matches_orthant_formula(self):
        rho = 0.9
        sigma = np.array([[1.0, rho], [rho, 1.0]])
        spec = SynthSpec(
            n_species=2, m_features=2, n_obs=40_000, true_sigma=sigma,
            mu_scale=1e-9, seed=2,
        )
        ds, _ = synth_generate(spec)
        both = np.mean(np.all(ds.presence == 1, axis=1))
        p = bvn_orthant(rho)
        np.testing.assert_allclose(both, p, atol=3 * math.sqrt(p * (1 - p) / len(ds)))

    def test_deterministic(self):
        spec = SynthSpec(n_species=2, m_features=3, n_obs=50, mu_map="mlp-random", seed=9)
        a, _ = synth_generate(spec)
        b, _ = synth_generate(spec)
        np.testing.assert_array_equal(a.presence, b.presence)
        np.testing.assert_array_equal(a.features, b.features)

    def test_calibrated_signal_scale(self):
        rng = np.random.default_rng(3)
        probe = rng.uniform(-1, 1, size=(5000, 2))
        for kind in ("linear", "mlp-random", "radial"):
            spec = SynthSpec(
                n_species=2, m_features=2, n_obs=10, mu_map=kind, mu_scale=2.0, seed=4
            )
            _, truth = synth_generate(spec)
            sd = true_mu(truth, probe).std(axis=0)
            np.testing.assert_allclose(sd, 2.0, rtol=0.1)

    def test_radial_map_is_not_linear(self):
        spec = SynthSpec(n_species=1, m_features=2, n_obs=10, mu_map="radial", seed=5)
        _, truth = synth_generate(spec)
        rng = np.random.default_rng(6)
        feats = rng.uniform(-1, 1, size=(4000, 2))
        mu = true_mu(truth, feats)[:, 0]
        coef, *_ = np.linalg.lstsq(
            np.column_stack([feats, np.ones(len(feats))]), mu, rcond=None
        )
        residual = mu - np.column_stack([feats, np.ones(len(feats))]) @ coef
        # The best linear fit explains almost none of the radial signal.
        assert residual.var() > 0.8 * mu.var()

    @pytest.mark.parametrize("n", [2, 3])
    def test_pattern_frequencies_match_model_probabilities(self, n):
        rng = np.random.default_rng(40 + n)
        a = rng.normal(size=(n + 1, n))
        a /= np.linalg.norm(a, axis=0)
        sigma = a.T @ a
        np.fill_diagonal(sigma, 1.0)
        n_obs = 30_000
        spec = SynthSpec(
            n_species=n, m_features=2, n_obs=n_obs, true_sigma=sigma,
            mu_scale=1e-9, seed=7,
        )
        ds, _ = synth_generate(spec)
        bits = ds.presence
        problem = MvnProblem(np.zeros(n), sigma)
        for k, pattern in enumerate(all_patterns(n)):
            expected = cdf_rectangle(
                problem, Rectangle.from_presence(pattern), tol=1e-6, seed=k
            ).value
            observed = np.mean(np.all(bits == pattern, axis=1))
            assert abs(observed - expected) <= 4.0 / math.sqrt(n_obs)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(n_species=2, m_features=2, n_obs=5, mu_map="quadratic")
        with pytest.raises(ValueError):
            SynthSpec(
                n_species=2, m_features=2, n_obs=5,
                true_sigma=np.array([[2.0, 0.0], [0.0, 1.0]]),
            )
        with pytest.raises(DimMismatch):
            SynthSpec(n_species=3, m_features=2, n_obs=5, true_sigma=np.eye(2))
        for bad in (dict(n_species=0), dict(m_features=0), dict(n_obs=-1), dict(mu_scale=0.0),
                    dict(mu_scale=-1.0), dict(mu_scale=np.nan), dict(mu_scale=np.inf)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                SynthSpec(**{"n_species": 3, "m_features": 2, "n_obs": 5, **bad})
        for rho, valid in ((2.0, False), (-0.6, False), (np.inf, False), (np.nan, False),
                           (1.0, True), (-0.5, True)):  # -0.5 and 1 are singular but PSD
            sigma = np.full((3, 3), rho)
            np.fill_diagonal(sigma, 1.0)
            if valid:
                SynthSpec(n_species=3, m_features=2, n_obs=5, true_sigma=sigma)
                continue
            with pytest.raises(NotPositiveDefinite):
                SynthSpec(n_species=3, m_features=2, n_obs=5, true_sigma=sigma)
