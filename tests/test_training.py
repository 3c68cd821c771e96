"""Tests for AdaGrad updates, the training loop, and k-fold splitting."""

import dataclasses
import math

import numpy as np
import pytest

from dmse import training
from dmse.checkpoint import checkpoint_bytes
from dmse.dataio import SynthSpec, synth_from_truth, synth_generate, standardize, true_mu
from dmse.errors import ConfigError, InvalidK, NonFiniteGradient
from dmse.evaluation import auc, evaluate
from dmse.gradients import GradientBundle
from dmse.mlp import MlpGrads
from dmse.model import init_model_params, sigma_from_lambda
from dmse.mvn import SamplerConfig
from dmse.training import (
    ADAGRAD_EPSILON, AdagradState, TrainConfig, adagrad_step, kfold_split, train,
)


def scalar_model():
    params = init_model_params(["a"], ["x"], d1=1, d2=1, hidden_dims=(), seed=0)
    params.S[:] = 1.0
    params.Lambda_raw[:] = 1.0
    params.W[:] = 1.0
    return params


def zero_bundle(params):
    d_mlp = MlpGrads([np.zeros_like(w) for w in params.mlp.weights],
                     [np.zeros_like(b) for b in params.mlp.biases])
    return GradientBundle(np.zeros_like(params.S), np.zeros_like(params.Lambda_raw),
                          np.zeros_like(params.W), d_mlp)


def bundle_for(params, value_S=0.0, value_W=0.0):
    b = zero_bundle(params)
    b.d_S += value_S
    b.d_W += value_W
    return b


def quick_cfg(**kw):
    defaults = dict(
        learning_rate=0.1,
        minibatch_size=4,
        epochs=1,
        sampler=SamplerConfig(n_samples=16, burn_in_sweeps=8, thinning=1),
        cdf_tol=1e-2,
        seed=3,
        d1=4,
        d2=4,
        hidden_dims=(6,),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


def poison_gradients(monkeypatch, every):
    """Make the gradient of every ``every``-th minibatch, from the first,
    NaN."""
    real, calls = training.grad_mu_sigma, []

    def poisoned(*args):
        grad = real(*args)
        calls.append(None)
        if (len(calls) - 1) % every:
            return grad
        return dataclasses.replace(grad, d_mu=np.full_like(grad.d_mu, np.nan))

    monkeypatch.setattr(training, "grad_mu_sigma", poisoned)


class TestAdagradStep:
    def test_zero_gradient_is_noop(self):
        params = scalar_model()
        state = AdagradState.zeros_like(params)
        before = params.S.copy()
        adagrad_step(params, state, bundle_for(params), quick_cfg())
        np.testing.assert_array_equal(params.S, before)
        np.testing.assert_array_equal(state.acc[0], 0.0)

    def test_first_step_scalar_formula(self):
        # Ascent step lr*g/(sqrt(g^2)+eps) with g=2, lr=0.1 is ~0.1.
        params = scalar_model()
        state = AdagradState.zeros_like(params)
        cfg = quick_cfg(learning_rate=0.1)
        before = float(params.S[0, 0])
        adagrad_step(params, state, bundle_for(params, value_S=2.0), cfg)
        delta = float(params.S[0, 0]) - before
        np.testing.assert_allclose(delta, 0.1 * 2.0 / (2.0 + 1e-8), rtol=1e-9)

    def test_two_unit_steps_decay(self):
        params = scalar_model()
        state = AdagradState.zeros_like(params)
        cfg = quick_cfg(learning_rate=0.1)
        s0 = float(params.S[0, 0])
        adagrad_step(params, state, bundle_for(params, value_S=1.0), cfg)
        s1 = float(params.S[0, 0])
        adagrad_step(params, state, bundle_for(params, value_S=1.0), cfg)
        s2 = float(params.S[0, 0])
        np.testing.assert_allclose(s1 - s0, 0.1 / (1.0 + 1e-8), rtol=1e-9)
        np.testing.assert_allclose(s2 - s1, 0.1 / (math.sqrt(2.0) + 1e-8), rtol=1e-9)

    def test_non_finite_gradient_raises_and_leaves_state(self):
        params = scalar_model()
        state = AdagradState.zeros_like(params)
        bundle = bundle_for(params, value_S=1.0)
        bundle.d_W[0, 0] = np.inf
        before = params.S.copy()
        with pytest.raises(NonFiniteGradient):
            adagrad_step(params, state, bundle, quick_cfg())
        np.testing.assert_array_equal(params.S, before)
        np.testing.assert_array_equal(state.acc[0], 0.0)

    def test_one_step_moves_every_tensor_by_its_own_gradient(self):
        # Every tensor is 4x4 or length 4, and each gradient is distinct, so
        # dropping or reordering an entry of tensors() changes the result.
        def listed(p):
            return [p.S, p.Lambda_raw, p.W, p.mlp.weights[0], p.mlp.biases[0],
                    p.mlp.weights[1], p.mlp.biases[1]]

        params = init_model_params(list("abcd"), list("wxyz"), d1=4, d2=4,
                                   hidden_dims=(4, 4), seed=5)
        before = [t.copy() for t in listed(params)]
        rng = np.random.default_rng(12)
        grads = [(k + 1) * rng.uniform(0.5, 1.0, t.shape) * rng.choice([-1.0, 1.0], t.shape)
                 for k, t in enumerate(before)]
        d_s, d_lam, d_w, d_w0, d_b0, d_w1, d_b1 = (g.copy() for g in grads)
        bundle = GradientBundle(d_s, d_lam, d_w, MlpGrads([d_w0, d_w1], [d_b0, d_b1]))
        state = AdagradState.zeros_like(params)
        cfg = quick_cfg(learning_rate=0.1)
        adagrad_step(params, state, bundle, cfg)
        assert len(state.acc) == len(grads)
        for t0, t1, g, acc in zip(before, listed(params), grads, state.acc):
            np.testing.assert_array_equal(t1, t0 + 0.1 * g / (np.abs(g) + ADAGRAD_EPSILON))
            np.testing.assert_array_equal(acc, g * g)

    def test_accumulators_monotone_and_params_finite_10k_random_steps(self):
        params = init_model_params(["a", "b"], ["x", "y"], d1=3, d2=3,
                                   hidden_dims=(4,), seed=1)
        state = AdagradState.zeros_like(params)
        cfg = quick_cfg(learning_rate=0.05)
        rng = np.random.default_rng(8)
        prev_acc = state.acc[0].copy()
        for step in range(10_000):
            b = zero_bundle(params)
            b.d_S += rng.normal(size=b.d_S.shape)
            b.d_Lambda_raw += rng.normal(size=b.d_Lambda_raw.shape)
            b.d_W += rng.normal(size=b.d_W.shape)
            for g in b.d_mlp.weights + b.d_mlp.biases:
                g += rng.normal(size=g.shape)
            adagrad_step(params, state, b, cfg)
            if step % 1000 == 0:
                assert np.all(state.acc[0] >= prev_acc)
                prev_acc = state.acc[0].copy()
        assert np.all(np.isfinite(params.S))
        assert np.all(np.isfinite(params.Lambda_raw))
        assert np.all(np.isfinite(params.W))
        for w in params.mlp.weights:
            assert np.all(np.isfinite(w))


class TestKfoldSplit:
    def test_five_folds_of_ten(self):
        splits = kfold_split(10, 5, seed=1)
        assert len(splits) == 5
        seen = []
        for trn, val in splits:
            assert len(val) == 2
            assert len(trn) == 8
            assert set(trn).isdisjoint(val)
            seen.extend(val)
        assert sorted(seen) == list(range(10))

    def test_leave_one_out(self):
        splits = kfold_split(6, 6, seed=2)
        assert all(len(val) == 1 for _, val in splits)

    def test_deterministic(self):
        a = kfold_split(20, 4, seed=9)
        b = kfold_split(20, 4, seed=9)
        for (ta, va), (tb, vb) in zip(a, b):
            np.testing.assert_array_equal(ta, tb)
            np.testing.assert_array_equal(va, vb)

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            kfold_split(10, 1, seed=0)
        with pytest.raises(InvalidK):
            kfold_split(3, 4, seed=0)

    def test_covers_every_row_of_a_dataset(self):
        ds, _ = synth_generate(SynthSpec(n_species=1, m_features=1, n_obs=12, seed=3))
        splits = kfold_split(len(ds), 3, seed=4)
        assert sum(len(val) for _, val in splits) == 12


class TestTrain:
    def test_zero_epochs_returns_seeded_initialization(self):
        ds, _ = synth_generate(SynthSpec(n_species=2, m_features=2, n_obs=40, seed=5))
        cfg = quick_cfg(epochs=0)
        params, records = train(ds, cfg, init_seed=11)
        _, stats = standardize(ds)
        expected = init_model_params(
            ds.species_names, ds.feature_names, d1=cfg.d1, d2=cfg.d2,
            hidden_dims=cfg.hidden_dims, seed=11, standardization=stats,
        )
        np.testing.assert_array_equal(params.S, expected.S)
        np.testing.assert_array_equal(params.Lambda_raw, expected.Lambda_raw)
        np.testing.assert_array_equal(params.W, expected.W)
        assert records == []

    def test_deterministic_end_to_end(self):
        ds, _ = synth_generate(SynthSpec(n_species=2, m_features=2, n_obs=64, seed=6))
        cfg = quick_cfg(epochs=1, minibatch_size=16)
        a, _ = train(ds, cfg, init_seed=2)
        b, _ = train(ds, cfg, init_seed=2)
        assert checkpoint_bytes(a) == checkpoint_bytes(b)

    def test_d2_below_species_count_rejected(self):
        # n=6, d2=3: the correlation matrix has rank at most 3, and the
        # jittered precision matrix made the gradient estimates meaningless.
        ds, _ = synth_generate(SynthSpec(n_species=6, m_features=2, n_obs=16, seed=7))
        with pytest.raises(ConfigError, match=r"d2=3.*n_species=6"):
            train(ds, quick_cfg(d2=3, minibatch_size=8), init_seed=0)

    def test_minibatch_larger_than_dataset_rejected(self):
        ds, _ = synth_generate(SynthSpec(n_species=1, m_features=1, n_obs=3, seed=8))
        with pytest.raises(ConfigError, match=r"minibatch_size=8.*n_obs=3"):
            train(ds, quick_cfg(minibatch_size=8), init_seed=0)

    def test_log_records_have_contract_fields(self):
        ds, _ = synth_generate(SynthSpec(n_species=1, m_features=1, n_obs=16, seed=9))
        sunk = []
        _, records = train(ds, quick_cfg(epochs=1, minibatch_size=8), init_seed=0,
                           log_sink=sunk.append)
        # One record, two consumers: the sink sees the returned records, in order.
        assert records == sunk
        assert len(records) == 2
        for rec in records:
            assert set(rec) >= {"step", "epoch", "minibatch_loglik", "grad_se",
                                "wall_time", "skipped", "minibatch_loglik_err"}
            assert rec["minibatch_loglik"] <= 0.0
            assert rec["minibatch_loglik_err"] >= 0.0  # also false for NaN

    def test_non_finite_gradients_skip_then_abort(self, monkeypatch):
        """With every gradient NaN, each step is logged as skipped and leaves
        the parameters and AdaGrad accumulators as they were; the run aborts
        at the end of its first epoch."""
        poison_gradients(monkeypatch, every=1)
        real_step, untouched = training.adagrad_step, []

        def checked_step(params, state, bundle, cfg):
            before = [t.copy() for t in params.tensors() + state.acc]
            try:
                real_step(params, state, bundle, cfg)
            finally:
                untouched.append(all(np.array_equal(a, b) for a, b in
                                     zip(before, params.tensors() + state.acc, strict=True)))

        monkeypatch.setattr(training, "adagrad_step", checked_step)
        ds, _ = synth_generate(SynthSpec(n_species=2, m_features=2, n_obs=16, seed=9))
        sunk = []
        with pytest.raises(NonFiniteGradient, match="4/4 steps skipped in epoch 0"):
            train(ds, quick_cfg(epochs=3), init_seed=0, log_sink=sunk.append)
        assert [(r["epoch"], r["skipped"]) for r in sunk] == [(0, True)] * 4
        assert untouched == [True] * 4

    def test_half_the_steps_skipped_runs_on(self, monkeypatch):
        poison_gradients(monkeypatch, every=2)
        ds, _ = synth_generate(SynthSpec(n_species=2, m_features=2, n_obs=16, seed=9))
        params, records = train(ds, quick_cfg(epochs=2), init_seed=0)
        assert [r["skipped"] for r in records] == [True, False] * 4
        assert np.all(np.isfinite(params.S))

    def test_single_species_learns_strong_signal(self):
        """Held-out AUC must exceed 0.9 when the generating signal's own
        (Bayes-optimal) AUC is about 0.95."""
        spec = SynthSpec(n_species=1, m_features=3, n_obs=3000, mu_map="linear",
                         mu_scale=2.8, seed=31)
        ds, truth = synth_generate(spec)
        heldout = synth_from_truth(truth, 1500, seed=777)
        bayes_scores = true_mu(truth, heldout.features)[:, 0]
        bayes = auc(bayes_scores, heldout.presence[:, 0])
        assert 0.93 <= bayes <= 0.97  # sanity on the construction

        cfg = TrainConfig(
            learning_rate=0.1, minibatch_size=64, epochs=4,
            sampler=SamplerConfig(n_samples=32, burn_in_sweeps=12, thinning=1),
            cdf_tol=1e-2, seed=13, d1=6, d2=2,
            hidden_dims=(16, 8),
        )
        params, records = train(ds, cfg, init_seed=5)
        lls = [r["minibatch_loglik"] for r in records]
        assert np.mean(lls[-10:]) > np.mean(lls[:10])  # training objective rose
        report = evaluate(params, heldout, cdf_tol=1e-3, seed=2)
        assert report.mean_auc > 0.9

    def test_learned_correlation_sign(self):
        """A short run on strongly correlated data moves the learned
        correlation decisively toward the truth."""
        sigma = np.array([[1.0, 0.8], [0.8, 1.0]])
        spec = SynthSpec(n_species=2, m_features=2, n_obs=1500, mu_map="linear",
                         true_sigma=sigma, mu_scale=1.0, seed=51)
        ds, _ = synth_generate(spec)
        cfg = TrainConfig(
            learning_rate=0.1, minibatch_size=50, epochs=3,
            sampler=SamplerConfig(n_samples=24, burn_in_sweeps=10, thinning=1),
            cdf_tol=1e-2, seed=23, d1=4, d2=4,
            hidden_dims=(6,),
        )
        params, _ = train(ds, cfg, init_seed=29)
        learned = sigma_from_lambda(params.Lambda_raw)[0, 1]
        assert learned > 0.4
