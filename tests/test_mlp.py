"""Tests for the hand-rolled network: forward evaluation and exact gradients."""

import math

import numpy as np
import pytest

from dmse.errors import DimMismatch, InvalidDims
from dmse.mlp import MlpGrads, mlp_backward, mlp_forward, mlp_init


def loop_forward(params, x):
    """Straight-line re-implementation of the forward pass, scalar loops only."""
    a = [float(v) for v in x]
    n_layers = len(params.weights)
    for k in range(n_layers):
        w, b = params.weights[k], params.biases[k]
        z = []
        for i in range(w.shape[0]):
            acc = float(b[i])
            for j in range(w.shape[1]):
                acc += float(w[i, j]) * a[j]
            z.append(acc)
        a = [math.tanh(v) for v in z] if k < n_layers - 1 else z
    return np.array(a)


def flatten_params(params):
    return np.concatenate(
        [w.ravel() for w in params.weights] + [b.ravel() for b in params.biases]
    )


def fd_param_grads(params, x, grad_output, h=1e-5):
    """Central finite differences of <grad_output, net(x)> per parameter."""
    grads = MlpGrads([np.zeros_like(w) for w in params.weights],
                     [np.zeros_like(b) for b in params.biases])
    for store, out in ((params.weights, grads.weights), (params.biases, grads.biases)):
        for tensor, g in zip(store, out):
            flat = tensor.reshape(-1)
            gflat = g.reshape(-1)
            for i in range(flat.shape[0]):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = mlp_forward(params, x)
                flat[i] = orig - h
                dn, _ = mlp_forward(params, x)
                flat[i] = orig
                gflat[i] = float(grad_output @ (up - dn)) / (2 * h)
    return grads


class TestInit:
    def test_biases_zero(self):
        params = mlp_init([2, 3, 1], seed=11)
        for b in params.biases:
            np.testing.assert_array_equal(b, 0.0)

    def test_deterministic(self):
        a = mlp_init([4, 8, 2], seed=5)
        b = mlp_init([4, 8, 2], seed=5)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_shapes(self):
        params = mlp_init([5, 256, 256, 64], seed=0)
        assert [w.shape for w in params.weights] == [(256, 5), (256, 256), (64, 256)]
        assert params.n_output == 64

    def test_scale_is_fan_based(self):
        params = mlp_init([100, 50], seed=1)
        a = math.sqrt(6.0 / 150.0)
        assert np.abs(params.weights[0]).max() <= a
        assert np.abs(params.weights[0]).max() > 0.8 * a

    def test_invalid_dims(self):
        with pytest.raises(InvalidDims):
            mlp_init([3, 0, 2], seed=0)
        with pytest.raises(InvalidDims):
            mlp_init([3], seed=0)


class TestForward:
    def test_zero_network_outputs_zero(self):
        params = mlp_init([3, 4, 2], seed=0)
        for w in params.weights:
            w[:] = 0.0
        out, _ = mlp_forward(params, [1.0, -2.0, 0.5])
        np.testing.assert_array_equal(out, 0.0)

    def test_tanh_saturation_1_1_1(self):
        params = mlp_init([1, 1, 1], seed=0)
        params.weights[0][:] = 1.0
        params.weights[1][:] = 1.0
        out0, _ = mlp_forward(params, [0.0])
        np.testing.assert_allclose(out0, [0.0], atol=1e-15)
        out_big, _ = mlp_forward(params, [50.0])
        np.testing.assert_allclose(out_big, [1.0], atol=1e-12)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        params = mlp_init([4, 6, 5, 3], seed=2)
        for _ in range(5):
            x = rng.normal(size=4)
            out, _ = mlp_forward(params, x)
            np.testing.assert_allclose(out, loop_forward(params, x), atol=1e-12)

    def test_batch_equals_per_example(self):
        rng = np.random.default_rng(9)
        params = mlp_init([3, 7, 2], seed=4)
        xs = rng.normal(size=(6, 3))
        batch_out, _ = mlp_forward(params, xs)
        for i in range(6):
            single, _ = mlp_forward(params, xs[i])
            np.testing.assert_allclose(batch_out[i], single, atol=1e-12)

    def test_dim_mismatch(self):
        params = mlp_init([3, 2], seed=0)
        with pytest.raises(DimMismatch):
            mlp_forward(params, [1.0, 2.0])


class TestBackward:
    def test_zero_grad_output(self):
        params = mlp_init([3, 4, 2], seed=1)
        out, tape = mlp_forward(params, [0.3, -0.1, 0.7])
        grads, gin = mlp_backward(params, tape, np.zeros(2))
        for g in grads.weights + grads.biases:
            np.testing.assert_array_equal(g, 0.0)
        np.testing.assert_array_equal(gin, 0.0)

    def test_1_1_1_chain_rule(self):
        # d/dw1 [w2 tanh(w1 x + b1) + b2] = w2 (1 - tanh^2(w1 x + b1)) x, etc.
        params = mlp_init([1, 1, 1], seed=0)
        w1, w2, b1 = 0.7, -1.3, 0.2
        params.weights[0][0, 0] = w1
        params.weights[1][0, 0] = w2
        params.biases[0][0] = b1
        x = 0.4
        out, tape = mlp_forward(params, [x])
        grads, gin = mlp_backward(params, tape, np.array([1.0]))
        t = math.tanh(w1 * x + b1)
        sech2 = 1.0 - t * t
        np.testing.assert_allclose(grads.weights[1][0, 0], t, rtol=1e-12)
        np.testing.assert_allclose(grads.biases[1][0], 1.0, rtol=1e-12)
        np.testing.assert_allclose(grads.weights[0][0, 0], w2 * sech2 * x, rtol=1e-12)
        np.testing.assert_allclose(grads.biases[0][0], w2 * sech2, rtol=1e-12)
        np.testing.assert_allclose(gin[0], w2 * sech2 * w1, rtol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        params = mlp_init([4, 8, 8, 3], seed=3)
        x = rng.normal(size=4)
        grad_output = rng.normal(size=3)
        _, tape = mlp_forward(params, x)
        grads, _ = mlp_backward(params, tape, grad_output)
        fd = fd_param_grads(params, x, grad_output)
        for g, f in zip(grads.weights + grads.biases, fd.weights + fd.biases):
            denom = np.maximum(np.abs(f), 1e-8)
            assert np.max(np.abs(g - f) / denom) <= 1e-6

    def test_input_gradient_finite_differences(self):
        rng = np.random.default_rng(13)
        params = mlp_init([3, 5, 2], seed=6)
        x = rng.normal(size=3)
        grad_output = rng.normal(size=2)
        _, tape = mlp_forward(params, x)
        _, gin = mlp_backward(params, tape, grad_output)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            up, _ = mlp_forward(params, x + e)
            dn, _ = mlp_forward(params, x - e)
            fd = float(grad_output @ (up - dn)) / (2 * h)
            np.testing.assert_allclose(gin[j], fd, rtol=1e-6, atol=1e-10)

    def test_batch_grads_sum_over_examples(self):
        rng = np.random.default_rng(14)
        params = mlp_init([3, 4, 2], seed=9)
        xs = rng.normal(size=(5, 3))
        gs = rng.normal(size=(5, 2))
        _, tape = mlp_forward(params, xs)
        batch_grads, _ = mlp_backward(params, tape, gs)
        acc = MlpGrads([np.zeros_like(w) for w in params.weights],
                       [np.zeros_like(b) for b in params.biases])
        for i in range(5):
            _, tape_i = mlp_forward(params, xs[i])
            g_i, _ = mlp_backward(params, tape_i, gs[i])
            for a, b in zip(acc.weights + acc.biases, g_i.weights + g_i.biases):
                a += b
        for a, b in zip(batch_grads.weights + batch_grads.biases, acc.weights + acc.biases):
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestGradientCheckProperty:
    def test_twenty_random_trials_relative_error_below_1e6(self):
        """Max relative error vs central differences on a [4,8,8,3] net."""
        rng = np.random.default_rng(100)
        worst = 0.0
        for trial in range(20):
            params = mlp_init([4, 8, 8, 3], seed=trial)
            # Nonzero biases so their gradients are exercised away from init.
            for b in params.biases:
                b[:] = rng.normal(size=b.shape) * 0.1
            x = rng.normal(size=4)
            grad_output = rng.normal(size=3)
            _, tape = mlp_forward(params, x)
            grads, _ = mlp_backward(params, tape, grad_output)
            fd = fd_param_grads(params, x, grad_output)
            for g, f in zip(grads.weights + grads.biases, fd.weights + fd.biases):
                denom = np.maximum(np.abs(f), 1e-6)
                worst = max(worst, float(np.max(np.abs(g - f) / denom)))
        assert worst <= 1e-6
