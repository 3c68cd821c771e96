"""Fully connected feature extractor with manual forward and reverse passes.

The network applies ``tanh`` on every hidden layer and the identity on the
output layer; there is nothing else (no dropout, normalization, or
convolution). Forward and backward are pure functions of the parameters
and input. The network with no layers, ``MlpParams((m,), [], [])``, is the
identity: its forward pass returns the input and its backward pass
returns no parameter gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidDims

__all__ = [
    "DEFAULT_HIDDEN_DIMS",
    "MlpParams",
    "MlpTape",
    "MlpGrads",
    "layer_tensors",
    "glorot_uniform",
    "mlp_init",
    "mlp_forward",
    "mlp_backward",
]

#: Default hidden-layer widths.
DEFAULT_HIDDEN_DIMS = (256, 256, 64)


@dataclass
class MlpParams:
    """Weights and biases of the network.

    ``weights[k]`` has shape ``(layer_dims[k+1], layer_dims[k])`` and acts
    on column vectors; ``biases[k]`` has shape ``(layer_dims[k+1],)``.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_output(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_input(self) -> int:
        return self.layer_dims[0]


@dataclass
class MlpTape:
    """Per-layer intermediates of one forward call, for the reverse pass.

    ``activations[0]`` is the input; ``activations[k]`` for k >= 1 is layer
    k's post-activation output.
    """

    activations: list[np.ndarray]

    @property
    def output(self) -> np.ndarray:
        return self.activations[-1]


@dataclass
class MlpGrads:
    """Parameter-shaped gradient holder."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]


def layer_tensors(weights, biases) -> list[np.ndarray]:
    """Each layer's weight, then its bias, in layer order (checkpoint order)."""
    return [t for pair in zip(weights, biases, strict=True) for t in pair]


def glorot_uniform(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Zero-mean uniform matrix with half-width ``sqrt(6 / (rows + cols))``."""
    a = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


def mlp_init(layer_dims, seed: int) -> MlpParams:
    """Seed-deterministic initialization: uniform weights, zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidDims(f"layer dims must be >= 1 with at least two layers, got {dims}")
    rng = np.random.default_rng(seed)
    weights = [glorot_uniform(rng, dims[k + 1], dims[k]) for k in range(len(dims) - 1)]
    biases = [np.zeros(dims[k + 1]) for k in range(len(dims) - 1)]
    return MlpParams(dims, weights, biases)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpTape]:
    """Evaluate the network on a single input ``(m,)`` or a batch ``(B, m)``.

    Returns the output and the tape of intermediates needed by
    :func:`mlp_backward`.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != params.n_input:
        raise DimMismatch(
            f"input dim {x.shape[-1]} != network input dim {params.n_input}"
        )
    n_layers = len(params.weights)
    activations = [x]
    a = x
    for k in range(n_layers):
        z = a @ params.weights[k].T + params.biases[k]
        a = np.tanh(z) if k < n_layers - 1 else z
        activations.append(a)
    return a, MlpTape(activations)


def mlp_backward(
    params: MlpParams, tape: MlpTape, grad_output: np.ndarray
) -> tuple[MlpGrads, np.ndarray]:
    """Reverse pass for ``<grad_output, network(x)>``.

    Returns exact gradients with respect to every weight and bias, plus the
    gradient with respect to the input. Batched ``grad_output`` of shape
    ``(B, n_output)`` accumulates parameter gradients over the batch; a
    single ``(n_output,)`` is a batch of one.
    """
    grad_output = np.asarray(grad_output, dtype=float)
    if grad_output.shape[-1] != params.n_output:
        raise DimMismatch(
            f"grad dim {grad_output.shape[-1]} != network output dim {params.n_output}"
        )
    if grad_output.shape != tape.output.shape:
        raise DimMismatch(
            f"grad shape {grad_output.shape} != forward output shape {tape.output.shape}"
        )
    n_layers = len(params.weights)
    d_weights = [None] * n_layers
    d_biases = [None] * n_layers
    delta = np.atleast_2d(grad_output)
    for k in range(n_layers - 1, -1, -1):
        d_weights[k] = delta.T @ np.atleast_2d(tape.activations[k])
        d_biases[k] = delta.sum(axis=0)
        delta = delta @ params.weights[k]
        if k > 0:
            # Hidden layers are tanh: d tanh(z) = 1 - tanh(z)^2.
            delta = delta * (1.0 - tape.activations[k] ** 2)
    d_input = delta.reshape(grad_output.shape[:-1] + (params.n_input,))
    return MlpGrads(d_weights, d_biases), d_input
