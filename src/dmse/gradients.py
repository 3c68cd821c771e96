"""Monte-Carlo likelihood gradients and their chain-rule assembly.

The gradient of the log rectangle-probability with respect to the latent
mean and covariance equals the expectation, under the normal restricted to
the rectangle, of the score functions

    F(x) = Sigma^{-1} (x - mu)
    G(x) = -1/2 (Sigma^{-1} - Sigma^{-1} (x - mu)(x - mu)^T Sigma^{-1})

so both are estimated as plain averages over truncated Gibbs draws. The
same draws serve F and G (common random numbers). Standard errors of both
estimates are between-chain: the spread of the independent chains' means,
which stays honest under each chain's autocorrelation.

Every function here takes one observation or a minibatch stacked along a
leading axis; the chain-rule assembly averages the minibatch.

Because the correlation matrix has unit diagonal by construction, the
diagonal of the covariance gradient is an infeasible direction and is
projected out before backpropagating into the raw interaction embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch
from .mlp import MlpGrads, MlpTape, layer_tensors, mlp_backward
from .model import ModelParams
from .mvn import MvnProblem, Rectangle, SamplerConfig, sample_truncated

__all__ = [
    "MuSigmaGrad",
    "GradientBundle",
    "grad_mu_sigma",
    "assemble_bundle",
]


@dataclass(frozen=True)
class MuSigmaGrad:
    """Estimated gradients of one observation's log-probability.

    Fields carry the leading batch axis of the problem they came from.
    ``d_sigma`` is symmetrized. ``se_mu``/``se_sigma`` are between-chain
    standard errors of the corresponding estimates.
    """

    d_mu: np.ndarray
    d_sigma: np.ndarray
    se_mu: np.ndarray
    se_sigma: np.ndarray


@dataclass
class GradientBundle:
    """Parameter gradients averaged over a minibatch."""

    d_S: np.ndarray
    d_Lambda_raw: np.ndarray
    d_W: np.ndarray
    d_mlp: MlpGrads

    def tensors(self) -> list[np.ndarray]:
        """Gradients in the order of :meth:`dmse.model.ModelParams.tensors`."""
        return [self.d_S, self.d_Lambda_raw, self.d_W] + layer_tensors(
            self.d_mlp.weights, self.d_mlp.biases
        )

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(g)) for g in self.tensors())


def grad_mu_sigma(
    problem: MvnProblem, rect: Rectangle, cfg: SamplerConfig, seed: int
) -> MuSigmaGrad:
    """Monte-Carlo estimate of the mean/covariance gradients of ``log Pr(rect)``.

    The draws come from :func:`dmse.mvn.sample_truncated` on the rectangle
    as given, infinite ends included, so the averages estimate the score
    expectations under the exact truncated normal. A batched problem or
    rectangle gives one estimate per row. Deterministic given ``seed``.
    """
    draws = sample_truncated(problem, rect, cfg, seed)
    q = problem.precision
    # Row-wise Sigma^{-1}(x - mu), then split the draw axis into chains.
    f_draws = (draws - problem.mean[..., None, :]) @ q
    m = f_draws.shape[-2]
    chains, kept = cfg.chains, m // cfg.chains
    f_chains = np.moveaxis(f_draws.reshape(f_draws.shape[:-2] + (chains, kept, -1)), -3, 0)
    d_mu = f_draws.mean(axis=-2)

    # Per-draw G is -1/2 (Q - f f^T); averaging the outer products first
    # is the same estimator without materializing M matrices.
    ff_mean = np.swapaxes(f_draws, -1, -2) @ f_draws / m
    d_sigma = -0.5 * (q - ff_mean)
    d_sigma = 0.5 * (d_sigma + np.swapaxes(d_sigma, -1, -2))
    # Between-chain SEs. For G only the 1/2 f f^T term fluctuates; chains
    # have equal length, so ff_mean is also the mean of the chain means,
    # and one chain at a time keeps memory at one matrix per observation.
    se_mu = f_chains.mean(axis=-2).std(axis=0, ddof=1) / np.sqrt(chains)
    sq_dev = np.zeros_like(d_sigma)
    for f in f_chains:
        sq_dev += (np.swapaxes(f, -1, -2) @ f / kept - ff_mean) ** 2
    se_sigma = 0.5 * np.sqrt(sq_dev / (chains - 1) / chains)
    return MuSigmaGrad(d_mu, d_sigma, se_mu, se_sigma)


def lambda_grad_from_sigma(lambda_raw: np.ndarray, d_sigma: np.ndarray) -> np.ndarray:
    """Backpropagate a covariance gradient through the normalized Gram map.

    ``d_sigma`` must be symmetric, as :func:`grad_mu_sigma` returns it and
    as its minibatch mean stays; its diagonal is discarded (the diagonal is
    pinned at 1 and cannot move). For each raw column the result is
    tangent to the unit sphere:
    ``(2/||lambda_j||) (I - lhat_j lhat_j^T) (Lhat d_sigma[:, j])``.
    """
    d = d_sigma - np.diag(np.diag(d_sigma))
    norms = np.linalg.norm(lambda_raw, axis=0)
    lhat = lambda_raw / norms
    grad_hat = 2.0 * (lhat @ d)
    radial = np.sum(lhat * grad_hat, axis=0)
    return (grad_hat - lhat * radial) / norms


def assemble_bundle(
    params: ModelParams,
    l: np.ndarray,
    musig: MuSigmaGrad,
    tape: MlpTape,
    h: np.ndarray,
) -> GradientBundle:
    """Chain-rule assembly of the parameter gradients, averaged over a minibatch.

    ``l`` holds the standardized features of one observation ``(m,)`` or
    of a minibatch ``(B, m)``. ``l``, ``tape`` and ``h`` must be the input
    and outputs of the :func:`dmse.model.mu_forward` call whose means
    produced ``musig``.
    The covariance map is linear, so the interaction-embedding gradient is
    taken once, of the minibatch-mean ``d_sigma``.
    """
    n = params.n_species
    if musig.d_mu.shape[-1] != n:
        raise DimMismatch("gradient dimension does not match species count")
    d_mu = musig.d_mu.reshape(-1, n)
    rows = d_mu.shape[0]
    h = h.reshape(rows, -1)
    d_s = h.T @ d_mu / rows
    d_h = d_mu @ params.S.T
    d_w = d_h.T @ tape.output.reshape(rows, -1) / rows
    grad_out = (d_h @ params.W / rows).reshape(tape.output.shape)
    d_mlp, _ = mlp_backward(params.mlp, tape, grad_out)
    d_sigma = musig.d_sigma.reshape(-1, n, n).mean(axis=0)
    d_lambda = lambda_grad_from_sigma(params.Lambda_raw, d_sigma)
    return GradientBundle(d_s, d_lambda, d_w, d_mlp)
