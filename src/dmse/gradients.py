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
from .mlp import MlpGrads, MlpTape, mlp_backward
from .model import ModelParams
from .mvn import MvnProblem, Rectangle, SamplerConfig, clip_rectangle, sample_truncated

__all__ = [
    "MuSigmaGrad",
    "GradientBundle",
    "score_F",
    "score_G",
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
    """Parameter gradients averaged over a minibatch of ``n_obs`` observations."""

    d_S: np.ndarray
    d_Lambda_raw: np.ndarray
    d_W: np.ndarray
    d_mlp: MlpGrads | None
    n_obs: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "GradientBundle":
        return cls(
            np.zeros_like(params.S),
            np.zeros_like(params.Lambda_raw),
            np.zeros_like(params.W),
            MlpGrads.zeros_like(params.mlp) if params.mlp is not None else None,
            0,
        )

    def is_finite(self) -> bool:
        ok = (
            np.all(np.isfinite(self.d_S))
            and np.all(np.isfinite(self.d_Lambda_raw))
            and np.all(np.isfinite(self.d_W))
        )
        if self.d_mlp is not None:
            ok = ok and self.d_mlp.is_finite()
        return bool(ok)


def score_F(sigma_inv: np.ndarray, mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Mean-score ``Sigma^{-1}(x - mu)`` of the normal log-density."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != mu.shape[0]:
        raise DimMismatch(f"point dim {x.shape[-1]} != mean dim {mu.shape[0]}")
    return (x - mu) @ sigma_inv


def score_G(sigma_inv: np.ndarray, mu: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Covariance-score of the normal log-density, symmetrized."""
    f = score_F(sigma_inv, mu, x)
    g = -0.5 * (sigma_inv - np.outer(f, f))
    return 0.5 * (g + g.T)


def grad_mu_sigma(
    problem: MvnProblem, rect: Rectangle, cfg: SamplerConfig
) -> MuSigmaGrad:
    """Monte-Carlo estimate of the mean/covariance gradients of ``log Pr(rect)``.

    The rectangle's infinite ends are clipped internally at
    ``cfg.cutoff_k`` conditional standard deviations before sampling; the
    discarded mass per coordinate is bounded by
    :func:`dmse.mvn.truncation_bound`. A batched problem or rectangle gives
    one estimate per row. Deterministic given ``cfg.rng_seed``.
    """
    clipped = clip_rectangle(rect, problem, cfg.cutoff_k)
    draws = sample_truncated(problem, clipped, cfg)
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
    if chains < 2:
        se_mu, se_sigma = np.full_like(d_mu, np.inf), np.full_like(d_sigma, np.inf)
    else:
        se_mu = f_chains.mean(axis=-2).std(axis=0, ddof=1) / np.sqrt(chains)
        sq_dev = np.zeros_like(d_sigma)
        for f in f_chains:
            sq_dev += (np.swapaxes(f, -1, -2) @ f / kept - ff_mean) ** 2
        se_sigma = 0.5 * np.sqrt(sq_dev / (chains - 1) / chains)
    return MuSigmaGrad(d_mu, d_sigma, se_mu, se_sigma)


def lambda_grad_from_sigma(lambda_raw: np.ndarray, d_sigma: np.ndarray) -> np.ndarray:
    """Backpropagate a covariance gradient through the normalized Gram map.

    Uses the symmetrized ``d_sigma`` with its diagonal discarded (the
    diagonal is pinned at 1 and cannot move). For each raw column the
    result is tangent to the unit sphere:
    ``(2/||lambda_j||) (I - lhat_j lhat_j^T) (Lhat d_sigma[:, j])``.
    """
    d = 0.5 * (d_sigma + d_sigma.T)
    d = d - np.diag(np.diag(d))
    norms = np.linalg.norm(lambda_raw, axis=0)
    lhat = lambda_raw / norms
    grad_hat = 2.0 * (lhat @ d)
    radial = np.sum(lhat * grad_hat, axis=0)
    return (grad_hat - lhat * radial) / norms


def assemble_bundle(
    params: ModelParams,
    l: np.ndarray,
    musig: MuSigmaGrad,
    tape: MlpTape | None,
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
    extractor_out = np.asarray(l, dtype=float) if tape is None else tape.output
    d_w = d_h.T @ extractor_out.reshape(rows, -1) / rows
    if params.mlp is None:
        d_mlp = None
    else:
        grad_out = (d_h @ params.W / rows).reshape(tape.output.shape)
        d_mlp, _ = mlp_backward(params.mlp, tape, grad_out)
    d_sigma = musig.d_sigma.reshape(-1, n, n).mean(axis=0)
    d_lambda = lambda_grad_from_sigma(params.Lambda_raw, d_sigma)
    return GradientBundle(d_s, d_lambda, d_w, d_mlp, rows)
