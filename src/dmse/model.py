"""The multi-species embedding model.

Each species ``j`` carries two embedding vectors: a habitat vector ``s_j``
whose inner product with the environment embedding scores habitat
suitability, and an interaction vector whose normalized inner products
give inter-species latent correlations. The environment embedding is
``W @ network(l)`` for an observation's feature vector ``l``; the linear
model's network has no layers, so its embedding is ``W @ l``.

The joint probability of a presence/absence pattern is the probability
that a latent normal vector with mean ``mu(l)`` and the learned
correlation matrix falls in the rectangle encoding the pattern;
:func:`joint_estimates` integrates it for every row of a dataset at its
latent means with one factorization, and :func:`log_likelihood` maps
standardized features to those means in one forward pass and sums the
logs.

Model-layer functions expect features already standardized with the
model's stored per-feature statistics; ingestion and evaluation layers own
that transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, ZeroColumn
from .mlp import MlpParams, MlpTape, glorot_uniform, layer_tensors, mlp_forward, mlp_init
from .mvn import DEFAULT_CDF_TOL, CdfEstimate, MvnProblem, Rectangle, cdf_rectangles
from .seeding import derive_seed

__all__ = [
    "FeatureStandardization",
    "ModelParams",
    "init_model_params",
    "sigma_from_lambda",
    "mu_forward",
    "joint_estimates",
    "sum_log_values",
    "log_likelihood",
]

#: Columns of the raw interaction matrix are re-perturbed below this norm.
MIN_COLUMN_NORM = 1e-10

#: Off-diagonal correlations are clamped to at most 1 - this margin.
CORR_CLAMP = 1e-12


@dataclass(frozen=True)
class FeatureStandardization:
    """Per-feature centering/scaling recorded at training time.

    ``std`` entries are the population standard deviation, except for
    features flagged constant, whose std is recorded as 1 so the transform
    only centers them.
    """

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray

    @classmethod
    def identity(cls, m: int) -> "FeatureStandardization":
        return cls(np.zeros(m), np.ones(m), np.zeros(m, dtype=bool))

    def apply(self, l: np.ndarray) -> np.ndarray:
        return (np.asarray(l, dtype=float) - self.mean) / self.std


@dataclass
class ModelParams:
    """Full trainable state plus the metadata needed to apply it.

    ``S`` is ``(d1, n)`` with habitat embeddings as columns; ``Lambda_raw``
    is ``(d2, n)`` with un-normalized interaction embeddings as columns;
    ``W`` is ``(d1, n_output)``. ``mlp`` is the feature network; the
    linear model's is the network with no layers, ``MlpParams((m,), [], [])``
    (so ``n_output == m``), which a checkpoint records as a layer-dims
    count of 0. ``mlp=None`` is accepted and replaced by it.
    """

    species_names: list[str]
    feature_names: list[str]
    S: np.ndarray
    Lambda_raw: np.ndarray
    W: np.ndarray
    mlp: MlpParams
    standardization: FeatureStandardization

    def __post_init__(self):
        if self.mlp is None:
            self.mlp = MlpParams((self.n_features,), [], [])

    @property
    def n_species(self) -> int:
        return self.S.shape[1]

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def d1(self) -> int:
        return self.S.shape[0]

    @property
    def d2(self) -> int:
        return self.Lambda_raw.shape[0]

    @property
    def n_output(self) -> int:
        return self.W.shape[1]

    def tensors(self) -> list[np.ndarray]:
        """The trainable tensors, in checkpoint order: S, Lambda_raw, W, then
        each network layer's weight and bias."""
        return [self.S, self.Lambda_raw, self.W] + layer_tensors(
            self.mlp.weights, self.mlp.biases
        )

    def validate(self) -> None:
        n, m = self.n_species, self.n_features
        if len(self.species_names) != n:
            raise DimMismatch("species name count does not match S columns")
        if self.Lambda_raw.shape[1] != n:
            raise DimMismatch("Lambda_raw column count does not match S")
        if self.W.shape[0] != self.d1:
            raise DimMismatch("W rows must equal d1")
        if self.mlp.n_input != m:
            raise DimMismatch("MLP input dim must equal the feature count")
        if self.n_output != self.mlp.n_output:
            raise DimMismatch("W columns must equal the MLP output dim")
        if self.standardization.mean.shape[0] != m:
            raise DimMismatch("standardization stats must cover every feature")


def init_model_params(
    species_names,
    feature_names,
    d1: int = 100,
    d2: int = 100,
    hidden_dims=None,
    seed: int = 0,
    standardization: FeatureStandardization | None = None,
) -> ModelParams:
    """Seed-deterministic initialization of all parameter tensors.

    Every matrix uses the same zero-mean uniform scheme as the network
    (half-width ``sqrt(6/(rows+cols))``), drawn from named sub-streams of
    ``seed``. ``hidden_dims=None`` or an empty tuple builds the linear
    model, whose network has no layers.
    """
    species_names = list(species_names)
    feature_names = list(feature_names)
    n, m = len(species_names), len(feature_names)
    if n < 1 or m < 1 or d1 < 1 or d2 < 1:
        raise DimMismatch("all dimensions must be >= 1")
    hidden = tuple(hidden_dims) if hidden_dims else ()
    if hidden:
        mlp = mlp_init((m,) + hidden, derive_seed(seed, "init", "mlp"))
    else:
        mlp = MlpParams((m,), [], [])
    s_mat = glorot_uniform(np.random.default_rng(derive_seed(seed, "init", "S")), d1, n)
    lam = glorot_uniform(np.random.default_rng(derive_seed(seed, "init", "Lambda")), d2, n)
    w = glorot_uniform(np.random.default_rng(derive_seed(seed, "init", "W")), d1, mlp.n_output)
    _reperturb_zero_columns(lam)
    params = ModelParams(
        species_names,
        feature_names,
        s_mat,
        lam,
        w,
        mlp,
        standardization or FeatureStandardization.identity(m),
    )
    params.validate()
    return params


def _reperturb_zero_columns(lam: np.ndarray) -> None:
    """Nudge numerically-zero columns onto cycled basis vectors, in place."""
    norms = np.linalg.norm(lam, axis=0)
    for j in np.nonzero(norms < MIN_COLUMN_NORM)[0]:
        lam[:, j] = 0.0
        lam[j % lam.shape[0], j] = 1e-6


def sigma_from_lambda(lambda_raw: np.ndarray) -> np.ndarray:
    """Correlation matrix ``(n, n)`` from raw interaction embeddings ``(d2, n)``.

    Columns are L2-normalized before the Gram product, so the diagonal is
    exactly 1 and the result is invariant to rescaling any raw column by a
    positive scalar. Off-diagonals are clamped to ``1 - 1e-12`` in absolute
    value so coinciding columns cannot produce an exactly singular matrix.
    """
    lam = np.asarray(lambda_raw, dtype=float)
    norms = np.linalg.norm(lam, axis=0)
    if np.any(norms < MIN_COLUMN_NORM):
        bad = int(np.argmin(norms))
        raise ZeroColumn(f"interaction column {bad} has norm {norms[bad]:.3e}")
    lhat = lam / norms
    sigma = lhat.T @ lhat
    sigma = 0.5 * (sigma + sigma.T)
    np.clip(sigma, -(1.0 - CORR_CLAMP), 1.0 - CORR_CLAMP, out=sigma)
    np.fill_diagonal(sigma, 1.0)
    return sigma


def mu_forward(
    params: ModelParams, l: np.ndarray
) -> tuple[np.ndarray, MlpTape, np.ndarray]:
    """Latent means for standardized features ``(m,)`` or a batch ``(B, m)``.

    Returns ``(mu, tape, h)`` where ``h = W @ network(l)`` is the
    environment embedding and ``mu[j] = s_j . h``, each with the leading
    axis of ``l``. The network's tape is retained for backpropagation.
    """
    l = np.asarray(l, dtype=float)
    if l.ndim not in (1, 2) or l.shape[-1] != params.n_features:
        raise DimMismatch(
            f"feature shape {l.shape} is neither ({params.n_features},) "
            f"nor (B, {params.n_features})"
        )
    out, tape = mlp_forward(params.mlp, l)
    h = out @ params.W.T
    return h @ params.S, tape, h


def joint_estimates(
    params: ModelParams,
    presence: np.ndarray,
    mu: np.ndarray,
    tol: float = DEFAULT_CDF_TOL,
    seed: int = 0,
) -> list[CdfEstimate]:
    """Integrator estimates of the joint probabilities of ``(N, n)``
    presence rows at ``(N, n)`` latent means, as :func:`mu_forward` maps
    them from standardized features.

    One factorization serves every row; row ``i`` integrates with seed
    ``seed XOR i``, and a row that misses the tolerance is kept
    (:func:`~dmse.mvn.cdf_rectangles` logs it).
    """
    problem = MvnProblem(mu, sigma_from_lambda(params.Lambda_raw))
    seeds = [seed ^ i for i in range(len(mu))]
    return cdf_rectangles(problem, Rectangle.from_presence(presence), seeds, tol)


def sum_log_values(estimates) -> float:
    """Sum, in order, of the logs of the estimates' values, each floored at 1e-300."""
    total = 0.0
    for est in estimates:
        total += math.log(max(est.value, 1e-300))
    return total


def log_likelihood(
    params: ModelParams,
    presence: np.ndarray,
    features: np.ndarray,
    tol: float = DEFAULT_CDF_TOL,
    seed: int = 0,
) -> float:
    """Sum of the log joint probabilities of ``(N, n)`` presence rows at
    ``(N, m)`` standardized features, each floored at 1e-300: the
    :func:`sum_log_values` of :func:`joint_estimates` at the features'
    latent means. Zero rows give 0.0; presence and feature shapes that
    disagree raise :class:`DimMismatch`.
    """
    presence = np.asarray(presence)
    features = np.asarray(features, dtype=float)
    if features.ndim != 2 or presence.shape != (len(features), params.n_species):
        raise DimMismatch(f"presence {presence.shape} does not match features {features.shape}")
    mu, _, _ = mu_forward(params, features)
    return sum_log_values(joint_estimates(params, presence, mu, tol, seed))
