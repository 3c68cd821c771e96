"""Stochastic-gradient maximum-likelihood training with AdaGrad.

One step: draw a minibatch and estimate its mean log-likelihood gradient
by Monte Carlo, then apply an AdaGrad ascent update. The minibatch is the
unit of work: one forward pass, one Gibbs sampler call over every
observation's chains (from one seeded stream per step), and one chain-rule
assembly. The correlation matrix, its factor, and its inverse are computed
once per step since they do not depend on the features.

Each step makes one record, the run's only trace: :func:`train` streams it
to its sink and returns the list. Besides the gradient's standard error it
holds the minibatch log-likelihood from one tilted ``tol=math.inf`` pass
per observation, which feeds no gradient, and its relative error. Every
epoch runs; held-out data is scored by :func:`dmse.evaluation.evaluate`.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dataio import Dataset, standardize
from .errors import ConfigError, InvalidK, NonFiniteGradient
from .gradients import GradientBundle, assemble_bundle, grad_mu_sigma
from .mlp import DEFAULT_HIDDEN_DIMS
from .model import (
    ModelParams,
    init_model_params,
    mu_forward,
    sigma_from_lambda,
    _reperturb_zero_columns,
)
from .mvn import MvnProblem, Rectangle, SamplerConfig, cdf_rectangles
from .seeding import derive_seed

log = logging.getLogger(__name__)

#: Added to the root of each AdaGrad accumulator, so an entry that has
#: seen only zero gradients takes no step instead of dividing by zero.
ADAGRAD_EPSILON = 1e-8

__all__ = [
    "ADAGRAD_EPSILON",
    "TrainConfig",
    "AdagradState",
    "adagrad_step",
    "train",
    "kfold_split",
]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``cdf_tol`` is read only by ``dmse cv``, which evaluates each fold at
    this tolerance; :func:`train` never reads it (its logged estimate is
    one ``tol=math.inf`` pass, and gradient estimation never integrates).
    ``hidden_dims=()`` trains the linear model, whose network has no layers
    (projection of raw features only).
    """

    learning_rate: float = 0.05
    minibatch_size: int = 32
    epochs: int = 30
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    cdf_tol: float = 1e-3
    seed: int = 0
    d1: int = 100
    d2: int = 100
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS

    def __post_init__(self):
        for key, ok, need in (
            ("learning_rate", 0 < self.learning_rate < math.inf, "finite and > 0"),
            ("cdf_tol", 0 < self.cdf_tol < math.inf, "finite and > 0"),
            ("minibatch_size", self.minibatch_size >= 1, ">= 1"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("d1", self.d1 >= 1, ">= 1"),
            ("d2", self.d2 >= 1, ">= 1"),
            ("hidden_dims", all(d >= 1 for d in self.hidden_dims or ()), "empty or all >= 1"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {need}, got {getattr(self, key)!r}")


@dataclass
class AdagradState:
    """Accumulators of squared gradients (entrywise, nondecreasing), one per
    tensor of :meth:`~dmse.model.ModelParams.tensors`, in its order."""

    acc: list[np.ndarray]
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdagradState":
        return cls([np.zeros_like(t) for t in params.tensors()])


def _ascent(tensor: np.ndarray, acc: np.ndarray, g: np.ndarray, lr: float):
    acc += g * g
    tensor += lr * g / (np.sqrt(acc) + ADAGRAD_EPSILON)


def adagrad_step(
    params: ModelParams,
    state: AdagradState,
    bundle: GradientBundle,
    cfg: TrainConfig,
) -> None:
    """One AdaGrad ascent update of ``params`` and ``state``, in place.

    ``bundle`` must already be averaged over its minibatch. Raises
    :class:`NonFiniteGradient` (leaving parameters and accumulators
    untouched) when any gradient entry is NaN or infinite; callers skip
    and log such steps.
    """
    if not bundle.is_finite():
        raise NonFiniteGradient(f"non-finite gradient at step {state.step}")
    for tensor, acc, g in zip(params.tensors(), state.acc, bundle.tensors(), strict=True):
        _ascent(tensor, acc, g, cfg.learning_rate)
    _reperturb_zero_columns(params.Lambda_raw)
    state.step += 1


def _minibatch_bundle(params, presence, features, indices, cfg, sampler_seed, loglik_seed):
    """Averaged bundle plus the step record's estimator fields for one minibatch.

    ``indices`` pick the minibatch's rows of the standardized ``presence``
    and ``features`` matrices. The sampler draws from ``sampler_seed``;
    row ``i`` integrates its logged likelihood with ``loglik_seed ^ i``.
    Returns ``(bundle, fields)``: ``fields`` holds the mean log-likelihood
    (``minibatch_loglik``), its mean relative error
    (``minibatch_loglik_err``) and the mean gradient standard error
    (``grad_se``).
    """
    bits, feats = presence[indices], features[indices]
    mu, tape, h = mu_forward(params, feats)
    problem = MvnProblem(mu, sigma_from_lambda(params.Lambda_raw))
    rect = Rectangle.from_presence(bits)
    musig = grad_mu_sigma(problem, rect, cfg.sampler, sampler_seed)
    bundle = assemble_bundle(params, feats, musig, tape, h)
    seeds = [loglik_seed ^ int(i) for i in indices]
    estimates = cdf_rectangles(problem, rect, seeds, math.inf)
    return bundle, {
        "minibatch_loglik": float(np.mean([est.log_value for est in estimates])),
        "minibatch_loglik_err": float(np.mean([est.rel_error for est in estimates])),
        "grad_se": float(np.mean(musig.se_mu)),
    }


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    init_seed: int = 0,
    log_sink=None,
) -> tuple[ModelParams, list[dict]]:
    """Maximize the dataset log-likelihood from a seeded initialization.

    The dataset is standardized internally and the statistics are stored in
    the returned parameters. Every one of ``cfg.epochs`` epochs runs. Each
    step's record, a plain dict of step, epoch, its minibatch's estimator
    fields, wall time and skip flag, goes to ``log_sink`` as it is made;
    ``(params, records)`` is returned. The whole run is deterministic
    given ``cfg.seed`` and ``init_seed``.

    Aborts (raising :class:`NonFiniteGradient`) only if more than half the
    steps of an epoch were skipped for non-finite gradients. Raises
    :class:`ConfigError` when ``cfg.d2`` is below the species count (the
    correlation matrix would then be rank-deficient and its jittered
    inverse would make the gradient estimates meaningless) or when
    ``cfg.minibatch_size`` exceeds the dataset, and
    :class:`~dmse.errors.DimMismatch` for fewer than two observations.
    """
    if cfg.d2 < dataset.n_species:
        raise ConfigError(
            f"d2={cfg.d2} is below the species count n_species={dataset.n_species}; "
            f"the correlation matrix would be rank-deficient (need d2 >= n_species)"
        )
    std_data, stats = standardize(dataset)
    n_obs = len(dataset)
    if cfg.minibatch_size > n_obs:
        raise ConfigError(
            f"minibatch_size={cfg.minibatch_size} exceeds the dataset size n_obs={n_obs}"
        )
    params = init_model_params(
        dataset.species_names,
        dataset.feature_names,
        d1=cfg.d1,
        d2=cfg.d2,
        hidden_dims=cfg.hidden_dims,
        seed=init_seed,
        standardization=stats,
    )
    state = AdagradState.zeros_like(params)
    records = []

    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    sampler_base = derive_seed(cfg.seed, "sampler")
    presence, features = std_data.presence, std_data.features
    t0 = time.monotonic()
    step = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n_obs)
        skipped_this_epoch = 0
        steps_this_epoch = 0
        for start in range(0, n_obs, cfg.minibatch_size):
            idx = order[start : start + cfg.minibatch_size]
            step += 1
            bundle, fields = _minibatch_bundle(
                params, presence, features, idx, cfg,
                sampler_seed=derive_seed(sampler_base, step),
                loglik_seed=sampler_base ^ (epoch << 32),
            )
            steps_this_epoch += 1
            skipped = False
            try:
                adagrad_step(params, state, bundle, cfg)
            except NonFiniteGradient:
                skipped = True
                skipped_this_epoch += 1
                log.warning("step %d skipped: non-finite gradient", step)
            rec = {"step": step, "epoch": epoch, **fields,
                   "wall_time": time.monotonic() - t0, "skipped": skipped}
            records.append(rec)
            if log_sink is not None:
                log_sink(rec)
        if steps_this_epoch > 0 and skipped_this_epoch > steps_this_epoch / 2:
            raise NonFiniteGradient(
                f"{skipped_this_epoch}/{steps_this_epoch} steps skipped in epoch {epoch}"
            )
    return params, records


def kfold_split(n_obs: int, k: int, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded split of the row indices ``0 .. n_obs-1`` into ``k`` near-equal folds.

    Returns ``(train, validation)`` index pairs, each sorted. Fold ``i``'s
    validation indices are block ``i`` of a seeded permutation, so every
    index appears in exactly one validation set. Raises :class:`InvalidK`
    unless ``2 <= k <= n_obs``.
    """
    if k < 2 or k > n_obs:
        raise InvalidK(f"k must be in [2, {n_obs}], got {k}")
    perm = np.random.default_rng(seed).permutation(n_obs)
    blocks = np.array_split(perm, k)
    splits = []
    for i in range(k):
        val = np.sort(blocks[i])
        trn = np.sort(np.concatenate([blocks[j] for j in range(k) if j != i]))
        splits.append((trn, val))
    return splits
