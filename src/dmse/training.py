"""Stochastic-gradient maximum-likelihood training with AdaGrad.

One step: draw a minibatch and estimate its mean log-likelihood gradient
by Monte Carlo, then apply an AdaGrad ascent update. The minibatch is the
unit of work: one forward pass, one Gibbs sampler call over every
observation's chains (from one seeded stream per step), and one chain-rule
assembly. The correlation matrix, its factor, and its inverse are computed
once per step since they do not depend on the features.

Each step also logs a cheap estimate of the minibatch log-likelihood (one
lattice pass per observation) together with its relative error.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .dataio import Dataset, apply_standardization, standardize
from .errors import ConfigError, InvalidK, NonFiniteGradient
from .gradients import GradientBundle, assemble_bundle, grad_mu_sigma
from .mlp import DEFAULT_HIDDEN_DIMS, MlpGrads
from .model import (
    ModelParams,
    init_model_params,
    log_likelihood,
    mu_forward,
    sigma_from_lambda,
    _reperturb_zero_columns,
)
from .mvn import N_RANDOMIZATIONS, MvnProblem, Rectangle, SamplerConfig, cdf_rectangles
from .seeding import derive_seed

log = logging.getLogger(__name__)

__all__ = [
    "TrainConfig",
    "AdagradState",
    "TrainingLog",
    "adagrad_step",
    "train",
    "kfold_split",
]

#: Integrand evaluations for each observation's logged log-likelihood:
#: one lattice pass of :data:`N_RANDOMIZATIONS` shifts of 257 points, so the
#: integrator never doubles the point count.
LOGLIK_MAX_SAMPLES = N_RANDOMIZATIONS * 257


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    ``cdf_tol`` is the tolerance of the log-likelihood estimates: the
    validation evaluations and the per-step logged estimate, which is
    capped at one lattice pass (:data:`LOGLIK_MAX_SAMPLES`). Gradient
    estimation never integrates. ``hidden_dims=()`` trains the model
    without the network (projection of raw features only).
    """

    learning_rate: float = 0.05
    adagrad_epsilon: float = 1e-8
    minibatch_size: int = 32
    epochs: int = 30
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    cdf_tol: float = 1e-3
    seed: int = 0
    eval_every: int = 100
    d1: int = 100
    d2: int = 100
    hidden_dims: tuple[int, ...] = DEFAULT_HIDDEN_DIMS
    patience: int = 0

    def __post_init__(self):
        for key, ok, need in (
            ("learning_rate", 0 < self.learning_rate < math.inf, "finite and > 0"),
            ("adagrad_epsilon", 0 < self.adagrad_epsilon < math.inf, "finite and > 0"),
            ("cdf_tol", 0 < self.cdf_tol < math.inf, "finite and > 0"),
            ("minibatch_size", self.minibatch_size >= 1, ">= 1"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("eval_every", self.eval_every >= 1, ">= 1"),
            ("d1", self.d1 >= 1, ">= 1"),
            ("d2", self.d2 >= 1, ">= 1"),
            ("patience", self.patience >= 0, ">= 0"),
            ("hidden_dims", all(d >= 1 for d in self.hidden_dims or ()), "empty or all >= 1"),
        ):
            if not ok:
                raise ValueError(f"{key} must be {need}, got {getattr(self, key)!r}")


@dataclass
class AdagradState:
    """Per-tensor accumulators of squared gradients (entrywise, nondecreasing)."""

    acc_S: np.ndarray
    acc_Lambda: np.ndarray
    acc_W: np.ndarray
    acc_mlp: MlpGrads | None
    step: int = 0

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "AdagradState":
        return cls(
            np.zeros_like(params.S),
            np.zeros_like(params.Lambda_raw),
            np.zeros_like(params.W),
            MlpGrads.zeros_like(params.mlp) if params.mlp is not None else None,
            0,
        )


@dataclass
class TrainingLog:
    """Step and evaluation records of one run.

    Step records hold: step, epoch, minibatch mean log-likelihood estimate
    and its mean relative error, mean gradient standard error, wall time,
    and skip flag. Records are plain dicts so they stream as line-delimited
    JSON.
    """

    steps: list[dict] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)
    skipped_steps: int = 0

    def record_step(self, rec: dict, sink=None) -> None:
        self.steps.append(rec)
        if sink is not None:
            sink(rec)

    def record_eval(self, rec: dict, sink=None) -> None:
        self.evals.append(rec)
        if sink is not None:
            sink(rec)


def _ascent(tensor: np.ndarray, acc: np.ndarray, g: np.ndarray, lr: float, eps: float):
    acc += g * g
    tensor += lr * g / (np.sqrt(acc) + eps)


def adagrad_step(
    params: ModelParams,
    state: AdagradState,
    bundle: GradientBundle,
    cfg: TrainConfig,
) -> tuple[ModelParams, AdagradState]:
    """One AdaGrad ascent update in place; returns the mutated pair.

    ``bundle`` must already be averaged over its minibatch. Raises
    :class:`NonFiniteGradient` (leaving parameters and accumulators
    untouched) when any gradient entry is NaN or infinite; callers skip
    and log such steps.
    """
    if not bundle.is_finite():
        raise NonFiniteGradient(f"non-finite gradient at step {state.step}")
    lr, eps = cfg.learning_rate, cfg.adagrad_epsilon
    _ascent(params.S, state.acc_S, bundle.d_S, lr, eps)
    _ascent(params.Lambda_raw, state.acc_Lambda, bundle.d_Lambda_raw, lr, eps)
    _ascent(params.W, state.acc_W, bundle.d_W, lr, eps)
    if params.mlp is not None:
        for w, a, g in zip(params.mlp.weights, state.acc_mlp.weights, bundle.d_mlp.weights):
            _ascent(w, a, g, lr, eps)
        for b, a, g in zip(params.mlp.biases, state.acc_mlp.biases, bundle.d_mlp.biases):
            _ascent(b, a, g, lr, eps)
    _reperturb_zero_columns(params.Lambda_raw)
    state.step += 1
    return params, state


def _minibatch_bundle(params, presence, features, indices, cfg, sampler_seed, loglik_seed):
    """Averaged bundle plus logging statistics for one minibatch.

    ``indices`` pick the minibatch's rows of the standardized ``presence``
    and ``features`` matrices. The sampler draws from ``sampler_seed``;
    row ``i`` integrates its logged likelihood with ``loglik_seed ^ i``.
    Returns ``(bundle, mean_loglik, mean_loglik_rel_err, mean_grad_se)``.
    """
    bits, feats = presence[indices], features[indices]
    mu, tape, h = mu_forward(params, feats)
    problem = MvnProblem(mu, sigma_from_lambda(params.Lambda_raw))
    rect = Rectangle.from_presence(bits)
    musig = grad_mu_sigma(problem, rect, replace(cfg.sampler, rng_seed=sampler_seed))
    bundle = assemble_bundle(params, feats, musig, tape, h)
    stats = []
    seeds = [loglik_seed ^ int(i) for i in indices]
    for est in cdf_rectangles(problem, rect, seeds, cfg.cdf_tol, LOGLIK_MAX_SAMPLES):
        value = max(est.value, 1e-300)
        stats.append((np.log(value), est.error_estimate / value))
    mean_ll, mean_err = np.mean(stats, axis=0)
    return bundle, float(mean_ll), float(mean_err), float(np.mean(musig.se_mu))


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    init_seed: int = 0,
    validation: Dataset | None = None,
    log_sink=None,
) -> tuple[ModelParams, TrainingLog]:
    """Maximize the dataset log-likelihood from a seeded initialization.

    The dataset is standardized internally and the statistics are stored in
    the returned parameters; ``validation`` (raw features, same schema) is
    evaluated every ``cfg.eval_every`` steps with the same statistics. The
    whole run is deterministic given ``cfg.seed`` and ``init_seed``.

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
    tlog = TrainingLog()
    val_std = None
    if validation is not None:
        val_std = apply_standardization(validation, stats)

    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle"))
    sampler_base = derive_seed(cfg.seed, "sampler")
    eval_seed = derive_seed(cfg.seed, "eval")
    presence, features = std_data.presence, std_data.features
    t0 = time.monotonic()
    step = 0
    best_val = -np.inf
    stale_evals = 0
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n_obs)
        skipped_this_epoch = 0
        steps_this_epoch = 0
        for start in range(0, n_obs, cfg.minibatch_size):
            idx = order[start : start + cfg.minibatch_size]
            step += 1
            bundle, mean_ll, mean_ll_err, mean_se = _minibatch_bundle(
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
                tlog.skipped_steps += 1
                log.warning("step %d skipped: non-finite gradient", step)
            tlog.record_step(
                {
                    "step": step,
                    "epoch": epoch,
                    "minibatch_loglik": mean_ll,
                    "minibatch_loglik_err": mean_ll_err,
                    "grad_se": mean_se,
                    "wall_time": time.monotonic() - t0,
                    "skipped": skipped,
                },
                log_sink,
            )
            if val_std is not None and step % cfg.eval_every == 0:
                val_ll = log_likelihood(
                    params, val_std.presence, val_std.features, cfg.cdf_tol, eval_seed
                ) / len(val_std)
                tlog.record_eval(
                    {"step": step, "epoch": epoch, "validation_loglik": val_ll},
                    log_sink,
                )
                if cfg.patience > 0:
                    if val_ll > best_val:
                        best_val, stale_evals = val_ll, 0
                    else:
                        stale_evals += 1
                        if stale_evals >= cfg.patience:
                            log.info("early stop after %d stale evaluations", stale_evals)
                            return params, tlog
        if steps_this_epoch > 0 and skipped_this_epoch > steps_this_epoch / 2:
            raise NonFiniteGradient(
                f"{skipped_this_epoch}/{steps_this_epoch} steps skipped in epoch {epoch}"
            )
    return params, tlog


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
