"""Predictive metrics: per-species AUC and joint log-likelihood.

The comparison baseline throughout is the *independent* model: identical
marginal means with the correlation matrix replaced by the identity, so a
log-likelihood gap isolates what the learned correlations contribute.
AUC is computed from marginal probabilities and is therefore identical
under both models by construction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import log_ndtr, ndtr

from .dataio import Dataset, apply_standardization
from .errors import DegenerateLabels, DimMismatch
from .model import ModelParams, log_likelihood, mu_forward
from .seeding import derive_seed

__all__ = ["EvalReport", "auc", "evaluate"]


@dataclass
class EvalReport:
    """Metrics of one model on one dataset.

    ``per_species_auc`` maps species name to AUC, or None when the species
    has a single class in the data (AUC undefined, reported absent rather
    than 0.5). Log-likelihoods are totals over the dataset.
    """

    per_species_auc: dict
    mean_auc: float
    joint_loglik: float
    independent_loglik: float
    n_obs: int

    def to_text(self) -> str:
        lines = [
            f"n_obs = {self.n_obs}",
            f"joint_loglik = {self.joint_loglik!r}",
            f"independent_loglik = {self.independent_loglik!r}",
            f"joint_minus_independent_per_obs = "
            f"{(self.joint_loglik - self.independent_loglik) / max(self.n_obs, 1)!r}",
            f"mean_auc = {self.mean_auc!r}",
        ]
        for name, value in self.per_species_auc.items():
            lines.append(f"auc[{name}] = {'absent' if value is None else repr(value)}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "species", "value"])
            writer.writerow(["n_obs", "", self.n_obs])
            writer.writerow(["joint_loglik", "", repr(self.joint_loglik)])
            writer.writerow(["independent_loglik", "", repr(self.independent_loglik)])
            writer.writerow(["mean_auc", "", repr(self.mean_auc)])
            for name, value in self.per_species_auc.items():
                writer.writerow(["auc", name, "" if value is None else repr(value)])


def auc(scores, labels) -> float:
    """Area under the ROC curve, Mann-Whitney form with half-credit ties.

    Equals ``(concordant + 0.5 * tied) / (positives * negatives)`` over all
    positive/negative pairs, computed via average ranks.

    Raises
    ------
    DegenerateLabels
        If only one class is present.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise DimMismatch("scores and labels must be equal-length vectors")
    n_pos = int(np.sum(labels == 1))
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("AUC needs at least one positive and one negative label")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # Each run of tied scores starting at sorted position i with c members
    # shares the average 1-based rank i + (c + 1) / 2.
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    counts = np.diff(np.r_[starts, len(scores)])
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(starts + 0.5 * (counts + 1), counts)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate(
    params: ModelParams,
    dataset: Dataset,
    cdf_tol: float = 1e-6,
    seed: int = 0,
) -> EvalReport:
    """Score a model on a raw dataset.

    Features are standardized with the model's stored statistics and mapped
    to latent means once. Those means give the AUC scores ``Phi(mu)`` and
    the independent log-likelihood, the closed-form probit factorization
    under the identity correlation. Raises
    :class:`DimMismatch` for a dataset of another schema or with no rows.
    """
    if dataset.species_names != params.species_names:
        missing = set(params.species_names) - set(dataset.species_names)
        raise DimMismatch(
            f"dataset species do not match the model"
            + (f"; missing {sorted(missing)}" if missing else "")
        )
    if dataset.feature_names != params.feature_names:
        raise DimMismatch("dataset features do not match the model")
    if not len(dataset):
        raise DimMismatch("evaluation needs at least one observation")
    std_data = apply_standardization(dataset, params.standardization)
    presence = std_data.presence
    mu, _, _ = mu_forward(params, std_data.features)
    scores = ndtr(mu)

    per_species = {}
    defined = []
    for j, name in enumerate(params.species_names):
        labels = presence[:, j]
        if labels.min() == labels.max():
            per_species[name] = None
            continue
        value = auc(scores[:, j], labels)
        per_species[name] = value
        defined.append(value)
    mean_auc = float(np.mean(defined)) if defined else float("nan")

    joint = log_likelihood(
        params, presence, std_data.features, cdf_tol, derive_seed(seed, "joint")
    )
    independent = float(np.sum(log_ndtr((2.0 * presence - 1.0) * mu)))
    return EvalReport(per_species, mean_auc, joint, independent, len(dataset))
