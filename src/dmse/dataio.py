"""Checklist dataset ingestion, validation, and synthetic generation.

The on-disk format is a UTF-8 CSV with a header row. Presence columns are
named ``sp:<name>`` and hold 0/1; feature columns are named ``env:<name>``
and hold finite reals. Column order is preserved on load and save.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatch,
    MalformedHeader,
    MalformedRow,
    NonBinaryPresence,
    NonFiniteFeature,
)
from .mlp import mlp_forward, mlp_init
from .model import FeatureStandardization, Observation
from .seeding import derive_seed

__all__ = [
    "Dataset",
    "SynthSpec",
    "GroundTruth",
    "load_csv",
    "save_csv",
    "standardize",
    "apply_standardization",
    "filter_top_species",
    "synth_generate",
    "synth_from_truth",
    "true_mu",
]

SPECIES_PREFIX = "sp:"
FEATURE_PREFIX = "env:"

MU_MAP_KINDS = ("linear", "mlp-random", "radial")


@dataclass
class Dataset:
    """A list of observations sharing one species/feature schema."""

    observations: list[Observation]
    species_names: list[str]
    feature_names: list[str]

    def __post_init__(self):
        if len(set(self.species_names)) != len(self.species_names):
            raise MalformedHeader("duplicate species names")
        if len(set(self.feature_names)) != len(self.feature_names):
            raise MalformedHeader("duplicate feature names")
        n, m = len(self.species_names), len(self.feature_names)
        for i, obs in enumerate(self.observations):
            if obs.b.shape[0] != n or obs.l.shape[0] != m:
                raise DimMismatch(f"observation {i} does not match the schema")

    def __len__(self) -> int:
        return len(self.observations)

    @property
    def n_species(self) -> int:
        return len(self.species_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    def presence_matrix(self) -> np.ndarray:
        return np.array([obs.b for obs in self.observations], dtype=np.int8)

    def feature_matrix(self) -> np.ndarray:
        return np.array([obs.l for obs in self.observations], dtype=float)

    def subset(self, indices) -> "Dataset":
        return Dataset(
            [self.observations[i] for i in indices],
            list(self.species_names),
            list(self.feature_names),
        )


def _read_checklist(path, species_prefix, feature_prefix, with_presence):
    """Header-checked, cell-validated rows of a checklist CSV.

    Returns ``(species_names, feature_names, rows)`` where each row is
    ``(bits, features)``; ``bits`` is None unless ``with_presence``, in
    which case species columns are also required. Row numbers in
    diagnostics are 1-based, counting the header as row 1.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedHeader("empty file") from None
        sp_cols, env_cols = [], []
        for idx, name in enumerate(header):
            if name.startswith(species_prefix):
                sp_cols.append((idx, name[len(species_prefix):]))
            elif name.startswith(feature_prefix):
                env_cols.append((idx, name[len(feature_prefix):]))
            else:
                raise MalformedHeader(
                    f"column {name!r} has neither the {species_prefix!r} "
                    f"nor the {feature_prefix!r} prefix"
                )
        if with_presence and not sp_cols:
            raise MalformedHeader("no species columns")
        if not env_cols:
            raise MalformedHeader("no feature columns")

        rows = []
        n_fields = len(header)
        for row_no, row in enumerate(reader, start=2):
            if len(row) != n_fields:
                raise MalformedRow(
                    f"row {row_no} has {len(row)} fields, expected {n_fields}"
                )
            b = None
            if with_presence:
                b = np.empty(len(sp_cols), dtype=np.int8)
                for k, (idx, name) in enumerate(sp_cols):
                    cell = row[idx].strip()
                    if cell == "0":
                        b[k] = 0
                    elif cell == "1":
                        b[k] = 1
                    else:
                        raise NonBinaryPresence(row_no, species_prefix + name, row[idx])
            l = np.empty(len(env_cols))
            for k, (idx, name) in enumerate(env_cols):
                try:
                    v = float(row[idx])
                except ValueError:
                    raise NonFiniteFeature(row_no, feature_prefix + name, row[idx]) from None
                if not math.isfinite(v):
                    raise NonFiniteFeature(row_no, feature_prefix + name, row[idx])
                l[k] = v
            rows.append((b, l))
    return [name for _, name in sp_cols], [name for _, name in env_cols], rows


def load_csv(
    path,
    species_prefix: str = SPECIES_PREFIX,
    feature_prefix: str = FEATURE_PREFIX,
) -> Dataset:
    """Parse a checklist CSV, validating every cell.

    Raises :class:`MalformedHeader` for columns outside the contract,
    :class:`MalformedRow` for a row of the wrong length, and
    :class:`NonBinaryPresence` / :class:`NonFiniteFeature` naming the
    offending row (1-based, counting the header as row 1) and column.
    """
    species, features, rows = _read_checklist(path, species_prefix, feature_prefix, True)
    return Dataset([Observation(b, l) for b, l in rows], species, features)


def load_features_csv(path, feature_prefix: str = FEATURE_PREFIX) -> tuple[list[str], np.ndarray]:
    """Parse a feature-only CSV for prediction.

    ``env:`` columns are required; ``sp:`` columns, if present, are
    ignored. Returns the feature names and an ``(N, m)`` matrix.
    """
    _, features, rows = _read_checklist(path, SPECIES_PREFIX, feature_prefix, False)
    return features, np.array([l for _, l in rows])


def save_csv(dataset: Dataset, path) -> None:
    """Write a dataset in the load_csv contract; floats round-trip exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [SPECIES_PREFIX + s for s in dataset.species_names]
            + [FEATURE_PREFIX + f for f in dataset.feature_names]
        )
        for obs in dataset.observations:
            writer.writerow(
                [str(int(v)) for v in obs.b] + [repr(float(v)) for v in obs.l]
            )


def standardize(dataset: Dataset) -> tuple[Dataset, FeatureStandardization]:
    """Z-score every feature (population convention).

    Features with std below 1e-12 are flagged constant: the output column
    is centered (hence all zeros) and the recorded std is 1.
    """
    if len(dataset) < 2:
        raise DimMismatch("standardization needs at least two observations")
    feats = dataset.feature_matrix()
    mean = feats.mean(axis=0)
    std = feats.std(axis=0)
    constant = std < 1e-12
    std = np.where(constant, 1.0, std)
    stats = FeatureStandardization(mean, std, constant)
    return apply_standardization(dataset, stats), stats


def apply_standardization(dataset: Dataset, stats: FeatureStandardization) -> Dataset:
    """Transform a dataset's features with previously recorded statistics."""
    if stats.mean.shape[0] != dataset.n_features:
        raise DimMismatch("standardization stats do not match the feature count")
    return Dataset(
        [Observation(obs.b, stats.apply(obs.l)) for obs in dataset.observations],
        list(dataset.species_names),
        list(dataset.feature_names),
    )


def filter_top_species(dataset: Dataset, top_k: int) -> tuple[Dataset, float]:
    """Keep the ``top_k`` most frequently present species.

    Ties break by name order. Returns the filtered dataset and the fraction
    of presence records retained.
    """
    n = dataset.n_species
    if not 1 <= top_k <= n:
        raise DimMismatch(f"top_k must be in [1, {n}], got {top_k}")
    presence = dataset.presence_matrix()
    counts = presence.sum(axis=0)
    order = sorted(range(n), key=lambda j: (-counts[j], dataset.species_names[j]))
    keep = sorted(order[:top_k])
    total = int(counts.sum())
    coverage = float(counts[keep].sum()) / total if total > 0 else 1.0
    observations = [
        Observation(obs.b[keep], obs.l) for obs in dataset.observations
    ]
    return (
        Dataset(observations, [dataset.species_names[j] for j in keep],
                list(dataset.feature_names)),
        coverage,
    )


# ---------------------------------------------------------------------------
# Synthetic data with known ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for a synthetic checklist dataset.

    ``mu_map`` selects the true habitat-suitability map: ``linear`` (a
    seeded random linear map), ``mlp-random`` (a seeded random tanh
    network), or ``radial`` (suitability driven by distance from a ring,
    which no linear model can represent). Each map is affinely calibrated
    on a fixed probe sample so every species' latent mean has standard
    deviation ``mu_scale`` over the feature distribution.
    """

    n_species: int
    m_features: int
    n_obs: int
    mu_map: str = "linear"
    true_sigma: np.ndarray = None
    mu_scale: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if self.mu_map not in MU_MAP_KINDS:
            raise ValueError(f"mu_map must be one of {MU_MAP_KINDS}")
        sigma = self.true_sigma
        if sigma is None:
            sigma = np.eye(self.n_species)
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != (self.n_species, self.n_species):
            raise DimMismatch("true_sigma shape does not match n_species")
        if not np.allclose(np.diag(sigma), 1.0, atol=1e-12):
            raise ValueError("true_sigma must have unit diagonal")
        if np.abs(sigma - sigma.T).max() > 1e-12:
            raise ValueError("true_sigma must be symmetric")
        object.__setattr__(self, "true_sigma", sigma)


@dataclass
class GroundTruth:
    """Generating parameters frozen alongside a synthetic dataset."""

    map_kind: str
    map_params: dict
    true_sigma: np.ndarray

    def to_jsonable(self) -> dict:
        return {
            "map_kind": self.map_kind,
            "map_params": {
                k: (v.tolist() if isinstance(v, np.ndarray) else v)
                for k, v in self.map_params.items()
            },
            "true_sigma": self.true_sigma.tolist(),
        }


def _raw_mu(kind: str, params: dict, feats: np.ndarray) -> np.ndarray:
    if kind == "linear":
        return feats @ np.asarray(params["coef"]).T
    if kind == "mlp-random":
        from .mlp import MlpParams

        net = MlpParams(
            tuple(params["layer_dims"]),
            [np.asarray(w) for w in params["weights"]],
            [np.asarray(b) for b in params["biases"]],
        )
        out, _ = mlp_forward(net, feats)
        return out
    if kind == "radial":
        radius = np.linalg.norm(feats, axis=1, keepdims=True)
        return (radius - params["ring_radius"]) * np.asarray(params["signs"])[None, :]
    raise ValueError(f"unknown map kind {kind!r}")


def true_mu(truth: GroundTruth, feats: np.ndarray) -> np.ndarray:
    """Evaluate the generating latent-mean map on raw features ``(N, m)``."""
    feats = np.atleast_2d(np.asarray(feats, dtype=float))
    raw = _raw_mu(truth.map_kind, truth.map_params, feats)
    center = np.asarray(truth.map_params["calibration_center"])
    scale = np.asarray(truth.map_params["calibration_scale"])
    return (raw - center) / scale


def _map_input_dim(truth: GroundTruth) -> int:
    if truth.map_kind == "linear":
        return np.asarray(truth.map_params["coef"]).shape[1]
    if truth.map_kind == "mlp-random":
        return int(truth.map_params["layer_dims"][0])
    return int(truth.map_params["m_features"])


def synth_from_truth(truth: GroundTruth, n_obs: int, seed: int) -> Dataset:
    """Fresh draws from an existing generating process (e.g. a held-out set)."""
    sigma = np.asarray(truth.true_sigma, dtype=float)
    n = sigma.shape[0]
    m = _map_input_dim(truth)
    rng = np.random.default_rng(derive_seed(seed, "synth", "draw"))
    feats = rng.uniform(-1.0, 1.0, size=(n_obs, m))
    mu = true_mu(truth, feats)
    chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(n))
    latent = mu + rng.standard_normal((n_obs, n)) @ chol.T
    bits = (latent > 0).astype(np.int8)
    return Dataset(
        [Observation(bits[i], feats[i]) for i in range(n_obs)],
        [f"species_{j:02d}" for j in range(n)],
        [f"feature_{j:02d}" for j in range(m)],
    )


def synth_generate(spec: SynthSpec) -> tuple[Dataset, GroundTruth]:
    """Sample a dataset from the generative model.

    Features are uniform on ``[-1, 1]^m``; the latent vector is drawn from
    the normal with mean ``true_mu(l)`` and covariance ``true_sigma`` via
    its Cholesky factor; presence is the sign of the latent coordinate.
    Deterministic given ``spec.seed``.
    """
    n, m = spec.n_species, spec.m_features
    rng_map = np.random.default_rng(derive_seed(spec.seed, "synth", "map"))
    if spec.mu_map == "linear":
        map_params = {"coef": rng_map.normal(size=(n, m))}
    elif spec.mu_map == "mlp-random":
        net = mlp_init((m, 32, 32, n), derive_seed(spec.seed, "synth", "net"))
        map_params = {
            "layer_dims": list(net.layer_dims),
            "weights": net.weights,
            "biases": net.biases,
        }
    else:  # radial
        map_params = {
            "ring_radius": math.sqrt(m / 3.0),  # RMS radius of U[-1,1]^m
            "signs": np.where(rng_map.random(n) < 0.5, -1.0, 1.0),
            "m_features": m,
        }

    # Calibrate each species' raw map to mean 0 / sd mu_scale on a probe
    # sample so the Bayes-optimal signal strength is controlled.
    probe_rng = np.random.default_rng(derive_seed(spec.seed, "synth", "probe"))
    probe = probe_rng.uniform(-1.0, 1.0, size=(4096, m))
    raw = _raw_mu(spec.mu_map, map_params, probe)
    sd = raw.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    map_params["calibration_center"] = raw.mean(axis=0)
    map_params["calibration_scale"] = sd / spec.mu_scale
    truth = GroundTruth(spec.mu_map, map_params, spec.true_sigma)
    return synth_from_truth(truth, spec.n_obs, spec.seed), truth
