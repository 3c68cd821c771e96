"""Command-line surface: train, eval, predict, export, cv, synth.

Run configuration is a flat ``key = value`` text file (``#`` comments);
unknown keys are errors, and repeatable ``--set key=value`` flags override
file values. All randomness flows from one ``--seed`` through named
sub-streams, so runs are reproducible end to end.

Exit codes: 2 for configuration errors, 3 for data errors, 4 for a
training abort.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np
from scipy.special import ndtr

from . import dataio
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, DimMismatch, DmseError, NonFiniteGradient, NotPositiveDefinite
from .evaluation import evaluate
from .model import mu_forward, sigma_from_lambda
from .mvn import MvnProblem, Rectangle, SamplerConfig, cdf_rectangles
from .seeding import derive_seed
from .training import TrainConfig, kfold_split, train

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_TRAINING = 4

_TRAIN_KEYS = {f.name: f.type for f in fields(TrainConfig) if f.name != "sampler"}
# Training derives the sampler seed per step from the run seed: not a config key.
_SAMPLER_KEYS = {f.name: f.type for f in fields(SamplerConfig) if f.name != "rng_seed"}


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def parse_flat_config(text: str) -> dict:
    """Parse ``key = value`` lines; blank lines and ``#`` comments ignored."""
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _parse_hidden_dims(value: str) -> tuple[int, ...]:
    v = value.strip().lower()
    if v in ("", "none"):
        return ()
    try:
        return tuple(int(p) for p in value.split(","))
    except ValueError:
        raise ConfigError(f"hidden_dims must be comma-separated ints or 'none', got {value!r}") from None


def _coerce(key: str, value: str):
    if key == "hidden_dims":
        return _parse_hidden_dims(value)
    int_keys = {
        "minibatch_size", "epochs", "seed", "eval_every", "d1", "d2",
        "patience", "n_samples", "burn_in_sweeps", "thinning",
    }
    float_keys = {"learning_rate", "adagrad_epsilon", "cdf_tol", "cutoff_k"}
    try:
        if key in int_keys:
            return int(value)
        if key in float_keys:
            return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {value!r}") from None
    raise ConfigError(f"unknown config key {key!r}")


def build_train_config(entries: dict) -> TrainConfig:
    """Assemble TrainConfig + SamplerConfig from flat key/value strings."""
    train_kwargs, sampler_kwargs = {}, {}
    for key, raw in entries.items():
        value = _coerce(key, raw)
        if key in _TRAIN_KEYS:
            train_kwargs[key] = value
        elif key in _SAMPLER_KEYS:
            sampler_kwargs[key] = value
        else:
            raise ConfigError(f"unknown config key {key!r}")
    try:
        sampler = SamplerConfig(**sampler_kwargs)
        return TrainConfig(sampler=sampler, **train_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path: str | None, overrides) -> TrainConfig:
    entries = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                entries = parse_flat_config(fh.read())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        entries[key.strip()] = value.strip()
    return build_train_config(entries)


# ---------------------------------------------------------------------------
# Export helpers
# ---------------------------------------------------------------------------


def write_embeddings_tsv(path, names, matrix) -> None:
    """One row per species: name then the column's coordinates."""
    with open(path, "w", encoding="utf-8") as fh:
        for j, name in enumerate(names):
            coords = "\t".join(repr(float(v)) for v in matrix[:, j])
            fh.write(f"{name}\t{coords}\n")


def write_correlation_csv(path, names, sigma) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["species"] + list(names))
        for j, name in enumerate(names):
            writer.writerow([name] + [repr(float(v)) for v in sigma[j]])


def read_correlation_csv(path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    names = rows[0][1:]
    sigma = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    return names, sigma


def write_top_pairs(path, names, sigma) -> None:
    """All pairs sorted by |correlation| descending, 3 decimals."""
    n = len(names)
    pairs = [
        (abs(sigma[i, j]), names[i], names[j], sigma[i, j])
        for i in range(n)
        for j in range(i + 1, n)
    ]
    pairs.sort(key=lambda p: (-p[0], p[1], p[2]))
    with open(path, "w", encoding="utf-8") as fh:
        for _, a, b, rho in pairs:
            fh.write(f"{a}\t{b}\t{rho:.3f}\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _jsonl_sink(fh):
    def sink(rec):
        fh.write(json.dumps(rec) + "\n")
        fh.flush()

    return sink


def cmd_train(args) -> int:
    cfg = load_run_config(args.config, args.set)
    if args.seed is not None:
        cfg = replace(cfg, seed=derive_seed(args.seed, "train"))
    if args.patience is not None:
        try:
            cfg = replace(cfg, patience=args.patience)
        except ValueError as exc:
            raise ConfigError(f"--patience: {exc}") from exc
    dataset = dataio.load_csv(args.data)
    init_seed = derive_seed(args.seed if args.seed is not None else cfg.seed, "init")
    log_path = args.out + ".log"
    with open(log_path, "w", encoding="utf-8") as log_fh:
        params, _ = train(dataset, cfg, init_seed=init_seed, log_sink=_jsonl_sink(log_fh))
    save_checkpoint(params, args.out)
    print(f"wrote checkpoint {args.out} and log {log_path}")
    return 0


def _check_tol(tol: float) -> None:
    # A tolerance that can never be met runs every integral to its budget.
    if not 0 < tol < math.inf:
        raise ConfigError(f"--tol must be finite and > 0, got {tol!r}")


def cmd_eval(args) -> int:
    _check_tol(args.tol)
    params = load_checkpoint(args.model)
    dataset = dataio.load_csv(args.data)
    report = evaluate(params, dataset, cdf_tol=args.tol, seed=args.seed)
    prefix = args.out_prefix or (args.model + ".eval")
    with open(prefix + ".txt", "w", encoding="utf-8") as fh:
        fh.write(report.to_text())
    report.write_csv(prefix + ".csv")
    sys.stdout.write(report.to_text())
    return 0


def _parse_patterns(spec: str, n: int) -> list[np.ndarray]:
    patterns = []
    for part in spec.split(","):
        part = part.strip()
        if len(part) != n or any(c not in "01" for c in part):
            raise ConfigError(
                f"pattern {part!r} must be a {n}-character string of 0/1"
            )
        patterns.append(np.array([int(c) for c in part], dtype=np.int8))
    return patterns


def cmd_predict(args) -> int:
    _check_tol(args.tol)
    params = load_checkpoint(args.model)
    feature_names, feats = dataio.load_features_csv(args.features_csv)
    if feature_names != params.feature_names:
        raise DimMismatch(
            f"feature columns {feature_names} do not match the checkpoint's "
            f"{params.feature_names}"
        )
    patterns = []
    if args.joint_patterns:
        if params.n_species > 10:
            raise ConfigError(
                "joint pattern queries are limited to models with at most 10 species"
            )
        patterns = _parse_patterns(args.joint_patterns, params.n_species)
    mu, _, _ = mu_forward(params, params.standardization.apply(feats))
    problem = MvnProblem(mu, sigma_from_lambda(params.Lambda_raw))
    joints = []
    for k, pattern in enumerate(patterns):
        seeds = [derive_seed(args.seed, "predict", i, k) for i in range(len(mu))]
        joints.append(cdf_rectangles(problem, Rectangle.from_presence(pattern), seeds, args.tol))
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["sp:" + s for s in params.species_names]
            + ["pattern:" + "".join(str(int(v)) for v in p) for p in patterns]
        )
        for i, marginals in enumerate(ndtr(mu)):
            row = [repr(float(p)) for p in marginals] + [repr(est[i].value) for est in joints]
            writer.writerow(row)
    print(f"wrote predictions {args.out}")
    return 0


def cmd_export(args) -> int:
    params = load_checkpoint(args.model)
    os.makedirs(args.out_dir, exist_ok=True)
    names = params.species_names
    sigma = sigma_from_lambda(params.Lambda_raw)
    write_embeddings_tsv(os.path.join(args.out_dir, "habitat_embeddings.tsv"), names, params.S)
    write_embeddings_tsv(
        os.path.join(args.out_dir, "interaction_embeddings.tsv"), names, params.Lambda_raw
    )
    write_correlation_csv(os.path.join(args.out_dir, "correlations.csv"), names, sigma)
    write_top_pairs(os.path.join(args.out_dir, "top_pairs.tsv"), names, sigma)
    print(f"wrote exports to {args.out_dir}")
    return 0


def cmd_cv(args) -> int:
    cfg = load_run_config(args.config, args.set)
    dataset = dataio.load_csv(args.data)
    if not 2 <= args.k <= len(dataset):
        raise ConfigError(f"--k must be in [2, n_obs={len(dataset)}], got {args.k}")
    splits = kfold_split(len(dataset), args.k, seed=derive_seed(args.seed, "folds"))
    os.makedirs(args.out_dir, exist_ok=True)
    metrics = []
    for i, (trn, val) in enumerate(splits):
        fold_cfg = replace(cfg, seed=derive_seed(args.seed, "fold", i))
        try:
            params, _ = train(
                dataset.subset(trn), fold_cfg,
                init_seed=derive_seed(args.seed, "fold-init", i),
            )
            report = evaluate(
                params, dataset.subset(val), cdf_tol=cfg.cdf_tol,
                seed=derive_seed(args.seed, "fold-eval", i),
            )
        except ConfigError:
            raise
        except DmseError as exc:
            print(f"fold {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        with open(os.path.join(args.out_dir, f"fold_{i}.txt"), "w", encoding="utf-8") as fh:
            fh.write(report.to_text())
        report.write_csv(os.path.join(args.out_dir, f"fold_{i}.csv"))
        metrics.append(
            (report.mean_auc, report.joint_loglik / report.n_obs,
             report.independent_loglik / report.n_obs)
        )
    if not metrics:
        print("error: all folds failed", file=sys.stderr)
        return EXIT_TRAINING
    arr = np.array(metrics)
    lines = [f"folds_completed = {len(metrics)} of {args.k}"]
    for col, name in enumerate(
        ["mean_auc", "joint_loglik_per_obs", "independent_loglik_per_obs"]
    ):
        lines.append(f"{name}_mean = {arr[:, col].mean()!r}")
        lines.append(f"{name}_std = {arr[:, col].std(ddof=1) if len(metrics) > 1 else 0.0!r}")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(args.out_dir, "aggregate.txt"), "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


def _build_synth_spec(entries: dict) -> dataio.SynthSpec:
    parsers = {"n_species": int, "m_features": int, "n_obs": int, "mu_map": str, "seed": int,
               "mu_scale": float, "rho": float, "sigma_csv": read_correlation_csv}
    unknown = set(entries) - set(parsers)
    if unknown:
        raise ConfigError(f"unknown config key {sorted(unknown)[0]!r}")
    missing = [key for key in ("n_species", "m_features", "n_obs") if key not in entries]
    if missing:
        raise ConfigError(f"missing required key {missing[0]!r}")
    spec = {}
    for key, value in entries.items():
        try:
            spec[key] = parsers[key](value)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} ({exc})") from None
    rho = spec.pop("rho", 0.0)
    if "sigma_csv" in spec:
        sigma = spec.pop("sigma_csv")[1]
    else:
        sigma = np.full((max(spec["n_species"], 0),) * 2, rho)  # SynthSpec rejects n < 1
        np.fill_diagonal(sigma, 1.0)
    try:
        return dataio.SynthSpec(true_sigma=sigma, **spec)
    except NotPositiveDefinite as exc:
        key = "sigma_csv" if "sigma_csv" in entries else "rho"
        raise ConfigError(f"key {key!r} = {entries.get(key, '0.0')!r}: {exc}") from exc
    except (ValueError, DimMismatch) as exc:
        raise ConfigError(str(exc)) from exc


def cmd_synth(args) -> int:
    try:
        with open(args.spec_config, encoding="utf-8") as fh:
            entries = parse_flat_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.spec_config!r}: {exc}") from exc
    if args.seed is not None:
        entries["seed"] = str(derive_seed(args.seed, "synth"))
    spec = _build_synth_spec(entries)
    dataset, truth = dataio.synth_generate(spec)
    dataio.save_csv(dataset, args.out)
    with open(args.out + ".truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth.to_jsonable(), fh, indent=1)
    print(f"wrote dataset {args.out} and ground truth {args.out}.truth.json")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmse",
        description="Joint species distribution modeling with embedded "
        "habitat and interaction vectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--patience", type=int,
                   help="stop after this many stale validation evaluations (off by default)")
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="marginal (and joint-pattern) probabilities")
    p.add_argument("--features-csv", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--joint-patterns", help="comma-separated 0/1 strings")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("export", help="embeddings, correlations, top pairs")
    p.add_argument("--model", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--config")
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--spec-config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: ConfigError: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NonFiniteGradient as exc:
        print(f"error: TrainingAborted: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (DmseError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
