"""End-to-end tests of the command-line surface."""

import json
import math
import re

import numpy as np
import pytest

from dmse.checkpoint import load_checkpoint, save_checkpoint
from dmse.cli import (
    main,
    parse_flat_config,
    read_correlation_csv,
    build_train_config,
)
from dmse.errors import ConfigError
from dmse.model import FeatureStandardization, ModelParams, sigma_from_lambda
from oracles import bvn_orthant

FAST_TRAIN = (
    "learning_rate = 0.1\n"
    "minibatch_size = 8\n"
    "epochs = 1\n"
    "cdf_tol = 1e-2\n"
    "d1 = 3\n"
    "d2 = 3\n"
    "hidden_dims = 4\n"
    "n_samples = 12        # sampler draws per observation\n"
    "burn_in_sweeps = 6\n"
    "thinning = 1\n"
)

SYNTH_SPEC = (
    "n_species = 2\n"
    "m_features = 2\n"
    "n_obs = 48\n"
    "mu_map = linear\n"
    "rho = 0.5\n"
    "seed = 4\n"
)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture
def workspace(tmp_path):
    spec = write(tmp_path, "synth.cfg", SYNTH_SPEC)
    data = str(tmp_path / "data.csv")
    assert main(["synth", "--spec-config", spec, "--out", data]) == 0
    cfg = write(tmp_path, "train.cfg", FAST_TRAIN)
    model = str(tmp_path / "model.dmse")
    assert main(["train", "--data", data, "--config", cfg, "--out", model,
                 "--seed", "7"]) == 0
    return tmp_path, data, cfg, model


class TestConfigParsing:
    def test_comments_and_blanks(self):
        entries = parse_flat_config("# top\n\nlearning_rate = 0.5 # tail\n")
        assert entries == {"learning_rate": "0.5"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'velocity'"):
            build_train_config({"velocity": "3"})

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_flat_config("epochs = 1\nepochs = 2\n")

    def test_every_train_and_sampler_field_settable(self):
        cfg = build_train_config({
            "learning_rate": "0.2", "adagrad_epsilon": "1e-9",
            "minibatch_size": "16", "epochs": "3", "cdf_tol": "1e-4",
            "seed": "9", "eval_every": "50", "d1": "7", "d2": "5",
            "hidden_dims": "32,16", "patience": "2",
            "n_samples": "64", "burn_in_sweeps": "20", "thinning": "3",
            "cutoff_k": "4.5",
        })
        assert cfg.learning_rate == 0.2
        assert cfg.hidden_dims == (32, 16)
        assert cfg.sampler.n_samples == 64
        assert cfg.sampler.cutoff_k == 4.5
        # Training derives the sampler seed per step, so it is not a key.
        with pytest.raises(ConfigError, match="unknown config key 'rng_seed'"):
            build_train_config({"rng_seed": "11"})

    def test_hidden_dims_none(self):
        cfg = build_train_config({"hidden_dims": "none"})
        assert cfg.hidden_dims == ()

    def test_invalid_value_rejected(self):
        with pytest.raises(ConfigError):
            build_train_config({"epochs": "three"})
        for key, value, shown in [
            ("cutoff_k", "nan", "nan"), ("learning_rate", "nan", "nan"),
            ("learning_rate", "inf", "inf"), ("cdf_tol", "-1", "-1.0"),
            ("cdf_tol", "nan", "nan"), ("adagrad_epsilon", "inf", "inf"),
            ("patience", "-3", "-3"), ("hidden_dims", "0", "(0,)"),
            ("hidden_dims", "8,0", "(8, 0)"),
        ]:
            with pytest.raises(ConfigError, match=rf"^{key} must be .*, got {re.escape(shown)}$"):
                build_train_config({key: value})


class TestExitCodes:
    def test_config_error_is_2_with_stable_message(self, tmp_path, capsys):
        bad = write(tmp_path, "bad.cfg", "warp_speed = 9\n")
        data = write(tmp_path, "d.csv", "sp:a,env:x\n1,0.0\n0,1.0\n")
        code = main(["train", "--data", data, "--config", bad,
                     "--out", str(tmp_path / "m")])
        assert code == 2
        # Golden diagnostic: scripts match on these exact strings.
        assert capsys.readouterr().err == (
            "error: ConfigError: unknown config key 'warp_speed'\n"
        )

    def test_data_error_is_3(self, tmp_path, capsys):
        cfg = write(tmp_path, "t.cfg", FAST_TRAIN)
        code = main(["train", "--data", str(tmp_path / "missing.csv"),
                     "--config", cfg, "--out", str(tmp_path / "m")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_model_is_3(self, tmp_path, capsys):
        data = write(tmp_path, "d.csv", "sp:a,env:x\n1,0.0\n0,1.0\n")
        code = main(["eval", "--data", data, "--model", str(tmp_path / "nope.dmse")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith("\n")

    def test_presence_diagnostic_names_row_and_column(self, tmp_path, capsys):
        data = write(tmp_path, "d.csv", "sp:a,env:x\n1,0.0\n2,0.0\n")
        cfg = write(tmp_path, "t.cfg", FAST_TRAIN)
        code = main(["train", "--data", data, "--config", cfg,
                     "--out", str(tmp_path / "m.dmse")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: NonBinaryPresence: non-binary presence value '2' "
            "at row 3, column 'sp:a'\n"
        )

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_d2_below_species_count_is_2(self, tmp_path, capsys, command):
        # n=6 species with d2=3 gives a rank-deficient correlation matrix.
        spec = write(tmp_path, "s.cfg", SYNTH_SPEC.replace("n_species = 2", "n_species = 6"))
        data = str(tmp_path / "six.csv")
        assert main(["synth", "--spec-config", spec, "--out", data]) == 0
        capsys.readouterr()
        cfg = write(tmp_path, "t.cfg", FAST_TRAIN)
        out = ["--out", str(tmp_path / "m.dmse")] if command == "train" else [
            "--out-dir", str(tmp_path / "cv")]
        code = main([command, "--data", data, "--config", cfg] + out)
        assert code == 2
        err = capsys.readouterr().err
        assert "error: ConfigError:" in err
        assert "d2=3" in err and "n_species=6" in err

    @pytest.mark.parametrize("command", ["train", "cv"])
    def test_minibatch_larger_than_dataset_is_2(self, tmp_path, capsys, command):
        # Six rows: train sees all six, each 2-fold cv training split three.
        rows = "".join(f"{i % 2},{0.5 * i}\n" for i in range(6))
        data = write(tmp_path, "d.csv", "sp:a,env:x\n" + rows)
        cfg = write(tmp_path, "t.cfg", FAST_TRAIN)
        out = ["--out", str(tmp_path / "m.dmse")] if command == "train" else [
            "--out-dir", str(tmp_path / "cv"), "--k", "2"]
        code = main([command, "--data", data, "--config", cfg] + out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ConfigError:")
        n_obs = 6 if command == "train" else 3
        assert "minibatch_size=8" in err and f"n_obs={n_obs}" in err

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_fewer_than_two_rows_is_3(self, tmp_path, capsys, n_rows):
        data = write(tmp_path, "d.csv", "sp:a,env:x\n" + "1,0.0\n" * n_rows)
        cfg = write(tmp_path, "t.cfg", FAST_TRAIN)
        code = main(["train", "--data", data, "--config", cfg,
                     "--out", str(tmp_path / "m.dmse")])
        assert code == 3
        assert capsys.readouterr().err.startswith("error: DimMismatch:")

    @pytest.mark.parametrize("argv, named", [
        (["train", "--patience", "-3"], "--patience: patience must be >= 0, got -3"),
        (["train", "--set", "cutoff_k=nan"], "cutoff_k must be finite and >= 3, got nan"),
        (["eval", "--tol", "-1"], "--tol must be finite and > 0, got -1.0"),
        (["eval", "--tol", "nan"], "--tol must be finite and > 0, got nan"),
        (["predict", "--tol", "0"], "--tol must be finite and > 0, got 0.0"),
        (["cv", "--k", "5"], "--k must be in [2, n_obs=2], got 5"),
        (["cv", "--k", "1"], "--k must be in [2, n_obs=2], got 1"),
    ], ids=["train-patience", "train-cutoff_k", "eval-tol-negative", "eval-tol-nan",
            "predict-tol-zero", "cv-k-above-rows", "cv-k-1"])
    def test_rejected_argument_is_2(self, tmp_path, capsys, argv, named):
        data = write(tmp_path, "d.csv", "sp:a,env:x\n1,0.0\n0,1.0\n")
        cfg = write(tmp_path, "t.cfg", FAST_TRAIN)
        model = str(tmp_path / "m.dmse")
        rest = {
            "train": ["--data", data, "--config", cfg, "--out", model],
            "eval": ["--data", data, "--model", model],
            "predict": ["--features-csv", data, "--model", model, "--out", model + ".csv"],
            "cv": ["--data", data, "--config", cfg, "--out-dir", str(tmp_path / "cv")],
        }[argv[0]]
        assert main(argv + rest) == 2
        assert capsys.readouterr().err == f"error: ConfigError: {named}\n"

    def test_eval_dim_mismatch_is_3_and_names_species(self, workspace, capsys, tmp_path):
        ws, data, cfg, model = workspace
        other = write(ws, "other.csv", "sp:zebra,env:feature_00,env:feature_01\n1,0.0,0.0\n0,1.0,1.0\n")
        code = main(["eval", "--data", other, "--model", model])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: DimMismatch:")
        assert "species_00" in err


class TestTrainCommand:
    def test_writes_checkpoint_and_log(self, workspace):
        ws, data, cfg, model = workspace
        assert (ws / "model.dmse").exists()
        log_lines = (ws / "model.dmse.log").read_text().splitlines()
        records = [json.loads(line) for line in log_lines]
        assert all({"step", "epoch", "minibatch_loglik", "grad_se", "wall_time"}
                   <= set(r) for r in records)

    def test_byte_identical_across_runs(self, workspace):
        ws, data, cfg, model = workspace
        again = str(ws / "model2.dmse")
        assert main(["train", "--data", data, "--config", cfg, "--out", again,
                     "--seed", "7"]) == 0
        assert (ws / "model.dmse").read_bytes() == (ws / "model2.dmse").read_bytes()

    def test_epochs_zero_equals_initialization(self, workspace):
        ws, data, cfg, model = workspace
        out = str(ws / "init.dmse")
        assert main(["train", "--data", data, "--config", cfg, "--out", out,
                     "--seed", "7", "--set", "epochs=0"]) == 0
        params = load_checkpoint(out)
        # Untrained: logged steps are absent and weights equal the seeded init.
        assert (ws / "init.dmse.log").read_text() == ""
        from dmse.dataio import load_csv, standardize
        from dmse.model import init_model_params
        from dmse.seeding import derive_seed

        _, stats = standardize(load_csv(data))
        expected = init_model_params(
            params.species_names, params.feature_names, d1=3, d2=3,
            hidden_dims=(4,), seed=derive_seed(7, "init"), standardization=stats,
        )
        np.testing.assert_array_equal(params.S, expected.S)

    def test_set_overrides_config_file(self, workspace):
        ws, data, cfg, model = workspace
        out = str(ws / "m3.dmse")
        assert main(["train", "--data", data, "--config", cfg, "--out", out,
                     "--seed", "7", "--set", "d1=5"]) == 0
        assert load_checkpoint(out).d1 == 5


class TestEvalCommand:
    def test_report_files_written(self, workspace):
        ws, data, cfg, model = workspace
        prefix = str(ws / "report")
        assert main(["eval", "--data", data, "--model", model, "--tol", "1e-3",
                     "--out-prefix", prefix]) == 0
        text = (ws / "report.txt").read_text()
        assert "joint_loglik" in text
        assert (ws / "report.csv").exists()


class TestPredictCommand:
    def make_model(self, tmp_path, lam, w_scale=0.0):
        params = ModelParams(
            species_names=["a", "b"],
            feature_names=["x"],
            S=np.eye(2) if w_scale else np.zeros((2, 2)),
            Lambda_raw=np.asarray(lam, dtype=float),
            W=np.full((2, 1), w_scale),
            mlp=None,
            standardization=FeatureStandardization.identity(1),
        )
        path = tmp_path / "crafted.dmse"
        save_checkpoint(params, path)
        return str(path)

    def test_zero_weight_model_gives_half(self, tmp_path):
        model = self.make_model(tmp_path, np.eye(2))
        feats = tmp_path / "f.csv"
        feats.write_text("env:x\n0.0\n5.0\n-3.0\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["predict", "--features-csv", str(feats), "--model", model,
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[0] == "sp:a,sp:b"
        for row in rows[1:]:
            assert [float(v) for v in row.split(",")] == [0.5, 0.5]

    def test_joint_pattern_correlated_orthant(self, tmp_path):
        rho = 0.5
        lam = np.array([[1.0, rho], [0.0, math.sqrt(1 - rho * rho)]])
        model = self.make_model(tmp_path, lam)
        feats = tmp_path / "f.csv"
        feats.write_text("env:x\n0.0\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["predict", "--features-csv", str(feats), "--model", model,
                     "--out", str(out), "--joint-patterns", "11,10"]) == 0
        header, row = out.read_text().splitlines()
        assert header == "sp:a,sp:b,pattern:11,pattern:10"
        values = [float(v) for v in row.split(",")]
        np.testing.assert_allclose(values[2], bvn_orthant(rho), atol=1e-5)
        np.testing.assert_allclose(values[3], 0.5 - bvn_orthant(rho), atol=1e-5)

    def test_independent_pattern_is_product_of_marginals(self, tmp_path):
        model = self.make_model(tmp_path, np.eye(2))
        feats = tmp_path / "f.csv"
        feats.write_text("env:x\n1.0\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["predict", "--features-csv", str(feats), "--model", model,
                     "--out", str(out), "--joint-patterns", "11"]) == 0
        _, row = out.read_text().splitlines()
        a, b, joint = (float(v) for v in row.split(","))
        np.testing.assert_allclose(joint, a * b, atol=1e-6)

    def test_marginals_ignore_lambda(self, tmp_path):
        feats = tmp_path / "f.csv"
        feats.write_text("env:x\n0.7\n", encoding="utf-8")
        outputs = []
        for lam in (np.eye(2), np.array([[1.0, 0.9], [0.0, 0.1]])):
            model = self.make_model(tmp_path, lam)
            out = tmp_path / "p.csv"
            assert main(["predict", "--features-csv", str(feats), "--model", model,
                         "--out", str(out)]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]

    def test_header_only_features_write_only_the_header(self, tmp_path):
        model = self.make_model(tmp_path, np.eye(2))
        feats = tmp_path / "f.csv"
        feats.write_text("env:x\n", encoding="utf-8")
        out = tmp_path / "p.csv"
        assert main(["predict", "--features-csv", str(feats), "--model", model,
                     "--out", str(out), "--joint-patterns", "11,01"]) == 0
        assert out.read_text().splitlines() == ["sp:a,sp:b,pattern:11,pattern:01"]

    def test_bad_pattern_is_config_error(self, tmp_path, capsys):
        model = self.make_model(tmp_path, np.eye(2))
        feats = tmp_path / "f.csv"
        feats.write_text("env:x\n0.0\n", encoding="utf-8")
        code = main(["predict", "--features-csv", str(feats), "--model", model,
                     "--out", str(tmp_path / "p.csv"), "--joint-patterns", "1"])
        assert code == 2


class TestExportCommand:
    def test_equal_columns_top_pair_is_one(self, tmp_path):
        params = ModelParams(
            species_names=["a", "b"], feature_names=["x"],
            S=np.zeros((2, 2)), Lambda_raw=np.array([[0.5, 0.5], [0.2, 0.2]]),
            W=np.zeros((2, 1)), mlp=None,
            standardization=FeatureStandardization.identity(1),
        )
        model = tmp_path / "m.dmse"
        save_checkpoint(params, model)
        out = tmp_path / "exports"
        assert main(["export", "--model", str(model), "--out-dir", str(out)]) == 0
        top = (out / "top_pairs.tsv").read_text().splitlines()
        assert top[0] == "a\tb\t1.000"

    def test_orthogonal_columns_zero_correlation(self, tmp_path):
        params = ModelParams(
            species_names=["a", "b"], feature_names=["x"],
            S=np.zeros((2, 2)), Lambda_raw=np.eye(2),
            W=np.zeros((2, 1)), mlp=None,
            standardization=FeatureStandardization.identity(1),
        )
        model = tmp_path / "m.dmse"
        save_checkpoint(params, model)
        out = tmp_path / "exports"
        assert main(["export", "--model", str(model), "--out-dir", str(out)]) == 0
        assert (out / "top_pairs.tsv").read_text().splitlines()[0] == "a\tb\t0.000"

    def test_correlation_csv_roundtrip(self, workspace):
        ws, data, cfg, model = workspace
        out = ws / "exports"
        assert main(["export", "--model", model, "--out-dir", str(out)]) == 0
        names, sigma = read_correlation_csv(out / "correlations.csv")
        params = load_checkpoint(model)
        assert names == params.species_names
        np.testing.assert_allclose(
            sigma, sigma_from_lambda(params.Lambda_raw), atol=1e-6
        )
        # Embedding exports carry one row per species.
        habitat = (out / "habitat_embeddings.tsv").read_text().splitlines()
        assert len(habitat) == 2
        assert len(habitat[0].split("\t")) == 1 + params.d1


class TestCvCommand:
    def test_five_reports_and_aggregate(self, workspace):
        ws, data, cfg, model = workspace
        out = ws / "cv"
        assert main(["cv", "--data", data, "--config", cfg, "--k", "3",
                     "--seed", "1", "--out-dir", str(out),
                     "--set", "minibatch_size=4"]) == 0
        for i in range(3):
            assert (out / f"fold_{i}.txt").exists()
        agg = (out / "aggregate.txt").read_text()
        assert "folds_completed = 3 of 3" in agg
        assert "joint_loglik_per_obs_mean" in agg

    def test_bad_k_is_config_error(self, workspace):
        ws, data, cfg, model = workspace
        assert main(["cv", "--data", data, "--config", cfg, "--k", "1",
                     "--out-dir", str(ws / "cv2")]) == 2


class TestSynthCommand:
    def test_writes_dataset_and_truth_sidecar(self, tmp_path):
        spec = write(tmp_path, "s.cfg", SYNTH_SPEC)
        out = tmp_path / "synth.csv"
        assert main(["synth", "--spec-config", spec, "--out", str(out)]) == 0
        from dmse.dataio import load_csv

        ds = load_csv(out)
        assert len(ds) == 48
        truth = json.loads((tmp_path / "synth.csv.truth.json").read_text())
        assert truth["map_kind"] == "linear"
        sigma = np.array(truth["true_sigma"])
        np.testing.assert_allclose(sigma[0, 1], 0.5)

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        spec = write(tmp_path, "s.cfg", SYNTH_SPEC + "volume = 11\n")
        code = main(["synth", "--spec-config", spec, "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "volume" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("rho", "abc"), ("rho", "2"), ("rho", "-0.6"), ("rho", "inf"), ("rho", "nan"),
        ("mu_scale", "nan"), ("mu_scale", "-1"), ("mu_scale", "0"),
        ("n_species", "0"), ("m_features", "0"), ("n_obs", "-5"), ("sigma_csv", None),
    ])
    def test_invalid_value_is_config_error(self, tmp_path, capsys, key, value):
        entries = {"n_species": "3", "m_features": "2", "n_obs": "10", "rho": "0.2"}
        if value is None:  # a correlation file with a non-numeric cell
            value = write(tmp_path, "sigma.csv", "species,a,b,c\na,1,0,0\nb,0,1,x\nc,0,0,1\n")
        entries[key] = value
        spec = write(tmp_path, "s.cfg", "".join(f"{k} = {v}\n" for k, v in entries.items()))
        code = main(["synth", "--spec-config", spec, "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ConfigError: ")
        assert key in err and value in err
        assert not (tmp_path / "x.csv").exists()
