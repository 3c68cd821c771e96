"""Tests for the binary checkpoint format."""

import struct
import zlib

import numpy as np
import pytest

from dmse.checkpoint import MAX_NAME_BYTES, checkpoint_bytes, load_checkpoint, save_checkpoint
from dmse.errors import CorruptCheckpoint
from dmse.mlp import MlpParams
from dmse.model import init_model_params


def sample_params(hidden=(5, 3), seed=2):
    params = init_model_params(
        ["wren", "jay"], ["water", "forest", "urban"],
        d1=4, d2=6, hidden_dims=hidden, seed=seed,
    )
    params.standardization.mean[:] = [0.1, -2.0, 33.0]
    params.standardization.std[:] = [1.5, 0.2, 1.0]
    params.standardization.constant[2] = True
    return params


class TestRoundTrip:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        params = sample_params()
        path = tmp_path / "model.dmse"
        save_checkpoint(params, path)
        first = path.read_bytes()
        loaded = load_checkpoint(path)
        assert checkpoint_bytes(loaded) == first

    def test_values_survive(self, tmp_path):
        params = sample_params()
        path = tmp_path / "model.dmse"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.species_names == params.species_names
        assert loaded.feature_names == params.feature_names
        np.testing.assert_array_equal(loaded.S, params.S)
        np.testing.assert_array_equal(loaded.Lambda_raw, params.Lambda_raw)
        np.testing.assert_array_equal(loaded.W, params.W)
        np.testing.assert_array_equal(loaded.standardization.mean, params.standardization.mean)
        np.testing.assert_array_equal(loaded.standardization.constant,
                                      params.standardization.constant)
        assert loaded.mlp.layer_dims == params.mlp.layer_dims
        for a, b in zip(loaded.mlp.weights, params.mlp.weights):
            np.testing.assert_array_equal(a, b)

    def test_identity_extractor_roundtrip(self, tmp_path):
        params = sample_params(hidden=())
        assert params.mlp == MlpParams((3,), [], [])
        path = tmp_path / "flat.dmse"
        save_checkpoint(params, path)
        # The network with no layers is written as a layer-dims count of 0.
        assert path.read_bytes()[26:28] == struct.pack("<H", 0)
        loaded = load_checkpoint(path)
        assert loaded.mlp == MlpParams((3,), [], [])
        assert checkpoint_bytes(loaded) == path.read_bytes()

    def test_unicode_names(self, tmp_path):
        params = init_model_params(
            ["Ardea cinérea", "チドリ"], ["café"], d1=2, d2=2, hidden_dims=(3,), seed=1,
        )
        path = tmp_path / "u.dmse"
        save_checkpoint(params, path)
        assert load_checkpoint(path).species_names == ["Ardea cinérea", "チドリ"]

    def test_name_over_the_limit_leaves_the_file_as_it_was(self, tmp_path):
        path = tmp_path / "m.dmse"
        save_checkpoint(sample_params(), path)
        before = path.read_bytes()
        params = sample_params()
        params.species_names[0] = "é" * (MAX_NAME_BYTES // 2 + 1)
        with pytest.raises(ValueError, match="name too long"):
            save_checkpoint(params, path)
        assert path.read_bytes() == before


def with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


def hand_built(case):
    """Checkpoint bytes that no initializer makes, with a valid CRC."""
    if case == "one-entry":
        # checkpoint_bytes writes the network with no layers as a count of
        # 0, so a count of 1 is spliced in after the 26 header bytes.
        body = checkpoint_bytes(sample_params(hidden=()))[:-4]
        return with_crc(body[:26] + struct.pack("<HI", 1, 3) + body[28:])
    params = sample_params(hidden=(5, 3))
    if case == "zero-d1":
        params.S, params.W = params.S[:0], params.W[:0]
    else:
        dims = (3, 0, 3)
        pairs = list(zip(dims[:-1], dims[1:]))
        params.mlp = MlpParams(dims, [np.zeros((b, a)) for a, b in pairs],
                               [np.zeros(b) for _, b in pairs])
    return checkpoint_bytes(params)


class TestCorruption:
    @pytest.mark.parametrize("case", ["one-entry", "zero-width", "zero-d1"])
    def test_dims_below_one_rejected(self, tmp_path, case):
        # Valid CRC and sizes; only a dimension breaks the writers' rules.
        path = tmp_path / "model.dmse"
        path.write_bytes(hand_built(case))
        with pytest.raises(CorruptCheckpoint, match="dims must be >= 1"):
            load_checkpoint(path)

    @pytest.mark.parametrize("std", [0.0, -1.0])
    def test_std_not_positive_rejected(self, tmp_path, std):
        # Applying the standardization would divide by it.
        params = sample_params()
        params.standardization.std[1] = std
        path = tmp_path / "model.dmse"
        save_checkpoint(params, path)
        with pytest.raises(CorruptCheckpoint, match=f"standardization std must be > 0, got {std}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("what", ["standardization mean", "standardization std", "S",
                                      "Lambda_raw", "W", "MLP weight 1", "MLP bias 0"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tensor_rejected(self, tmp_path, what, bad):
        # The CRC is computed over the bad bytes, so only a value check
        # catches them.
        params = sample_params()
        tensor = {
            "standardization mean": params.standardization.mean,
            "standardization std": params.standardization.std,
            "S": params.S, "Lambda_raw": params.Lambda_raw, "W": params.W,
            "MLP weight 1": params.mlp.weights[1], "MLP bias 0": params.mlp.biases[0],
        }[what]
        tensor.flat[-1] = bad
        path = tmp_path / "model.dmse"
        save_checkpoint(params, path)
        with pytest.raises(CorruptCheckpoint, match=f"non-finite value in {what}$"):
            load_checkpoint(path)

    def test_flipped_byte_fails_crc(self, tmp_path):
        path = tmp_path / "model.dmse"
        save_checkpoint(sample_params(), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptCheckpoint, match="CRC"):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "model.dmse"
        save_checkpoint(sample_params(), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    @pytest.mark.parametrize("case, message", [
        ("truncated", "^truncated checkpoint$"),
        ("bad-utf8", "^invalid UTF-8 in name table$"),
        ("version-2", "^unsupported format version 2$"),
        ("first-dim", "^layer dims inconsistent with header dims$"),
    ])
    def test_body_rejected_past_a_valid_crc(self, tmp_path, case, message):
        body = checkpoint_bytes(sample_params())[:-4]
        if case == "truncated":
            body = body[: len(body) // 2]
        elif case == "bad-utf8":
            assert body.count(b"wren") == 1
            body = body.replace(b"wren", b"\xffren")
        elif case == "version-2":
            body = body[:4] + struct.pack("<H", 2) + body[6:]
        else:
            # The first layer dim, after the 28 header bytes, is the input
            # width: 3 features, written here as 4.
            assert body[28:32] == struct.pack("<I", 3)
            body = body[:28] + struct.pack("<I", 4) + body[32:]
        path = tmp_path / "model.dmse"
        path.write_bytes(with_crc(body))
        with pytest.raises(CorruptCheckpoint, match=message):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "model.dmse"
        save_checkpoint(sample_params(), path)
        raw = bytearray(path.read_bytes())
        raw[0:4] = b"NOPE"
        # Keep the CRC consistent so the magic check itself fires.
        path.write_bytes(with_crc(bytes(raw[:-4])))
        with pytest.raises(CorruptCheckpoint, match="magic"):
            load_checkpoint(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.dmse"
        path.write_bytes(b"")
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "model.dmse"
        save_checkpoint(sample_params(), path)
        raw = path.read_bytes()
        path.write_bytes(with_crc(raw[:-4] + b"\x00" * 16))
        with pytest.raises(CorruptCheckpoint):
            load_checkpoint(path)
