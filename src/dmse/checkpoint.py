"""Binary model checkpoint.

Layout (all little-endian):

    bytes 0-3   magic ``DMSE``
    u16         format version (currently 1)
    u32 x 5     n_species, n_features, d1, d2, n_output
    u16         number of layer dims (0 for the network with no layers)
    u32 x k     layer dims (input and output included)
    name table  n_species + n_features entries: u16 length + UTF-8 bytes
    f64 x m     standardization means
    f64 x m     standardization stds
    u8  x m     constant-feature flags
    f64 tensors row-major, in ModelParams.tensors() order: S (d1 x n),
                Lambda_raw (d2 x n), W (d1 x n_output), then per network
                layer weight and bias
    u32         CRC-32 of everything above

Saving the same parameters twice produces identical bytes, so training
determinism can be checked at the file level.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import CorruptCheckpoint
from .mlp import MlpParams
from .model import FeatureStandardization, ModelParams

__all__ = ["save_checkpoint", "load_checkpoint", "checkpoint_bytes", "FORMAT_VERSION"]

MAGIC = b"DMSE"
FORMAT_VERSION = 1


def _pack_name(name: str) -> bytes:
    raw = name.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValueError(f"name too long: {name[:32]!r}...")
    return struct.pack("<H", len(raw)) + raw


def _pack_tensor(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f8").tobytes()


def checkpoint_bytes(params: ModelParams) -> bytes:
    """Serialize parameters to the checkpoint byte layout."""
    params.validate()
    out = [MAGIC, struct.pack("<H", FORMAT_VERSION)]
    # The network with no layers is written as 0 layer dims, not as (m,).
    layer_dims = params.mlp.layer_dims if params.mlp.weights else ()
    out.append(
        struct.pack(
            "<5I",
            params.n_species,
            params.n_features,
            params.d1,
            params.d2,
            params.n_output,
        )
    )
    out.append(struct.pack("<H", len(layer_dims)))
    out.append(struct.pack(f"<{len(layer_dims)}I", *layer_dims))
    for name in params.species_names:
        out.append(_pack_name(name))
    for name in params.feature_names:
        out.append(_pack_name(name))
    out.append(_pack_tensor(params.standardization.mean))
    out.append(_pack_tensor(params.standardization.std))
    out.append(np.asarray(params.standardization.constant, dtype=np.uint8).tobytes())
    out.extend(_pack_tensor(t) for t in params.tensors())
    body = b"".join(out)
    return body + struct.pack("<I", zlib.crc32(body))


def save_checkpoint(params: ModelParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(params))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise CorruptCheckpoint("truncated checkpoint")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def name(self) -> str:
        (length,) = self.unpack("<H")
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptCheckpoint("invalid UTF-8 in name table") from exc

    def tensor(self, what: str, shape) -> np.ndarray:
        count = int(np.prod(shape))
        a = np.frombuffer(self.take(count * 8), dtype="<f8").astype(float).reshape(shape)
        # The CRC covers NaN bytes too. Unchecked, a non-finite parameter would
        # surface only after every integral had spent its whole budget on NaN.
        if not np.all(np.isfinite(a)):
            raise CorruptCheckpoint(f"non-finite value in {what}")
        return a


def load_checkpoint(path) -> ModelParams:
    """Read and validate a checkpoint; raises :class:`CorruptCheckpoint`."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(MAGIC) + 2 + 4:
        raise CorruptCheckpoint("file too small to be a checkpoint")
    body, crc_bytes = data[:-4], data[-4:]
    (crc,) = struct.unpack("<I", crc_bytes)
    if zlib.crc32(body) != crc:
        raise CorruptCheckpoint("CRC mismatch")
    r = _Reader(body)
    if r.take(4) != MAGIC:
        raise CorruptCheckpoint("bad magic")
    (version,) = r.unpack("<H")
    if version != FORMAT_VERSION:
        raise CorruptCheckpoint(f"unsupported format version {version}")
    n, m, d1, d2, n_output = r.unpack("<5I")
    # No model that init_model_params or mlp_init built has a dim below 1.
    if min(n, m, d1, d2, n_output) < 1:
        raise CorruptCheckpoint(f"header dims must be >= 1, got {(n, m, d1, d2, n_output)}")
    (n_layer_dims,) = r.unpack("<H")
    layer_dims = r.unpack(f"<{n_layer_dims}I")
    if n_layer_dims == 1 or min(layer_dims, default=1) < 1:
        raise CorruptCheckpoint(
            f"layer dims must be >= 1 with at least two layers, got {layer_dims}"
        )
    layer_dims = layer_dims or (m,)
    if layer_dims[0] != m or layer_dims[-1] != n_output:
        raise CorruptCheckpoint("layer dims inconsistent with header dims")
    species_names = [r.name() for _ in range(n)]
    feature_names = [r.name() for _ in range(m)]
    mean = r.tensor("standardization mean", (m,))
    std = r.tensor("standardization std", (m,))
    # FeatureStandardization.apply divides by std: 0 would turn a feature
    # into inf, and a negative std is no standard deviation.
    if not np.all(std > 0):
        raise CorruptCheckpoint(f"standardization std must be > 0, got {float(std.min())}")
    constant = np.frombuffer(r.take(m), dtype=np.uint8).astype(bool)
    s_mat = r.tensor("S", (d1, n))
    lam = r.tensor("Lambda_raw", (d2, n))
    w = r.tensor("W", (d1, n_output))
    weights, biases = [], []
    for k in range(len(layer_dims) - 1):
        weights.append(r.tensor(f"MLP weight {k}", (layer_dims[k + 1], layer_dims[k])))
        biases.append(r.tensor(f"MLP bias {k}", (layer_dims[k + 1],)))
    mlp = MlpParams(layer_dims, weights, biases)
    if r.pos != len(body):
        raise CorruptCheckpoint(f"{len(body) - r.pos} trailing bytes")
    params = ModelParams(
        species_names,
        feature_names,
        s_mat,
        lam,
        w,
        mlp,
        FeatureStandardization(mean, std, constant),
    )
    try:
        params.validate()
    except Exception as exc:
        raise CorruptCheckpoint(f"inconsistent dimensions: {exc}") from exc
    return params
