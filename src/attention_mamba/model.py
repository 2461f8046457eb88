"""Model assembly: instance norm, inverted embedding, pooled attention
fused elementwise with the bidirectional scan value, forecast head, and
the paired denormalization. Also the checkpoint container format.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np

from .data import check_int
from .layers import LinearLayer, RevIN, linear, named_tensors
from .mamba import CONV_WIDTH, EXPANSION, STATE_DIM, MambaParams, bidirectional_mamba
from .pooled_attention import PooledAttentionParams, attention_weights
from .tensor_core import ShapeError, Tensor

CHECKPOINT_MAGIC = b"ATTNMAMBA1"
# Every v1 config record holds these fixed entries, so that older readers load
# a new file as the same function: the scan form and the Mamba sizes, which
# were once config fields. A file with another value, such as the retired
# "fused-reverse" scan form, or with an entry missing, is refused.
V1_FIXED_ENTRIES = {"bidirectional_variant": "per-branch-reverse", "expansion": EXPANSION,
                    "conv_width": CONV_WIDTH, "state_dim": STATE_DIM}


class ConfigError(ValueError):
    """A configuration value violates a documented constraint."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed: bad magic, cut short, bytes after the
    last record, a tensor name given twice, a fixed v1 entry missing or
    other than the model runs, or parameters that do not fit the model its
    config describes. On saving: a tensor that is not finite as float32."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; every field is validated up front."""

    n_variates: int
    lookback: int
    horizon: int
    embed_dim: int
    precision: str = "32"

    def __post_init__(self):
        for name in ("n_variates", "lookback", "horizon", "embed_dim"):
            check_int(name, getattr(self, name), 1, ConfigError)
        if self.embed_dim < 4 or self.embed_dim % 4 != 0:
            raise ConfigError(f"embed_dim must be a positive multiple of 4, got {self.embed_dim}")
        if self.lookback < 2:
            raise ConfigError(f"lookback must be >= 2 for instance statistics, got {self.lookback}")
        if self.precision not in ("32", "64"):
            raise ConfigError(f"precision must be '32' or '64', got {self.precision!r}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "32" else np.float64

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a mapping of keys to values, got {d!r}")
        unknown = set(d) - {f.name for f in fields(ModelConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        missing = [f.name for f in fields(ModelConfig) if f.default is MISSING and f.name not in d]
        if missing:
            raise ConfigError(f"missing config keys {missing}")
        return ModelConfig(**d)


@dataclass
class ForwardTrace:
    """The three arrays of the fusion in one forward pass: the forward's own
    arrays, made read-only, not copies."""

    weights: np.ndarray         # [B, N, E], pooled attention weights
    value: np.ndarray           # [B, N, E], bidirectional scan output
    weighted_value: np.ndarray  # [B, N, E], weights * value elementwise


class AttentionMambaModel:
    """The full forecaster; parameters are plain tensors on the tape."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        """Draw every parameter in float64, then cast it once to ``config.dtype``
        by ``load_parameters``. The blocks are set in checkpoint order."""
        self.config = config
        self.revin = RevIN(config.n_variates)
        self.embed = LinearLayer.init(config.lookback, config.embed_dim, rng)
        self.attn = PooledAttentionParams.init(config.n_variates, config.embed_dim, rng)
        # forward direction drawn first, then backward
        self.mamba_fwd, self.mamba_bwd = (
            MambaParams.init(config.embed_dim, config.n_variates, rng) for _ in range(2)
        )
        self.head = LinearLayer.init(config.embed_dim, config.horizon, rng)
        self.load_parameters({name: t.data for name, t in self.named_parameters()})

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        """Every parameter under its checkpoint name, by ``named_tensors``."""
        return named_tensors(self)

    def load_parameters(self, arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Replace every parameter by the array of its name, cast to ``config.dtype``
        (no copy where the dtype matches); return the arrays the model has no
        name for. A parameter missing from ``arrays`` or at another shape
        raises CheckpointError before any is replaced."""
        named = dict(self.named_parameters())
        for name, t in named.items():
            if name not in arrays:
                raise CheckpointError(f"checkpoint is missing parameter {name!r}")
            if arrays[name].shape != t.data.shape:
                raise CheckpointError(f"checkpoint tensor {name} has shape {arrays[name].shape}, "
                                      f"model expects {t.data.shape}")
        for name, t in named.items():
            t.data = arrays[name].astype(self.config.dtype, copy=False)
        return {name: array for name, array in arrays.items() if name not in named}

    # -- forward ---------------------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[Tensor, ForwardTrace]:
        """Forecast [B, T, N] from a lookback window [B, L, N]."""
        cfg = self.config
        with np.errstate(over="ignore"):   # a value past the dtype's range becomes inf, refused below
            data = np.asarray(x, dtype=cfg.dtype)
        if data.ndim != 3 or data.shape[0] < 1 or data.shape[1:] != (cfg.lookback, cfg.n_variates):
            raise ShapeError(
                f"input must be [B, {cfg.lookback}, {cfg.n_variates}] with B >= 1, got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError(f"input window holds a value that is not finite as {data.dtype}")

        normalized, state = self.revin.normalize(Tensor(data))
        tokens = normalized.transpose_last2()            # [B, N, L]
        embedded = linear(tokens, self.embed)            # [B, N, E]

        # the value first: its scans' peak then comes before the attention's tape exists
        value = bidirectional_mamba(embedded, self.mamba_fwd, self.mamba_bwd)
        weights = attention_weights(embedded, self.attn)
        fused = weights * value                          # elementwise, [B, N, E]

        horizon_first = linear(fused, self.head).transpose_last2()   # [B, T, N]
        yhat = self.revin.denormalize(horizon_first, state)
        kept = [t.data for t in (weights, value, fused)]
        for array in kept:
            array.flags.writeable = False
        return yhat, ForwardTrace(*kept)


# --------------------------------------------------------------------------
# checkpoint container: magic, config record, named float32 tensor records

def save_checkpoint(path, config: ModelConfig, tensors: dict[str, np.ndarray]) -> None:
    """Write a byte-stable container of named tensors.

    The config record is the config's fields plus ``V1_FIXED_ENTRIES``.
    Every tensor is stored as little-endian float32 regardless of the
    in-memory precision; names are UTF-8, extents unsigned 32-bit.

    Every tensor is cast before the file is opened. One that is not finite
    as float32 (NaN, infinite, or past float32's range) raises
    CheckpointError naming the first such tensor, and no file is written:
    ``load_checkpoint`` would refuse it.
    """
    record = asdict(config) | V1_FIXED_ENTRIES
    config_blob = json.dumps(record, sort_keys=True, separators=(",", ":")).encode()
    with np.errstate(over="ignore"):   # a value past float32's range becomes inf, refused below
        arrays = {name: np.ascontiguousarray(array, dtype="<f4") for name, array in tensors.items()}
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{path}: tensor {name!r} is not finite as float32")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            encoded = name.encode()
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a container written by ``save_checkpoint``.

    Raises CheckpointError when the file has a bad magic, is cut short,
    has bytes after the last record, names a tensor twice, holds a
    non-finite value in a tensor or does not hold every entry of
    ``V1_FIXED_ENTRIES`` at its value, and ConfigError when the rest of its
    config record is not a valid ModelConfig.
    """
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())   # slices below share its buffer
    pos = 0

    def take(n_bytes: int) -> memoryview:
        nonlocal pos
        if pos + n_bytes > len(blob):
            raise CheckpointError(f"{path}: file cut short: needs {pos + n_bytes} bytes, has {len(blob)}")
        pos += n_bytes
        return blob[pos - n_bytes:pos]

    def unpack(fmt: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt)))

    magic = bytes(blob[:len(CHECKPOINT_MAGIC)])
    if magic != CHECKPOINT_MAGIC[:len(magic)]:   # a prefix of the magic is a cut-short file
        raise CheckpointError(f"{path}: not a checkpoint file: bad magic {magic!r}")
    take(len(CHECKPOINT_MAGIC))
    (config_len,) = unpack("<I")
    config_blob = take(config_len)
    try:
        config_dict = json.loads(bytes(config_blob).decode())
    except ValueError as exc:   # UnicodeDecodeError and JSONDecodeError alike
        raise CheckpointError(f"{path}: config record is not UTF-8 JSON: {exc}") from None
    if not isinstance(config_dict, dict):
        raise CheckpointError(f"{path}: config record is not a JSON object")
    for key, fixed in V1_FIXED_ENTRIES.items():
        found = config_dict.pop(key, None)
        if type(found) is not type(fixed) or found != fixed:   # true is not 1
            raise CheckpointError(
                f"{path}: config record has {key}={found!r}; only {fixed!r} loads, "
                f"as another value computes another function"
            )
    config = ModelConfig.from_dict(config_dict)
    (count,) = unpack("<I")
    tensors: dict[str, np.ndarray] = {}
    for i in range(count):
        (name_len,) = unpack("<H")
        try:
            name = bytes(take(name_len)).decode()
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor {i} name is not UTF-8") from None
        if name in tensors:
            raise CheckpointError(f"{path}: tensor name {name!r} appears twice")
        (ndim,) = unpack("<B")
        shape = unpack(f"<{ndim}I")
        n_bytes = 4 * math.prod(shape)   # exact: extents up to 2**32-1 overflow int64
        array = np.frombuffer(take(n_bytes), dtype="<f4").reshape(shape).copy()
        if not np.isfinite(array).all():
            raise CheckpointError(f"{path}: tensor {name!r} holds a non-finite value")
        tensors[name] = array
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} bytes after the last tensor record")
    return config, tensors


def save_model(path, model: AttentionMambaModel) -> None:
    """Checkpoint the model's config and parameters."""
    tensors = {name: t.data for name, t in model.named_parameters()}
    save_checkpoint(path, model.config, tensors)


def load_model(path) -> tuple[AttentionMambaModel, dict[str, np.ndarray]]:
    """Rebuild a model from a checkpoint: construct it from the config, then
    ``load_parameters``; unknown names come back as extras."""
    config, tensors = load_checkpoint(path)
    model = AttentionMambaModel(config, np.random.default_rng(0))
    return model, model.load_parameters(tensors)
