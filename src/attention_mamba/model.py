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

from .layers import LinearLayer, RevIN, linear
from .mamba import MambaParams, bidirectional_mamba
from .pooled_attention import AttentionTrace, PooledAttentionParams, attention_weights
from .tensor_core import ShapeError, Tensor

CHECKPOINT_MAGIC = b"ATTNMAMBA1"

BIDIRECTIONAL_VARIANTS = ("fused-reverse", "per-branch-reverse")


class ConfigError(ValueError):
    """A configuration value violates a documented constraint."""


class CheckpointError(ValueError):
    """A checkpoint file is malformed: bad magic, cut short, bytes after the
    last record, a tensor name given twice, or parameters that do not fit
    the model its config describes."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; every field is validated up front."""

    n_variates: int
    lookback: int
    horizon: int
    embed_dim: int
    expansion: int = 1
    conv_width: int = 32
    state_dim: int = 16
    bidirectional_variant: str = "fused-reverse"
    precision: str = "32"

    def __post_init__(self):
        for name in ("n_variates", "lookback", "horizon", "embed_dim", "expansion",
                     "conv_width", "state_dim"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if self.embed_dim < 4 or self.embed_dim % 4 != 0:
            raise ConfigError(f"embed_dim must be a positive multiple of 4, got {self.embed_dim}")
        if self.lookback < 2:
            raise ConfigError(f"lookback must be >= 2 for instance statistics, got {self.lookback}")
        if self.bidirectional_variant not in BIDIRECTIONAL_VARIANTS:
            raise ConfigError(
                f"bidirectional_variant must be one of {BIDIRECTIONAL_VARIANTS}, "
                f"got {self.bidirectional_variant!r}"
            )
        if self.precision not in ("32", "64"):
            raise ConfigError(f"precision must be '32' or '64', got {self.precision!r}")

    @property
    def dtype(self):
        return np.float32 if self.precision == "32" else np.float64

    def to_dict(self) -> dict:
        return asdict(self)

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
    """Intermediates of one model forward pass: the forward's own arrays,
    made read-only, not copies."""

    attention: AttentionTrace
    value: np.ndarray           # [B, N, E], bidirectional scan output
    weighted_value: np.ndarray  # [B, N, E], weights * value elementwise


class AttentionMambaModel:
    """The full forecaster; parameters are plain tensors on the tape."""

    def __init__(self, config: ModelConfig, rng: np.random.Generator):
        self.config = config
        dtype = config.dtype
        self.revin = RevIN(config.n_variates, dtype=dtype)
        self.embed = LinearLayer.init(config.lookback, config.embed_dim, rng, dtype)
        self.attn = PooledAttentionParams.init(config.n_variates, config.embed_dim, rng, dtype)
        self.mamba_fwd = MambaParams.init(
            config.embed_dim, config.n_variates, rng,
            expansion=config.expansion, conv_width=config.conv_width,
            state_dim=config.state_dim, dtype=dtype,
        )
        self.mamba_bwd = MambaParams.init(
            config.embed_dim, config.n_variates, rng,
            expansion=config.expansion, conv_width=config.conv_width,
            state_dim=config.state_dim, dtype=dtype,
        )
        self.head = LinearLayer.init(config.embed_dim, config.horizon, rng, dtype)

    # -- parameters ----------------------------------------------------------

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = [("revin.gamma", self.revin.gamma), ("revin.beta", self.revin.beta),
               ("embed.weight", self.embed.weight), ("embed.bias", self.embed.bias)]
        out += [(f"attn.{n}", t) for n, t in self.attn.named_parameters()]
        out += [(f"mamba_fwd.{n}", t) for n, t in self.mamba_fwd.named_parameters()]
        out += [(f"mamba_bwd.{n}", t) for n, t in self.mamba_bwd.named_parameters()]
        out += [("head.weight", self.head.weight), ("head.bias", self.head.bias)]
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    # -- forward ---------------------------------------------------------------

    def forward(self, x: np.ndarray) -> tuple[Tensor, ForwardTrace]:
        """Forecast [B, T, N] from a lookback window [B, L, N]."""
        cfg = self.config
        data = np.asarray(x, dtype=cfg.dtype)
        if data.ndim != 3 or data.shape[1] != cfg.lookback or data.shape[2] != cfg.n_variates:
            raise ShapeError(
                f"input must be [B, {cfg.lookback}, {cfg.n_variates}], got {data.shape}"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("input window contains non-finite values")

        normalized, state = self.revin.normalize(Tensor(data))
        tokens = normalized.transpose_last2()            # [B, N, L]
        embedded = linear(tokens, self.embed)            # [B, N, E]

        weights, attn_trace = attention_weights(embedded, self.attn)
        value = bidirectional_mamba(
            embedded, self.mamba_fwd, self.mamba_bwd,
            variant=cfg.bidirectional_variant,
        )
        fused = weights * value                          # elementwise, [B, N, E]

        horizon_first = linear(fused, self.head).transpose_last2()   # [B, T, N]
        yhat = self.revin.denormalize(horizon_first, state)
        for array in (value.data, fused.data):
            array.flags.writeable = False
        return yhat, ForwardTrace(attention=attn_trace, value=value.data, weighted_value=fused.data)


def parameter_count(model: AttentionMambaModel) -> int:
    """Exact number of trainable scalars."""
    return sum(t.data.size for _, t in model.named_parameters())


# --------------------------------------------------------------------------
# checkpoint container: magic, config record, named float32 tensor records

def save_checkpoint(path, config: ModelConfig, tensors: dict[str, np.ndarray]) -> None:
    """Write a byte-stable container of named tensors.

    Every tensor is stored as little-endian float32 regardless of the
    in-memory precision; names are UTF-8, extents unsigned 32-bit.
    """
    config_blob = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(config_blob)))
        fh.write(config_blob)
        fh.write(struct.pack("<I", len(tensors)))
        for name, array in tensors.items():
            encoded = name.encode()
            arr = np.ascontiguousarray(array, dtype="<f4")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a container written by ``save_checkpoint``.

    Raises CheckpointError when the file has a bad magic, is cut short,
    has bytes after the last record or names a tensor twice, and
    ConfigError when its config record is not a valid ModelConfig.
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
        tensors[name] = np.frombuffer(take(n_bytes), dtype="<f4").reshape(shape).copy()
    if pos != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - pos} bytes after the last tensor record")
    return config, tensors


def save_model(path, model: AttentionMambaModel, extras: dict[str, np.ndarray] | None = None) -> None:
    """Checkpoint the model parameters plus optional extra arrays

    (the dataset scaler, for instance), all in one container. An extra
    may not reuse a parameter's name.
    """
    tensors = {name: t.data for name, t in model.named_parameters()}
    if extras:
        clash = tensors.keys() & extras.keys()
        if clash:
            raise ValueError(f"checkpoint extras collide with parameter names: {sorted(clash)}")
        tensors.update(extras)
    save_checkpoint(path, model.config, tensors)


def load_model(path) -> tuple[AttentionMambaModel, dict[str, np.ndarray]]:
    """Rebuild a model from a checkpoint; unknown names come back as extras."""
    config, tensors = load_checkpoint(path)
    model = AttentionMambaModel(config, np.random.default_rng(0))
    extras: dict[str, np.ndarray] = {}
    known = dict(model.named_parameters())
    for name, array in tensors.items():
        if name in known:
            if known[name].data.shape != array.shape:
                raise CheckpointError(
                    f"checkpoint tensor {name} has shape {array.shape}, "
                    f"model expects {known[name].data.shape}"
                )
            known[name].data = array.astype(config.dtype)
        else:
            extras[name] = array
    missing = set(known) - set(tensors)
    if missing:
        raise CheckpointError(f"checkpoint is missing parameters: {sorted(missing)}")
    return model, extras
