import gc
import hashlib
import json
import math
import struct
from dataclasses import fields

import numpy as np
import pytest

from attention_mamba.layers import LinearLayer
from attention_mamba.model import (
    AttentionMambaModel,
    CheckpointError,
    ConfigError,
    ModelConfig,
    load_checkpoint,
    load_model,
    parameter_count,
    save_checkpoint,
    save_model,
)
from attention_mamba.tensor_core import ShapeError, Tensor, concatenate, gradients, slice_axis
from helpers import numerical_grad, rel_error

RNG = np.random.default_rng(41)

TINY = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8,
                   state_dim=4, precision="64")


def tiny_model(seed=0, config=TINY):
    return AttentionMambaModel(config, np.random.default_rng(seed))


class TestConfig:
    def test_embed_dim_must_be_multiple_of_4(self):
        with pytest.raises(ConfigError, match="multiple of 4"):
            ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=30)

    def test_positive_extents_required(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_variates=0, lookback=8, horizon=4, embed_dim=8)
        with pytest.raises(ConfigError):
            ModelConfig(n_variates=3, lookback=8, horizon=-1, embed_dim=8)

    def test_precision_and_variant_validated(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8, precision="16")
        with pytest.raises(ConfigError):
            ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8,
                        bidirectional_variant="sideways")

    def test_round_trips_through_dict(self):
        cfg = ModelConfig(n_variates=7, lookback=96, horizon=24, embed_dim=32)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        d = TINY.to_dict() | {"dropout": 0.1, "heads": 4}
        with pytest.raises(ConfigError, match=r"\['dropout', 'heads'\]"):
            ModelConfig.from_dict(d)


    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="embed_dim"):
            ModelConfig.from_dict({"n_variates": 3, "lookback": 8, "horizon": 4})

    @pytest.mark.parametrize("key,value", [("embed_dim", "8"), ("n_variates", True),
                                           ("lookback", 8.0), ("precision", 64)])
    def test_wrong_value_type_named(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_dict(TINY.to_dict() | {key: value})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            ModelConfig.from_dict(["n_variates", "lookback"])

    @pytest.mark.parametrize("edit,key", [
        (lambda d: {k: v for k, v in d.items() if k != "embed_dim"}, "embed_dim"),
        (lambda d: d | {"embed_dim": "8"}, "embed_dim"),
        (lambda d: d | {"n_variates": True}, "n_variates"),
    ], ids=["missing", "string", "bool"])
    def test_bad_checkpoint_config_named(self, tmp_path, edit, key):
        path = tmp_path / "model.ckpt"
        save_model(path, tiny_model())
        rewrite_config(path, edit)
        with pytest.raises(ConfigError, match=key):
            load_checkpoint(path)


def rewrite_config(path, edit):
    """Replace a checkpoint's config record with edit(config dict)."""
    blob = path.read_bytes()
    start = len(b"ATTNMAMBA1")
    (length,) = struct.unpack("<I", blob[start:start + 4])
    config = json.loads(blob[start + 4:start + 4 + length])
    new = json.dumps(edit(config)).encode()
    path.write_bytes(blob[:start] + struct.pack("<I", len(new)) + new + blob[start + 4 + length:])


class TestForward:
    def test_shape_contract(self):
        cfg = ModelConfig(n_variates=7, lookback=96, horizon=24, embed_dim=32)
        model = AttentionMambaModel(cfg, np.random.default_rng(0))
        yhat, trace = model.forward(RNG.standard_normal((2, 96, 7)))
        assert yhat.data.shape == (2, 24, 7)
        assert trace.attention.scores.shape == (2, 8, 8)
        assert trace.attention.weights.shape == (2, 7, 32)
        assert trace.value.shape == (2, 7, 32)
        assert trace.weighted_value.shape == (2, 7, 32)

    def test_all_ones_weights_makes_fusion_identity(self):
        model = tiny_model()
        x = RNG.standard_normal((2, 8, 3))
        _, trace = model.forward(x)
        assert np.array_equal(trace.weighted_value, trace.attention.weights * trace.value)
        # a zero token-axis recovery map with unit bias makes every weight 1
        model.attn.recover_n.weight.data[:] = 0.0
        model.attn.recover_n.bias.data[:] = 1.0
        _, trace = model.forward(x)
        np.testing.assert_array_equal(trace.attention.weights, np.ones((2, 3, 8)))
        np.testing.assert_array_equal(trace.weighted_value, trace.value)

    def test_non_finite_input_rejected(self):
        model = tiny_model()
        x = np.zeros((1, 8, 3))
        x[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            model.forward(x)

    def test_wrong_shape_rejected(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 9, 3)))

    def test_trace_arrays_are_read_only_and_backward_unchanged(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 8, 3))
        probe = Tensor(rng.standard_normal((2, 4, 3)))
        model = tiny_model(seed=4)
        yhat, trace = model.forward(x)
        kept = [trace.value, trace.weighted_value] + [
            getattr(trace.attention, f.name) for f in fields(trace.attention) if f.name != "score_macs"]
        assert len(kept) == 10
        for array in kept:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        got = gradients((yhat * probe).sum(), model.parameters())
        fresh = tiny_model(seed=4)
        want = gradients((fresh.forward(x)[0] * probe).sum(), fresh.parameters())
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_determinism_bit_identical(self):
        x = RNG.standard_normal((2, 8, 3))
        out1 = tiny_model(seed=5).forward(x)[0].data
        out2 = tiny_model(seed=5).forward(x)[0].data
        assert np.array_equal(out1, out2)

    def test_training_graph_leaves_no_reference_cycles(self):
        # A node whose backward refers to the node itself is a cycle; it keeps
        # the node's whole upstream graph alive until the cyclic collector runs.
        model = tiny_model()
        x = RNG.standard_normal((2, 8, 3))
        gc.collect()
        gc.disable()
        try:
            yhat, trace = model.forward(x)
            loss = (yhat * yhat).mean()
            gradients(loss, [t for _, t in model.named_parameters()])
            del yhat, trace, loss
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_persistence_wiring_through_revin(self):
        # copying the last normalized lookback value must denormalize to a
        # persistence forecast of the raw input
        model = tiny_model()
        x = RNG.standard_normal((2, 8, 3)) * 4.0 + 1.0
        normalized, state = model.revin.normalize(Tensor(x))
        last = slice_axis(normalized, 1, 7, 8)
        tiled = concatenate([last] * 4, axis=1)
        restored = model.revin.denormalize(tiled, state).data
        np.testing.assert_allclose(restored, np.repeat(x[:, -1:, :], 4, axis=1), atol=1e-9)

    def test_full_gradient_check_every_parameter_group(self):
        # dedicated generator: finite differences need inputs clear of
        # max-pool ties, and a fixed draw keeps that independent of test order
        rng = np.random.default_rng(2024)
        model = tiny_model()
        x = rng.uniform(-1, 1, (2, 8, 3))
        y = rng.uniform(-1, 1, (2, 4, 3))

        def loss_value():
            yhat, _ = model.forward(x)
            diff = yhat - Tensor(y)
            return (diff * diff).mean()

        named = model.named_parameters()
        analytic = gradients(loss_value(), [t for _, t in named])
        for (name, tensor), got in zip(named, analytic):
            base = tensor.data.copy()

            def f(v):
                tensor.data = v
                out = loss_value().item()
                tensor.data = base
                return out

            err = rel_error(got, numerical_grad(f, base))
            assert err < 1e-4, f"{name}: rel err {err}"


class TestParameterCount:
    def test_single_linear_layer(self):
        layer = LinearLayer.init(2, 3, np.random.default_rng(0))
        assert layer.weight.data.size + layer.bias.data.size == 9

    def test_embed_layer_arithmetic(self):
        cfg = ModelConfig(n_variates=7, lookback=96, horizon=24, embed_dim=32)
        model = AttentionMambaModel(cfg, np.random.default_rng(0))
        embed = model.embed.weight.data.size + model.embed.bias.data.size
        assert embed == 96 * 32 + 32 == 3104

    def test_total_matches_per_group_enumeration(self):
        cfg = TINY
        model = tiny_model(config=cfg)
        n, L, T, E = cfg.n_variates, cfg.lookback, cfg.horizon, cfg.embed_dim
        c = cfg.expansion * E
        s = cfg.state_dim
        r = math.ceil(E / 16)
        k = min(cfg.conv_width, n)
        quarter = E // 4
        per_mamba = (E * 2 * c + 2 * c) + (c * k + c) + (c * (r + 2 * s) + r + 2 * s) \
            + (r * c + c) + (c * s) + c + (c * E + E)
        expected = (
            2 * n                                   # revin affine
            + (L * E + E)                           # embed
            + 2 * (E * E + E)                       # q/k projections
            + (quarter * E + E) + (quarter * n + n)  # recovery maps
            + 2 * per_mamba
            + (E * T + T)                           # head
        )
        assert parameter_count(model) == expected

    def test_deterministic(self):
        assert parameter_count(tiny_model()) == parameter_count(tiny_model())


class TestCheckpoint:
    def test_round_trip_exact_float32(self, tmp_path):
        cfg = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8, state_dim=4)
        model = AttentionMambaModel(cfg, np.random.default_rng(3))
        path = tmp_path / "model.ckpt"
        save_model(path, model, extras={"scaler.mean": np.arange(3.0), "scaler.std": np.ones(3)})
        loaded, extras = load_model(path)
        for (name, orig), (_, new) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(orig.data.astype(np.float32), new.data)
        np.testing.assert_array_equal(extras["scaler.mean"], np.arange(3.0, dtype=np.float32))

    def test_two_saves_are_byte_identical(self, tmp_path):
        model = tiny_model(seed=9)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_model(p1, model)
        save_model(p2, model)
        assert p1.read_bytes() == p2.read_bytes()

    def test_magic_header_present_and_checked(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_model(path, tiny_model())
        assert path.read_bytes()[:10] == b"ATTNMAMBA1"
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"NOTAMODEL!" + path.read_bytes()[10:])
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(bad)

    def test_extra_colliding_with_parameter_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        extras = {"head.bias": np.zeros(4), "scaler.mean": np.zeros(3)}
        with pytest.raises(ValueError, match=r"\['head.bias'\]"):
            save_model(path, tiny_model(), extras=extras)
        assert not path.exists()

    def test_missing_parameter_rejected(self, tmp_path):
        model = tiny_model()
        tensors = {name: t.data for name, t in model.named_parameters()}
        tensors.pop("head.weight")
        path = tmp_path / "partial.ckpt"
        save_checkpoint(path, model.config, tensors)
        with pytest.raises(CheckpointError, match="missing"):
            load_model(path)

    def test_parameter_shape_mismatch_rejected(self, tmp_path):
        model = tiny_model()
        tensors = {name: t.data for name, t in model.named_parameters()}
        tensors["head.bias"] = np.zeros(5)
        path = tmp_path / "reshaped.ckpt"
        save_checkpoint(path, model.config, tensors)
        with pytest.raises(CheckpointError, match=r"head.bias has shape \(5,\)"):
            load_model(path)

    def test_loaded_model_reproduces_outputs(self, tmp_path):
        cfg = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8, state_dim=4)
        model = AttentionMambaModel(cfg, np.random.default_rng(3))
        x = RNG.standard_normal((2, 8, 3)).astype(np.float32)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(model.forward(x)[0].data, loaded.forward(x)[0].data)


SMALL_TENSORS = {"a": np.arange(6.0).reshape(2, 3), "scalar": np.float64(2.5), "b": np.ones(4)}


class TestCheckpointErrors:
    def small_checkpoint(self, tmp_path):
        path = tmp_path / "small.ckpt"
        save_checkpoint(path, TINY, SMALL_TENSORS)
        return path

    def test_v1_bytes_unchanged(self, tmp_path):
        blob = self.small_checkpoint(tmp_path).read_bytes()
        assert len(blob) == 251
        assert hashlib.sha256(blob).hexdigest() == \
            "207dfaaa72e8446c4cba45852cedeb2566870ad17118620e0d7fcfe09e9fd021"
        config, tensors = load_checkpoint(tmp_path / "small.ckpt")
        assert config == TINY
        assert list(tensors) == ["a", "scalar", "b"]
        np.testing.assert_array_equal(tensors["scalar"], np.float32(2.5))

    def test_file_cut_short_anywhere_rejected(self, tmp_path):
        blob = self.small_checkpoint(tmp_path).read_bytes()
        cut = tmp_path / "cut.ckpt"
        for size in range(len(blob)):
            cut.write_bytes(blob[:size])
            with pytest.raises(CheckpointError, match="cut short"):
                load_checkpoint(cut)

    def test_extents_past_int64_rejected_as_cut_short(self, tmp_path):
        # (2**32-1)**2 * 4 bytes wraps to a negative int64 size
        path = self.small_checkpoint(tmp_path)
        blob = path.read_bytes()
        at = blob.rindex(struct.pack("<H", 1) + b"b")
        huge = struct.pack("<B2I", 2, 2**32 - 1, 2**32 - 1)
        path.write_bytes(blob[:at + 3] + huge + blob[at + 3 + 5:])
        with pytest.raises(CheckpointError, match="cut short"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = self.small_checkpoint(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError, match="1 bytes after the last tensor record"):
            load_checkpoint(path)

    def test_repeated_tensor_name_rejected(self, tmp_path):
        path = self.small_checkpoint(tmp_path)
        blob = path.read_bytes()
        # records "a" and "b" have one-byte names; rename "b" to "a"
        at = blob.rindex(struct.pack("<H", 1) + b"b")
        path.write_bytes(blob[:at + 2] + b"a" + blob[at + 3:])
        with pytest.raises(CheckpointError, match="'a' appears twice"):
            load_checkpoint(path)

    def test_tensor_name_not_utf8_rejected(self, tmp_path):
        path = self.small_checkpoint(tmp_path)
        blob = path.read_bytes()
        at = blob.rindex(struct.pack("<H", 1) + b"b")
        path.write_bytes(blob[:at + 2] + b"\xff" + blob[at + 3:])
        with pytest.raises(CheckpointError, match="not UTF-8"):
            load_checkpoint(path)

    def test_config_record_not_json_rejected(self, tmp_path):
        path = self.small_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[14] = 0xFF     # first byte of the config JSON
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="config record"):
            load_checkpoint(path)
