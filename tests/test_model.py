import gc
import math

import numpy as np
import pytest

from attention_mamba.layers import LinearLayer
from attention_mamba.model import (
    AttentionMambaModel,
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
        with pytest.raises(ValueError, match="magic"):
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
        with pytest.raises(ValueError, match="missing"):
            load_model(path)

    def test_loaded_model_reproduces_outputs(self, tmp_path):
        cfg = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8, state_dim=4)
        model = AttentionMambaModel(cfg, np.random.default_rng(3))
        x = RNG.standard_normal((2, 8, 3)).astype(np.float32)
        path = tmp_path / "model.ckpt"
        save_model(path, model)
        loaded, _ = load_model(path)
        np.testing.assert_array_equal(model.forward(x)[0].data, loaded.forward(x)[0].data)
