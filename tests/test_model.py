import gc
import hashlib
import json
import math
import struct
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

from attention_mamba import model as model_module
from attention_mamba.layers import LinearLayer
from attention_mamba.mamba import CONV_WIDTH, EXPANSION, STATE_DIM
from attention_mamba.model import (
    AttentionMambaModel,
    CheckpointError,
    ConfigError,
    ModelConfig,
    load_checkpoint,
    load_model,
    save_checkpoint,
    save_model,
)
from attention_mamba.tensor_core import ShapeError, Tensor, gradients, no_grad
from helpers import check_parameter_gradients, concatenate, rel_error

RNG = np.random.default_rng(41)

TINY = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8, precision="64")


def tiny_model(seed=0, config=TINY):
    return AttentionMambaModel(config, np.random.default_rng(seed))


def tensors_in_closure(fn, path=""):
    """Where a function's closure cells hold a Tensor, looking into nested
    functions, tuples and lists, as a list of cell paths."""
    found = []
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
        stack = [(f"{path}{name}", cell.cell_contents)]
        while stack:
            where, value = stack.pop()
            if isinstance(value, Tensor):
                found.append(where)
            elif isinstance(value, (tuple, list)):
                stack += [(f"{where}[{i}]", v) for i, v in enumerate(value)]
            elif callable(value) and getattr(value, "__closure__", None):
                found += tensors_in_closure(value, f"{where}.")
    return found


class TestConfig:
    def test_embed_dim_must_be_multiple_of_4(self):
        with pytest.raises(ConfigError, match="multiple of 4"):
            ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=30)

    def test_positive_extents_required(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_variates=0, lookback=8, horizon=4, embed_dim=8)
        with pytest.raises(ConfigError):
            ModelConfig(n_variates=3, lookback=8, horizon=-1, embed_dim=8)

    def test_lookback_one_rejected(self):
        # RevIN takes its statistics over the lookback, so one step is too few
        with pytest.raises(ConfigError, match="lookback must be >= 2"):
            ModelConfig(n_variates=3, lookback=1, horizon=4, embed_dim=8)

    def test_precision_validated(self):
        with pytest.raises(ConfigError):
            ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8, precision="16")

    def test_round_trips_through_dict(self):
        cfg = ModelConfig(n_variates=7, lookback=96, horizon=24, embed_dim=32)
        assert ModelConfig.from_dict(asdict(cfg)) == cfg

    def test_unknown_keys_rejected(self):
        d = asdict(TINY) | {"dropout": 0.1, "heads": 4}
        with pytest.raises(ConfigError, match=r"\['dropout', 'heads'\]"):
            ModelConfig.from_dict(d)


    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="embed_dim"):
            ModelConfig.from_dict({"n_variates": 3, "lookback": 8, "horizon": 4})

    @pytest.mark.parametrize("key,value", [("embed_dim", "8"), ("n_variates", True),
                                           ("lookback", 8.0), ("precision", 64)])
    def test_wrong_value_type_named(self, key, value):
        with pytest.raises(ConfigError, match=key):
            ModelConfig.from_dict(asdict(TINY) | {key: value})

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
        assert trace.weights.shape == (2, 7, 32)
        assert trace.value.shape == (2, 7, 32)
        assert trace.weighted_value.shape == (2, 7, 32)

    def test_all_ones_weights_makes_fusion_identity(self):
        model = tiny_model()
        x = RNG.standard_normal((2, 8, 3))
        _, trace = model.forward(x)
        assert np.array_equal(trace.weighted_value, trace.weights * trace.value)
        # a zero token-axis recovery map with unit bias makes every weight 1
        model.attn.recover_n.weight.data[:] = 0.0
        model.attn.recover_n.bias.data[:] = 1.0
        _, trace = model.forward(x)
        np.testing.assert_array_equal(trace.weights, np.ones((2, 3, 8)))
        np.testing.assert_array_equal(trace.weighted_value, trace.value)

    def test_non_finite_input_rejected(self):
        model = tiny_model()
        x = np.zeros((1, 8, 3))
        x[0, 0, 0] = np.nan
        with pytest.raises(ValueError, match="not finite as float64"):
            model.forward(x)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_value_not_finite_in_model_dtype_rejected(self, value):
        # 1e39 is finite in float64 but past float32's range
        model = tiny_model(config=replace(TINY, precision="32"))
        x = np.zeros((1, 8, 3))
        x[0, 0, 0] = value
        with pytest.raises(ValueError, match="not finite as float32"):
            model.forward(x)

    def test_wrong_shape_rejected(self):
        model = tiny_model()
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 9, 3)))
        with pytest.raises(ShapeError, match=r"B >= 1, got \(0, 8, 3\)"):
            model.forward(np.zeros((0, 8, 3)))

    def test_trace_arrays_are_read_only_and_backward_unchanged(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 8, 3))
        probe = Tensor(rng.standard_normal((2, 4, 3)))
        model = tiny_model(seed=4)
        yhat, trace = model.forward(x)
        kept = [getattr(trace, f.name) for f in fields(trace)]
        assert len(kept) == 3
        for array in kept:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0
        got = gradients((yhat * probe).sum(), [t for _, t in model.named_parameters()])
        fresh = tiny_model(seed=4)
        want = gradients((fresh.forward(x)[0] * probe).sum(), [t for _, t in fresh.named_parameters()])
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_determinism_bit_identical(self):
        x = RNG.standard_normal((2, 8, 3))
        out1 = tiny_model(seed=5).forward(x)[0].data
        out2 = tiny_model(seed=5).forward(x)[0].data
        assert np.array_equal(out1, out2)

    @pytest.mark.parametrize("precision", ["32", "64"])
    def test_no_grad_forward_is_bit_identical(self, precision):
        model = tiny_model(seed=6, config=replace(TINY, precision=precision))
        x = RNG.standard_normal((2, 8, 3))
        with no_grad():
            quiet = model.forward(x)[0]
        taped = model.forward(x)[0]
        assert taped.requires_grad and not quiet.requires_grad and quiet._node is None
        assert quiet.data.dtype == model.config.dtype
        assert np.array_equal(quiet.data, taped.data)

    def test_float32_forward_tracks_float64_copy(self):
        # the same weights, rounded to float32, run at both precisions
        shape = dict(n_variates=21, lookback=96, horizon=96, embed_dim=128)
        single = AttentionMambaModel(ModelConfig(**shape), np.random.default_rng(0))
        double = AttentionMambaModel(ModelConfig(**shape, precision="64"), np.random.default_rng(0))
        for (_, p32), (_, p64) in zip(single.named_parameters(), double.named_parameters()):
            p64.data = p32.data.astype(np.float64)
        x = np.random.default_rng(1).standard_normal((4, 96, 21)).astype(np.float32)
        got = single.forward(x)[0].data
        want = double.forward(x.astype(np.float64))[0].data
        assert got.dtype == np.float32
        assert rel_error(got, want) < 1e-6

    def test_no_backward_closure_holds_a_tensor(self):
        # a Tensor in a closure would keep its array alive until the sweep
        # reaches that node, whether or not the backward reads it
        model = tiny_model(config=replace(TINY, n_variates=7))
        rng = np.random.default_rng(3)
        yhat, _ = model.forward(rng.standard_normal((2, 8, 7)))
        diff = yhat - Tensor(rng.standard_normal((2, 4, 7)))
        loss = (diff * diff).mean()
        seen, stack, held = set(), [loss._node], []
        while stack:
            node = stack.pop()
            if node is None or isinstance(node, Tensor) or id(node) in seen:
                continue
            seen.add(id(node))
            held += [f"{node._backward.__qualname__}: {path}"
                     for path in tensors_in_closure(node._backward)]
            stack.extend(node._prev)
        assert len(seen) > 50
        assert not held, "backward closures hold tensors:\n" + "\n".join(held)

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
        last = normalized[:, 7:8]
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

        check_parameter_gradients(loss_value, model.named_parameters(), tol=1e-4)


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
        c = EXPANSION * E
        s = STATE_DIM
        r = math.ceil(E / 16)
        k = min(CONV_WIDTH, n)
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
        assert sum(t.data.size for _, t in model.named_parameters()) == expected

    def test_tensor_set_on_a_block_is_a_parameter(self):
        model = tiny_model()
        model.mamba_fwd.extra = Tensor(np.zeros(2), requires_grad=True)
        assert dict(model.named_parameters())["mamba_fwd.extra"] is model.mamba_fwd.extra

    def test_deterministic(self):
        # load_model builds with a fixed seed and fills in the saved tensors
        def layout(model):
            return [(name, t.data.shape) for name, t in model.named_parameters()]
        assert layout(tiny_model(seed=0)) == layout(tiny_model(seed=1))


class TestCheckpoint:
    def test_round_trip_exact_float32(self, tmp_path):
        cfg = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8)
        model = AttentionMambaModel(cfg, np.random.default_rng(3))
        path = tmp_path / "model.ckpt"
        tensors = {name: t.data for name, t in model.named_parameters()}
        save_checkpoint(path, cfg, {**tensors, "scaler.mean": np.arange(3.0), "scaler.std": np.ones(3)})
        loaded, extras = load_model(path)
        for (name, orig), (_, new) in zip(model.named_parameters(), loaded.named_parameters()):
            np.testing.assert_array_equal(orig.data.astype(np.float32), new.data)
        np.testing.assert_array_equal(extras["scaler.mean"], np.arange(3.0, dtype=np.float32))

    def test_float32_parameters_take_the_arrays_read(self, tmp_path, monkeypatch):
        # load_checkpoint copies each record out of the file; load_model copies none again
        cfg = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8)
        path = tmp_path / "model.ckpt"
        save_model(path, AttentionMambaModel(cfg, np.random.default_rng(3)))
        read = {}

        def recording(p):
            config, tensors = load_checkpoint(p)
            read.update(tensors)
            return config, tensors

        monkeypatch.setattr(model_module, "load_checkpoint", recording)
        loaded, _ = load_model(path)
        assert all(t.data is read[name] for name, t in loaded.named_parameters())

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
        cfg = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8)
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
        # the bytes v1 wrote while the Mamba sizes were config fields, at
        # their defaults; the scan form is the one v1 files of the retired
        # form held, with "per-branch-reverse" for "fused-reverse"
        blob = self.small_checkpoint(tmp_path).read_bytes()
        assert len(blob) == 257
        assert b'"bidirectional_variant":"per-branch-reverse"' in blob
        assert b'"conv_width":32,"embed_dim":8,"expansion":1,' in blob
        assert b'"state_dim":16' in blob
        assert hashlib.sha256(blob).hexdigest() == \
            "942b180c1ba2f47df320b56d76df7522d2141de5ebdf01b47d516f56c6e358fe"
        config, tensors = load_checkpoint(tmp_path / "small.ckpt")
        assert config == TINY
        assert list(tensors) == ["a", "scalar", "b"]
        np.testing.assert_array_equal(tensors["scalar"], np.float32(2.5))

    def test_saved_model_bytes_unchanged(self, tmp_path):
        # pins the parameter names, order and shapes, the draw order and the
        # one rounding to float32; precision "64" writes the same tensor records
        blobs = {}
        for precision in ("32", "64"):
            cfg = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8, precision=precision)
            path = tmp_path / f"{precision}.ckpt"
            save_model(path, AttentionMambaModel(cfg, np.random.default_rng(0)))
            blobs[precision] = path.read_bytes()
        assert hashlib.sha256(blobs["32"]).hexdigest() == \
            "573b1356cd201c287499c7706b3b55b5b06c37d05e4040c35737ffca445ec7b8"
        tensor_records = [blob[blob.index(b"}") + 1:] for blob in blobs.values()]
        assert tensor_records[0] == tensor_records[1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_tensor_rejected(self, tmp_path, bad):
        # save_checkpoint refuses to write one, so the value goes into the
        # bytes of b[2]: the 4 bytes before b's last element, the file's last
        path = self.small_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-8:-4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="tensor 'b' holds a non-finite value"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bad", [1e39, -1e39, np.nan, np.inf], ids=["past_max", "past_min", "nan", "inf"])
    def test_save_refuses_a_tensor_not_finite_as_float32(self, tmp_path, bad):
        # a float64 value past float32's range casts to inf, which the loader
        # refuses; the save raises first and leaves no file
        model = tiny_model()
        model.head.bias.data[0] = bad
        path = tmp_path / "model.ckpt"
        with pytest.raises(CheckpointError, match="tensor 'head.bias' is not finite as float32"):
            save_model(path, model)
        assert not path.exists()

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

    @pytest.mark.parametrize("key,value", [
        ("bidirectional_variant", "fused-reverse"), ("expansion", 2), ("expansion", True),
        ("conv_width", 4), ("state_dim", 4),
    ], ids=["bidirectional_variant", "expansion", "expansion_true", "conv_width", "state_dim"])
    def test_retired_scan_form_rejected(self, tmp_path, key, value):
        # a fixed entry at another value, e.g. the retired "fused-reverse" form
        path = self.small_checkpoint(tmp_path)
        rewrite_config(path, lambda d: d | {key: value})
        with pytest.raises(CheckpointError, match=f"{key}={value!r}; only"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["bidirectional_variant", "expansion", "conv_width", "state_dim"])
    def test_missing_scan_form_rejected(self, tmp_path, key):
        path = self.small_checkpoint(tmp_path)
        rewrite_config(path, lambda d: {k: v for k, v in d.items() if k != key})
        with pytest.raises(CheckpointError, match=f"{key}=None; only"):
            load_checkpoint(path)

    def test_config_record_not_object_rejected(self, tmp_path):
        path = self.small_checkpoint(tmp_path)
        rewrite_config(path, lambda d: sorted(d))
        with pytest.raises(CheckpointError, match="not a JSON object"):
            load_checkpoint(path)

    def test_load_parameters_refuses_before_replacing(self):
        model = tiny_model()
        named = model.named_parameters()
        before = [(t, t.data, t.data.tobytes()) for _, t in named]
        good = {name: np.zeros_like(t.data) for name, t in named}
        misshaped = good | {"head.bias": np.zeros(5)}
        missing = {name: a for name, a in good.items() if name != "attn.q_proj.weight"}
        for arrays, message in ((misshaped, r"head.bias has shape \(5,\)"),
                                (missing, "missing parameter 'attn.q_proj.weight'")):
            with pytest.raises(CheckpointError, match=message):
                model.load_parameters(arrays)
            for (_, t), (tensor, data, blob) in zip(model.named_parameters(), before):
                assert t is tensor and t.data is data and t.data.tobytes() == blob

    def test_config_record_not_json_rejected(self, tmp_path):
        path = self.small_checkpoint(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[14] = 0xFF     # first byte of the config JSON
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="config record"):
            load_checkpoint(path)
