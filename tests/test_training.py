import logging
import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from attention_mamba import training

from attention_mamba.data import DataError, RawSeries, SyntheticSpec, fit_apply_scaler, generate_synthetic, split_series
from attention_mamba.model import AttentionMambaModel, ConfigError, ModelConfig
from attention_mamba.tensor_core import Tensor, gradients
from attention_mamba.training import (
    AdamState,
    NonFiniteGradientError,
    TrainRunConfig,
    adam_step,
    clip_global_norm,
    evaluate_mse_mae,
    train,
)

RNG = np.random.default_rng(61)


def single_param(value):
    t = Tensor(np.array([value], dtype=np.float64), requires_grad=True)
    return [("theta", t)], t


class TestAdamStep:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        named, t = single_param(1.5)
        state = AdamState.init(named, lr=0.1)
        adam_step(named, [np.zeros(1)], state)
        np.testing.assert_array_equal(t.data, [1.5])

    def test_first_step_bias_correction_cancels(self):
        named, t = single_param(0.0)
        state = AdamState.init(named, lr=0.1)
        adam_step(named, [np.ones(1)], state)
        np.testing.assert_allclose(t.data, [-0.1 / (1.0 + 1e-8)], rtol=1e-12)

    def test_quadratic_descent_matches_scalar_oracle(self):
        # independent scalar Adam on f(theta) = theta^2
        def oracle(theta0, lr, steps):
            theta, m, v = theta0, 0.0, 0.0
            for t in range(1, steps + 1):
                g = 2.0 * theta
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                theta -= lr * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
            return theta

        named, t = single_param(1.0)
        state = AdamState.init(named, lr=0.1)
        trajectory = [abs(t.data[0])]
        for _ in range(50):
            adam_step(named, [2.0 * t.data], state)
            trajectory.append(abs(t.data[0]))
        # the oracle shows |theta| shrinking steadily until it crosses zero
        # (Adam overshoots near the minimum), ending well inside 0.05
        assert all(b < a for a, b in zip(trajectory[:11], trajectory[1:12]))
        assert trajectory[-1] < 0.05
        np.testing.assert_allclose(t.data, [oracle(1.0, 0.1, 50)], rtol=1e-10)

    def test_step_count_increments_by_one(self):
        named, t = single_param(0.0)
        state = AdamState.init(named, lr=0.1)
        for expected in (1, 2, 3):
            adam_step(named, [np.ones(1)], state)
            assert state.step_count == expected

    def test_non_finite_gradient_names_parameter(self):
        named, _ = single_param(0.0)
        state = AdamState.init(named, lr=0.1)
        with pytest.raises(NonFiniteGradientError, match="theta"):
            adam_step(named, [np.array([np.inf])], state)

    def test_moment_shapes_mirror_parameters(self):
        t = Tensor(RNG.standard_normal((3, 4)), requires_grad=True)
        state = AdamState.init([("w", t)], lr=0.1)
        assert state.m["w"].shape == (3, 4)
        assert state.v["w"].shape == (3, 4)


class TestClipping:
    def test_large_gradients_scaled_to_max_norm(self):
        grads = [np.full(4, 10.0), np.full(3, -10.0)]
        clip_global_norm(grads)
        total = math.sqrt(sum(float((g**2).sum()) for g in grads))
        assert abs(total - 5.0) < 1e-9

    def test_small_gradients_untouched(self):
        grads = [np.array([0.1, 0.2])]
        before = grads[0].copy()
        clip_global_norm(grads)
        np.testing.assert_array_equal(grads[0], before)


def tiny_dataset(total=80, n_variates=3, lookback=8, horizon=4, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(total)[:, None]
    values = np.sin(2 * np.pi * 0.05 * t + rng.uniform(0, 2 * np.pi, n_variates))
    values = values + rng.normal(0, 0.02, size=(total, n_variates))
    series = RawSeries(values=values, names=[f"v{i}" for i in range(n_variates)])
    return fit_apply_scaler(split_series(series, lookback, horizon))


def tiny_model(seed=0, precision="32"):
    cfg = ModelConfig(n_variates=3, lookback=8, horizon=4, embed_dim=8, precision=precision)
    return AttentionMambaModel(cfg, np.random.default_rng(seed))


def wide_dataset_and_model():
    """3000x64 series with L=T=96: ~1.9k train windows whose stacked copies
    would be ~120x the series."""
    rng = np.random.default_rng(7)
    series = RawSeries(values=rng.standard_normal((3000, 64)), names=[f"v{i}" for i in range(64)])
    cfg = ModelConfig(n_variates=64, lookback=96, horizon=96, embed_dim=8)
    return fit_apply_scaler(split_series(series, 96, 96)), AttentionMambaModel(cfg, rng)


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTrain:
    def test_zero_epochs_changes_nothing(self):
        model = tiny_model()
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        result = train(model, tiny_dataset(), TrainRunConfig(epochs=0))
        assert result.curve == []
        for name, t in model.named_parameters():
            np.testing.assert_array_equal(t.data, before[name])

    def test_dataset_geometry_must_be_the_models(self):
        # a horizon-1 target would otherwise be spread over all 4 forecast steps
        with pytest.raises(DataError, match=r"\(lookback, horizon\) = \(8, 1\), model \(8, 4\)"):
            train(tiny_model(), tiny_dataset(horizon=1), TrainRunConfig(epochs=2))

    def test_dataset_variates_must_be_the_models(self):
        # named where the dataset enters, not as a batch shape in the first forward
        with pytest.raises(DataError, match="dataset has 4 variates, model 3"):
            train(tiny_model(), tiny_dataset(n_variates=4), TrainRunConfig(epochs=2))

    def test_one_step_graph_is_alive_at_a_time(self):
        # One step's tape (~20 MB) outweighs the series and the parameters
        # (<1 MB) here, so a second live tape, the previous step's or one
        # built by the validation pass, lifts the run's peak toward 2x a step's.
        rng = np.random.default_rng(3)
        series = RawSeries(values=rng.standard_normal((350, 64)), names=[f"v{i}" for i in range(64)])
        ds = fit_apply_scaler(split_series(series, 96, 96))
        cfg = ModelConfig(n_variates=64, lookback=96, horizon=96, embed_dim=32)
        model = AttentionMambaModel(cfg, rng)
        batch = ds.windows("train")[:16]
        x = np.stack([w.x for w in batch]).astype(np.float32)
        y = np.stack([w.y for w in batch]).astype(np.float32)

        def one_step():
            diff = model.forward(x)[0] - Tensor(y)
            gradients((diff * diff).mean(), [t for _, t in model.named_parameters()])

        step = traced_peak(one_step)
        run = traced_peak(lambda: train(model, ds, TrainRunConfig(epochs=1, batch_size=16)))
        # 53 windows: four steps, then 35 validation windows
        assert len(ds.windows("train")) == 53 and len(ds.windows("val")) == 35
        assert run <= 1.25 * step

    def test_step_drops_the_forward_trace_before_the_sweep(self, monkeypatch):
        # the fusion's arrays then die as the sweep consumes the nodes that read them
        model = tiny_model()
        traces, alive = [], []
        forward = model.forward

        def recording_forward(x):
            out = forward(x)
            traces.append(weakref.ref(out[1]))
            return out

        def checking_gradients(loss, params):
            alive.append(traces[-1]() is not None)
            return gradients(loss, params)

        monkeypatch.setattr(model, "forward", recording_forward)
        monkeypatch.setattr(training, "gradients", checking_gradients)
        train(model, tiny_dataset(), TrainRunConfig(epochs=1, batch_size=16))
        assert alive == [False] * 3

    def test_series_without_a_training_window_rejected(self):
        # 12 steps: the train range (0, 8) is shorter than lookback + horizon
        ds = tiny_dataset(total=12)
        with pytest.raises(DataError, match="no training windows"):
            train(tiny_model(), ds, TrainRunConfig(epochs=1))

    def test_no_validation_window_stops_early_on_train_loss(self, monkeypatch, caplog):
        # a frozen model on one training window: every epoch's loss is the
        # same, so the train loss stops improving after the first epoch
        ds = replace(tiny_dataset(total=18), val_range=(12, 12))
        assert len(ds.windows("train")) == 1 and not ds.windows("val")
        monkeypatch.setattr(training, "adam_step", lambda *args: None)
        with caplog.at_level(logging.INFO, logger=training.__name__):
            result = train(tiny_model(), ds, TrainRunConfig(epochs=40))
        assert "no validation windows; using train loss" in caplog.text
        assert result.stopped_early and not result.diverged
        assert len(result.curve) == training.PATIENCE + 1 and result.best_epoch == 0
        assert all(val == train_mse == result.best_val for _, train_mse, val in result.curve)

    def test_zero_epoch_memory_is_bounded_by_the_series(self):
        ds, model = wide_dataset_and_model()
        peak = traced_peak(lambda: train(model, ds, TrainRunConfig(epochs=0)))
        # no stacked windows (~120x the series) and no model-dtype copy of
        # the float64 series (half of it): each batch is cast on its own
        assert peak < ds.values.nbytes / 4, f"{peak} bytes for a {ds.values.nbytes}-byte series"

    @pytest.mark.parametrize("precision", ["32", "64"])
    def test_batches_are_the_stacked_windows_in_seeded_order(self, monkeypatch, precision):
        model = tiny_model(precision=precision)
        ds = tiny_dataset()
        windows = ds.windows("train")
        xs = np.stack([w.x for w in windows])
        ys = np.stack([w.y for w in windows])
        seen_x, seen_y = [], []
        forward = model.forward
        monkeypatch.setattr(model, "forward", lambda x: seen_x.append(x.copy()) or forward(x))
        monkeypatch.setattr(training, "Tensor", lambda a: seen_y.append(a.copy()) or Tensor(a))
        train(model, ds, TrainRunConfig(epochs=1, batch_size=16, seed=11))
        # 45 windows: batches of 16, 16 and a ragged 13, then one validation forward
        order = np.random.default_rng([11, 1]).permutation(len(windows))
        batches = [order[i:i + 16] for i in range(0, len(order), 16)]
        assert len(windows) == 45 and len(seen_y) == 3 and len(seen_x) == 4
        dtype = model.config.dtype
        for idx, x, y in zip(batches, seen_x, seen_y):
            assert x.dtype == dtype and y.dtype == dtype
            assert np.array_equal(x, xs[idx].astype(dtype))
            assert np.array_equal(y, ys[idx].astype(dtype))

    def test_loss_decreases_on_learnable_data(self):
        model = tiny_model()
        result = train(model, tiny_dataset(), TrainRunConfig(epochs=15, batch_size=16, lr=5e-3))
        assert result.curve[-1][1] < result.curve[0][1]
        assert all(math.isfinite(tr) and math.isfinite(va) for _, tr, va in result.curve)

    def test_identical_seed_gives_identical_curve_and_parameters(self):
        curves = []
        params = []
        for _ in range(2):
            model = tiny_model(seed=3)
            result = train(model, tiny_dataset(), TrainRunConfig(epochs=5, batch_size=16, seed=2024))
            curves.append(result.curve)
            params.append({n: t.data.copy() for n, t in model.named_parameters()})
        assert curves[0] == curves[1]
        for name in params[0]:
            assert np.array_equal(params[0][name], params[1][name]), name

    # lr 1e30 overflows the weights on purpose; numpy's overflow and invalid
    # warnings on the way to the rollback are expected here and nowhere else
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_restores_best_checkpoint(self):
        model = tiny_model(precision="32")
        before = {n: t.data.copy() for n, t in model.named_parameters()}
        result = train(model, tiny_dataset(), TrainRunConfig(epochs=50, batch_size=16, lr=1e30))
        # the first epoch already diverges, so the best checkpoint is the initial one
        assert result.diverged and not result.stopped_early
        assert result.curve == [] and result.best_epoch == -1
        for name, t in model.named_parameters():
            np.testing.assert_array_equal(t.data, before[name])

    # fewer epochs than PATIENCE, so a NaN epoch can never count as a stale one
    @pytest.mark.parametrize("nan_from", [0, 1])
    def test_non_finite_validation_rolls_back_as_divergence(self, monkeypatch, nan_from):
        ds = tiny_dataset()
        good = tiny_model()   # the same seeded run, stopped before its first NaN epoch
        train(good, ds, TrainRunConfig(epochs=nan_from, batch_size=16))
        evaluate = training.evaluate_mse_mae
        calls = []

        def nan_late(*args):
            calls.append(None)
            return evaluate(*args) if len(calls) <= nan_from else (math.nan, math.nan)

        monkeypatch.setattr(training, "evaluate_mse_mae", nan_late)
        model = tiny_model()
        result = train(model, ds, TrainRunConfig(epochs=5, batch_size=16))
        assert result.diverged and not result.stopped_early
        assert len(result.curve) == nan_from and result.best_epoch == nan_from - 1
        for (name, t), (_, ref) in zip(model.named_parameters(), good.named_parameters()):
            np.testing.assert_array_equal(t.data, ref.data, err_msg=name)

    def test_underflowed_step_size_rolls_back(self, caplog):
        # the scan's step size softplus(-200) underflows to 0.0 in float32;
        # a NaN head bias makes the first loss NaN, caught before the sweep
        def underflow(model):
            for branch in (model.mamba_fwd, model.mamba_bwd):
                branch.dt_proj.bias.data[:] = -200.0

        def nan_bias(model):
            model.head.bias.data[0] = np.nan

        for edit, cause in ((underflow, "selective_scan: softplus(dt) is not a positive number"),
                            (nan_bias, "non-finite training loss nan")):
            model = tiny_model(precision="32")
            edit(model)
            before = {n: t.data.copy() for n, t in model.named_parameters()}
            caplog.clear()
            result = train(model, tiny_dataset(), TrainRunConfig(epochs=3, batch_size=16))
            assert result.diverged
            assert result.curve == []
            assert f"training diverged at epoch 0 ({cause}" in caplog.text
            for name, t in model.named_parameters():
                np.testing.assert_array_equal(t.data, before[name])

    def test_early_stopping_on_stale_validation(self):
        # pure noise: validation cannot keep improving for 40 epochs
        rng = np.random.default_rng(5)
        series = RawSeries(values=rng.standard_normal((80, 3)), names=["a", "b", "c"])
        ds = fit_apply_scaler(split_series(series, 8, 4))
        model = tiny_model()
        result = train(model, ds, TrainRunConfig(epochs=40, batch_size=16))
        assert result.stopped_early and not result.diverged
        assert len(result.curve) < 40
        assert len(result.curve) - 1 - result.best_epoch == training.PATIENCE

    def test_best_checkpoint_retained_and_restored(self):
        ds = tiny_dataset()
        model = tiny_model()
        result = train(model, ds, TrainRunConfig(epochs=8, batch_size=16))
        best = tiny_model()   # the same seeded run, stopped after its best epoch
        train(best, ds, TrainRunConfig(epochs=result.best_epoch + 1, batch_size=16))
        for (name, t), (_, ref) in zip(model.named_parameters(), best.named_parameters()):
            np.testing.assert_array_equal(t.data, ref.data, err_msg=name)
        vals = [v for _, _, v in result.curve]
        assert abs(result.best_val - min(vals)) < 1e-12

    def test_config_validation(self):
        # the smallest accepted value of each field
        cfg = TrainRunConfig(epochs=0, batch_size=1, lr=1e-12, seed=0)
        assert (cfg.epochs, cfg.batch_size, cfg.lr, cfg.seed) == (0, 1, 1e-12, 0)

    @pytest.mark.parametrize("field,value", [
        ("epochs", -1), ("epochs", 1.5), ("epochs", True),
        ("batch_size", 0), ("batch_size", 2.0), ("batch_size", False),
        ("seed", -1), ("seed", 3.0),
        ("lr", 0.0), ("lr", -1e-3), ("lr", math.nan), ("lr", math.inf), ("lr", "1e-3"),
    ])
    def test_config_rejects_bad_value(self, field, value):
        kwargs = {"epochs": 1, field: value}
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            TrainRunConfig(**kwargs)


class TestEvaluate:
    def test_matches_direct_computation(self):
        model = tiny_model()
        ds = tiny_dataset()
        windows = ds.windows("test")
        xs = np.stack([w.x for w in windows]).astype(np.float32)
        ys = np.stack([w.y for w in windows]).astype(np.float32)
        # 16 windows: one batch of 64, and batches of 5, 5, 5 and a ragged 1.
        for batch_size in (64, 5):
            mse, mae = evaluate_mse_mae(model, windows, batch_size)
            yhat = np.concatenate([model.forward(xs[i:i + batch_size])[0].data
                                   for i in range(0, len(xs), batch_size)])
            # Errors of the float32 predictions, taken without float32 rounding.
            err = yhat.astype(np.float64) - ys.astype(np.float64)
            np.testing.assert_allclose(mse, (err**2).mean(), rtol=1e-9)
            np.testing.assert_allclose(mae, np.abs(err).mean(), rtol=1e-9)

    def test_builds_no_tape_and_leaves_gradients_alone(self, monkeypatch):
        model = tiny_model()
        windows = tiny_dataset().windows("test")
        xs = np.stack([w.x for w in windows]).astype(np.float32)
        ys = np.stack([w.y for w in windows]).astype(np.float32).astype(np.float64)
        # the sums evaluation took, batch by batch, when its forwards kept a tape
        sq = ab = 0.0
        for i in range(0, len(xs), 5):
            err = model.forward(xs[i:i + 5])[0].data.astype(np.float64) - ys[i:i + 5]
            sq += float((err**2).sum())
            ab += float(np.abs(err).sum())
        params = [t for _, t in model.named_parameters()]
        gradients(model.forward(xs[:2])[0].sum(), params)
        before = [(p.grad, p.grad.copy()) for p in params]
        taped = []
        forward = model.forward

        def recording_forward(x):
            out = forward(x)
            taped.append(out[0].requires_grad)
            return out

        monkeypatch.setattr(model, "forward", recording_forward)
        assert evaluate_mse_mae(model, windows, 5) == (sq / ys.size, ab / ys.size)
        assert taped == [False] * 4
        for p, (grad, copy) in zip(params, before):
            assert p.grad is grad and np.array_equal(grad, copy)

    def test_targets_must_be_the_forecasts_shape(self):
        windows = tiny_dataset(horizon=1).windows("test")
        with pytest.raises(DataError, match=r"targets have shape \(8, 1, 3\), forecasts \(8, 4, 3\)"):
            evaluate_mse_mae(tiny_model(), windows, 8)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_refused(self, batch_size):
        with pytest.raises(ConfigError, match=f"^batch_size must be an integer >= 1, got {batch_size}$"):
            evaluate_mse_mae(tiny_model(), tiny_dataset().windows("test"), batch_size)

    def test_no_windows_give_nan(self):
        mse, mae = evaluate_mse_mae(tiny_model(), [], 8)
        assert math.isnan(mse) and math.isnan(mae)

    def test_memory_is_bounded_by_batches_not_windows(self):
        ds, model = wide_dataset_and_model()
        windows = ds.windows("test")
        batch_bytes = 16 * (96 + 96) * 64 * 8   # one batch of x and y in float64
        two_batches = traced_peak(lambda: evaluate_mse_mae(model, windows[:32], 16))
        all_windows = traced_peak(lambda: evaluate_mse_mae(model, windows, 16))
        assert len(windows) == 600
        assert all_windows < two_batches + batch_bytes
