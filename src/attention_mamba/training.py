"""Adam optimization of MSE over batches gathered by window start, with seeded
shuffling, gradient clipping, early stopping on validation loss, and
divergence rollback to the best checkpoint seen so far.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, SplitDataset, WindowSample, window_starts
from .model import AttentionMambaModel, ConfigError
from .tensor_core import NonPositiveStepError, Tensor, gradients

log = logging.getLogger(__name__)


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient left the finite range; the step was aborted."""


@dataclass
class AdamState:
    """Bias-corrected Adam moments, one pair per named parameter."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @staticmethod
    def init(named_params, lr: float) -> "AdamState":
        state = AdamState(lr=lr)
        for name, tensor in named_params:
            state.m[name] = np.zeros_like(tensor.data)
            state.v[name] = np.zeros_like(tensor.data)
        return state


def adam_step(named_params, grads, state: AdamState) -> None:
    """One in-place update; rejects non-finite gradients by parameter name."""
    for (name, _), grad in zip(named_params, grads):
        if not np.all(np.isfinite(grad)):
            raise NonFiniteGradientError(f"non-finite gradient for parameter {name}")
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t
    for (name, tensor), grad in zip(named_params, grads):
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * grad
        v *= state.beta2
        v += (1.0 - state.beta2) * grad * grad
        m_hat = m / bc1
        v_hat = v / bc2
        tensor.data -= (state.lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(tensor.data.dtype)


def clip_global_norm(grads, max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm."""
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
    if max_norm > 0 and total > max_norm:
        scale = max_norm / total
        for g in grads:
            g *= scale
    return total


@dataclass
class TrainRunConfig:
    """Run settings; the model itself carries the numeric precision."""

    epochs: int
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 2024
    patience: int = 10
    clip_norm: float = 5.0   # 0 disables clipping
    stop_train_mse: float = 0.0  # 0 disables the train-fit early exit

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")


@dataclass
class TrainResult:
    curve: list            # (epoch, train_mse, val_mse) per completed epoch
    best_epoch: int
    best_val: float
    best_params: dict      # name -> array snapshot of the best-val model
    diverged: bool = False
    stopped_early: bool = False


def _snapshot(model: AttentionMambaModel) -> dict:
    return {name: t.data.copy() for name, t in model.named_parameters()}


def _restore(model: AttentionMambaModel, snapshot: dict) -> None:
    for name, t in model.named_parameters():
        t.data = snapshot[name].copy()


def evaluate_mse_mae(model: AttentionMambaModel, windows: list[WindowSample],
                     batch_size: int = 64) -> tuple[float, float]:
    """Forward-only metrics over windows stacked one batch at a time, in scaled space.

    Errors are taken in float64 from the model-dtype predictions and summed
    across batches, so the result is the MSE and MAE of those predictions to
    float64 rounding and does not depend on ``batch_size``.
    """
    if not windows:
        return float("nan"), float("nan")
    sq = 0.0
    ab = 0.0
    count = 0
    for i in range(0, len(windows), batch_size):
        batch = windows[i:i + batch_size]
        yhat = model.forward(np.stack([w.x for w in batch]).astype(model.config.dtype))[0].data
        ys = np.stack([w.y for w in batch]).astype(model.config.dtype)
        err = yhat.astype(np.float64) - ys.astype(np.float64)
        sq += float((err**2).sum())
        ab += float(np.abs(err).sum())
        count += err.size
    return sq / count, ab / count


def train(model: AttentionMambaModel, dataset: SplitDataset,
          cfg: TrainRunConfig) -> TrainResult:
    """Minimize MSE over the train windows, each batch gathered from the
    series cast once to the model dtype; deterministic for a fixed seed.

    Keeps the best-validation checkpoint and restores it into the model on
    exit. A non-finite loss or gradient, or a step size that underflowed
    to zero (NonPositiveStepError from the scan), aborts with the last good
    checkpoint and the result flagged as diverged.
    """
    L, T = dataset.lookback, dataset.horizon
    starts = window_starts(dataset.values.shape[0], L, T, dataset.train_range)
    if not len(starts):
        raise DataError("dataset yields no training windows")
    val_windows = dataset.windows("val")
    if not val_windows:
        log.info("no validation windows; using train loss for early stopping")

    values = np.asarray(dataset.values, dtype=model.config.dtype)
    named = model.named_parameters()
    params = [t for _, t in named]
    opt = AdamState.init(named, cfg.lr)
    rng = np.random.default_rng([cfg.seed, 1])

    curve: list = []
    best_params = _snapshot(model)
    best_val = float("inf")
    best_epoch = -1
    bad_epochs = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(starts))
        sq_sum = 0.0
        n_elem = 0
        try:
            for i in range(0, len(order), cfg.batch_size):
                s = starts[order[i:i + cfg.batch_size], None]
                yhat, _ = model.forward(values[s + np.arange(L)])
                diff = yhat - Tensor(values[s + np.arange(L, L + T)])
                loss = (diff * diff).mean()
                loss_val = loss.item()
                if not math.isfinite(loss_val):
                    log.error("training diverged at epoch %d; restoring best checkpoint", epoch)
                    _restore(model, best_params)
                    return TrainResult(curve, best_epoch, best_val, best_params, diverged=True)
                sq_sum += loss_val * diff.data.size
                n_elem += diff.data.size
                grads = gradients(loss, params)
                if cfg.clip_norm > 0:
                    clip_global_norm(grads, cfg.clip_norm)
                adam_step(named, grads, opt)

            train_mse = sq_sum / n_elem
            val_mse = evaluate_mse_mae(model, val_windows, cfg.batch_size)[0] \
                if val_windows else train_mse
        except (NonFiniteGradientError, NonPositiveStepError) as exc:
            log.error("%s; restoring best checkpoint", exc)
            _restore(model, best_params)
            return TrainResult(curve, best_epoch, best_val, best_params, diverged=True)
        curve.append((epoch, train_mse, val_mse))

        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_params = _snapshot(model)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                log.info("early stop at epoch %d (no val improvement for %d epochs)",
                         epoch, cfg.patience)
                _restore(model, best_params)
                return TrainResult(curve, best_epoch, best_val, best_params,
                                   stopped_early=True)

        if cfg.stop_train_mse > 0 and train_mse < cfg.stop_train_mse:
            log.info("train MSE %.3e under target %.3e at epoch %d; stopping",
                     train_mse, cfg.stop_train_mse, epoch)
            break

    if best_epoch >= 0:
        _restore(model, best_params)
    return TrainResult(curve, best_epoch, best_val, best_params)
