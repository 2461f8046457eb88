"""Adam optimization of MSE over batches gathered by window start, with seeded
shuffling. The recipe is fixed by the constants below: Adam's betas and eps,
every step's gradients clipped to global norm ``CLIP_NORM``, an early stop
after ``PATIENCE`` epochs without a validation improvement, and divergence
rollback to the best checkpoint seen so far.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DataError, SplitDataset, WindowSample, check_int, window_starts
from .model import AttentionMambaModel, ConfigError
from .tensor_core import NonPositiveStepError, Tensor, gradients, no_grad

log = logging.getLogger(__name__)

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
CLIP_NORM = 5.0
PATIENCE = 10


class NonFiniteGradientError(RuntimeError):
    """A parameter gradient left the finite range; the step was aborted."""


class NonFiniteLossError(RuntimeError):
    """The training loss or the validation MSE left the finite range."""


@dataclass
class AdamState:
    """Bias-corrected Adam moments, one pair per named parameter."""

    lr: float
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
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for (name, tensor), grad in zip(named_params, grads):
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        m_hat = m / bc1
        v_hat = v / bc2
        tensor.data -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def clip_global_norm(grads) -> float:
    """Scale gradients in place to global L2 norm <= CLIP_NORM; returns the norm before."""
    total = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
    if total > CLIP_NORM:
        scale = CLIP_NORM / total
        for g in grads:
            g *= scale
    return total


@dataclass
class TrainRunConfig:
    """Run settings; the model carries the precision, the module constants the rest."""

    epochs: int
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 2024

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            check_int(name, getattr(self, name), low, ConfigError)
        lr = self.lr
        if isinstance(lr, bool) or not isinstance(lr, (int, float)) or not 0 < lr < math.inf:
            raise ConfigError(f"lr must be a finite number > 0, got {lr!r}")


@dataclass
class TrainResult:
    curve: list            # (epoch, train_mse, val_mse) per completed epoch
    best_epoch: int
    best_val: float
    diverged: bool = False
    stopped_early: bool = False


def _snapshot(model: AttentionMambaModel) -> dict:
    return {name: t.data.copy() for name, t in model.named_parameters()}


def evaluate_mse_mae(model: AttentionMambaModel, windows: list[WindowSample],
                     batch_size: int) -> tuple[float, float]:
    """Forward-only metrics over windows stacked one batch at a time, in scaled space.

    Errors are taken in float64 from the model-dtype predictions and summed
    across batches, so the result is the MSE and MAE of those predictions to
    float64 rounding and does not depend on ``batch_size``. The forwards run
    under ``no_grad``, so they build no tape and leave every ``.grad`` as it was.
    Targets that are not the forecast's shape raise DataError, and a
    ``batch_size`` that is not an integer >= 1 raises ConfigError.
    """
    check_int("batch_size", batch_size, 1, ConfigError)
    if not windows:
        return float("nan"), float("nan")
    sq = 0.0
    ab = 0.0
    count = 0
    for i in range(0, len(windows), batch_size):
        batch = windows[i:i + batch_size]
        with no_grad():
            yhat = model.forward(np.stack([w.x for w in batch]))[0].data
        ys = np.stack([w.y for w in batch]).astype(model.config.dtype)
        if ys.shape != yhat.shape:
            raise DataError(f"targets have shape {ys.shape}, forecasts {yhat.shape}")
        err = yhat.astype(np.float64) - ys.astype(np.float64)
        sq += float((err**2).sum())
        ab += float(np.abs(err).sum())
        count += err.size
    return sq / count, ab / count


def _train_step(model: AttentionMambaModel, named, opt: AdamState,
                x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """One clipped Adam step on the MSE of batch (x, y); returns the loss and
    its element count. The step's graph is held by this frame alone, so it
    is freed on return, before the next step's forward builds another. The
    forward's trace is dropped at once, so the fusion's arrays die as the
    sweep consumes the nodes that read them."""
    yhat = model.forward(x)[0]
    diff = yhat - Tensor(y)
    loss = (diff * diff).mean()
    loss_val = loss.item()
    if not math.isfinite(loss_val):
        raise NonFiniteLossError(f"non-finite training loss {loss_val}")
    grads = gradients(loss, [t for _, t in named])
    clip_global_norm(grads)
    adam_step(named, grads, opt)
    return loss_val, diff.data.size


def train(model: AttentionMambaModel, dataset: SplitDataset,
          cfg: TrainRunConfig) -> TrainResult:
    """Minimize MSE over the train windows, each batch gathered from the
    dataset's own series, then cast to the model dtype; deterministic for a
    fixed seed.

    Restores the best-validation checkpoint into the model on every exit,
    through ``load_parameters``. A non-finite training loss, gradient or
    validation MSE, or a step size that is not a positive number
    (NonPositiveStepError from the scan), ends the run flagged as diverged;
    ``PATIENCE`` stale epochs end it as stopped early.
    Each step's graph dies with the frame of ``_train_step``, so one tape is
    alive at a time, and the validation pass builds none. A dataset whose
    (lookback, horizon) or variate count is not the model's raises DataError.
    """
    L, T = dataset.lookback, dataset.horizon
    if (L, T) != (model.config.lookback, model.config.horizon):
        raise DataError(f"dataset has (lookback, horizon) = {(L, T)}, model "
                        f"{(model.config.lookback, model.config.horizon)}")
    if dataset.values.shape[1] != model.config.n_variates:
        raise DataError(f"dataset has {dataset.values.shape[1]} variates, "
                        f"model {model.config.n_variates}")
    starts = window_starts(dataset.values.shape[0], L, T, dataset.train_range)
    if not len(starts):
        raise DataError("dataset yields no training windows")
    val_windows = dataset.windows("val")
    if not val_windows:
        log.info("no validation windows; using train loss for early stopping")

    values, dtype = dataset.values, model.config.dtype
    named = model.named_parameters()
    opt = AdamState.init(named, cfg.lr)
    rng = np.random.default_rng([cfg.seed, 1])

    curve: list = []
    best_params = _snapshot(model)
    best_val = float("inf")
    best_epoch = -1
    bad_epochs = 0
    diverged = False

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(starts))
        sq_sum, n_elem = 0.0, 0
        try:
            for i in range(0, len(order), cfg.batch_size):
                s = starts[order[i:i + cfg.batch_size], None]
                x = values[s + np.arange(L)].astype(dtype, copy=False)
                y = values[s + np.arange(L, L + T)].astype(dtype, copy=False)
                loss_val, n = _train_step(model, named, opt, x, y)
                sq_sum += loss_val * n
                n_elem += n

            train_mse = sq_sum / n_elem
            val_mse = evaluate_mse_mae(model, val_windows, cfg.batch_size)[0] \
                if val_windows else train_mse
            if not math.isfinite(val_mse):
                raise NonFiniteLossError(f"non-finite validation MSE {val_mse}")
        except (NonFiniteLossError, NonFiniteGradientError, NonPositiveStepError) as exc:
            log.error("training diverged at epoch %d (%s); restoring best checkpoint", epoch, exc)
            diverged = True
            break
        curve.append((epoch, train_mse, val_mse))

        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            best_params = _snapshot(model)
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= PATIENCE:
                log.info("early stop at epoch %d (no val improvement for %d epochs)", epoch, PATIENCE)
                break

    model.load_parameters(best_params)
    return TrainResult(curve, best_epoch, best_val, diverged, bad_epochs >= PATIENCE)
