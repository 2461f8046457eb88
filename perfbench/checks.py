"""Output checks, run outside every timed region.

Each check returns a list of failure messages; an empty list means the
output is correct. The caller counts every message as one failed
operation and carries on with the run.
"""

from __future__ import annotations

import math

import numpy as np

# B=1 and batched forwards take different BLAS paths, so rows agree only to
# float32 rounding, not bit for bit.
FLOAT32_RTOL = 1e-4
FLOAT32_ATOL = 1e-5


def check_training(val_mse: float, untrained_mse: float, diverged: bool) -> list[str]:
    """The fixed training run must converge below the untrained model."""
    failures = []
    if diverged:
        failures.append("train: run diverged and rolled back")
    if not math.isfinite(val_mse):
        failures.append(f"train: val_mse {val_mse!r} is not finite")
    elif not val_mse < untrained_mse:
        failures.append(
            f"train: val_mse {val_mse:.6g} is not below the untrained model's {untrained_mse:.6g}"
        )
    return failures


def check_forecasts(single: np.ndarray, batched: np.ndarray,
                    from_memory: np.ndarray, from_checkpoint: np.ndarray) -> list[str]:
    """Served B=1 outputs against one batched forward and the unsaved model.

    single: [K, T, N] stacked B=1 outputs for K windows; batched: [K, T, N]
    one forward over the same K windows. from_memory and from_checkpoint are
    the same batched forward by the in-memory and the reloaded model.
    """
    failures = []
    if not np.all(np.isfinite(single)):
        failures.append(f"forecast: {int((~np.isfinite(single)).sum())} non-finite outputs")
    if single.shape != batched.shape:
        failures.append(f"forecast: B=1 shape {single.shape} vs batched {batched.shape}")
    elif not np.allclose(single, batched, rtol=FLOAT32_RTOL, atol=FLOAT32_ATOL):
        worst = float(np.max(np.abs(single.astype(np.float64) - batched)))
        failures.append(f"forecast: B=1 outputs differ from the batched forward by {worst:.3g}")
    if not np.array_equal(from_memory, from_checkpoint):
        failures.append("forecast: checkpointed model does not reproduce the in-memory model")
    return failures


def check_ingest(raw: np.ndarray, scaled: np.ndarray, train_range: tuple[int, int],
                 windows, lookback: int, horizon: int) -> list[str]:
    """Window count, first and last window contents, and the z-scoring.

    raw is the parsed series, scaled the dataset values, windows the train
    windows the data layer built.
    """
    failures = []
    start, end = train_range
    expected = max(0, end - lookback - horizon + 1 - max(0, start - lookback - horizon + 1))
    if len(windows) != expected:
        failures.append(f"ingest: {len(windows)} train windows, formula gives {expected}")
        return failures
    train = raw[start:end]
    std = train.std(axis=0)
    std = np.where(std < 1e-8, 1.0, std)
    if not np.allclose(scaled, (raw - train.mean(axis=0)) / std, rtol=1e-9, atol=1e-9):
        failures.append("ingest: scaled series differs from train-range z-scoring of the CSV")
    first = max(0, start - lookback - horizon + 1)
    for i, w in ((first, windows[0]), (first + expected - 1, windows[-1])):
        if not (np.array_equal(w.x, scaled[i:i + lookback])
                and np.array_equal(w.y, scaled[i + lookback:i + lookback + horizon])):
            failures.append(f"ingest: window starting at row {i} is not a slice of the series")
    return failures


def check_score_macs(sweep: list[dict], expected: int) -> list[str]:
    """The score stage must cost (E/4)^3 MACs per batch element at every N."""
    failures = []
    for row in sweep:
        for key in ("score_macs", "trace_score_macs"):
            value = row.get(key)
            if value is not None and value != expected:
                failures.append(
                    f"score_macs: N={row['n_variates']} {key}={value}, expected {expected}"
                )
    if len({row["score_macs"] for row in sweep}) > 1:
        failures.append("score_macs: score-stage MACs change with N")
    return failures
