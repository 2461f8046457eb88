"""Dataset handling: CSV ingestion, chronological splits, train-only
z-scoring, stride-1 sliding windows, and a seeded synthetic generator.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

ZERO_VARIANCE_EPS = 1e-8


class DataError(ValueError):
    """Problem with an input dataset."""


class EmptyFileError(DataError):
    pass


class RaggedRowError(DataError):
    pass


class NonNumericCellError(DataError):
    pass


@dataclass
class RawSeries:
    """A rectangular multivariate series, one row per timestep."""

    values: np.ndarray          # [timesteps, N] float64
    names: list[str]

    @property
    def timesteps(self) -> int:
        return self.values.shape[0]

    @property
    def n_variates(self) -> int:
        return self.values.shape[1]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_csv(path) -> RawSeries:
    """Parse a rectangular numeric CSV.

    A first row of entirely non-numeric cells is treated as a header; a
    non-numeric first cell on data rows marks a timestamp column, which is
    dropped. Ragged rows, non-numeric data cells, and empty files each
    raise their own error; a non-finite cell ("nan", "inf") counts as
    non-numeric.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if not rows:
        raise EmptyFileError(f"{path}: no rows")

    names: list[str] | None = None
    if all(not _is_number(cell) for cell in rows[0]):
        names = [cell.strip() for cell in rows[0]]
        rows = rows[1:]
        if not rows:
            raise EmptyFileError(f"{path}: header only, no data rows")

    has_timestamp = not _is_number(rows[0][0])
    first_col = 1 if has_timestamp else 0
    if names is not None and has_timestamp:
        names = names[first_col:]

    width = len(rows[0]) - first_col
    if width < 1:
        raise DataError(f"{path}: no numeric columns")
    out = np.empty((len(rows), width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) - first_col != width:
            raise RaggedRowError(
                f"{path}: row {i + 1} has {len(row) - first_col} values, expected {width}"
            )
        for j, cell in enumerate(row[first_col:]):
            try:
                out[i, j] = float(cell)
            except ValueError:
                raise NonNumericCellError(
                    f"{path}: non-numeric cell {cell!r} at row {i + 1}, column {j + first_col + 1}"
                ) from None
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        col = j + first_col
        raise NonNumericCellError(
            f"{path}: non-finite cell {rows[i][col]!r} at row {i + 1}, column {col + 1}"
        )
    if names is None:
        names = [f"v{j}" for j in range(width)]
    return RawSeries(values=out, names=names)


def write_csv(path, series: RawSeries) -> None:
    """Write a series back out with shortest round-trip float rendering."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(series.names)
        for row in series.values:
            writer.writerow([repr(float(v)) for v in row])


# --------------------------------------------------------------------------
# windows

@dataclass
class WindowSample:
    """One supervised pair: y immediately follows x in time."""

    x: np.ndarray  # [L, N]
    y: np.ndarray  # [T, N]


def make_windows(values: np.ndarray, lookback: int, horizon: int,
                 region: tuple[int, int] | None = None) -> list[WindowSample]:
    """Stride-1 windows whose last target timestep falls inside `region`.

    The lookback may reach back before the region start (but never before
    timestep 0), so scoring region r of length R yields R windows once r
    starts at lookback+horizon-1 or later; a standalone series of length R
    yields R - L - T + 1 windows. Too-short inputs give an empty list.
    """
    if lookback < 1 or horizon < 1:
        raise DataError(f"lookback and horizon must be >= 1, got {lookback}, {horizon}")
    total = values.shape[0]
    start, end = region if region is not None else (0, total)
    first = max(0, start - lookback - horizon + 1)
    last = min(end, total) - lookback - horizon + 1
    if last <= first:
        log.info("no windows: region (%d, %d) shorter than lookback+horizon=%d",
                 start, end, lookback + horizon)
        return []
    out = []
    for i in range(first, last):
        out.append(WindowSample(
            x=values[i:i + lookback],
            y=values[i + lookback:i + lookback + horizon],
        ))
    return out


# --------------------------------------------------------------------------
# scaling and splits

@dataclass
class Scaler:
    """Per-variate z-scoring statistics fit on the training range only."""

    mean: np.ndarray
    std: np.ndarray

    @staticmethod
    def fit(values: np.ndarray) -> "Scaler":
        mean = values.mean(axis=0)
        std = values.std(axis=0)
        degenerate = std < ZERO_VARIANCE_EPS
        if degenerate.any():
            log.warning("zero-variance variates %s: scale clamped to 1",
                        np.flatnonzero(degenerate).tolist())
            std = np.where(degenerate, 1.0, std)
        return Scaler(mean=mean, std=std)

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std

    def inverse(self, values: np.ndarray) -> np.ndarray:
        return values * self.std + self.mean


@dataclass
class SplitDataset:
    """Chronological train/val/test ranges over one (optionally scaled) series."""

    values: np.ndarray
    names: list[str]
    lookback: int
    horizon: int
    train_range: tuple[int, int]
    val_range: tuple[int, int]
    test_range: tuple[int, int]
    scaler: Scaler | None = None

    def range_of(self, split: str) -> tuple[int, int]:
        try:
            return {"train": self.train_range, "val": self.val_range,
                    "test": self.test_range}[split]
        except KeyError:
            raise ValueError(f"unknown split {split!r}") from None

    def windows(self, split: str) -> list[WindowSample]:
        return make_windows(self.values, self.lookback, self.horizon, self.range_of(split))


def split_series(series: RawSeries, lookback: int, horizon: int,
                 ratios: tuple[float, float, float] = (0.7, 0.1, 0.2)) -> SplitDataset:
    """Carve chronological train/val/test ranges by the given ratios."""
    if len(ratios) != 3 or any(r < 0 for r in ratios) or ratios[0] <= 0:
        raise DataError(f"split ratios must be three non-negatives with train > 0, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-6:
        raise DataError(f"split ratios must sum to 1, got {ratios}")
    total = series.timesteps
    if total < lookback + horizon:
        raise DataError(
            f"series has {total} timesteps, need at least lookback+horizon={lookback + horizon}"
        )
    n_train = int(total * ratios[0])
    n_val = int(total * ratios[1])
    return SplitDataset(
        values=series.values.copy(),
        names=list(series.names),
        lookback=lookback,
        horizon=horizon,
        train_range=(0, n_train),
        val_range=(n_train, n_train + n_val),
        test_range=(n_train + n_val, total),
    )


def fit_apply_scaler(ds: SplitDataset) -> SplitDataset:
    """Fit z-scoring on the train range and apply it to every split."""
    start, end = ds.train_range
    if end <= start:
        raise DataError("train range is empty; cannot fit a scaler")
    scaler = Scaler.fit(ds.values[start:end])
    return SplitDataset(
        values=scaler.transform(ds.values),
        names=ds.names,
        lookback=ds.lookback,
        horizon=ds.horizon,
        train_range=ds.train_range,
        val_range=ds.val_range,
        test_range=ds.test_range,
        scaler=scaler,
    )


# --------------------------------------------------------------------------
# synthetic generator

@dataclass
class SyntheticSpec:
    """Sum-of-sinusoids generator settings; JSON keys match field names."""

    n_variates: int = 8
    timesteps: int = 2000
    frequencies: tuple = (0.005, 0.01, 0.02)   # cycles per timestep
    noise_std: float = 0.05
    seed: int = 2024

    @staticmethod
    def from_dict(d: dict) -> "SyntheticSpec":
        known = {"n_variates", "timesteps", "frequencies", "noise_std", "seed"}
        unknown = set(d) - known
        if unknown:
            raise DataError(f"unknown synthetic keys {sorted(unknown)}")
        spec = SyntheticSpec(**{k: v for k, v in d.items()})
        if spec.n_variates < 1 or spec.timesteps < 2 or not spec.frequencies:
            raise DataError("synthetic spec needs n_variates >= 1, timesteps >= 2, frequencies")
        return spec


def generate_synthetic(spec: SyntheticSpec) -> RawSeries:
    """Seeded mixture of sinusoids plus Gaussian noise, one mix per variate."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.timesteps, dtype=np.float64)[:, None]
    freqs = np.asarray(spec.frequencies, dtype=np.float64)
    amplitude = rng.uniform(0.5, 1.5, size=(len(freqs), spec.n_variates))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(len(freqs), spec.n_variates))
    values = np.zeros((spec.timesteps, spec.n_variates))
    for i, f in enumerate(freqs):
        values += amplitude[i] * np.sin(2.0 * np.pi * f * t + phase[i])
    if spec.noise_std > 0:
        values += rng.normal(0.0, spec.noise_std, size=values.shape)
    names = [f"v{j}" for j in range(spec.n_variates)]
    return RawSeries(values=values, names=names)
