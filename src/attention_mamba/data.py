"""Dataset handling: bulk CSV ingestion, chronological splits, train-only
z-scoring, stride-1 windows by start timestep, and a seeded synthetic generator.
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
    """Parse a rectangular numeric UTF-8 CSV.

    A first row of entirely non-numeric cells is treated as a header; a
    non-numeric first cell on data rows marks a timestamp column, which is
    dropped. Ragged rows, non-numeric data cells, non-UTF-8 bytes and empty
    files each raise their own error; a non-finite cell ("nan", "inf")
    counts as non-numeric.

    One ``np.loadtxt`` call parses the body; ``_scan_cells`` parses it
    again only when that call fails or disagrees.
    """
    try:
        return _parse_csv(path)
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:  # exc.start counts from a read buffer, not the file
            try:
                fh.read().decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
        raise DataError(f"{path}: not UTF-8 text at byte offset {exc.start}") from None


def _parse_csv(path) -> RawSeries:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = filter(None, reader)
        first = next(rows, None)
        header_lines = reader.line_num
        second = next(rows, None)
    if first is None:
        raise EmptyFileError(f"{path}: no rows")

    names: list[str] | None = None
    if all(not _is_number(cell) for cell in first):
        names = [cell.strip() for cell in first]
        first = second
        if first is None:
            raise EmptyFileError(f"{path}: header only, no data rows")

    has_timestamp = not _is_number(first[0])
    first_col = 1 if has_timestamp else 0
    if names is not None and has_timestamp:
        names = names[first_col:]

    width = len(first) - first_col
    if width < 1:
        raise DataError(f"{path}: no numeric columns")
    if names is not None and len(names) != width:
        raise RaggedRowError(
            f"{path}: header has {len(names)} column names, data rows have {width} values"
        )
    # Not usecols, which drops a ragged row's extra cells: timestamps parse as 0.
    try:
        out = np.loadtxt(path, delimiter=",", comments=None, quotechar='"', ndmin=2,
                         encoding="utf-8", skiprows=0 if names is None else header_lines,
                         converters={0: lambda _: 0.0} if has_timestamp else None)
    except ValueError:
        out = None
    if out is None or out.shape[1] != first_col + width or not np.isfinite(out).all():
        out = _scan_cells(path, 0 if names is None else 1, first_col, width)
    if names is None:
        names = [f"v{j}" for j in range(width)]
    return RawSeries(values=np.ascontiguousarray(out[:, first_col:]), names=names)


def _scan_cells(path, skip: int, first_col: int, width: int) -> np.ndarray:
    """Parse the rows after `skip` with float() per cell; name the first bad one."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row][skip:]
    out = np.zeros((len(rows), first_col + width), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) - first_col != width:
            raise RaggedRowError(
                f"{path}: row {i + 1} has {len(row) - first_col} values, expected {width}"
            )
        for j in range(first_col, first_col + width):
            try:
                out[i, j] = float(row[j])
            except ValueError:
                raise NonNumericCellError(
                    f"{path}: non-numeric cell {row[j]!r} at row {i + 1}, column {j + 1}"
                ) from None
    if not np.isfinite(out).all():
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise NonNumericCellError(
            f"{path}: non-finite cell {rows[i][j]!r} at row {i + 1}, column {j + 1}"
        )
    return out


def write_csv(path, series: RawSeries) -> None:
    """Write a series back out with shortest round-trip float rendering."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
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


def window_starts(total: int, lookback: int, horizon: int,
                  region: tuple[int, int] | None = None) -> np.ndarray:
    """Start timesteps of the stride-1 windows whose last target falls in `region`.

    The lookback may reach back before the region start (but never before
    timestep 0), so scoring region r of length R yields R windows once r
    starts at lookback+horizon-1 or later; a standalone series of length R
    yields R - L - T + 1 windows. Too-short inputs give none.
    """
    if lookback < 1 or horizon < 1:
        raise DataError(f"lookback and horizon must be >= 1, got {lookback}, {horizon}")
    start, end = region if region is not None else (0, total)
    first = max(0, start - lookback - horizon + 1)
    last = min(end, total) - lookback - horizon + 1
    if last <= first:
        log.info("no windows: region (%d, %d) shorter than lookback+horizon=%d",
                 start, end, lookback + horizon)
    return np.arange(first, last)


def make_windows(values: np.ndarray, lookback: int, horizon: int,
                 region: tuple[int, int] | None = None) -> list[WindowSample]:
    """The windows of ``window_starts`` as views of `values`."""
    return [WindowSample(x=values[i:i + lookback], y=values[i + lookback:i + lookback + horizon])
            for i in window_starts(values.shape[0], lookback, horizon, region).tolist()]


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
    """Sum-of-sinusoids generator settings."""

    n_variates: int = 8
    timesteps: int = 2000
    frequencies: tuple = (0.005, 0.01, 0.02)   # cycles per timestep
    noise_std: float = 0.05
    seed: int = 2024


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
