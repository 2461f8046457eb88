"""Tests of the benchmark itself: names, output checks, tiny smoke runs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
from workloads import WORKLOADS, Run, tail_percentile

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def tiny(name: str):
    """The named workload at a shape that runs in about a second."""
    return dataclasses.replace(
        WORKLOADS[name], n_variates={"electricity": 5, "weather": 3}[name], train_rows=150,
        ingest_rows=200, batch_size=4, requests_per_round=7, replays=1, lr=1e-2,
        lookback=8, horizon=8, embed_dim=8, sweep=(2, 3, 7),
    )


# -- names -------------------------------------------------------------------------

def test_metric_and_workload_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]] + sorted(END_TO_END) + sorted(PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 40, 100, 200, 1000, 5000):
        pct = tail_percentile(n)
        assert n * (1 - pct / 100) >= 10
    with pytest.raises(ValueError):
        tail_percentile(19)
    assert tail_percentile(40) == 75.0
    assert tail_percentile(200) == 95.0


# -- output checks catch perturbed outputs ---------------------------------------------

def test_training_check():
    assert checks.check_training(0.5, 1.0, diverged=False) == []
    assert checks.check_training(float("nan"), 1.0, diverged=False)
    assert checks.check_training(1.0, 1.0, diverged=False)
    assert checks.check_training(0.5, 1.0, diverged=True)


def test_forecast_check():
    rng = np.random.default_rng(0)
    batched = rng.standard_normal((4, 8, 3)).astype(np.float32)
    single = batched + np.float32(1e-7)
    assert checks.check_forecasts(single, batched, batched, batched.copy()) == []

    non_finite = single.copy()
    non_finite[1, 2, 0] = np.nan
    assert checks.check_forecasts(non_finite, batched, batched, batched)

    shifted = single.copy()
    shifted[3, 0, 2] += 1e-2
    assert checks.check_forecasts(shifted, batched, batched, batched)

    reloaded = batched.copy()
    reloaded[0, 0, 0] = np.nextafter(reloaded[0, 0, 0], np.float32(np.inf))
    assert checks.check_forecasts(single, batched, batched, reloaded)


def test_ingest_check(am):
    series = am.data.generate_synthetic(am.data.SyntheticSpec(n_variates=3, timesteps=60, seed=1))
    ds = am.data.fit_apply_scaler(am.data.split_series(series, 5, 4))
    windows = ds.windows("train")
    args = (series.values, ds.values, ds.train_range)
    assert checks.check_ingest(*args, windows, 5, 4) == []
    assert checks.check_ingest(*args, windows[:-1], 5, 4)

    moved = list(windows)
    moved[-1] = am.data.WindowSample(x=ds.values[1:6], y=moved[-1].y)
    assert checks.check_ingest(*args, moved, 5, 4)

    unscaled_windows = am.data.make_windows(series.values, 5, 4, ds.train_range)
    assert checks.check_ingest(series.values, series.values, ds.train_range,
                               unscaled_windows, 5, 4)


def test_score_macs_check():
    flat = [{"n_variates": n, "score_macs": 8, "trace_score_macs": 8} for n in (2, 3)]
    assert checks.check_score_macs(flat, 8) == []
    grows = [{"n_variates": n, "score_macs": 8 * n, "trace_score_macs": None} for n in (1, 2)]
    assert checks.check_score_macs(grows, 8)
    disagree = [{"n_variates": 2, "score_macs": 8, "trace_score_macs": 9}]
    assert checks.check_score_macs(disagree, 8)


# -- tracer ------------------------------------------------------------------------------

def test_missing_entry_point_is_reported_not_raised(am, monkeypatch):
    monkeypatch.setattr(tracing, "ENTRY_POINTS",
                        tracing.ENTRY_POINTS + [("mamba.gone", "mamba", None, "no_such_function")])
    tracer = tracing.Tracer(am, batch_size=4)
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["mamba.gone"]
    assert am.mamba.selective_scan is tracer.originals["mamba.selective_scan"]


# -- smoke runs at tiny shapes -----------------------------------------------------------

@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(am, tmp_path, name, trace):
    run = Run(am, tiny(name), seed=3, seconds=0.01, trace=trace, workdir=tmp_path)
    metrics = run.execute()
    assert run.failures == []
    assert set(metrics) == (PER_LAYER if trace else END_TO_END)
    for metric, (value, unit) in metrics.items():
        assert value is not None and math.isfinite(value), metric
        if not trace:
            assert value > 0, metric
    if trace:
        assert run.details["missing"] == []
        assert metrics["pooled_attention.score_macs"][0] == 4 * 2**3
        assert 0 < metrics["trace.coverage"][0] <= 1
    assert {row["score_macs"] for row in run.details["score_macs_sweep"]} == {2**3}


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "_work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "weather", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
