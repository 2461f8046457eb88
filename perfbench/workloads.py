"""The benchmark's workloads and the phases of one run.

A workload fixes a variate count and the sizes of its inputs. One run goes
through the same phases at that shape:

    set-up    parse the training CSV, split, scale, build the model, save
              and reload it; the median over repetitions is `setup_s`
    ingest    load_csv -> split_series -> fit_apply_scaler ->
              train(epochs=0) on a long CSV; the median pass is `ingest_s`
    train     train() epochs with validation; `train_samples_per_s`, and
              `val_mse` after the first (fixed) epoch
    forecast  one client sends B=1 test windows in a closed loop to a model
              loaded from a checkpoint written before timing;
              `forecast_p50_ms` and `forecast_tail_ms`

The machine's speed drifts by up to half over seconds to tens of seconds,
so set-up, ingest and forecast run in rounds, and each metric pools all
its rounds. Training runs last: the heap it leaves behind
would otherwise add to the ingest phase's peak RSS. Each timed phase starts
with a full collection, as if it ran in its own process, so it pays for its
own reference cycles and no one else's.

Inputs come from `generate_synthetic` with the run's seed and are written
to CSV before any timing starts. Every output check runs outside the timed
regions; a failed check counts as one failed operation and the run goes on.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import resource
import statistics
import time
from pathlib import Path

import numpy as np

import checks
from tracing import GcWatch, Tracer, counting_score_macs, median_or_none, traced_peak_mb

# Shares of --seconds given to the time-bounded phases, over all rounds. Each
# phase also has a minimum amount of work, which the large shape exceeds.
INGEST_SHARE = 0.2
TRAIN_SHARE = 0.25
FORECAST_SHARE = 0.4
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_REPS_PER_ROUND = 3
CHECKED_REQUESTS = 8   # first B=1 outputs compared with a batched forward
ALLOC_REQUESTS = 3     # B=1 forwards under tracemalloc in a traced run


@dataclasses.dataclass(frozen=True)
class Workload:
    n_variates: int
    train_rows: int          # series behind set-up, training and forecasting
    ingest_rows: int         # CSV of the ingest phase
    batch_size: int
    rounds: int              # set-up, ingest and forecast rounds per run
    requests_per_round: int  # minimum forecast requests per round
    replays: int             # backward replays per layer in a traced run
    lr: float
    lookback: int = 96
    horizon: int = 96
    embed_dim: int = 128
    sweep: tuple = (7, 21, 321, 862)

    @property
    def min_requests(self) -> int:
        return self.rounds * self.requests_per_round


WORKLOADS = {
    # Electricity's 321 variates: the selective scan is most of a step. A
    # 620-row series gives 16 steps of 16 and 62 validation windows, about
    # 30 s; at 10 steps val_mse did not always beat the untrained model.
    # One 3 s ingest pass per round keeps the rounds few.
    "electricity": Workload(n_variates=321, train_rows=620, ingest_rows=8000,
                            batch_size=16, rounds=3, requests_per_round=20,
                            replays=3, lr=3e-3),
    # Weather's 21 variates: many short steps, fixed per-op and per-step cost.
    # At lr 3e-3 one epoch lands val_mse anywhere in 0.19-0.29 by seed; at
    # 1e-3 it stays within about 10%.
    "weather": Workload(n_variates=21, train_rows=1600, ingest_rows=8000,
                        batch_size=32, rounds=8, requests_per_round=25,
                        replays=5, lr=1e-3),
}


def tail_percentile(n: int) -> float:
    """Highest candidate percentile with at least 10 samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    raise ValueError(f"{n} requests leave fewer than 10 beyond the median")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """State of one run: counts, failures, the optional tracer, the phases."""

    def __init__(self, am, wl: Workload, seed: int, seconds: float, trace: bool, workdir: Path):
        self.am = am
        self.wl = wl
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(am, wl.batch_size) if trace else None
        self.workdir = workdir
        self.attempted = 0
        self.failures: list[str] = []
        self.details: dict = {}
        self.config = am.model.ModelConfig(
            n_variates=wl.n_variates, lookback=wl.lookback, horizon=wl.horizon,
            embed_dim=wl.embed_dim,
        )
        self.setup_times: list[float] = []
        self.ingest_times: list[float] = []
        self.latencies: list[float] = []
        self.traced_latencies: list[float] = []
        self.outputs: list[np.ndarray] = []
        self.gc_watch = GcWatch()

    # -- helpers -----------------------------------------------------------------

    def _phase(self, name: str) -> None:
        if self.tracer:
            self.tracer.phase = name

    def _begin(self, name: str) -> None:
        gc.collect()
        self._phase(name)

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _guard(self, what: str, fn):
        """Run one operation; an exception counts as a failure and returns None."""
        try:
            return fn()
        except Exception as exc:  # the run must go on and report the failure
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            return None

    def _budget(self, share: float) -> float:
        """Seconds a phase may take over the whole run; a traced run does fixed work."""
        return 0.0 if self.tracer else share * self.seconds

    # -- phases ------------------------------------------------------------------

    def write_inputs(self) -> None:
        data = self.am.data
        spec = data.SyntheticSpec(n_variates=self.wl.n_variates,
                                  timesteps=self.wl.train_rows, seed=self.seed)
        self.train_csv = self.workdir / "train.csv"
        self.ingest_csv = self.workdir / "ingest.csv"
        self.checkpoint = self.workdir / "model.ckpt"
        data.write_csv(self.train_csv, data.generate_synthetic(spec))
        long_spec = dataclasses.replace(spec, timesteps=self.wl.ingest_rows)
        data.write_csv(self.ingest_csv, data.generate_synthetic(long_spec))

    def set_up(self):
        am, wl = self.am, self.wl
        raw = am.data.load_csv(self.train_csv)
        dataset = am.data.fit_apply_scaler(am.data.split_series(raw, wl.lookback, wl.horizon))
        model = am.model.AttentionMambaModel(self.config, np.random.default_rng(self.seed))
        am.model.save_model(self.checkpoint, model)
        served, _ = am.model.load_model(self.checkpoint)
        return dataset, model, served

    def prepare(self) -> None:
        """The first, untimed set-up: the objects every later phase uses."""
        self._phase("check")
        self.dataset, self.model, self.served = self.set_up()
        test = self.dataset.windows("test")
        self.test_x = np.stack([w.x for w in test]).astype(self.config.dtype)

    def setup_round(self) -> None:
        self._begin("setup")
        for _ in range(SETUP_REPS_PER_ROUND):
            start = time.perf_counter()
            self.set_up()
            self.setup_times.append(time.perf_counter() - start)

    def _ingest_pass(self):
        am, wl = self.am, self.wl
        with self._span("ingest.pass"):
            start = time.perf_counter()
            raw = am.data.load_csv(self.ingest_csv)
            ds = am.data.fit_apply_scaler(am.data.split_series(raw, wl.lookback, wl.horizon))
            am.training.train(self.model, ds, am.training.TrainRunConfig(
                epochs=0, batch_size=wl.batch_size))
            self.ingest_times.append(time.perf_counter() - start)
        return raw, ds

    def ingest_round(self) -> None:
        wl = self.wl
        self._begin("ingest")
        began = time.perf_counter()
        last = None
        budget = self._budget(INGEST_SHARE) / wl.rounds
        while last is None or time.perf_counter() - began < budget:
            self.attempted += 1
            last = self._guard("ingest", self._ingest_pass) or ()
        self._phase("check")
        if last:
            raw, ds = last
            self.failures.extend(checks.check_ingest(
                raw.values, ds.values, ds.train_range, ds.windows("train"),
                wl.lookback, wl.horizon))

    def train(self) -> tuple[float, float]:
        am, wl = self.am, self.wl
        self._phase("check")
        n_windows = len(self.dataset.windows("train"))
        untrained = am.training.evaluate_mse_mae(self.model, self.dataset.windows("val"),
                                                 wl.batch_size)[0]
        self._begin("train")
        rates = []
        first = None
        began = time.perf_counter()
        while not rates or time.perf_counter() - began < self._budget(TRAIN_SHARE):
            self.attempted += math.ceil(n_windows / wl.batch_size)
            start = time.perf_counter()
            result = self._guard("train", lambda: am.training.train(
                self.model, self.dataset, am.training.TrainRunConfig(
                    epochs=1, batch_size=wl.batch_size, lr=wl.lr, seed=self.seed)))
            rates.append(n_windows / (time.perf_counter() - start))
            first = first or result
            if result is None:
                break
        self._phase("check")
        val_mse = first.curve[-1][2] if first is not None and first.curve else math.nan
        self.failures.extend(
            checks.check_training(val_mse, untrained, first is None or first.diverged))
        self.details["untrained_val_mse"] = untrained
        self.details["train_epochs"] = len(rates)
        if self.tracer:
            self.tracer.uninstall()
            self.replay()
            self.tracer.install()
        return statistics.median(rates), val_mse

    def _requests(self, latencies: list[float], count: int, budget: float = 0.0) -> None:
        """Closed loop, one client: the next request waits for the last reply."""
        xs = self.test_x
        began = time.perf_counter()
        while len(latencies) < count or time.perf_counter() - began < budget:
            i = (len(self.latencies) + len(self.traced_latencies)) % len(xs)
            self.attempted += 1
            with self._span("forecast.request"):
                start = time.perf_counter()
                out = self._guard("forecast", lambda: self.served.forward(xs[i:i + 1]))
                latencies.append(time.perf_counter() - start)
            if out is not None and i == len(self.outputs) < min(CHECKED_REQUESTS, len(xs)):
                self.outputs.append(out[0].data[0].copy())

    def forecast_round(self) -> None:
        wl = self.wl
        self._begin("forecast")
        target = len(self.latencies) + wl.requests_per_round
        if not self.tracer:
            self._requests(self.latencies, target, self._budget(FORECAST_SHARE) / wl.rounds)
            return
        # The same number of requests without and with spans; the ratio of
        # their medians is the tracing overhead.
        self.tracer.uninstall()
        self._requests(self.latencies, target)
        self.tracer.install()
        with self.gc_watch:
            self._requests(self.traced_latencies,
                           len(self.traced_latencies) + wl.requests_per_round)

    def check_outputs(self) -> None:
        """B=1 against batched forwards, and a checkpoint round trip of the trained model."""
        am = self.am
        self._phase("check")
        if not self.outputs:
            self.failures.append("forecast: no request returned an output to check")
            return
        batch = self.test_x[:len(self.outputs)]
        am.model.save_model(self.checkpoint, self.model)
        reloaded, _ = am.model.load_model(self.checkpoint)
        self.failures.extend(checks.check_forecasts(
            np.stack(self.outputs), self.served.forward(batch)[0].data,
            self.model.forward(batch)[0].data, reloaded.forward(batch)[0].data))

    def score_macs_sweep(self) -> list[dict]:
        """B=1 forwards at every N of the sweep; the score stage must not grow with N."""
        am, wl = self.am, self.wl
        rng = np.random.default_rng(self.seed)
        rows = []
        for n in wl.sweep:
            config = dataclasses.replace(self.config, n_variates=n)
            model = am.model.AttentionMambaModel(config, rng)
            x = rng.standard_normal((1, wl.lookback, n)).astype(config.dtype)
            with counting_score_macs(am) as score, am.tensor_core.count_macs() as total:
                _, trace = model.forward(x)
            attention = getattr(trace, "attention", None)
            rows.append({"n_variates": n, "score_macs": score["macs"],
                         "trace_score_macs": getattr(attention, "score_macs", None),
                         "forward_macs": total.total})
        self.failures.extend(checks.check_score_macs(rows, (wl.embed_dim // 4) ** 3))
        return rows

    # -- the run -----------------------------------------------------------------

    def execute(self) -> dict:
        self.write_inputs()
        if self.tracer:
            self.tracer.install()
        try:
            self.prepare()
            for _ in range(self.wl.rounds):
                self.setup_round()
                self.ingest_round()
                self.forecast_round()
            samples_per_s, val_mse = self.train()
        finally:
            if self.tracer:
                self.tracer.uninstall()
        self.check_outputs()
        self.details["score_macs_sweep"] = self.score_macs_sweep()
        pct = tail_percentile(self.wl.min_requests)
        self.details["forecast_tail_percentile"] = pct
        self.details["forecast_requests"] = len(self.latencies)
        if self.tracer:
            xs = self.test_x
            self.details["alloc_peak_mb"] = traced_peak_mb(
                lambda: [self.served.forward(xs[i % len(xs):i % len(xs) + 1])
                         for i in range(ALLOC_REQUESTS)])
            return self.layer_metrics()
        return {
            "setup_s": (statistics.median(self.setup_times), "s"),
            # The mean, not the median: pass times are bimodal with the
            # machine's speed, and the mean moves smoothly with the mix.
            "ingest_s": (statistics.fmean(self.ingest_times) if self.ingest_times else None, "s"),
            "train_samples_per_s": (samples_per_s, "1/s"),
            "val_mse": (val_mse, "mse"),
            "forecast_p50_ms": (1e3 * statistics.median(self.latencies), "ms"),
            "forecast_tail_ms": (1e3 * float(np.percentile(self.latencies, pct)), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
            "success_ratio": (1.0 - min(len(self.failures), self.attempted)
                              / max(self.attempted, 1), "ratio"),
        }

    # -- traced run --------------------------------------------------------------

    def replay(self) -> None:
        self.replays = {}
        for label in ("layers.revin", "layers.embed", "layers.head", "pooled_attention.fwd",
                      "mamba.bidirectional", "mamba.selective_scan"):
            self.replays[label] = self._guard(
                f"replay {label}",
                lambda: self.tracer.replay_backward(label, self.wl.replays, self.seed)) \
                or (None, None)
        self.tracer.phase = "check"
        zero_grad = getattr(self.am.tensor_core, "zero_grad", None)
        if zero_grad:
            zero_grad(self.model.parameters())

    def layer_metrics(self) -> dict:
        tr, wl, batch = self.tracer, self.wl, self.wl.batch_size

        def fwd(name):
            return tr.median_seconds(name, "train", batch)

        def macs(name):
            return median_or_none([s.macs for s in tr.select(name, "train", batch)
                                   if s.macs is not None])

        def per_pass(names, field="seconds"):
            values = []
            for p in tr.select("ingest.pass", "ingest"):
                inner = [s for s in tr.children_of(p.span_id) if s.name in names]
                values.append(sum(getattr(s, field) or 0 for s in inner))
            return median_or_none(values)

        # train(epochs=0) in the ingest phase is all preparation: building and
        # stacking every training window.
        prepare = []
        for call in tr.select("training.train", "ingest"):
            starts = [s.start for s in tr.children_of(call.span_id) if s.name == "model.forward"]
            prepare.append(min(starts, default=call.end) - call.start)

        revin_parts = [fwd("layers.revin_normalize"), fwd("layers.revin_denormalize")]
        untraced = self.latencies
        traced = self.traced_latencies
        score_macs = macs("pooled_attention.score")
        self.failures.extend(checks.check_score_macs(
            [{"n_variates": wl.n_variates, "score_macs": score_macs,
              "trace_score_macs": tr.observed.get("attention_trace_score_macs")}],
            batch * (wl.embed_dim // 4) ** 3))

        gc_collections, gc_pause = self.gc_watch.collections, self.gc_watch.pause_s
        values = {
            "mamba.selective_scan_fwd_s": (fwd("mamba.selective_scan"), "s"),
            "mamba.selective_scan_bwd_s": (self.replays["mamba.selective_scan"][0], "s"),
            "mamba.bidirectional_fwd_s": (fwd("mamba.bidirectional"), "s"),
            "mamba.bidirectional_bwd_s": (self.replays["mamba.bidirectional"][0], "s"),
            "mamba.macs": (macs("mamba.bidirectional"), "count"),
            "mamba.tape_nodes": (self.replays["mamba.bidirectional"][1], "count"),
            "pooled_attention.fwd_s": (fwd("pooled_attention.fwd"), "s"),
            "pooled_attention.bwd_s": (self.replays["pooled_attention.fwd"][0], "s"),
            "pooled_attention.macs": (macs("pooled_attention.fwd"), "count"),
            "pooled_attention.score_macs": (score_macs, "count"),
            "layers.revin_fwd_s": (None if None in revin_parts else sum(revin_parts), "s"),
            "layers.revin_bwd_s": (self.replays["layers.revin"][0], "s"),
            "layers.embed_fwd_s": (fwd("layers.embed"), "s"),
            "layers.embed_bwd_s": (self.replays["layers.embed"][0], "s"),
            "layers.head_fwd_s": (fwd("layers.head"), "s"),
            "layers.head_bwd_s": (self.replays["layers.head"][0], "s"),
            "tensor_core.gradients_s": (tr.median_seconds("tensor_core.gradients", "train"), "s"),
            "tensor_core.tape_nodes": (tr.observed.get("tensor_core.tape_nodes"), "count"),
            "tensor_core.gc_collections": (gc_collections, "count"),
            "tensor_core.gc_pause_s": (gc_pause, "s"),
            "tensor_core.alloc_peak_mb": (self.details["alloc_peak_mb"], "MB"),
            "model.forward_s": (tr.median_seconds("model.forward", "forecast"), "s"),
            "model.trace_bytes": (tr.observed.get("model.trace_bytes"), "bytes"),
            "model.load_checkpoint_s": (tr.median_seconds("model.load_model", "setup"), "s"),
            "training.prepare_s": (median_or_none(prepare), "s"),
            "training.adam_step_s": (tr.median_seconds("training.adam_step", "train"), "s"),
            "training.clip_s": (tr.median_seconds("training.clip", "train"), "s"),
            "training.evaluate_s": (tr.median_seconds("training.evaluate", "train"), "s"),
            "data.load_csv_s": (tr.median_seconds("data.load_csv", "ingest"), "s"),
            "data.split_scale_s": (per_pass({"data.split_series", "data.fit_apply_scaler"}), "s"),
            "data.windows_s": (per_pass({"data.make_windows"}), "s"),
            "data.windows_count": (per_pass({"data.make_windows"}, "items"), "count"),
            "trace.coverage": (tr.step_coverage(), "ratio"),
            "trace.overhead_ratio": (statistics.median(traced) / statistics.median(untraced)
                                     if traced and untraced else None, "ratio"),
        }
        self.details["missing"] = sorted(
            set(tr.missing) | {name for name, (value, _) in values.items() if value is None})
        return values
