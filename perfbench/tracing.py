"""Spans around the program's public entry points, measured from outside.

The tracer swaps module attributes that the program looks up at call time
for timing wrappers, records one span per call, and restores the originals
on uninstall. It changes no program file. An entry point that a later
version removes or renames is reported as missing instead of failing the
run.

Backward passes run in one sweep over the tape, so per-layer backward time
is measured by replay: the inputs captured at a layer's first training call
become leaf tensors, the layer runs again, a fixed random upstream gradient
is applied, and `gradients` is timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import statistics
import time
import tracemalloc

import numpy as np

# (span name, module key, owner attribute or None, attribute). The owner
# attribute names a class inside the module whose method is wrapped.
ENTRY_POINTS = [
    ("data.load_csv", "data", None, "load_csv"),
    ("data.split_series", "data", None, "split_series"),
    ("data.fit_apply_scaler", "data", None, "fit_apply_scaler"),
    ("data.make_windows", "data", None, "make_windows"),
    ("training.train", "training", None, "train"),
    ("training.evaluate", "training", None, "evaluate_mse_mae"),
    ("tensor_core.gradients", "training", None, "gradients"),
    ("training.clip", "training", None, "clip_global_norm"),
    ("training.adam_step", "training", None, "adam_step"),
    ("model.load_model", "model", None, "load_model"),
    ("model.forward", "model", "AttentionMambaModel", "forward"),
    ("layers.revin_normalize", "layers", "RevIN", "normalize"),
    ("layers.revin_denormalize", "layers", "RevIN", "denormalize"),
    ("model.linear", "model", None, "linear"),
    ("pooled_attention.fwd", "model", None, "attention_weights"),
    ("pooled_attention.score", "pooled_attention", None, "matmul"),
    ("mamba.bidirectional", "model", None, "bidirectional_mamba"),
    ("mamba.selective_scan", "mamba", None, "selective_scan"),
]

# Layer spans whose first training-batch call is kept for backward replay.
REPLAYED = ("layers.revin_normalize", "layers.revin_denormalize", "layers.embed",
            "layers.head", "pooled_attention.fwd", "mamba.bidirectional",
            "mamba.selective_scan")

# Forward spans that tile a training step without nesting in one another.
STEP_SPANS = ("layers.revin_normalize", "layers.revin_denormalize", "layers.embed",
              "layers.head", "pooled_attention.fwd", "mamba.bidirectional",
              "tensor_core.gradients", "training.clip", "training.adam_step")


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    phase: str
    batch: int | None
    macs: int | None
    items: int | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _NoCounter:
    total = None


def tape_nodes(out) -> int:
    """Operation nodes reachable from `out` through the tape's parent links."""
    seen = set()
    stack = [out]
    count = 0
    while stack:
        node = stack.pop()
        if id(node) in seen or not getattr(node, "requires_grad", False):
            continue
        seen.add(id(node))
        parents = getattr(node, "_prev", ())
        if parents:
            count += 1
            stack.extend(parents)
    return count


def array_bytes(obj) -> int:
    """Bytes held in numpy arrays of a (nested) dataclass record."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return sum(array_bytes(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def _first_tensor(out, tensor_type):
    if isinstance(out, tensor_type):
        return out
    if isinstance(out, tuple):
        return next((o for o in out if isinstance(o, tensor_type)), None)
    return None


def median_or_none(values):
    return statistics.median(values) if values else None


class Tracer:
    """Installs timing wrappers on a loaded `attention_mamba` package."""

    def __init__(self, am, batch_size: int):
        self.am = am
        self.batch_size = batch_size
        self.Tensor = am.tensor_core.Tensor
        self.count_macs = getattr(am.tensor_core, "count_macs", None)
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.captures: dict[str, tuple] = {}
        self.originals: dict[str, object] = {}
        self.observed: dict[str, object] = {}
        self.phase = "setup"
        self._stack: list[int] = []
        self._models: list = []
        self._patches: list[tuple] = []
        self._next_id = 0

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        for name, module_key, owner_name, attr in ENTRY_POINTS:
            module = getattr(self.am, module_key, None)
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            self.originals.setdefault(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- spans -------------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str, batch: int | None = None):
        """A span opened by the bench itself, e.g. one request or one pass."""
        span_id = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, start, span_id, batch, None)

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, name, start, span_id, batch, macs) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, end, span_id, parent, self.phase, batch, macs))

    def _label(self, name: str, args) -> str | None:
        if name != "model.linear":
            return name
        # model.linear serves the embedding and the head; tell them apart by
        # the layer object of the model whose forward is running.
        if not self._models or len(args) < 2:
            return None
        model = self._models[-1]
        if args[1] is getattr(model, "embed", None):
            return "layers.embed"
        if args[1] is getattr(model, "head", None):
            return "layers.head"
        return None

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            label = tracer._label(name, args)
            if label is None:
                return fn(*args, **kwargs)
            batch = tracer._batch_of(label, args)
            if label in REPLAYED and tracer.phase == "train" and batch == tracer.batch_size \
                    and label not in tracer.captures:
                # denormalize's third argument holds the step's whole graph
                kept = args[:2] if label == "layers.revin_denormalize" else args
                tracer.captures[label] = tracer._capture(kept, kwargs)
            if label == "model.forward":
                tracer._models.append(args[0])
            if label == "tensor_core.gradients" and "tensor_core.tape_nodes" not in tracer.observed:
                tracer.observed["tensor_core.tape_nodes"] = tape_nodes(args[0])
            counter_cm = (tracer.count_macs() if tracer.count_macs
                          else contextlib.nullcontext(_NoCounter))
            span_id = tracer._open()
            try:
                with counter_cm as counter:
                    start = time.perf_counter()
                    out = fn(*args, **kwargs)
            finally:
                tracer._close(label, start, span_id, batch, counter.total)
                if label == "model.forward":
                    tracer._models.pop()
            tracer._observe(label, out)
            return out

        return traced

    def _batch_of(self, label, args):
        # Methods get the instance first, everything else its input.
        index = 1 if label.startswith("layers.revin") or label == "model.forward" else 0
        arg = args[index] if len(args) > index else None
        data = arg if isinstance(arg, np.ndarray) else getattr(arg, "data", None)
        if isinstance(data, np.ndarray) and data.ndim >= 1:
            return int(data.shape[0])
        return None

    def _capture(self, args, kwargs):
        keep = [("tensor", a.data.copy()) if isinstance(a, self.Tensor) else ("value", a)
                for a in args]
        return keep, dict(kwargs)

    def _observe(self, label, out) -> None:
        if label == "data.make_windows" and isinstance(out, list):
            self.spans[-1].items = len(out)
        if label == "pooled_attention.fwd" and self.phase == "train" \
                and "attention_trace_score_macs" not in self.observed:
            trace = out[1] if isinstance(out, tuple) and len(out) > 1 else None
            self.observed["attention_trace_score_macs"] = getattr(trace, "score_macs", None)
        if label == "model.forward" and self.phase == "forecast" \
                and "model.trace_bytes" not in self.observed:
            trace = out[1] if isinstance(out, tuple) and len(out) > 1 else None
            self.observed["model.trace_bytes"] = array_bytes(trace)

    # -- queries -----------------------------------------------------------------

    def select(self, name: str, phase: str | None = None, batch: int | None = None) -> list[Span]:
        return [s for s in self.spans if s.name == name
                and (phase is None or s.phase == phase)
                and (batch is None or s.batch == batch)]

    def median_seconds(self, name, phase=None, batch=None):
        return median_or_none([s.seconds for s in self.select(name, phase, batch)])

    def children_of(self, span_id: int) -> list[Span]:
        """Spans nested anywhere below `span_id`."""
        below = {span_id}
        out = []
        for s in sorted(self.spans, key=lambda s: s.start):
            if s.parent in below:
                below.add(s.span_id)
                out.append(s)
        return out

    def step_coverage(self) -> float | None:
        """Share of training-step time covered by the layer spans.

        Steps run from the first training forward of a `train()` call to the
        start of its validation pass; the loss, batch gathering and any
        untraced work make up the rest.
        """
        covered = total = 0.0
        for call in self.select("training.train", phase="train"):
            inner = self.children_of(call.span_id)
            forwards = [s.start for s in inner if s.name == "model.forward"]
            evals = [s.start for s in inner if s.name == "training.evaluate"]
            if not forwards:
                continue
            begin = min(forwards)
            end = min(evals) if evals else call.end
            total += end - begin
            covered += sum(s.seconds for s in inner
                           if s.name in STEP_SPANS and begin <= s.start < end)
        return covered / total if total > 0 else None

    # -- backward replay -----------------------------------------------------------

    def replay_backward(self, label: str, reps: int, seed: int) -> tuple[float | None, int | None]:
        """Median seconds of `gradients` for one captured layer, and its tape nodes."""
        gradients = getattr(self.am.tensor_core, "gradients", None)
        if gradients is None:
            return None, None
        if label == "layers.revin":
            return self._replay_revin(gradients, reps, seed)
        if label not in self.captures:
            return None, None
        args, kwargs = self.captures[label]
        linear = label in ("layers.embed", "layers.head")
        fn = self.originals["model.linear" if linear else label]
        times = []
        nodes = None
        for _ in range(reps):
            leaves = []
            call_args = []
            for kind, value in args:
                if kind == "tensor":
                    leaf = self.Tensor(value.copy(), requires_grad=True)
                    leaves.append(leaf)
                    call_args.append(leaf)
                else:
                    call_args.append(value)
            out = _first_tensor(fn(*call_args, **kwargs), self.Tensor)
            nodes = tape_nodes(out)
            upstream = np.random.default_rng(seed).standard_normal(out.data.shape)
            loss = (out * self.Tensor(upstream.astype(out.data.dtype))).sum()
            start = time.perf_counter()
            gradients(loss, leaves)
            times.append(time.perf_counter() - start)
        return statistics.median(times), nodes

    def _replay_revin(self, gradients, reps, seed):
        norm = self.captures.get("layers.revin_normalize")
        denorm = self.captures.get("layers.revin_denormalize")
        if norm is None or denorm is None:
            return None, None
        revin = norm[0][0][1]
        x = norm[0][1][1]
        y = denorm[0][1][1]
        rng = np.random.default_rng(seed)
        times = []
        for _ in range(reps):
            x_leaf = self.Tensor(x.copy(), requires_grad=True)
            y_leaf = self.Tensor(y.copy(), requires_grad=True)
            normalized, state = self.originals["layers.revin_normalize"](revin, x_leaf)
            restored = self.originals["layers.revin_denormalize"](revin, y_leaf, state)
            loss = (normalized * self.Tensor(rng.standard_normal(x.shape).astype(x.dtype))).sum() \
                + (restored * self.Tensor(rng.standard_normal(y.shape).astype(y.dtype))).sum()
            start = time.perf_counter()
            gradients(loss, [x_leaf, y_leaf])
            times.append(time.perf_counter() - start)
        return statistics.median(times), None


class GcWatch:
    """Counts cyclic collections and their pauses through `gc.callbacks`."""

    def __init__(self):
        self.collections = 0
        self.pause_s = 0.0
        self._start = None

    def _callback(self, phase, info):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.collections += 1
            self.pause_s += time.perf_counter() - self._start
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


def traced_peak_mb(fn) -> float:
    """Peak traced allocation while `fn` runs, in MB (numpy buffers included)."""
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 2**20


@contextlib.contextmanager
def counting_score_macs(am):
    """Count the MACs of matmuls issued from `pooled_attention` (its score stage)."""
    counter = {"macs": 0}
    count_macs = getattr(am.tensor_core, "count_macs", None)
    original = getattr(am.pooled_attention, "matmul", None)
    if count_macs is None or original is None:
        counter["macs"] = None
        yield counter
        return

    def counted(*args, **kwargs):
        with count_macs() as c:
            out = original(*args, **kwargs)
        counter["macs"] += c.total
        return out

    am.pooled_attention.matmul = counted
    try:
        yield counter
    finally:
        am.pooled_attention.matmul = original
