"""Print how much memory a forward and a train step allocate, by tracemalloc.

Run it from the repository root on two trees and compare the lines:

    python3 tests/step_memory.py

The first line names the BLAS threading and the numpy version, by
``tests/bit_hashes.py``'s ``blas_line``. Then, at B=32, N=21 and at B=16,
N=321 and N=862 (the variate counts of Weather, Electricity and Traffic),
on the model, inputs and targets of ``bit_hashes.py``'s ``step_fixture``:

- tape: the MiB the forward's output holds when the forward returns, its
  graph's saved arrays included, the fusion's trace dropped;
- forward peak: the highest MiB allocated while the forward runs;
- step peak: the highest MiB allocated while one clipped Adam step runs
  (``training._train_step``), taken after a warm-up step, so the Adam
  moments and every cache already exist.

Each figure counts only what is allocated after tracing starts, numpy
buffers included, as ``tracemalloc`` sees them. It uses the standard
library and numpy only. The file is not a test module: pytest does not
collect it.
"""

from __future__ import annotations

import tracemalloc

from bit_hashes import blas_line, step_fixture   # first: it puts src/ on sys.path
from attention_mamba.training import AdamState, _train_step

MIB = 2.0**20


def traced(fn):
    """fn()'s result, and the MiB it leaves allocated and its peak MiB."""
    tracemalloc.start()
    try:
        result = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, current / MIB, peak / MIB


def measure(batch: int, n_variates: int) -> tuple[float, float, float]:
    """The tape, the forward's peak and a train step's peak, in MiB."""
    model, x, y = step_fixture(batch, n_variates)
    yhat, tape, forward_peak = traced(lambda: model.forward(x)[0])
    del yhat
    named = model.named_parameters()
    opt = AdamState.init(named, 1e-3)
    _train_step(model, named, opt, x, y)   # warm-up
    _, _, step_peak = traced(lambda: _train_step(model, named, opt, x, y))
    return tape, forward_peak, step_peak


def main() -> None:
    print(blas_line())
    for batch, n_variates in ((32, 21), (16, 321), (16, 862)):
        tape, forward_peak, step_peak = measure(batch, n_variates)
        print(f"B={batch}, N={n_variates}: tape {tape:.1f} MiB, forward peak "
              f"{forward_peak:.1f} MiB, step peak {step_peak:.1f} MiB")


if __name__ == "__main__":
    main()
