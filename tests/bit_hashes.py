"""Print the fixed-seed hashes that show a change keeps the model's bits.

Run it from the repository root on two trees and compare the lines:

    python3 tests/bit_hashes.py

The first line names the BLAS threading and the numpy version the hashes
hold for: ``OPENBLAS_NUM_THREADS`` (or "default" when it is unset) and
``np.__version__``. The gradients at N=321 change with the thread count.

Each hash is the first 16 hex digits of the SHA-256 of the arrays' C-order
bytes, concatenated in ``model.named_parameters()`` order where there are many:

- the forward and the one-step MSE gradients of a model drawn from
  ``default_rng(11)`` (E=128, L=T=96), on float32 standard-normal inputs
  and targets from ``default_rng(5)``, at B=32, N=21 and at B=16, N=321;
- the weights after ``train()`` for 2 epochs on ``SyntheticSpec(21, 700,
  seed=3)``, split 96/96 and scaled, model ``default_rng(1)``,
  ``TrainRunConfig(epochs=2, batch_size=32, lr=1e-3, seed=1)``.

The file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from attention_mamba.data import SyntheticSpec, fit_apply_scaler, generate_synthetic, split_series  # noqa: E402
from attention_mamba.model import AttentionMambaModel, ModelConfig  # noqa: E402
from attention_mamba.tensor_core import Tensor, gradients  # noqa: E402
from attention_mamba.training import TrainRunConfig, train  # noqa: E402

EMBED, LOOKBACK, HORIZON = 128, 96, 96


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def blas_line() -> str:
    """The BLAS threading and the numpy version the printed figures hold for."""
    return (f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'default')}, "
            f"numpy {np.__version__}")


def step_fixture(batch: int, n_variates: int) -> tuple[AttentionMambaModel, np.ndarray, np.ndarray]:
    """The model, the inputs and the targets of one step at one shape."""
    config = ModelConfig(n_variates=n_variates, lookback=LOOKBACK, horizon=HORIZON, embed_dim=EMBED)
    model = AttentionMambaModel(config, np.random.default_rng(11))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((batch, LOOKBACK, n_variates)).astype(np.float32)
    y = rng.standard_normal((batch, HORIZON, n_variates)).astype(np.float32)
    return model, x, y


def step_hashes(batch: int, n_variates: int) -> tuple[str, str]:
    """The forward and the one-step MSE gradients at one shape."""
    model, x, y = step_fixture(batch, n_variates)
    yhat, _ = model.forward(x)
    forward = digest([yhat.data])
    diff = yhat - Tensor(y)
    return forward, digest(gradients((diff * diff).mean(), [t for _, t in model.named_parameters()]))


def trained_hash() -> str:
    """The weights after 2 epochs of ``train()``."""
    dataset = fit_apply_scaler(split_series(
        generate_synthetic(SyntheticSpec(21, 700, seed=3)), LOOKBACK, HORIZON))
    config = ModelConfig(n_variates=21, lookback=LOOKBACK, horizon=HORIZON, embed_dim=EMBED)
    model = AttentionMambaModel(config, np.random.default_rng(1))
    train(model, dataset, TrainRunConfig(epochs=2, batch_size=32, lr=1e-3, seed=1))
    return digest(t.data for _, t in model.named_parameters())


def main() -> None:
    print(blas_line())
    for batch, n_variates in ((32, 21), (16, 321)):
        forward, grads = step_hashes(batch, n_variates)
        print(f"B={batch}, N={n_variates}: forward {forward}, gradients {grads}")
    print(f"2-epoch weights: {trained_hash()}")


if __name__ == "__main__":
    main()
