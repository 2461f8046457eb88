"""Reusable neural layers: linear projections and reversible instance norm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import ShapeError, Tensor, affine

REVIN_EPS = 1e-5


@dataclass
class LinearLayer:
    """Affine map along the last axis; weight is [in, out], bias [out]."""

    weight: Tensor
    bias: Tensor

    @property
    def in_dim(self) -> int:
        return self.weight.data.shape[0]

    @staticmethod
    def init(in_dim: int, out_dim: int, rng: np.random.Generator, dtype=np.float32) -> "LinearLayer":
        """Uniform init in [-1/sqrt(in), +1/sqrt(in)] for weight and bias."""
        bound = 1.0 / float(np.sqrt(in_dim))
        weight = rng.uniform(-bound, bound, size=(in_dim, out_dim)).astype(dtype)
        bias = rng.uniform(-bound, bound, size=(out_dim,)).astype(dtype)
        return LinearLayer(Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True))


def linear(x: Tensor, layer: LinearLayer) -> Tensor:
    """Apply an affine map along the last axis of x."""
    if x.data.shape[-1] != layer.in_dim:
        raise ShapeError(
            f"linear expects last extent {layer.in_dim}, got input shape {x.data.shape}"
        )
    return affine(x, layer.weight, layer.bias)


@dataclass
class RevInState:
    """Per-batch statistics captured by normalize, reused by denormalize."""

    mu: Tensor       # [B, 1, N]
    sigma: Tensor    # [B, 1, N], >= sqrt(eps)


class RevIN:
    """Reversible per-instance, per-variate standardization.

    normalize subtracts the lookback mean and divides by the population
    std (epsilon inside the square root), then applies the learnable
    affine (gamma, beta). denormalize inverts the affine and restores the
    stored statistics, which for the forecast horizon are the lookback
    statistics (the only ones available at inference).
    """

    def __init__(self, n_variates: int, eps: float = REVIN_EPS, dtype=np.float32):
        self.eps = eps
        self.gamma = Tensor(np.ones(n_variates, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(n_variates, dtype=dtype), requires_grad=True)

    def normalize(self, x: Tensor) -> tuple[Tensor, RevInState]:
        """x is [B, L, N] with L >= 2; returns (normalized, state)."""
        if x.data.ndim != 3:
            raise ShapeError(f"normalize expects [B, L, N], got {x.data.shape}")
        if x.data.shape[1] < 2:
            raise ShapeError(f"lookback length must be >= 2, got {x.data.shape[1]}")
        mu = x.mean(axis=1, keepdims=True)
        centered = x - mu
        sigma = ((centered * centered).mean(axis=1, keepdims=True) + self.eps).sqrt()
        out = centered / sigma * self.gamma + self.beta
        return out, RevInState(mu=mu, sigma=sigma)

    def denormalize(self, y: Tensor, state: RevInState) -> Tensor:
        """Invert the affine, then restore mu/sigma; y is [B, T, N]."""
        if state is None:
            raise ValueError("denormalize requires the state produced by normalize")
        if y.data.ndim != 3 or y.data.shape[0] != state.mu.data.shape[0] \
                or y.data.shape[2] != state.mu.data.shape[2]:
            raise ShapeError(
                f"denormalize input {y.data.shape} does not match state {state.mu.data.shape}"
            )
        return (y - self.beta) / self.gamma * state.sigma + state.mu
