"""Reusable neural layers: weight/bias pairs and linear projections, the
walk that names the tensors of a model, and reversible instance norm."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_core import Tensor, affine

REVIN_EPS = 1e-5


@dataclass
class LinearLayer:
    """A weight and its bias. As ``linear``'s affine map along the last axis,
    weight is [in, out] and bias [out]; a depthwise convolution keeps its
    [C, K] kernel and [C] bias in one too."""

    weight: Tensor
    bias: Tensor

    @staticmethod
    def init(in_dim: int, out_dim: int, rng: np.random.Generator) -> "LinearLayer":
        """Uniform init in [-1/sqrt(in), +1/sqrt(in)] for weight and bias, in float64."""
        bound = 1.0 / float(np.sqrt(in_dim))
        weight = rng.uniform(-bound, bound, size=(in_dim, out_dim))
        bias = rng.uniform(-bound, bound, size=(out_dim,))
        return LinearLayer(Tensor(weight, requires_grad=True), Tensor(bias, requires_grad=True))


def named_tensors(obj, prefix: str = "") -> list[tuple[str, Tensor]]:
    """Every Tensor under obj's attributes, named by its dotted attribute
    path, depth first in the order the attributes were set (``vars()``
    order, which for a dataclass is its field order). An attribute that has
    a ``__dict__`` is walked the same way; any other non-Tensor is skipped."""
    out = []
    for name, value in vars(obj).items():
        if isinstance(value, Tensor):
            out.append((prefix + name, value))
        elif hasattr(value, "__dict__"):
            out += named_tensors(value, f"{prefix}{name}.")
    return out


def linear(x: Tensor, layer: LinearLayer) -> Tensor:
    """Apply an affine map along the last axis of x."""
    return affine(x, layer.weight, layer.bias)


@dataclass
class RevInState:
    """Per-batch statistics captured by normalize, reused by denormalize."""

    mu: np.ndarray       # [B, 1, N]
    sigma: np.ndarray    # [B, 1, N], >= sqrt(eps)


class RevIN:
    """Reversible per-instance, per-variate standardization.

    normalize subtracts the lookback mean and divides by the population
    std (epsilon inside the square root), then applies the learnable
    affine (gamma, beta). The statistics are the data's, taken off the
    tape, so no gradient flows through them (the reference RevIN detaches
    them too) and x's gradient is g * gamma / sigma. denormalize inverts
    the affine and restores the stored statistics, which for the forecast
    horizon are the lookback's, the only ones available at inference.
    """

    def __init__(self, n_variates: int):
        self.gamma = Tensor(np.ones(n_variates), requires_grad=True)
        self.beta = Tensor(np.zeros(n_variates), requires_grad=True)

    def normalize(self, x: Tensor) -> tuple[Tensor, RevInState]:
        """x is [B, L, N] with L >= 2; returns (normalized, state)."""
        mu = x.data.mean(axis=1, keepdims=True)
        centered = x.data - mu
        sigma = np.sqrt((centered * centered).mean(axis=1, keepdims=True) + REVIN_EPS)
        out = (x - mu) / sigma * self.gamma + self.beta
        return out, RevInState(mu=mu, sigma=sigma)

    def denormalize(self, y: Tensor, state: RevInState) -> Tensor:
        """Invert the affine, then restore mu/sigma; y is [B, T, N]."""
        return (y - self.beta) / self.gamma * state.sigma + state.mu
