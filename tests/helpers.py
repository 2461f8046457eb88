"""Shared test oracles: central finite differences, gradient checks of
tape ops and of named parameters; the tape ops that no model path runs:
``concatenate``, ``neg``, ``exp`` and ``softplus``, which the per-token
scan oracle needs; ``conv1d_per_tap``, the causal convolution written one
tap at a time; and ``kept_bytes``, what a forward leaves allocated."""

from __future__ import annotations

import tracemalloc
from typing import Sequence

import numpy as np

from attention_mamba.tensor_core import Tensor, _acc, _node, _sigmoid, gradients


def concatenate(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Join tensors along one axis; the per-token tape scan oracle needs it."""
    sizes = [t.data.shape[axis] for t in tensors]
    def back(g, *tensors):
        start = 0
        for t, size in zip(tensors, sizes):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(start, start + size)
            _acc(t, g[tuple(sl)])
            start += size
    return _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), back)


def neg(x: Tensor) -> Tensor:
    """Elementwise negation."""
    def back(g, x):
        _acc(x, -g)
    return _node(-x.data, (x,), back)


def exp(x: Tensor) -> Tensor:
    """Elementwise exp; the node keeps its output, which is its derivative."""
    y = np.exp(x.data)
    def back(g, x):
        _acc(x, g * y)
    return _node(y, (x,), back)


def softplus(x: Tensor) -> Tensor:
    """log(1 + exp(x)) in the operations, and the order, that
    ``selective_scan`` forms its step size in; the gradient is
    ``_sigmoid``'s."""
    data = x.data
    def back(g, x):
        _acc(x, g * _sigmoid(data))
    return _node(np.maximum(data, 0) + np.log1p(np.exp(-np.abs(data))), (x,), back)


def conv1d_per_tap(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Depthwise causal convolution of [B, N, C] by a [C, K] kernel as a
    loop over the K taps, forward and backward: the oracle for the windowed
    ``conv1d_depthwise_causal``."""
    n_seq = x.data.shape[1]
    w = weight.data
    width = w.shape[1]
    xp = np.pad(x.data, ((0, 0), (width - 1, 0), (0, 0)))
    y = np.zeros_like(x.data)
    for k in range(width):
        y += w[:, k] * xp[:, k:k + n_seq]
    y += bias.data
    def back(g, x, weight, bias):
        gxp = np.zeros_like(xp)
        gw = np.empty_like(w)
        for k in range(width):
            gxp[:, k:k + n_seq] += w[:, k] * g
            gw[:, k] = np.einsum("bnc,bnc->c", g, xp[:, k:k + n_seq])
        _acc(x, gxp[:, width - 1:])
        _acc(weight, gw)
        _acc(bias, g.sum(axis=(0, 1)))
    return _node(y, (x, weight, bias), back)


def kept_bytes(fn) -> int:
    """Bytes that fn() allocates and still holds when it returns, its result
    alive: the tracemalloc growth across the call. For a taped forward that
    is its output plus what its closure keeps for the backward."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def numerical_grad(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar-valued f at x (64-bit)."""
    x = np.array(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + eps
        fp = f(x)
        x[i] = orig - eps
        fm = f(x)
        x[i] = orig
        g[i] = (fp - fm) / (2.0 * eps)
        it.iternext()
    return g


def rel_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max abs difference relative to the largest magnitude present."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-12)
    return float(np.abs(a - b).max(initial=0.0) / denom)


def check_parameter_gradients(loss, named, tol: float) -> None:
    """Check the tape gradients of the scalar ``loss()`` with respect to each
    ``(name, Tensor)`` of ``named`` against central finite differences. Each
    parameter's ``.data`` is swapped for the perturbed array while ``loss``
    runs, then put back."""
    analytic = gradients(loss(), [t for _, t in named])
    for (name, tensor), got in zip(named, analytic):
        base = tensor.data.copy()

        def f(v):
            tensor.data = v
            out = loss().item()
            tensor.data = base
            return out

        err = rel_error(got, numerical_grad(f, base))
        assert err < tol, f"{name}: rel err {err}"


def gradcheck(op, arrays, tol: float = 1e-6, eps: float = 1e-5, seed: int = 0) -> float:
    """Check tape gradients of sum(op(*xs) * W) against finite differences.

    W is a fixed random projection so every output element contributes with
    a distinct weight. Returns the worst relative error over all inputs.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    rng = np.random.default_rng(seed)
    probe = {}

    def scalar(tensors):
        out = op(*tensors)
        if "w" not in probe:
            probe["w"] = rng.standard_normal(out.data.shape)
        return (out * Tensor(probe["w"])).sum()

    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    analytic = gradients(scalar(leaves), leaves)

    worst = 0.0
    for idx in range(len(arrays)):
        def f(v, idx=idx):
            args = [Tensor(v if j == idx else arrays[j]) for j in range(len(arrays))]
            return scalar(args).item()

        numeric = numerical_grad(f, arrays[idx], eps=eps)
        err = rel_error(analytic[idx], numeric)
        worst = max(worst, err)
        assert err < tol, f"input {idx}: analytic vs finite-difference rel err {err:.3e} >= {tol}"
    return worst
