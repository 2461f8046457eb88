"""Dense tensors with reverse-mode automatic differentiation.

Every forward operation returns a new :class:`Tensor` that remembers its
parents and a backward closure; ``backward()`` replays the implicit tape
once in reverse topological order. Arrays are numpy, row-major, float32
or float64. The op set is what the forecasting model runs, plus
``concatenate``, which the model does not use: it is kept so that the
per-token tape scan that serves as the fused scan's test oracle can be
built from tape ops. There is no GPU path and no graph optimization.

Elementwise binary ops follow numpy broadcasting; gradients are summed
back over broadcast axes. Only leading-batch broadcasting is part of the
documented contract, but the general rule is implemented because RevIN's
[B, 1, N] statistics broadcast over the time axis.

Two ops are single fused nodes with hand-written backwards rather than
chains of small nodes: the selective scan (``selective_scan``), and the
adaptive average-plus-max pooling of query and key from [B, N, E] to
[B, E/4, E/4] (``fuse_pool``), which gathers its windows with index
arrays instead of looping over them.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
from scipy.special import erf as _sp_erf, expit as _sp_expit

__all__ = [
    "Tensor",
    "ShapeError",
    "NonPositiveStepError",
    "matmul",
    "concatenate",
    "slice_axis",
    "reverse",
    "softmax_last",
    "affine",
    "conv1d_depthwise_causal",
    "selective_scan",
    "fuse_pool",
    "pool_window_bounds",
    "backward",
    "gradients",
    "count_macs",
    "MacCounter",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# Elements of one [tokens, B, C, S] run of the selective scan: 1-2 MB, so a
# run's decays, states and gradients stay in cache between passes.
_SCAN_RUN_ELEMENTS = 1 << 18


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonPositiveStepError(ValueError):
    """A selective scan got a step size delta <= 0, e.g. from softplus underflow."""


# --------------------------------------------------------------------------
# multiply-accumulate counting (used by the complexity benchmark)

class MacCounter:
    """Accumulates multiply-accumulate counts of matmul/affine/conv ops."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0


_mac_state = threading.local()


def _mac_stack() -> list:
    stack = getattr(_mac_state, "stack", None)
    if stack is None:
        stack = []
        _mac_state.stack = stack
    return stack


@contextmanager
def count_macs():
    """Count multiply-accumulates of contraction ops run inside the block.

    Counters nest; an inner block also feeds any enclosing counter.
    """
    counter = MacCounter()
    stack = _mac_stack()
    stack.append(counter)
    try:
        yield counter
    finally:
        stack.remove(counter)


def _add_macs(n: int) -> None:
    stack = getattr(_mac_state, "stack", None)
    if stack:
        for counter in stack:
            counter.total += n


# --------------------------------------------------------------------------
# tensor

class Tensor:
    """A dense n-d float array, optionally a node on the autodiff tape.

    ``requires_grad`` marks roots (parameters) and propagates through ops;
    subgraphs that cannot reach a root keep no tape references.
    """

    __slots__ = ("data", "grad", "requires_grad", "_prev", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._prev: tuple = ()
        self._backward = None

    # -- basic introspection ------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a single element, got shape {self.data.shape}")
        return float(self.data.reshape(()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _as_tensor(other, like=self)
        out = _node(self.data + other.data, (self, other))
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    _acc(self, _unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    _acc(other, _unbroadcast(g, other.data.shape))
            out._backward = back
        return out

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_tensor(other, like=self)
        out = _node(self.data - other.data, (self, other))
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    _acc(self, _unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    _acc(other, _unbroadcast(-g, other.data.shape))
            out._backward = back
        return out

    def __rsub__(self, other):
        return _as_tensor(other) - self

    def __mul__(self, other):
        other = _as_tensor(other, like=self)
        out = _node(self.data * other.data, (self, other))
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    _acc(self, _unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    _acc(other, _unbroadcast(g * self.data, other.data.shape))
            out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_tensor(other, like=self)
        out = _node(self.data / other.data, (self, other))
        if out.requires_grad:
            def back(g):
                if self.requires_grad:
                    _acc(self, _unbroadcast(g / other.data, self.data.shape))
                if other.requires_grad:
                    _acc(other, _unbroadcast(-g * self.data / (other.data * other.data), other.data.shape))
            out._backward = back
        return out

    def __rtruediv__(self, other):
        return _as_tensor(other) / self

    def __neg__(self):
        out = _node(-self.data, (self,))
        if out.requires_grad:
            def back(g):
                _acc(self, -g)
            out._backward = back
        return out

    def __matmul__(self, other):
        return matmul(self, other)

    # -- shape ops ----------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.data.shape
        out = _node(self.data.reshape(shape), (self,))
        if out.requires_grad:
            def back(g):
                _acc(self, g.reshape(old))
            out._backward = back
        return out

    def transpose_last2(self) -> "Tensor":
        """Swap the two trailing axes; materializes a contiguous copy."""
        if self.data.ndim < 2:
            raise ShapeError(f"transpose_last2 needs ndim >= 2, got shape {self.data.shape}")
        out = _node(np.ascontiguousarray(self.data.swapaxes(-1, -2)), (self,))
        if out.requires_grad:
            def back(g):
                _acc(self, np.ascontiguousarray(g.swapaxes(-1, -2)))
            out._backward = back
        return out

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            shape = self.data.shape
            def back(g):
                _acc(self, _spread(g, shape, axis, keepdims))
            out._backward = back
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = _node(self.data.mean(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            shape = self.data.shape
            count = self.data.size if axis is None else _axis_count(shape, axis)
            def back(g):
                _acc(self, _spread(g, shape, axis, keepdims) / count)
            out._backward = back
        return out

    # -- pointwise nonlinearities --------------------------------------------

    # Closures below capture output arrays, never `out` itself: a node whose
    # backward refers to the node is a reference cycle, which keeps the whole
    # upstream graph alive until the cyclic collector runs.

    def exp(self) -> "Tensor":
        y = np.exp(self.data)
        out = _node(y, (self,))
        if out.requires_grad:
            def back(g):
                _acc(self, g * y)
            out._backward = back
        return out

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        out = _node(y, (self,))
        if out.requires_grad:
            def back(g):
                _acc(self, g * 0.5 / y)
            out._backward = back
        return out

    def silu(self) -> "Tensor":
        s = _sp_expit(self.data)
        out = _node(self.data * s, (self,))
        if out.requires_grad:
            x = self.data
            def back(g):
                _acc(self, g * (s * (1.0 + x * (1.0 - s))))
            out._backward = back
        return out

    def gelu(self) -> "Tensor":
        """Exact GeLU 0.5*x*(1 + erf(x/sqrt(2))), not the tanh approximation."""
        cdf = 0.5 * (1.0 + _sp_erf(self.data * _INV_SQRT2))
        out = _node(self.data * cdf, (self,))
        if out.requires_grad:
            x = self.data
            def back(g):
                pdf = np.exp(-0.5 * x * x) * _INV_SQRT2PI
                _acc(self, g * (cdf + x * pdf))
            out._backward = back
        return out

    def softplus(self) -> "Tensor":
        out = _node(np.logaddexp(np.zeros((), dtype=self.data.dtype), self.data), (self,))
        if out.requires_grad:
            x = self.data
            def back(g):
                _acc(self, g * _sp_expit(x))
            out._backward = back
        return out


# --------------------------------------------------------------------------
# internals

def _as_tensor(x, like: "Tensor | None" = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    if like is not None and isinstance(x, (int, float)):
        return Tensor(np.asarray(x, dtype=like.data.dtype))
    return Tensor(np.asarray(x, dtype=np.float64))


def _node(data: np.ndarray, parents: tuple) -> Tensor:
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = any(p.requires_grad for p in parents)
    out._prev = parents if out.requires_grad else ()
    out._backward = None
    return out


def _acc(t: Tensor, g: np.ndarray) -> None:
    if t.grad is None:   # a copy: g may be, or share memory with, another gradient
        t.grad = np.array(g, dtype=t.data.dtype, order="C")
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back to the original operand shape."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _axis_count(shape: tuple, axis) -> int:
    if isinstance(axis, int):
        return shape[axis]
    return int(np.prod([shape[a] for a in axis]))


def _spread(g: np.ndarray, shape: tuple, axis, keepdims: bool) -> np.ndarray:
    """Broadcast a reduced gradient back over the reduced axes."""
    if axis is None:
        return np.broadcast_to(g, shape).astype(g.dtype, copy=True)
    if not keepdims:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        axes = tuple(a % len(shape) for a in axes)
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return np.broadcast_to(g, shape).astype(g.dtype, copy=True)


# --------------------------------------------------------------------------
# free-function ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [..., M, K] @ [..., K, P].

    Leading batch extents must agree or broadcast from 1. Counts M*K*P
    multiply-accumulates per batch element when a counter is active.
    """
    a = _as_tensor(a)
    b = _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.data.shape} @ {b.data.shape}")
    try:
        data = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul batch extents disagree: {a.data.shape} @ {b.data.shape}") from exc
    m, k = a.data.shape[-2], a.data.shape[-1]
    p = b.data.shape[-1]
    _add_macs(int(np.prod(data.shape[:-2], dtype=np.int64)) * m * k * p)
    out = _node(data, (a, b))
    if out.requires_grad:
        def back(g):
            if a.requires_grad:
                ga = np.matmul(g, b.data.swapaxes(-1, -2))
                _acc(a, _unbroadcast(ga, a.data.shape))
            if b.requires_grad:
                gb = np.matmul(a.data.swapaxes(-1, -2), g)
                _acc(b, _unbroadcast(gb, b.data.shape))
        out._backward = back
    return out


def concatenate(tensors: Sequence[Tensor], axis: int) -> Tensor:
    """Join tensors along one axis; no model path uses it, only the scan oracle."""
    tensors = [_as_tensor(t) for t in tensors]
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        def back(g):
            start = 0
            for t, size in zip(tensors, sizes):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(start, start + size)
                    _acc(t, g[tuple(sl)])
                start += size
        out._backward = back
    return out


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along one axis, keeping the axis."""
    sl = [slice(None)] * x.data.ndim
    sl[axis] = slice(start, stop)
    sl = tuple(sl)
    out = _node(x.data[sl], (x,))
    if out.requires_grad:
        shape = x.data.shape
        def back(g):
            gx = np.zeros(shape, dtype=g.dtype)
            gx[sl] = g
            _acc(x, gx)
        out._backward = back
    return out


def reverse(x: Tensor, axis: int) -> Tensor:
    """Reverse along one axis; an exact involution."""
    out = _node(np.ascontiguousarray(np.flip(x.data, axis=axis)), (x,))
    if out.requires_grad:
        def back(g):
            _acc(x, np.flip(g, axis=axis))
        out._backward = back
    return out


def softmax_last(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    out = _node(s, (x,))
    if out.requires_grad:
        def back(g):
            dot = (g * s).sum(axis=-1, keepdims=True)
            _acc(x, s * (g - dot))
        out._backward = back
    return out


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x @ weight + bias along the last axis; weight is [in, out]."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(
            f"affine input extent {x.data.shape[-1]} does not match weight {weight.data.shape}"
        )
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y = x2 @ weight.data + bias.data
    _add_macs(x2.shape[0] * weight.data.shape[0] * weight.data.shape[1])
    out = _node(y.reshape(lead + (weight.data.shape[1],)), (x, weight, bias))
    if out.requires_grad:
        def back(g):
            g2 = g.reshape(-1, g.shape[-1])
            if x.requires_grad:
                _acc(x, (g2 @ weight.data.T).reshape(x.data.shape))
            if weight.requires_grad:
                _acc(weight, x2.T @ g2)
            if bias.requires_grad:
                _acc(bias, g2.sum(axis=0))
        out._backward = back
    return out


def conv1d_depthwise_causal(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-channel causal 1-D convolution along the token axis.

    x is [B, N, C], weight [C, K] with taps ordered oldest-to-newest, bias
    [C]. The input is zero-padded in front by K-1 tokens so output t
    depends only on inputs <= t.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"conv1d expects [B, N, C], got {x.data.shape}")
    if weight.data.shape[0] != x.data.shape[2]:
        raise ShapeError(
            f"conv1d channel mismatch: input {x.data.shape} vs kernel {weight.data.shape}"
        )
    batch, n_seq, channels = x.data.shape
    width = weight.data.shape[1]
    xp = np.pad(x.data, ((0, 0), (width - 1, 0), (0, 0)))
    y = np.zeros_like(x.data)
    for k in range(width):
        y += weight.data[:, k] * xp[:, k:k + n_seq]
    y += bias.data
    _add_macs(batch * channels * n_seq * width)
    out = _node(y, (x, weight, bias))
    if out.requires_grad:
        def back(g):
            if x.requires_grad:
                gxp = np.zeros_like(xp)
                for k in range(width):
                    gxp[:, k:k + n_seq] += weight.data[:, k] * g
                _acc(x, gxp[:, width - 1:])
            if weight.requires_grad:
                gw = np.empty_like(weight.data)
                for k in range(width):
                    gw[:, k] = np.einsum("bnc,bnc->c", g, xp[:, k:k + n_seq])
                _acc(weight, gw)
            if bias.requires_grad:
                _acc(bias, g.sum(axis=(0, 1)))
        out._backward = back
    return out


def selective_scan(u: Tensor, delta: Tensor, A: Tensor, B_ssm: Tensor,
                   C_ssm: Tensor, D_skip: Tensor) -> Tensor:
    """Selective state-space recurrence over the token axis, as one tape node.

    u, delta: [B, N, C]; A: [C, S]; B_ssm, C_ssm: [B, N, S]; D_skip: [C].
    Per token t, with h_{-1} = 0 and the products broadcast over [B, C, S]:
        h_t = exp(delta_t * A) * h_{t-1} + (delta_t * u_t) * B_t
        y_t = (h_t * C_t).sum(-1) + D * u_t
    delta must be strictly positive (and A negative) for a stable step.

    Inside, the work runs on views with tokens leading, [N, B, C, S], in
    runs of tokens small enough to stay in cache: each run builds its
    decays exp(delta_t * A) and drives (delta_t * u_t) * B_t in bulk, then
    overwrites the drives in place with the states. The node saves only the states h; the backward
    rebuilds each run's decays, runs the reverse recurrence
        dh_t = g_t * C_t + decay_{t+1} * dh_{t+1}
    and reads the gradients of all six inputs off dh and h in closed form.
    """
    batch, n_tokens, channels = u.data.shape
    state_dim = A.data.shape[1]
    if delta.data.shape != u.data.shape:
        raise ShapeError(f"delta shape {delta.data.shape} must match u {u.data.shape}")
    if B_ssm.data.shape != (batch, n_tokens, state_dim) or C_ssm.data.shape != (batch, n_tokens, state_dim):
        raise ShapeError(
            f"B/C shapes {B_ssm.data.shape}/{C_ssm.data.shape} must be {(batch, n_tokens, state_dim)}"
        )
    if np.any(delta.data <= 0):
        raise NonPositiveStepError("selective_scan requires strictly positive delta")

    inputs = (u, delta, A, B_ssm, C_ssm, D_skip)
    dtype = np.result_type(*(t.data for t in inputs))
    a_mat = A.data
    delta_n = delta.data.transpose(1, 0, 2)                  # [N, B, C] views
    u_n = u.data.transpose(1, 0, 2)
    b_n = B_ssm.data.transpose(1, 0, 2)[:, :, None, :]       # [N, B, 1, S]
    c_n = C_ssm.data.transpose(1, 0, 2)[:, :, None, :]
    delta_u = delta_n * u_n
    span = max(1, _SCAN_RUN_ELEMENTS // max(1, batch * channels * state_dim))
    runs = [(lo, min(lo + span, n_tokens)) for lo in range(0, n_tokens, span)]
    slab = np.empty((min(span, n_tokens), batch, channels, state_dim), dtype)

    def decays(lo, hi):
        dec = slab[:hi - lo]
        np.multiply(delta_n[lo:hi, :, :, None], a_mat, out=dec)
        return np.exp(dec, out=dec)

    h = np.empty((n_tokens, batch, channels, state_dim), dtype)
    y = np.empty((n_tokens, batch, channels), dtype)
    step = np.empty(h.shape[1:], dtype)
    for lo, hi in runs:
        dec = decays(lo, hi)
        np.multiply(delta_u[lo:hi, :, :, None], b_n[lo:hi], out=h[lo:hi])
        for t in range(max(lo, 1), hi):
            np.multiply(dec[t - lo], h[t - 1], out=step)
            np.add(step, h[t], out=h[t])
        np.multiply(h[lo:hi], c_n[lo:hi], out=dec).sum(axis=-1, out=y[lo:hi])
    y += D_skip.data * u_n
    out = _node(np.ascontiguousarray(y.transpose(1, 0, 2)), inputs)
    if out.requires_grad:
        def back(g):
            g_n = g.transpose(1, 0, 2)
            need_dh_b = u.requires_grad or delta.requires_grad
            need_log = delta.requires_grad or A.requires_grad
            dh_b = np.empty_like(delta_u) if need_dh_b else None      # sum_s dh_t * B_t
            d_log = np.empty_like(delta_u) if delta.requires_grad else None
            d_a = np.zeros_like(a_mat, dtype=dtype) if A.requires_grad else None
            d_b = np.empty((n_tokens, batch, state_dim), dtype) if B_ssm.requires_grad else None
            dh_slab = np.empty_like(slab)
            carry_slab = np.empty_like(slab)
            carry = np.zeros(h.shape[1:], dtype)                       # decay_{t+1} * dh_{t+1}
            for lo, hi in reversed(runs):
                k = hi - lo
                dec = decays(lo, hi)
                dh = np.multiply(g_n[lo:hi, :, :, None], c_n[lo:hi], out=dh_slab[:k])
                for t in range(k - 1, -1, -1):
                    dh[t] += carry
                    carry = np.multiply(dec[t], dh[t], out=carry_slab[t])
                carry = carry.copy()   # it is carry_slab[0], overwritten below
                if need_dh_b:
                    np.matmul(dh, b_n[lo:hi].swapaxes(-1, -2), out=dh_b[lo:hi, :, :, None])
                if d_b is not None:
                    np.matmul(delta_u[lo:hi, :, None, :], dh, out=d_b[lo:hi, :, None, :])
                if need_log:
                    # gradient of delta_t * A through the decay: decay_t * dh_t * h_{t-1}
                    log_grad = carry_slab[:k]
                    first = 1 if lo == 0 else 0
                    log_grad[:first] = 0
                    log_grad[first:] *= h[lo + first - 1:hi - 1]
                    if d_log is not None:
                        np.einsum("nbcs,cs->nbc", log_grad, a_mat, out=d_log[lo:hi])
                    if d_a is not None:
                        d_a += np.einsum("nbcs,nbc->cs", log_grad, delta_n[lo:hi])
            if delta.requires_grad:
                _acc(delta, (u_n * dh_b + d_log).transpose(1, 0, 2))
            if A.requires_grad:
                _acc(A, d_a)
            if u.requires_grad:
                _acc(u, (D_skip.data * g_n + delta_n * dh_b).transpose(1, 0, 2))
            if B_ssm.requires_grad:
                _acc(B_ssm, d_b.transpose(1, 0, 2))
            if C_ssm.requires_grad:
                _acc(C_ssm, np.matmul(g_n[:, :, None, :], h)[:, :, 0].transpose(1, 0, 2))
            if D_skip.requires_grad:
                _acc(D_skip, np.einsum("bnc,bnc->c", g, u.data))
        out._backward = back
    return out


def pool_window_bounds(in_size: int, out_size: int) -> list:
    """Adaptive pooling windows [floor(i*I/O), ceil((i+1)*I/O)) per output i.

    Well defined for any out_size >= 1; when out_size > in_size the windows
    overlap and replicate (every window still has width >= 1).
    """
    if out_size < 1:
        raise ShapeError(f"pooling target must be >= 1, got {out_size}")
    return [
        (i * in_size // out_size, -((i + 1) * in_size // -out_size))
        for i in range(out_size)
    ]


@lru_cache(maxsize=64)
def _row_windows(n_rows: int, n_out: int) -> tuple:
    """Index arrays for pooling n_rows rows into n_out adaptive windows: each
    window's width, its rows padded to the widest window by repeating its
    last row, and per level k the k-th window holding each row (n_out where
    the row lies in k windows or fewer)."""
    start, stop = np.array(pool_window_bounds(n_rows, n_out)).T
    width = stop - start
    padded = np.minimum(start[:, None] + np.arange(width.max()), stop[:, None] - 1)
    rows = np.arange(n_rows)
    first = np.searchsorted(stop, rows, side="right")
    last = np.searchsorted(start, rows, side="right") - 1
    levels = tuple(np.where(first + k <= last, first + k, n_out)
                   for k in range(int((last - first).max()) + 1))
    for shared in (width, padded, *levels):   # the cache hands them to every caller
        shared.flags.writeable = False
    return width, padded, levels


def fuse_pool(x: Tensor) -> Tensor:
    """Adaptive average plus adaptive max pooling of [B, N, E] to [B, E/4, E/4].

    Output (i, j) pools the block of rows pool_window_bounds(N, E/4)[i]
    (overlapping when N < E/4) and columns 4j..4j+3. Results and gradients
    are bit-identical to pooling rows, then columns, one axis at a time: the
    average is a mean of row-window means, the max gradient goes to the
    block's first maximum with columns outermost, and the backward adds a
    row's average terms in window order, then its max terms.
    """
    if x.data.ndim != 3 or x.data.shape[1] < 1 or x.data.shape[2] < 4 or x.data.shape[2] % 4:
        raise ShapeError(
            f"fuse_pool expects [B, N, E] with N >= 1 and E a positive multiple of 4, "
            f"got {x.data.shape}"
        )
    batch, n_rows, embed = x.data.shape
    quarter = embed // 4
    width, padded, levels = _row_windows(n_rows, quarter)
    cols_first = np.ascontiguousarray(x.data.swapaxes(1, 2))        # [B, E, N]

    # np.take returns C-contiguous windows, so mean() sums each one in the
    # same pairwise order as a slice; adaptive windows have at most two widths
    row_means = np.empty((batch, embed, quarter), x.data.dtype)
    for w in np.unique(width):
        ids = np.flatnonzero(width == w)
        row_means[..., ids] = np.take(cols_first, padded[ids, :w], axis=-1).mean(axis=-1)
    avg = np.ascontiguousarray(row_means.swapaxes(1, 2)).reshape(
        batch, quarter, quarter, 4).mean(axis=-1)

    # blocks [B, T_i, T_j, 4 * w]: block (i, j) column by column. A repeated
    # last row comes after the original, so argmax still finds the first maximum.
    block_cols = np.arange(embed).reshape(1, quarter, 4, 1)
    blocks = x.data[:, padded[:, None, None, :], block_cols].reshape(batch, quarter, quarter, -1)
    arg = blocks.argmax(axis=-1)
    mx = np.take_along_axis(blocks, arg[..., None], axis=-1)[..., 0]

    out = _node(avg + mx, (x,))
    if out.requires_grad:
        col, row = np.divmod(arg, padded.shape[1])
        win = np.arange(quarter)
        # flat index into x of each block's first maximum
        flat = ((np.arange(batch)[:, None, None] * n_rows + padded[win[:, None], row]) * embed
                + 4 * win + col)
        def back(g):
            # one row per window; the zero row `quarter` is the level index
            # of a row that lies in fewer windows than the level
            per_window = np.zeros((batch, quarter + 1, embed), g.dtype)
            np.divide(np.repeat(g / 4, 4, axis=-1), width.astype(g.dtype)[:, None],
                      out=per_window[:, :quarter])
            gx = np.take(per_window, levels[0], axis=1)
            for level in levels[1:]:
                gx += np.take(per_window, level, axis=1)
            g_max = np.zeros(x.data.size, g.dtype)
            np.add.at(g_max, flat.ravel(), g.ravel())
            _acc(x, gx + g_max.reshape(x.data.shape))
        out._backward = back
    return out


# --------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss.

    Visits every reachable tape node exactly once, in reverse topological
    order, accumulating ``.grad`` on each node that requires grad.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    topo: list[Tensor] = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            stack.append((parent, False))
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)


def gradients(loss: Tensor, params: Iterable[Tensor]) -> list:
    """Gradient of a scalar loss for each parameter, in order.

    Clears stale grads first; parameters unreachable from the loss get a
    zero gradient of their shape.
    """
    params = list(params)
    for p in params:
        p.grad = None
    backward(loss)
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
