"""Dense tensors with reverse-mode automatic differentiation.

Every taped operation returns a new :class:`Tensor` that points to its
node in the graph; ``backward()`` sweeps the graph once, in reverse
topological order. Arrays are numpy, row-major, float32 or float64. The op
set is what the forecasting model runs. There is no GPU path and no graph
optimization.

The graph is kept apart from the tensors. A graph node (``_Node``) holds
three things: the graph nodes of its op's inputs (``_prev``), its backward
closure (``_backward``) and the gradient summed into it during a sweep
(``grad``). An input's graph node is the node of the op that made it, the
input itself if it is a leaf that requires grad (its gradient collects in
its ``.grad``), or None if it takes no gradient. Leaves apart, a node
holds no tensor, so an op's output array lives only while a name or a
closure holds it: an output that no backward reads dies with the frame
that made it.

The op contract: an op computes its output array, defines
``back(g, *inputs)``, which takes the output gradient g and the inputs'
graph nodes, forms every input's gradient and passes each to ``_acc``, and
returns ``_node(data, inputs, back)``. ``back`` captures the arrays it
reads and never a Tensor, which would keep the tensor's array alive until
the sweep reaches the node; in the free-function ops its parameters shadow
the input tensors' names, so its body cannot reach them. ``_acc`` is the
one place that decides which input gets a gradient: a None node gets none.
``_node`` is the one place a node is made, and it makes one only when
taping is on and some input requires grad; otherwise the output is a
constant without a node. ``back`` is built before the node exists, so it
cannot refer to the node and make a reference cycle, which would hold the
upstream graph until the cyclic collector runs.

A sweep consumes its graph: once a node's closure has run, the sweep drops
the node's gradient, closure and parent links, so each array a closure
saved is freed as soon as the backward that reads it is done. One sweep
per graph: a sweep that reaches a swept node raises ``GraphConsumedError``
before it changes any gradient; a second sweep needs a second forward.
Only leaves keep ``.grad``. Inside ``no_grad()`` no op records a graph, so
a forward holds only its live arrays.

Elementwise binary ops follow numpy broadcasting; gradients are summed
back over broadcast axes. Only leading-batch broadcasting is part of the
documented contract, but the general rule is implemented because RevIN's
[B, 1, N] statistics broadcast over the time axis.

What a closure keeps is what its backward reads; an array the backward can
rebuild cheaply from the kept ones is rebuilt rather than kept, by the
forward's operations on the same operands, so no bit of any gradient
changes. ``+``, ``-``, the transposes and the reductions keep only shapes,
and indexing (``x[index]``) its index and its input's shape; ``*`` and
``/`` keep both operands, matmul both factors. ``affine`` keeps the weight
and x as a 2-D matrix, a view unless x is strided. ``sqrt`` and
``softmax_last`` keep their outputs, ``gelu`` x and its normal cdf, and
``silu_gate`` its two operands and no silu. The docstrings of ``silu``,
``silu_gate``, the causal convolution, the selective scan and ``fuse_pool``
say what each keeps and rebuilds.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from functools import lru_cache
from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

__all__ = [
    "Tensor",
    "ShapeError",
    "NonPositiveStepError",
    "GraphConsumedError",
    "matmul",
    "softmax_last",
    "silu_gate",
    "affine",
    "conv1d_depthwise_causal",
    "selective_scan",
    "fuse_pool",
    "pool_window_bounds",
    "backward",
    "gradients",
    "count_macs",
    "MacCounter",
    "no_grad",
]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
# The least slab of [tokens, B, S, C] elements that a run of the selective
# scan fills, 1-2 MB, so small batches keep long runs. Not the run's size: a
# run is also at least floor(sqrt(N)) tokens long, which can fill more.
_SCAN_RUN_ELEMENTS = 1 << 18


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class NonPositiveStepError(ValueError):
    """A selective scan's step size softplus(dt) is not a positive number: it
    underflowed to 0, or it is NaN."""


class GraphConsumedError(RuntimeError):
    """A backward sweep reached a graph node that an earlier sweep consumed:
    one sweep per graph, so a second sweep needs the forward run again."""


# --------------------------------------------------------------------------
# module-level switches: multiply-accumulate counting and no_grad

class MacCounter:
    """Accumulates multiply-accumulate counts of matmul/affine/conv/scan ops."""

    __slots__ = ("total",)

    def __init__(self) -> None:
        self.total = 0


_live_counters: list[MacCounter] = []
_grad_enabled = True   # False inside no_grad(): ops then record no tape


@contextmanager
def count_macs():
    """Count multiply-accumulates of contraction ops run inside the block.

    What counts: the forward contractions of matmul, affine, the causal
    convolution and the selective scan (its state update and its readout).
    Pooling, elementwise ops and every backward pass do not count. Counters
    nest; an inner block also feeds any enclosing counter.
    """
    counter = MacCounter()
    _live_counters.append(counter)
    try:
        yield counter
    finally:
        _live_counters.remove(counter)


def _add_macs(n: int) -> None:
    for counter in _live_counters:
        counter.total += n


@contextmanager
def no_grad():
    """Record no tape inside the block; nests, and restores on exit or error."""
    global _grad_enabled
    outer, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = outer


# --------------------------------------------------------------------------
# tensor

class Tensor:
    """A dense n-d float array, optionally the output of a taped op.

    ``requires_grad`` marks leaves (parameters) and propagates through ops.
    A taped op's output points to its graph node (``_node``); a leaf that
    requires grad is its own graph node and collects ``.grad``; a constant,
    or any tensor that cannot reach a leaf, has neither.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

    @property
    def _prev(self) -> tuple:
        """The graph nodes of the inputs of the op that made this tensor;
        empty for a leaf, a constant, or once a sweep has consumed the node."""
        return self._node._prev if self._node is not None else ()

    def _graph_node(self):
        """Where this tensor's gradient goes: the graph node of the op that
        made it, the tensor itself if it is a leaf that requires grad, or None."""
        if self._node is not None:
            return self._node
        return self if self.requires_grad else None

    # -- basic introspection ------------------------------------------------

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data.reshape(()))

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return _binary(self, other, np.add, lambda a, b: (lambda g: g, lambda g: g))

    def __sub__(self, other):
        return _binary(self, other, np.subtract, lambda a, b: (lambda g: g, lambda g: -g))

    def __mul__(self, other):
        return _binary(self, other, np.multiply, lambda a, b: (lambda g: g * b, lambda g: g * a))

    def __truediv__(self, other):
        return _binary(self, other, np.true_divide,
                       lambda a, b: (lambda g: g / b, lambda g: -g * a / (b * b)))

    # -- shape ops ----------------------------------------------------------

    def __getitem__(self, index) -> "Tensor":
        """x[index] for an index of slices, of any step, and ``...`` only,
        alone or in a tuple. The output is the view ``x.data[index]``. The
        backward adds g into grad[index] through ``_acc``, so entries outside
        the index keep their bits: a -0.0 there stays -0.0. Any other index
        (an int, a list, an array, a bool) raises TypeError before a node is
        made, as ``grad[index] += g`` would drop the gradient of a repeated
        advanced index."""
        parts = index if isinstance(index, tuple) else (index,)
        if not all(isinstance(part, slice) or part is Ellipsis for part in parts):
            raise TypeError(f"a Tensor index takes only slices and ..., got {index!r}")
        shape = self.data.shape
        def back(g, x):
            _acc(x, g, index, shape)
        return _node(self.data[index], (self,), back)

    def transpose_last2(self) -> "Tensor":
        """Swap the two trailing axes; materializes a contiguous copy."""
        def back(g, x):
            _acc(x, g.swapaxes(-1, -2))
        return _node(np.ascontiguousarray(self.data.swapaxes(-1, -2)), (self,), back)

    # -- reductions ---------------------------------------------------------

    def sum(self) -> "Tensor":
        shape = self.data.shape
        def back(g, x):
            _acc(x, np.broadcast_to(g, shape))
        return _node(self.data.sum(), (self,), back)

    def mean(self, axis: int | None = None) -> "Tensor":
        """Mean of all elements, or along one axis, which is kept."""
        y = self.data.mean(axis=axis, keepdims=axis is not None)
        shape = self.data.shape
        count = self.data.size if axis is None else shape[axis]
        def back(g, x):
            _acc(x, np.broadcast_to(g, shape) / count)
        return _node(y, (self,), back)

    # -- pointwise nonlinearities --------------------------------------------

    def sqrt(self) -> "Tensor":
        y = np.sqrt(self.data)
        def back(g, x):
            _acc(x, g * 0.5 / y)
        return _node(y, (self,), back)

    def silu(self) -> "Tensor":
        """x * sigmoid(x), the sigmoid 1 / (1 + exp(-x)) by numpy's exp
        (``_sigmoid``), at most 4 ulp from scipy's ``expit``. The closure
        keeps no sigmoid: the backward computes it again from x, bit for bit."""
        data = self.data
        def back(g, x):
            s = _sigmoid(data)
            _acc(x, g * (s * (1.0 + data * (1.0 - s))))
        return _node(data * _sigmoid(data), (self,), back)

    def gelu(self) -> "Tensor":
        """Exact GeLU 0.5*x*(1 + erf(x/sqrt(2))), not the tanh approximation.

        The erf is ``_erf``: Cephes' rational forms, evaluated in float64
        and rounded once to x's dtype. In float32 it equals scipy's ``erf``
        on every input swept (``tests/erf_sweep.py``)."""
        data = self.data
        cdf = 0.5 * (1.0 + _erf(data * _INV_SQRT2))
        def back(g, x):
            pdf = np.exp(-0.5 * data * data) * _INV_SQRT2PI
            _acc(x, g * (cdf + data * pdf))
        return _node(data * cdf, (self,), back)


# --------------------------------------------------------------------------
# internals

def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in x's dtype, in whole-array passes over one buffer.

    This is the formula of scipy's ``expit``, with numpy's vectorised exp
    in place of expit's scalar loop. The two exps differ, so the results
    lie up to 4 ulp apart. exp(-x) overflows to inf for x below about -89
    in float32 (-710 in float64), which gives the exact limit 0, so the
    overflow is not an error; NaN stays NaN.
    """
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1
    return np.reciprocal(s, out=s)


# Cephes' erf and erfc coefficients (Moshier, ndtr.c), highest power first:
# erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and erfc(x) = exp(-x^2) P(x) / Q(x)
# for 1 < x < 8. U and Q are monic: their leading 1 is written out, which
# keeps Cephes' bits, as 1 * x = x exactly.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x: np.ndarray, coefs: tuple) -> np.ndarray:
    """The polynomial with ``coefs``, highest power first, at x: Horner's
    rule in Cephes' ``polevl`` order, in place on one new array."""
    y = x * coefs[0]
    y += coefs[1]
    for c in coefs[2:]:
        y *= x
        y += c
    return y


def _erf(x: np.ndarray) -> np.ndarray:
    """erf(x) in x's dtype, by Cephes' rational forms in float64.

    |x| <= 1 takes |x| T(x^2) / U(x^2). 1 < |x| takes 1 - exp(-x^2) P(|x|) /
    Q(|x|) at |x| clamped to 8, where the second term is far below half an
    ulp of 1, so the result is exactly 1, as Cephes' is past 8. The sign
    of x is copied back. These are the operations of scipy's ``erf``,
    whose float32 loop also rounds a float64 result once, so in float32
    the two are equal on every input swept (``tests/erf_sweep.py``). In
    float64 numpy's exp may differ from the C library's by an ulp, and so
    may the result. erf(+-0) = +-0, erf(+-inf) = +-1, NaN stays NaN, and no
    input warns. No BLAS call, and no temporary larger than x's float64
    copy.
    """
    a = np.abs(x, dtype=np.float64)
    over = a > 1.0
    m = a[over]
    y = np.minimum(a, 1.0, out=a)   # NaN stays NaN; the lanes past 1 are set below
    z = y * y
    y *= _polevl(z, _ERF_T)
    y /= _polevl(z, _ERF_U)
    if m.size:
        np.minimum(m, 8.0, out=m)
        e = m * m
        np.negative(e, out=e)
        np.exp(e, out=e)
        e *= _polevl(m, _ERFC_P)
        e /= _polevl(m, _ERFC_Q)
        y[over] = np.subtract(1.0, e, out=e)
    np.copysign(y, x, out=y)
    return y.astype(x.dtype, copy=False)


class _Node:
    """A taped op's place in the graph: the graph nodes of its inputs, None
    for an input that takes no gradient; its backward closure; and the
    gradient summed into it while a sweep runs. Once the sweep has run the
    closure, all three are gone: None, None and ()."""

    __slots__ = ("_prev", "_backward", "grad")
    requires_grad = True   # as on a Tensor: walks along ``_prev`` test it

    def __init__(self, prev: tuple, backward) -> None:
        self._prev = prev
        self._backward = backward
        self.grad = None


def _node(data: np.ndarray, inputs: tuple, back) -> Tensor:
    """An op's output: with a graph node over the inputs' graph nodes and
    `back` when taping is on and some input requires grad; otherwise a
    constant without a node."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    prev = tuple([t._graph_node() for t in inputs]) if _grad_enabled else ()
    out.requires_grad = prev.count(None) < len(prev)
    out._node = _Node(prev, back) if out.requires_grad else None
    return out


def _binary(a: Tensor, b, ufunc, grads) -> Tensor:
    """ufunc(a, b) under numpy broadcasting, b a Tensor or a constant taken at
    a's dtype. grads maps the operand arrays (a, b) to the two functions of g
    that form each operand's gradient, so the closure keeps only the arrays
    those functions read. Each gradient is summed back to its operand's shape."""
    if not isinstance(b, Tensor):
        b = Tensor(np.asarray(b, dtype=a.data.dtype))
    grad_a, grad_b = grads(a.data, b.data)
    shape_a, shape_b = a.data.shape, b.data.shape
    def back(g, a, b):
        _acc(a, _unbroadcast(grad_a(g), shape_a))
        _acc(b, _unbroadcast(grad_b(g), shape_b))
    return _node(ufunc(a.data, b.data), (a, b), back)


def _acc(node, g: np.ndarray, index: tuple | None = None, shape: tuple | None = None) -> None:
    """Add g into a graph node's gradient, or, given a basic index into a
    gradient of `shape`, into grad[index]; a None node gets nothing. A
    gradient takes the dtype its backward forms it in, which is its input's
    wherever an op's operands share one dtype, as in every model graph."""
    if node is None:
        return
    if node.grad is None and index is None:   # a copy: g may be, or share memory with, another gradient
        node.grad = np.array(g, order="C")
    elif node.grad is None:
        node.grad = np.zeros(shape, g.dtype)
        node.grad[index] = g
    elif index is None:
        node.grad += g
    else:
        node.grad[index] += g


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


# --------------------------------------------------------------------------
# free-function ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product [..., M, K] @ [..., K, P].

    The leading batch extents must be equal; none broadcasts. Counts
    M*K*P multiply-accumulates per batch element when a counter is active.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs ndim >= 2 operands, got {a.data.shape} @ {b.data.shape}")
    if a.data.shape[:-2] != b.data.shape[:-2]:
        raise ShapeError(f"matmul batch extents disagree: {a.data.shape} @ {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.data.shape} @ {b.data.shape}")
    data = np.matmul(a.data, b.data)
    m, k = a.data.shape[-2], a.data.shape[-1]
    p = b.data.shape[-1]
    _add_macs(int(np.prod(data.shape[:-2], dtype=np.int64)) * m * k * p)
    a_data, b_data = a.data, b.data
    def back(g, a, b):
        _acc(a, np.matmul(g, b_data.swapaxes(-1, -2)))
        _acc(b, np.matmul(a_data.swapaxes(-1, -2), g))
    return _node(data, (a, b), back)


def softmax_last(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction.

    The backward flushes to zero every input-gradient entry smaller in
    magnitude than the dtype's smallest normal. A saturated row, one weight
    near 1 and the rest near 0, makes s * (g - dot) mostly subnormal, and
    every matmul the gradient then passes through runs an order of magnitude
    slower on such operands. Entries at or above the smallest normal are
    unchanged, bit for bit.
    """
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)
    def back(g, x):
        dot = (g * s).sum(axis=-1, keepdims=True)
        gx = s * (g - dot)
        gx[np.abs(gx) < np.finfo(gx.dtype).tiny] = 0
        _acc(x, gx)
    return _node(s, (x,), back)


def silu_gate(x: Tensor, z: Tensor) -> Tensor:
    """x * silu(z) under numpy broadcasting, as one node: Mamba's gate.

    The bits of ``x * z.silu()``, output and both gradients, by the same
    operations in the same order. The closure keeps x and z and no
    silu(z): the backward forms sigmoid(z) and silu(z) again from z, as
    ``silu``'s backward does.
    """
    x_data, z_data = x.data, z.data
    def back(g, x, z):
        s = _sigmoid(z_data)
        _acc(x, _unbroadcast(g * (z_data * s), x_data.shape))
        _acc(z, _unbroadcast(g * x_data, z_data.shape) * (s * (1.0 + z_data * (1.0 - s))))
    return _node(x_data * (z_data * _sigmoid(z_data)), (x, z), back)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """y = x @ weight + bias along the last axis; weight is [in, out]."""
    if x.data.shape[-1] != weight.data.shape[0]:
        raise ShapeError(
            f"affine input extent {x.data.shape[-1]} does not match weight {weight.data.shape}"
        )
    x_shape, w = x.data.shape, weight.data
    x2 = x.data.reshape(-1, x_shape[-1])
    y = x2 @ w + bias.data
    _add_macs(x2.shape[0] * w.shape[0] * w.shape[1])
    def back(g, x, weight, bias):
        g2 = g.reshape(-1, g.shape[-1])
        _acc(x, (g2 @ w.T).reshape(x_shape))
        _acc(weight, x2.T @ g2)
        _acc(bias, g2.sum(axis=0))
    return _node(y.reshape(x_shape[:-1] + (w.shape[1],)), (x, weight, bias), back)


def conv1d_depthwise_causal(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-channel causal 1-D convolution along the token axis.

    x is [B, N, C], weight [C, K] with taps ordered oldest-to-newest, bias
    [C]. The input is zero-padded in front by K-1 tokens so output t
    depends only on inputs <= t.

    The forward is one contraction of a [B, N, K, C] window view of the
    padded input with the taps as a contiguous [K, C] matrix, C innermost
    in both, so einsum's inner loop runs along channel rows. The backward
    contracts the same way: the upstream gradient, padded
    behind, against the taps flipped, for x; the upstream gradient against
    windows of x, for the kernel. The closure keeps no padded copy of x:
    the backward builds the kernel gradient's windows again from x's data.
    """
    batch, n_seq, channels = x.data.shape
    if weight.data.shape[0] != channels:
        raise ShapeError(
            f"conv1d channel mismatch: input {x.data.shape} vs kernel {weight.data.shape}"
        )
    width = weight.data.shape[1]
    taps = np.ascontiguousarray(weight.data.T)                    # [K, C]
    x_data = x.data
    windows = _token_windows(x_data, width, lead=width - 1)
    y = np.einsum("bnkc,kc->bnc", windows, taps)
    y += bias.data
    _add_macs(batch * channels * n_seq * width)
    def back(g, x, weight, bias):
        _acc(x, np.einsum("bnkc,kc->bnc", _token_windows(g, width, lead=0), taps[::-1]))
        x_windows = _token_windows(x_data, width, lead=width - 1)
        _acc(weight, np.einsum("bnc,bnkc->kc", g, x_windows).T)
        _acc(bias, g.sum(axis=(0, 1)))
    return _node(y, (x, weight, bias), back)


def _token_windows(a: np.ndarray, width: int, lead: int) -> np.ndarray:
    """[B, N, C] -> a read-only [B, N, K, C] window view of `a` padded with
    K - 1 zero tokens, `lead` of them in front: window n holds padded
    tokens n..n+K-1.

    Only the padding is zeroed (np.zeros would zero every page, then write
    most of it again), and the view is one as_strided call.
    """
    batch, n_tokens, channels = a.shape
    padded = np.empty((batch, n_tokens + width - 1, channels), a.dtype)
    padded[:, :lead] = 0
    padded[:, lead + n_tokens:] = 0
    padded[:, lead:lead + n_tokens] = a
    sb, sn, sc = padded.strides
    return as_strided(padded, (batch, n_tokens, width, channels), (sb, sn, sn, sc),
                      writeable=False)


def selective_scan(u: Tensor, dt: Tensor, A_log: Tensor, B_ssm: Tensor,
                   C_ssm: Tensor, D_skip: Tensor) -> Tensor:
    """Mamba's discretized selective state-space recurrence over the token
    axis, as one tape node.

    u, dt: [B, N, C]; A_log: [C, S]; B_ssm, C_ssm: [B, N, S]; D_skip: [C].
    The node forms the step size delta = softplus(dt), computed as
    max(dt, 0) + log1p(exp(-|dt|)), and the state matrix A = -exp(A_log),
    which is negative by construction. Per token t, with h_{-1} = 0 and
    states h_t of shape [B, S, C]:
        h_t = exp(delta_t * A^T) * h_{t-1} + (delta_t * u_t) * B_t^T
        y_t = C_t @ h_t + D * u_t
    Raises ShapeError when dt is not u's shape or B_ssm, C_ssm are not
    [B, N, S], and NonPositiveStepError where softplus(dt) is not a
    positive number: NaN, or 0 where it underflows, at dt at or below about
    -104 in float32, or -745 in float64.

    The states are channels-last, [B, S, C] a token, and are built in runs
    of k = max(floor(sqrt(N)), _SCAN_RUN_ELEMENTS // (B*S*C), 1) tokens,
    the last run what is left: as many tokens as a cache-sized slab holds,
    and at least floor(sqrt(N)). For each run, one helper builds the decays
    exp(delta_t * A^T) and the drives into [k, B, S, C] slabs, then runs
    the recurrence from the previous run's last state. The forward reads
    each run out with one stacked matmul [k, B, 1, S] @ [k, B, S, C]. The
    closure keeps the arrays of u, dt, B, C and D, delta, A^T and the last
    state of every run but the last, [runs - 1, B, S, C], which no run
    starts from: at most ceil(N / floor(sqrt(N))) - 1 < 2 * sqrt(N) states,
    never the states of every token. The backward walks the runs in
    reverse. It rebuilds each run's decays and states from the previous
    run's kept end state, then walks the run's tokens in reverse, forming
    one token's
        dh_t = C_t^T g_t + decay_{t+1} * dh_{t+1}
    at a time and reading the gradients of B_t and of delta_t * u_t off it
    there. So it holds one run's decay and state slabs and one token's dh,
    and reads the other gradients off the slabs in closed form. dt gets
    d_delta * sigmoid(dt), the sigmoid by ``_sigmoid``, and A_log gets
    d_A * A: the products that softplus, exp and negation as separate nodes
    would form.

    Both passes read C-contiguous token-major [N, B, *] copies of delta, B
    and C, and the backward one of the upstream gradient. The closure keeps
    none of them. The backward writes in place only into its own copies and
    buffers, never into an input's array or into what the closure keeps. A's
    gradient sums over the strided view of delta, whose order of summation
    the bits depend on, and adds up one partial sum a run: of all the
    outputs and gradients, only A_log's bits depend on how the tokens are
    cut into runs.

    The readout by matmul sums over S in BLAS order, so outputs differ from
    a multiply-then-sum at rounding level. The forward counts 2*N*B*S*C
    multiply-accumulates: the state update and the readout.
    """
    batch, n_tokens, channels = u.data.shape
    state_dim = A_log.data.shape[1]
    if dt.data.shape != u.data.shape:
        raise ShapeError(f"dt shape {dt.data.shape} must match u {u.data.shape}")
    if B_ssm.data.shape != (batch, n_tokens, state_dim) or C_ssm.data.shape != (batch, n_tokens, state_dim):
        raise ShapeError(
            f"B/C shapes {B_ssm.data.shape}/{C_ssm.data.shape} must be {(batch, n_tokens, state_dim)}"
        )
    delta = np.maximum(dt.data, 0) + np.log1p(np.exp(-np.abs(dt.data)))
    if not np.all(delta > 0):
        raise NonPositiveStepError(
            "selective_scan: softplus(dt) is not a positive number (underflowed to 0, or NaN)")

    inputs = (u, dt, A_log, B_ssm, C_ssm, D_skip)
    dtype = np.result_type(*(t.data for t in inputs))
    u_data, dt_data, b_data, c_data, d_skip = (t.data for t in (u, dt, B_ssm, C_ssm, D_skip))
    a_t = -np.exp(np.ascontiguousarray(A_log.data.T))        # [S, C]
    u_n = u_data.transpose(1, 0, 2)                          # [N, B, C] view
    delta_n, b_n, c_n = (np.ascontiguousarray(a.transpose(1, 0, 2))
                         for a in (delta, b_data, c_data))
    span = max(1, math.isqrt(n_tokens), _SCAN_RUN_ELEMENTS // max(1, batch * channels * state_dim))
    runs = [(lo, min(lo + span, n_tokens)) for lo in range(0, n_tokens, span)]
    slab_shape = (min(span, n_tokens), batch, state_dim, channels)
    # the end states of every run but the last, which no run starts from
    ends = np.empty((max(len(runs) - 1, 0), batch, state_dim, channels), dtype)

    def run_states(i, delta_n, b_n, du_slab, dec_slab, h_slab):
        """Run i's delta * u, decays and states, built in the slabs; the
        states start from the previous run's last state, ends[i - 1], or
        from zero."""
        lo, hi = runs[i]
        du, dec, h = du_slab[:hi - lo], dec_slab[:hi - lo], h_slab[:hi - lo]
        np.multiply(delta_n[lo:hi], u_n[lo:hi], out=du)
        np.einsum("nbc,sc->nbsc", delta_n[lo:hi], a_t, out=dec)
        np.exp(dec, out=dec)
        np.einsum("nbc,nbs->nbsc", du, b_n[lo:hi], out=h)
        step = np.empty(slab_shape[1:], dtype)
        prev = ends[i - 1] if i else None
        for t in range(hi - lo):
            if prev is not None:
                h[t] += np.multiply(dec[t], prev, out=step)
            prev = h[t]
        return du, dec, h

    du_slab = np.empty(slab_shape[:2] + (channels,), dtype)        # [k, B, C]
    dec_slab, h_slab = np.empty(slab_shape, dtype), np.empty(slab_shape, dtype)
    y = np.empty((n_tokens, batch, 1, channels), dtype)
    for i, (lo, hi) in enumerate(runs):
        _, _, h = run_states(i, delta_n, b_n, du_slab, dec_slab, h_slab)
        np.matmul(c_n[lo:hi, :, None, :], h, out=y[lo:hi])
        if i < len(ends):
            ends[i] = h[-1]
    y = y[:, :, 0]
    y += d_skip * u_n
    _add_macs(2 * n_tokens * batch * state_dim * channels)
    def back(g, u, dt, A_log, B_ssm, C_ssm, D_skip):
        b_n, c_n = (np.ascontiguousarray(a.transpose(1, 0, 2)) for a in (b_data, c_data))
        # written in place below, so copies even where B or N is 1
        delta_n, g_n = (np.array(a.transpose(1, 0, 2), order="C") for a in (delta, g))
        d_log = np.empty((n_tokens, batch, channels), dtype)
        d_a = np.zeros_like(a_t, dtype=dtype)
        d_b = np.empty((n_tokens, batch, state_dim, 1), dtype)
        d_c = np.empty((n_tokens, batch, state_dim, 1), dtype)
        du_slab = np.empty(slab_shape[:2] + (channels,), dtype)
        dh_b_slab = np.empty(slab_shape[:2] + (1, channels), dtype)
        dec_slab, h_slab = np.empty(slab_shape, dtype), np.empty(slab_shape, dtype)
        dh = np.empty(slab_shape[1:], dtype)                       # one token's
        carry = np.zeros(slab_shape[1:], dtype)                    # decay_{t+1} * dh_{t+1}
        for i in range(len(runs) - 1, -1, -1):
            lo, hi = runs[i]
            k = hi - lo
            du, dec, h = run_states(i, delta_n, b_n, du_slab, dec_slab, h_slab)
            for t in range(k - 1, -1, -1):
                np.einsum("bs,bc->bsc", c_n[lo + t], g_n[lo + t], out=dh)
                dh += carry
                # dh_b = B_t @ dh_t, the gradient of delta_t * u_t
                np.matmul(b_n[lo + t, :, None, :], dh, out=dh_b_slab[t])
                np.matmul(dh, du[t, :, :, None], out=d_b[lo + t])
                # the carry goes into the decay slab, each decay read for the last time
                carry = np.multiply(dec[t], dh, out=dec[t])
            carry = carry.copy()   # it is dec[0], overwritten below
            dh_b = dh_b_slab[:k, :, 0]
            np.matmul(h, g_n[lo:hi, :, :, None], out=d_c[lo:hi])
            # gradient of delta_t * A^T through the decay: decay_t * dh_t * h_{t-1}
            log_grad = dec
            log_grad[1:] *= h[:k - 1]
            if i:
                log_grad[0] *= ends[i - 1]
            else:
                log_grad[0] = 0
            np.einsum("nbsc,sc->nbc", log_grad, a_t, out=d_log[lo:hi])
            # on the strided view: the copy would change the reduction's order
            d_a += np.einsum("nbsc,nbc->sc", log_grad, delta.transpose(1, 0, 2)[lo:hi])
            # u's gradient in the run's rows of the g copy, once read, and
            # delta's in d_log; the products go into delta's copy and dh_b
            g_run = g_n[lo:hi]
            g_run *= d_skip
            g_run += np.multiply(delta_n[lo:hi], dh_b, out=delta_n[lo:hi])
            d_log[lo:hi] += np.multiply(u_n[lo:hi], dh_b, out=dh_b)
        # free the slabs, delta's copy and the loop's views of them before
        # the gradients are copied out
        del b_n, c_n, delta_n, du_slab, dh_b_slab, dec_slab, h_slab
        du = dec = h = dh = dh_b = log_grad = None
        # softplus' derivative is the sigmoid
        np.multiply(d_log, _sigmoid(dt_data).transpose(1, 0, 2), out=d_log)
        _acc(dt, d_log.transpose(1, 0, 2))
        _acc(A_log, (d_a * a_t).T)   # d exp(A_log) / d A_log = exp(A_log) = -A
        _acc(u, g_n.transpose(1, 0, 2))
        _acc(B_ssm, d_b[:, :, :, 0].transpose(1, 0, 2))
        _acc(C_ssm, d_c[:, :, :, 0].transpose(1, 0, 2))
        _acc(D_skip, np.einsum("bnc,bnc->c", g, u_data))
    return _node(np.ascontiguousarray(y.transpose(1, 0, 2)), inputs, back)


def pool_window_bounds(in_size: int, out_size: int) -> list:
    """Adaptive pooling windows [floor(i*I/O), ceil((i+1)*I/O)) per output i.

    Well defined for any out_size >= 1; when out_size > in_size the windows
    overlap and replicate (every window still has width >= 1).
    """
    return [
        (i * in_size // out_size, -((i + 1) * in_size // -out_size))
        for i in range(out_size)
    ]


def _argmax_moves(new: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Where argmax, having found `best` so far, moves on to a later `new`:
    new is greater, or new is NaN and best is not (the first NaN wins)."""
    return ~(new <= best) & (best == best)


@lru_cache(maxsize=64)
def _row_windows(n_rows: int, n_out: int, dtype: np.dtype) -> tuple:
    """The cached, read-only arrays that pool n_rows rows into n_out windows.

    ``average``, [n_out, n_rows] in `dtype`: row i holds 1/(4*width) on the
    rows of window i and 0 elsewhere, so one matmul with it takes every
    window's mean with the 1/4 of the column mean folded in. The scale is
    exact when the width is a power of two and rounds otherwise.
    ``padded``, [n_out, widest window], lists each window's rows, padded by
    repeating its last row, which cannot change a maximum.
    """
    start, stop = np.array(pool_window_bounds(n_rows, n_out)).T
    width = stop - start
    inside = (start[:, None] <= np.arange(n_rows)) & (np.arange(n_rows) < stop[:, None])
    average = np.where(inside, 1.0 / (4 * width[:, None]), 0.0).astype(dtype)
    padded = np.minimum(start[:, None] + np.arange(width.max()), stop[:, None] - 1)
    for shared in (average, padded):
        shared.flags.writeable = False   # the cache hands them to every caller
    return average, padded


def fuse_pool(x: Tensor) -> Tensor:
    """Adaptive average plus adaptive max pooling of [B, N, E] to [B, E/4, E/4].

    Output (i, j) pools the block of rows pool_window_bounds(N, E/4)[i]
    (overlapping when N < E/4) and columns 4j..4j+3. The average is one
    matmul by ``_row_windows``' map, [E/4, N] @ [B, N, E], then the 4
    strided column views added left to right; its gradient is the
    transposed matmul. Where no window has more than 2 rows (whenever
    N <= E/4, as at weather's N=21, E=128) the output is bit-identical to
    pooling rows, then columns, one axis at a time with numpy's mean, but
    for the sign of a zero: a block of signed zeros averages to +0.0. So is
    the gradient where, in addition, no row lies in more than 2 windows.
    Wider sums round apart from numpy's by a few ulps. As the matmul
    weighs every row, a NaN or infinity in x makes the average of every
    window of its column non-finite (0 * inf is NaN, and warns).

    The maxima fold np.maximum over the ``padded`` row slabs, then the
    column views, in an operand order that is not promised: on a tie of
    -0.0 and +0.0 either may come out. The max gradient goes to the
    block's first maximum with columns outermost, as argmax picks it (the
    first NaN, if any), and is added after the average's. The argmax runs
    only in the backward, from x's data, so a forward that records no tape
    (a forecast, or evaluation under no_grad) never pays for it.
    """
    if x.data.ndim != 3 or x.data.shape[1] < 1 or x.data.shape[2] < 4 or x.data.shape[2] % 4:
        raise ShapeError(
            f"fuse_pool expects [B, N, E] with N >= 1 and E a positive multiple of 4, "
            f"got {x.data.shape}"
        )
    x_data = x.data
    batch, n_rows, embed = x_data.shape
    quarter = embed // 4
    average, padded = _row_windows(n_rows, quarter, x_data.dtype)
    span = padded.shape[1]

    rows = np.matmul(average, x_data)                                  # [B, E/4, E]
    pooled = rows[..., 0::4] + rows[..., 1::4] + rows[..., 2::4] + rows[..., 3::4]
    row_max = np.take(x_data, padded[:, 0], axis=1)                    # [B, E/4, E]
    for k in range(1, span):
        np.maximum(row_max, np.take(x_data, padded[:, k], axis=1), out=row_max)
    pooled += np.maximum(np.maximum(row_max[..., 0::4], row_max[..., 1::4]),
                         np.maximum(row_max[..., 2::4], row_max[..., 3::4]))

    def back(g, x):
        # flat index into x of each block's first maximum: the first down
        # each column, then the first of the block's 4 column maxima. A
        # position only grows when argmax moves, so np.maximum records
        # it; a window's repeated last row never moves it.
        # positions in int32, which moves half the bytes of intp
        best = np.take(x_data, padded[:, 0], axis=1)                  # [B, E/4, E]
        at = np.zeros(best.shape, np.int32)
        for k in range(1, span):
            slab = np.take(x_data, padded[:, k], axis=1)
            np.maximum(at, _argmax_moves(slab, best) * np.int32(k), out=at)
            np.maximum(slab, best, out=best)
        col_best, pos = best[..., 0::4], at[..., 0::4].copy()        # pos = c * span + k
        for c in range(1, 4):
            moves = _argmax_moves(best[..., c::4], col_best)
            np.maximum(pos, moves * (at[..., c::4] + c * span), out=pos)
            np.maximum(best[..., c::4], col_best, out=col_best)
        col, k = np.divmod(pos, span)
        win = np.arange(quarter)
        flat = ((np.arange(batch)[:, None, None] * n_rows + padded[win[:, None], k]) * embed
                + 4 * win + col)
        gx = np.matmul(average.T, np.repeat(g, 4, axis=-1))
        g_max = np.zeros(x_data.size, g.dtype)
        np.add.at(g_max, flat.ravel(), g.ravel())
        gx += g_max.reshape(x_data.shape)
        _acc(x, gx)
    return _node(pooled, (x,), back)


# --------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; one sweep per graph.

    Visits every graph node reachable from the loss exactly once, in reverse
    topological order. A leaf adds its gradient into ``.grad``. An interior
    node is popped, hands its gradient to its closure, and is left without
    gradient, closure or parent links, so what the closure saved is freed
    once it has run. Raises GraphConsumedError, before any gradient
    changes, if the graph reaches a node that an earlier sweep consumed.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss._graph_node()
    if root is None:
        return
    topo: list = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if node is None or id(node) in seen:
            continue
        if type(node) is _Node and node._backward is None:
            raise GraphConsumedError(
                "backward: the graph was already swept; one sweep per graph, "
                "so run the forward again to take gradients again")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._prev:
            stack.append((parent, False))
    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if type(node) is _Node:
            g, back, inputs = node.grad, node._backward, node._prev
            node.grad, node._backward, node._prev = None, None, ()
            back(g, *inputs)


def gradients(loss: Tensor, params: Iterable[Tensor]) -> list:
    """Gradient of a scalar loss for each parameter, in order, by one
    ``backward`` sweep, which consumes the loss's graph.

    Clears stale grads first; parameters unreachable from the loss get a
    zero gradient of their shape.
    """
    params = list(params)
    for p in params:
        p.grad = None
    backward(loss)
    return [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
