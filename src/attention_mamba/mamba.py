"""Selective state-space layer and its bidirectional wrapper.

One direction: input projection into branch and gate, depthwise causal
convolution over the token axis, SiLU, token-wise projections producing
the step size, input matrix and readout matrix of the recurrence, the
selective scan itself, SiLU gating, and an output projection. Activations
stay token-major from input to output: [B, N, C], with C = expansion * E
channels, as the rest of the model lays out its tokens.

The scan discretizes the continuous system with zero-order hold on the
state matrix and an Euler step on the input: per channel c and token t,
    h_t = exp(dt_t * a_c) * h_{t-1} + (dt_t * b_t) * u_t
    y_t = c_t . h_t + d_c * u_t,       h_0 = 0.
The scan is one tape node, `tensor_core.selective_scan`: its forward builds
decays and drives in bulk over cache-sized runs of tokens and loops over
tokens only for the state update; its backward runs the reverse recurrence
once and gives every input gradient in closed form. Its tape cost does not
grow with the token count; its time and the states it keeps for the
backward, [N, B, C, S], grow linearly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import LinearLayer, linear
from .tensor_core import (
    ShapeError,
    Tensor,
    conv1d_depthwise_causal,
    reverse,
    selective_scan,
    slice_axis,
)

DT_INIT_MIN = 1e-3
DT_INIT_MAX = 1e-1


@dataclass
class MambaParams:
    """Parameters of one scan direction."""

    in_proj: LinearLayer    # E -> 2*C (branch and gate)
    conv_weight: Tensor     # [C, K], depthwise causal kernel
    conv_bias: Tensor       # [C]
    x_proj: LinearLayer     # C -> dt_rank + 2*S
    dt_proj: LinearLayer    # dt_rank -> C
    A_log: Tensor           # [C, S]; the state matrix is -exp(A_log) < 0
    D_skip: Tensor          # [C], direct input-to-output path
    out_proj: LinearLayer   # C -> E

    @property
    def channels(self) -> int:
        return self.out_proj.in_dim

    @property
    def state_dim(self) -> int:
        return self.A_log.data.shape[1]

    @property
    def dt_rank(self) -> int:
        return self.dt_proj.in_dim

    @staticmethod
    def init(embed_dim: int, n_tokens: int, rng: np.random.Generator, *,
             expansion: int = 1, conv_width: int = 32, state_dim: int = 16,
             dtype=np.float32) -> "MambaParams":
        """Build one direction's parameters.

        The convolution width is clamped to the token count; a kernel wider
        than the sequence would only add zero-padded taps.
        """
        channels = expansion * embed_dim
        dt_rank = math.ceil(embed_dim / 16)
        width = min(conv_width, n_tokens)

        bound = 1.0 / math.sqrt(width)
        conv_weight = rng.uniform(-bound, bound, size=(channels, width)).astype(dtype)
        conv_bias = rng.uniform(-bound, bound, size=(channels,)).astype(dtype)

        dt_proj = LinearLayer.init(dt_rank, channels, rng, dtype)
        # bias such that softplus(bias) lands log-uniformly in [DT_INIT_MIN, DT_INIT_MAX]
        dt = np.exp(rng.uniform(math.log(DT_INIT_MIN), math.log(DT_INIT_MAX), size=channels))
        dt_proj.bias.data[:] = (dt + np.log(-np.expm1(-dt))).astype(dtype)

        a_log = np.log(np.tile(np.arange(1, state_dim + 1, dtype=np.float64), (channels, 1)))

        return MambaParams(
            in_proj=LinearLayer.init(embed_dim, 2 * channels, rng, dtype),
            conv_weight=Tensor(conv_weight, requires_grad=True),
            conv_bias=Tensor(conv_bias, requires_grad=True),
            x_proj=LinearLayer.init(channels, dt_rank + 2 * state_dim, rng, dtype),
            dt_proj=dt_proj,
            A_log=Tensor(a_log.astype(dtype), requires_grad=True),
            D_skip=Tensor(np.ones(channels, dtype=dtype), requires_grad=True),
            out_proj=LinearLayer.init(channels, embed_dim, rng, dtype),
        )

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, layer in (("in_proj", self.in_proj), ("x_proj", self.x_proj),
                            ("dt_proj", self.dt_proj), ("out_proj", self.out_proj)):
            out.append((f"{name}.weight", layer.weight))
            out.append((f"{name}.bias", layer.bias))
        out.append(("conv.weight", self.conv_weight))
        out.append(("conv.bias", self.conv_bias))
        out.append(("A_log", self.A_log))
        out.append(("D_skip", self.D_skip))
        return out


def mamba_forward(x: Tensor, p: MambaParams) -> Tensor:
    """One scan direction over x [B, N, E]; output has the same shape."""
    if x.data.ndim != 3:
        raise ShapeError(f"mamba expects [B, N, E], got {x.data.shape}")
    channels = p.channels
    state_dim = p.state_dim
    dt_rank = p.dt_rank

    proj = linear(x, p.in_proj)                          # [B, N, 2C]
    branch = slice_axis(proj, 2, 0, channels)
    gate = slice_axis(proj, 2, channels, 2 * channels)

    u = conv1d_depthwise_causal(branch, p.conv_weight, p.conv_bias).silu()   # [B, N, C]

    feats = linear(u, p.x_proj)                          # [B, N, dt_rank + 2S]
    dt_pre = slice_axis(feats, 2, 0, dt_rank)
    b_ssm = slice_axis(feats, 2, dt_rank, dt_rank + state_dim)
    c_ssm = slice_axis(feats, 2, dt_rank + state_dim, dt_rank + 2 * state_dim)

    delta = linear(dt_pre, p.dt_proj).softplus()       # [B, N, C]
    a_mat = -(p.A_log.exp())

    scanned = selective_scan(u, delta, a_mat, b_ssm, c_ssm, p.D_skip)
    gated = scanned * gate.silu()
    return linear(gated, p.out_proj)


def bidirectional_mamba(x: Tensor, p_fwd: MambaParams, p_bwd: MambaParams, *,
                        variant: str = "fused-reverse") -> Tensor:
    """Combine a normal-order and a reversed-order scan over the token axis.

    "fused-reverse" reverses the sum of both branch outputs, i.e.
    value = reverse(mamba(x) + mamba(reverse(x))). "per-branch-reverse" is
    the conventional placement that re-reverses only the reversed branch.
    """
    normal = mamba_forward(x, p_fwd)
    reversed_branch = mamba_forward(reverse(x, 1), p_bwd)
    if variant == "fused-reverse":
        return reverse(normal + reversed_branch, 1)
    if variant == "per-branch-reverse":
        return normal + reverse(reversed_branch, 1)
    raise ValueError(f"unknown bidirectional variant {variant!r}")
