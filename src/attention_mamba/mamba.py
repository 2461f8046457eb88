"""Selective state-space layer and its bidirectional wrapper.

The bidirectional value is mamba(x) + mamba(x[:, ::-1])[:, ::-1]: the
scan over the flipped tokens has its output flipped back, so every output
token sees every input token. Tokens are variates; a form that left some unseen would let a
variate's column position decide what it can mix in.

One direction: input projection into branch and gate, depthwise causal
convolution over the token axis, SiLU, token-wise projections producing
the raw step size dt, input matrix and readout matrix of the recurrence,
the selective scan itself, the gate scanned * silu(gate) as one tape node
(`tensor_core.silu_gate`), and an output projection. Activations
stay token-major from input to output: [B, N, C], with C = EXPANSION * E
channels, as the rest of the model lays out its tokens.

The scan is one tape node, `tensor_core.selective_scan`. It takes the raw
dt and A_log and forms the step size softplus(dt) and the state matrix
-exp(A_log) itself; its docstring states the recurrence, how it runs and
where its rounding differs from a per-step loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import LinearLayer, linear
from .tensor_core import Tensor, conv1d_depthwise_causal, selective_scan, silu_gate

DT_INIT_MIN = 1e-3
DT_INIT_MAX = 1e-1
EXPANSION = 1      # channels C per embedding dimension
CONV_WIDTH = 32    # taps K of the causal convolution, before clamping to N
STATE_DIM = 16     # states S per channel


@dataclass
class MambaParams:
    """Parameters of one scan direction. The field order is the checkpoint
    order: ``named_tensors`` walks the fields as declared. The statement
    order of ``init`` is the RNG draw order, which differs from it."""

    in_proj: LinearLayer    # E -> 2*C (branch and gate)
    x_proj: LinearLayer     # C -> dt_rank + 2*S
    dt_proj: LinearLayer    # dt_rank -> C
    out_proj: LinearLayer   # C -> E
    conv: LinearLayer       # weight [C, K], the depthwise causal kernel; bias [C]
    A_log: Tensor           # [C, S]; the scan's state matrix is -exp(A_log) < 0
    D_skip: Tensor          # [C], direct input-to-output path

    @staticmethod
    def init(embed_dim: int, n_tokens: int, rng: np.random.Generator) -> "MambaParams":
        """Build one direction's parameters, in float64.

        The convolution width is clamped to the token count; a kernel wider
        than the sequence would only add zero-padded taps.
        """
        channels = EXPANSION * embed_dim
        dt_rank = math.ceil(embed_dim / 16)
        width = min(CONV_WIDTH, n_tokens)

        bound = 1.0 / math.sqrt(width)
        conv_weight = rng.uniform(-bound, bound, size=(channels, width))
        conv_bias = rng.uniform(-bound, bound, size=(channels,))
        dt_proj = LinearLayer.init(dt_rank, channels, rng)
        # bias such that softplus(bias) lands log-uniformly in [DT_INIT_MIN, DT_INIT_MAX]
        dt = np.exp(rng.uniform(math.log(DT_INIT_MIN), math.log(DT_INIT_MAX), size=channels))
        dt_proj.bias.data[:] = dt + np.log(-np.expm1(-dt))
        in_proj = LinearLayer.init(embed_dim, 2 * channels, rng)
        x_proj = LinearLayer.init(channels, dt_rank + 2 * STATE_DIM, rng)
        out_proj = LinearLayer.init(channels, embed_dim, rng)

        conv = LinearLayer(Tensor(conv_weight, requires_grad=True), Tensor(conv_bias, requires_grad=True))
        a_log = np.log(np.tile(np.arange(1, STATE_DIM + 1, dtype=np.float64), (channels, 1)))
        return MambaParams(in_proj, x_proj, dt_proj, out_proj, conv,
                           Tensor(a_log, requires_grad=True), Tensor(np.ones(channels), requires_grad=True))


def mamba_forward(x: Tensor, p: MambaParams) -> Tensor:
    """One scan direction over x [B, N, E]; output has the same shape."""
    channels, dt_rank = p.out_proj.weight.data.shape[0], p.dt_proj.weight.data.shape[0]

    proj = linear(x, p.in_proj)                          # [B, N, 2C]
    branch, gate = proj[..., :channels], proj[..., channels:]

    u = conv1d_depthwise_causal(branch, p.conv.weight, p.conv.bias).silu()   # [B, N, C]

    feats = linear(u, p.x_proj)                          # [B, N, dt_rank + 2S]
    dt_pre = feats[..., :dt_rank]
    b_ssm = feats[..., dt_rank:dt_rank + STATE_DIM]
    c_ssm = feats[..., dt_rank + STATE_DIM:]

    dt = linear(dt_pre, p.dt_proj)                       # [B, N, C]

    scanned = selective_scan(u, dt, p.A_log, b_ssm, c_ssm, p.D_skip)
    return linear(silu_gate(scanned, gate), p.out_proj)


def bidirectional_mamba(x: Tensor, p_fwd: MambaParams, p_bwd: MambaParams) -> Tensor:
    """Sum a normal-order scan and a reversed-order scan flipped back:
    value = mamba(x) + mamba(x[:, ::-1])[:, ::-1], the flip-back form of
    Vim (arXiv 2401.09417) and S-Mamba (arXiv 2403.11144).

    Output token i gets the forward scan over tokens [0, i] and the reversed
    scan over [i, N-1], so it sees every input token.
    """
    normal = mamba_forward(x, p_fwd)
    return normal + mamba_forward(x[:, ::-1], p_bwd)[:, ::-1]
