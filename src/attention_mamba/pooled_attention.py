"""Pooled attention: quarter-scale fused pooling of query/key.

Query and Key ([B, N, E]) are compressed over their last two axes to
[B, E/4, E/4] by summing adaptive average and adaptive max pooling, pushed
through exact GeLU, multiplied into a score matrix whose cost is
independent of the variate count N, then softmaxed and projected back to
[B, N, E] by two per-axis recovery maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LinearLayer, linear
from .tensor_core import (
    ShapeError,
    Tensor,
    adaptive_avg_pool_last,
    adaptive_max_pool_last,
    count_macs,
    matmul,
    softmax_last,
)


def _pool_two_axes(x: Tensor, target: int, pool) -> Tensor:
    """Pool axis -2 then axis -1, each to `target`, with one pooling op.

    The token axis (-2) may be smaller than the target; the adaptive
    window rule still yields width >= 1 windows there, so the output is
    always [..., target, target].
    """
    pooled_tokens = pool(x.transpose_last2(), target).transpose_last2()
    return pool(pooled_tokens, target)


def fuse_pool(x: Tensor, target: int) -> Tensor:
    """Sum of average-pooled and max-pooled compressions of the last two axes.

    x is [B, N, E]; the result is [B, target, target] with target = E/4 in
    the attention block.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"fuse_pool expects [B, N, E], got {x.data.shape}")
    if target < 1 or target > x.data.shape[-1]:
        raise ShapeError(
            f"fuse_pool target must satisfy 1 <= target <= {x.data.shape[-1]}, got {target}"
        )
    avg = _pool_two_axes(x, target, adaptive_avg_pool_last)
    mx = _pool_two_axes(x, target, adaptive_max_pool_last)
    return avg + mx


@dataclass
class PooledAttentionParams:
    """Projections of the pooled attention block for one (N, E) geometry."""

    q_proj: LinearLayer   # E -> E
    k_proj: LinearLayer   # E -> E
    recover_e: LinearLayer  # E/4 -> E, applied on the last axis
    recover_n: LinearLayer  # E/4 -> N, applied on the token axis via transpose

    @staticmethod
    def init(n_variates: int, embed_dim: int, rng: np.random.Generator,
             dtype=np.float32) -> "PooledAttentionParams":
        if embed_dim % 4 != 0:
            raise ValueError(f"embed dim must be divisible by 4, got {embed_dim}")
        quarter = embed_dim // 4
        return PooledAttentionParams(
            q_proj=LinearLayer.init(embed_dim, embed_dim, rng, dtype),
            k_proj=LinearLayer.init(embed_dim, embed_dim, rng, dtype),
            recover_e=LinearLayer.init(quarter, embed_dim, rng, dtype),
            recover_n=LinearLayer.init(quarter, n_variates, rng, dtype),
        )

    @property
    def pool_target(self) -> int:
        return self.q_proj.in_dim // 4

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, layer in (("q_proj", self.q_proj), ("k_proj", self.k_proj),
                            ("recover_e", self.recover_e), ("recover_n", self.recover_n)):
            out.append((f"{name}.weight", layer.weight))
            out.append((f"{name}.bias", layer.bias))
        return out


@dataclass
class AttentionTrace:
    """Detached intermediates of one pooled-attention forward pass."""

    query: np.ndarray        # [B, N, E]
    key: np.ndarray          # [B, N, E]
    fused_query: np.ndarray  # [B, E/4, E/4]
    fused_key: np.ndarray    # [B, E/4, E/4]
    pooled_query: np.ndarray  # [B, E/4, E/4], GeLU of fused_query
    pooled_key: np.ndarray    # [B, E/4, E/4]
    scores: np.ndarray       # [B, E/4, E/4]
    weights: np.ndarray      # [B, N, E]
    score_macs: int          # multiply-accumulates of the score matmul


def attention_weights(x_embed: Tensor, params: PooledAttentionParams) -> tuple[Tensor, AttentionTrace]:
    """Compute the [B, N, E] attention weights and the full trace.

    The score-stage matmul runs under a MAC counter; its cost,
    (E/4)^3 per batch element, does not depend on N.
    """
    if x_embed.data.ndim != 3:
        raise ShapeError(f"attention expects [B, N, E], got {x_embed.data.shape}")
    target = params.pool_target
    q = linear(x_embed, params.q_proj)
    k = linear(x_embed, params.k_proj)
    fused_q = fuse_pool(q, target)
    fused_k = fuse_pool(k, target)
    pooled_q = fused_q.gelu()
    pooled_k = fused_k.gelu()
    with count_macs() as counter:
        scores = matmul(pooled_q, pooled_k)
    attn = softmax_last(scores)
    recovered = linear(attn, params.recover_e)                    # [B, E/4, E]
    weights = linear(recovered.transpose_last2(), params.recover_n).transpose_last2()
    trace = AttentionTrace(
        query=q.numpy(),
        key=k.numpy(),
        fused_query=fused_q.numpy(),
        fused_key=fused_k.numpy(),
        pooled_query=pooled_q.numpy(),
        pooled_key=pooled_k.numpy(),
        scores=scores.numpy(),
        weights=weights.numpy(),
        score_macs=counter.total,
    )
    return weights, trace
