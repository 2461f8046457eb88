"""Pooled attention: quarter-scale fused pooling of query/key.

Query and Key ([B, N, E]) are each compressed to [B, E/4, E/4] by
``fuse_pool``, one tape node that sums adaptive average and adaptive max
pooling of N rows into E/4 windows and of E columns into groups of 4. The
pooled matrices are pushed through exact GeLU and multiplied into a score
matrix whose cost is independent of the variate count N, then softmaxed
and projected back to [B, N, E] by two per-axis recovery maps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LinearLayer, linear
from .tensor_core import ShapeError, Tensor, count_macs, fuse_pool, matmul, softmax_last


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

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for name, layer in (("q_proj", self.q_proj), ("k_proj", self.k_proj),
                            ("recover_e", self.recover_e), ("recover_n", self.recover_n)):
            out.append((f"{name}.weight", layer.weight))
            out.append((f"{name}.bias", layer.bias))
        return out


@dataclass
class AttentionTrace:
    """Intermediates of one pooled-attention forward pass: the forward's own
    arrays, made read-only, not copies."""

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
    q = linear(x_embed, params.q_proj)
    k = linear(x_embed, params.k_proj)
    fused_q = fuse_pool(q)
    fused_k = fuse_pool(k)
    pooled_q = fused_q.gelu()
    pooled_k = fused_k.gelu()
    with count_macs() as counter:
        scores = matmul(pooled_q, pooled_k)
    attn = softmax_last(scores)
    recovered = linear(attn, params.recover_e)                    # [B, E/4, E]
    weights = linear(recovered.transpose_last2(), params.recover_n).transpose_last2()
    kept = [t.data for t in (q, k, fused_q, fused_k, pooled_q, pooled_k, scores, weights)]
    for array in kept:
        array.flags.writeable = False
    return weights, AttentionTrace(*kept, score_macs=counter.total)
