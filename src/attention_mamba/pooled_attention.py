"""Pooled attention: quarter-scale fused pooling of query/key.

Query and Key ([B, N, E]) are each compressed to [B, E/4, E/4] by
``fuse_pool``, one tape node that sums adaptive average and adaptive max
pooling of N rows into E/4 windows and of E columns into groups of 4. The
pooled matrices are pushed through exact GeLU and multiplied into a score
matrix whose cost, (E/4)^3 MACs per batch element, is independent of the
variate count N, then softmaxed and projected back to [B, N, E] by two
per-axis recovery maps. The score product carries no 1/sqrt(d) scale. It
is a call to this module's ``matmul``, so a caller can count its MACs by
wrapping that name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import LinearLayer, linear
from .tensor_core import Tensor, fuse_pool, matmul, softmax_last


@dataclass
class PooledAttentionParams:
    """Projections of the pooled attention block for one (N, E) geometry."""

    q_proj: LinearLayer   # E -> E
    k_proj: LinearLayer   # E -> E
    recover_e: LinearLayer  # E/4 -> E, applied on the last axis
    recover_n: LinearLayer  # E/4 -> N, applied on the token axis via transpose

    @staticmethod
    def init(n_variates: int, embed_dim: int, rng: np.random.Generator) -> "PooledAttentionParams":
        quarter = embed_dim // 4
        return PooledAttentionParams(
            q_proj=LinearLayer.init(embed_dim, embed_dim, rng),
            k_proj=LinearLayer.init(embed_dim, embed_dim, rng),
            recover_e=LinearLayer.init(quarter, embed_dim, rng),
            recover_n=LinearLayer.init(quarter, n_variates, rng),
        )


def attention_weights(x_embed: Tensor, params: PooledAttentionParams) -> Tensor:
    """Compute the [B, N, E] attention weights."""
    q = linear(x_embed, params.q_proj)
    k = linear(x_embed, params.k_proj)
    fused_q = fuse_pool(q)
    fused_k = fuse_pool(k)
    pooled_q = fused_q.gelu()
    pooled_k = fused_k.gelu()
    scores = matmul(pooled_q, pooled_k)
    attn = softmax_last(scores)
    recovered = linear(attn, params.recover_e)                    # [B, E/4, E]
    return linear(recovered.transpose_last2(), params.recover_n).transpose_last2()
