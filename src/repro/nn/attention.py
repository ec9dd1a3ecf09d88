"""Standard multi-head self-attention.

This is the *baseline* attention used by CDTrans/TVT reimplementations
and by the "simple attention" ablation row of Table IV.  CDCL's
task-conditioned inter- intra-task cross-attention lives in
``repro.core.attention``.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn.dropout import Dropout
from repro.nn.linear import Linear
from repro.nn.module import Module
from repro.utils import resolve_rng

__all__ = [
    "MultiHeadSelfAttention",
    "scaled_dot_product_attention",
    "split_heads",
    "merge_heads",
]


def split_heads(x: Tensor, num_heads: int) -> Tensor:
    """``(..., n, dim)`` -> ``(..., heads, n, head_dim)``."""
    return x.reshape(x.shape[:-1] + (num_heads, x.shape[-1] // num_heads)).swapaxes(-2, -3)


def merge_heads(x: Tensor) -> Tensor:
    """``(..., heads, n, head_dim)`` -> ``(..., n, dim)``."""
    x = x.swapaxes(-2, -3)
    return x.reshape(x.shape[:-2] + (x.shape[-2] * x.shape[-1],))


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """Attention(Q, K, V) = softmax(QK^T / sqrt(d)) V.

    Inputs are (..., heads, seq, head_dim).
    """
    d = q.shape[-1]
    # matmul_bt consumes K's transpose as a BLAS stride flag — no
    # transpose node, no inverse-transpose of the gradient on backward.
    scores = ops.matmul_bt(q, k) * (1.0 / np.sqrt(d))
    weights = ops.softmax(scores, axis=-1)
    return ops.matmul(weights, v)


class MultiHeadSelfAttention(Module):
    """Multi-head attention with fused QKV projection.

    Supports cross-attention by passing a separate ``context`` sequence:
    queries come from ``x``, keys/values from ``context``.  Sequences
    are ``(..., n, dim)``: any leading axes (a seed axis included) pass
    through.
    """

    def __init__(self, dim: int, num_heads: int, dropout: float = 0.0, rng=None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = resolve_rng(rng)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q_proj = Linear(dim, dim, rng=rng)
        self.k_proj = Linear(dim, dim, rng=rng)
        self.v_proj = Linear(dim, dim, rng=rng)
        self.out_proj = Linear(dim, dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor, context: Tensor | None = None) -> Tensor:
        context = x if context is None else context
        q = split_heads(self.q_proj(x), self.num_heads)
        k = split_heads(self.k_proj(context), self.num_heads)
        v = split_heads(self.v_proj(context), self.num_heads)
        attended = scaled_dot_product_attention(q, k, v)
        return self.dropout(self.out_proj(merge_heads(attended)))

    def __repr__(self) -> str:
        return f"MultiHeadSelfAttention(dim={self.dim}, heads={self.num_heads})"
