"""Sequence pooling (paper Eqs. 4-6, from CCT).

Instead of a class token, an attention-based pooling computes an
importance weighting over tokens:

    x' = softmax(g(x_L)^T)        in R^{b x 1 x n}
    z  = x' x_L                   in R^{b x 1 x d}

where ``g`` is a learned linear map to one logit per token.  The paper
abbreviates the full tokenize-encode-pool pipeline as ``a(x) = z``.
"""

from __future__ import annotations

from repro.autograd import Tensor, ops
from repro.nn import Linear, Module
from repro.utils import resolve_rng

__all__ = ["SequencePool"]


class SequencePool(Module):
    """Attention pooling of a token sequence into one feature vector."""

    def __init__(self, dim: int, rng=None):
        super().__init__()
        self.dim = dim
        self.g = Linear(dim, 1, rng=resolve_rng(rng))

    def forward(self, tokens: Tensor) -> Tensor:
        """(..., N, n, d) token sequence -> (..., N, d) pooled features."""
        logits = self.g(tokens)  # (..., N, n, 1)
        weights = ops.softmax(logits.swapaxes(-1, -2), axis=-1)  # (..., N, 1, n)
        pooled = ops.matmul(weights, tokens)  # (..., N, 1, d)
        return pooled.reshape(tokens.shape[:-2] + (self.dim,))

    def __repr__(self) -> str:
        return f"SequencePool(dim={self.dim})"
