"""Shared backbone for the baseline methods.

All continual baselines (DER, DER++, HAL, MSL) and the UDA baselines
(CDTrans, TVT) run on the same compact convolutional transformer —
conv tokenizer, *standard* self-attention encoder, mean pooling — so
differences in the tables reflect the continual/adaptation mechanism,
not backbone capacity.  This mirrors the paper's setup where every
method gets a comparable parameter budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.autograd import Tensor
from repro.core.tokenizer import ConvTokenizer
from repro.nn import Module, TransformerEncoder
from repro.utils import resolve_rng, spawn_rng

__all__ = ["BackboneConfig", "CompactTransformer"]


@dataclass
class BackboneConfig:
    """Width/depth of the shared baseline backbone."""

    embed_dim: int = 64
    depth: int = 2
    num_heads: int = 4
    mlp_ratio: float = 2.0
    tokenizer_layers: int = 2
    tokenizer_kernel: int = 3

    @classmethod
    def small(cls) -> "BackboneConfig":
        return cls(embed_dim=48, depth=2)

    @classmethod
    def base(cls) -> "BackboneConfig":
        return cls(embed_dim=64, depth=3)

    @classmethod
    def fast(cls) -> "BackboneConfig":
        return cls(embed_dim=16, depth=1, num_heads=2)


class CompactTransformer(Module):
    """Tokenizer + standard transformer encoder + mean pooling."""

    def __init__(self, config: BackboneConfig, in_channels: int, image_size: int, rng=None):
        super().__init__()
        rng = resolve_rng(rng)
        self.config = config
        self.tokenizer = ConvTokenizer(
            in_channels,
            config.embed_dim,
            num_layers=config.tokenizer_layers,
            kernel_size=config.tokenizer_kernel,
            image_size=image_size,
            rng=spawn_rng(rng),
        )
        self.encoder = TransformerEncoder(
            config.embed_dim,
            config.depth,
            config.num_heads,
            mlp_ratio=config.mlp_ratio,
            rng=spawn_rng(rng),
        )
        self.embed_dim = config.embed_dim

    def forward(self, x, context=None) -> Tensor:
        """(..., N, C, H, W) images -> (..., N, d) pooled features.

        ``context`` activates cross-attention in the first encoder layer
        (queries from ``x``, keys/values from ``context``) — used by the
        CDTrans baseline's mixed branch.
        """
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x))
        tokens = self.tokenizer(x)
        if context is not None:
            context = context if isinstance(context, Tensor) else Tensor(np.asarray(context))
            context_tokens = self.tokenizer(context)
            encoded = self.encoder(tokens, context_tokens)
        else:
            encoded = self.encoder(tokens)
        return encoded.mean(axis=-2)
