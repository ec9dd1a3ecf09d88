"""Convolutional tokenizer (paper Eq. 1, following CCT).

Replaces ViT patch embedding: ``x_ct = MaxPool(ReLU(Conv2d(x)))``
stacked ``tokenizer_layers`` times, then the spatial grid is flattened
into a token sequence.  The final convolution has ``embed_dim`` filters
so tokens live directly in the transformer's embedding space, and local
spatial information is preserved without positional embeddings.
"""

from __future__ import annotations

from repro.autograd import Tensor
from repro.nn import Conv2d, MaxPool2d, Module, ReLU, Sequential
from repro.utils import resolve_rng, spawn_rng

__all__ = ["ConvTokenizer"]


class ConvTokenizer(Module):
    """Convolution tokenizer mapping images to token sequences.

    Parameters
    ----------
    in_channels:
        Image channels (1 for digits, 3 for object benchmarks).
    embed_dim:
        Token dimensionality ``d``; equals the conv filter count.
    num_layers:
        Conv-ReLU-MaxPool blocks (paper: 2).
    kernel_size:
        Convolution kernel (paper: 7 on 224x224; 3 on our 16x16).
    image_size:
        Input side length, used to precompute the sequence length ``n``.
    """

    def __init__(
        self,
        in_channels: int,
        embed_dim: int,
        num_layers: int = 2,
        kernel_size: int = 3,
        image_size: int = 16,
        rng=None,
    ):
        super().__init__()
        rng = resolve_rng(rng)
        if num_layers < 1:
            raise ValueError("tokenizer needs at least one layer")
        blocks = []
        channels = in_channels
        side = image_size
        for layer in range(num_layers):
            out_channels = embed_dim
            blocks.append(
                Conv2d(
                    channels,
                    out_channels,
                    kernel_size,
                    stride=1,
                    padding=kernel_size // 2,
                    rng=spawn_rng(rng),
                )
            )
            blocks.append(ReLU())
            blocks.append(MaxPool2d(2))
            channels = out_channels
            side = side // 2
            if side < 1:
                raise ValueError(
                    f"image of size {image_size} too small for {num_layers} pooling layers"
                )
        self.blocks = Sequential(*blocks)
        self.embed_dim = embed_dim
        self.grid_side = side
        self.seq_len = side * side

    def forward(self, x: Tensor) -> Tensor:
        """(..., N, C, H, W) image batch -> (..., N, n, d) token sequence.

        A seed-stacked tokenizer takes ``(S, N, C, H, W)`` batches
        through the ensemble convolution kernel.
        """
        feats = self.blocks(x)  # (..., N, d, side, side)
        h, w = feats.shape[-2:]
        return feats.reshape(feats.shape[:-2] + (h * w,)).swapaxes(-1, -2)

    def __repr__(self) -> str:
        return (
            f"ConvTokenizer(embed_dim={self.embed_dim}, seq_len={self.seq_len}, "
            f"grid={self.grid_side}x{self.grid_side})"
        )
