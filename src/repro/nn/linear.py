"""Affine layers."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn import init
from repro.nn.module import Module, Parameter, _lead_aligned
from repro.utils import resolve_rng

__all__ = ["Linear", "Bilinear"]


class Linear(Module):
    """Fully connected layer ``y = x @ W.T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Include an additive bias term (default True).
    rng:
        Seed or generator for weight init.

    A seed-stacked layer (``(S, out, in)`` weight, ``(S, out)`` bias)
    maps ``(S, ..., in)`` inputs seed-slice by seed-slice.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True, rng=None):
        super().__init__()
        rng = resolve_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng=rng))
        if bias:
            bound = 1.0 / np.sqrt(in_features)
            self.bias = Parameter(init.uniform((out_features,), -bound, bound, rng=rng))
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        out = ops.matmul(x, _lead_aligned(self.weight.swapaxes(-1, -2), 2, x.ndim))
        if self.bias is not None:
            out = out + _lead_aligned(self.bias, 1, out.ndim)
        return out

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class Bilinear(Module):
    """Bilinear form ``y_k = x1 @ W_k @ x2 + b_k`` (used in tests as an
    exercise of batched matmul gradients)."""

    def __init__(self, in1: int, in2: int, out_features: int, rng=None):
        super().__init__()
        rng = resolve_rng(rng)
        self.weight = Parameter(init.xavier_uniform((out_features, in1, in2), rng=rng))
        self.bias = Parameter(init.zeros((out_features,)))

    def forward(self, x1: Tensor, x2: Tensor) -> Tensor:
        # (b, in1) x (out, in1, in2) x (b, in2) -> (b, out)
        left = ops.matmul(x1, self.weight.transpose((1, 0, 2)).reshape(
            (x1.shape[-1], -1)
        ))  # (b, out*in2)
        left = left.reshape((x1.shape[0], self.weight.shape[0], self.weight.shape[2]))
        prod = left * x2.reshape((x2.shape[0], 1, x2.shape[1]))
        return prod.sum(axis=-1) + self.bias
