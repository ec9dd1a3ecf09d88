"""Normalization layers."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn import init
from repro.nn.module import Module, Parameter, _lead_aligned

__all__ = ["LayerNorm", "BatchNorm1d"]


class LayerNorm(Module):
    """Layer normalization over the trailing feature dimension(s).

    The statistics reduce over trailing axes only, so seed-stacked
    affine terms (``(S,) + normalized_shape``) need only lead-axis
    alignment.
    """

    def __init__(self, normalized_shape, eps: float = 1e-5):
        super().__init__()
        if isinstance(normalized_shape, int):
            normalized_shape = (normalized_shape,)
        self.normalized_shape = tuple(normalized_shape)
        self.eps = eps
        self.weight = Parameter(init.ones(self.normalized_shape))
        self.bias = Parameter(init.zeros(self.normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        axes = tuple(range(x.ndim - len(self.normalized_shape), x.ndim))
        mu = x.mean(axis=axes, keepdims=True)
        centered = x - mu
        variance = (centered * centered).mean(axis=axes, keepdims=True)
        normalized = centered / (variance + self.eps).sqrt()
        core = len(self.normalized_shape)
        return normalized * _lead_aligned(self.weight, core, x.ndim) + _lead_aligned(
            self.bias, core, x.ndim
        )

    def __repr__(self) -> str:
        return f"LayerNorm({self.normalized_shape}, eps={self.eps})"


class BatchNorm1d(Module):
    """Batch normalization over (N, C) inputs with running statistics."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(init.ones((num_features,)))
        self.bias = Parameter(init.zeros((num_features,)))
        self.running_mean = np.zeros(num_features)
        self.running_var = np.ones(num_features)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mu = x.mean(axis=0, keepdims=True)
            centered = x - mu
            variance = (centered * centered).mean(axis=0, keepdims=True)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mu.data.ravel()
            )
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * variance.data.ravel()
            )
        else:
            mu = Tensor(self.running_mean.reshape(1, -1))
            variance = Tensor(self.running_var.reshape(1, -1))
            centered = x - mu
        normalized = centered / (variance + self.eps).sqrt()
        return normalized * self.weight + self.bias

    def __repr__(self) -> str:
        return f"BatchNorm1d({self.num_features})"
