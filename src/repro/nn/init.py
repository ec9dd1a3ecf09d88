"""Parameter initialization schemes.

Every initializer takes an explicit ``rng`` (Generator, int seed, or
None for the process-global generator) so model construction is fully
deterministic.  All outputs are materialized at the process precision
policy (:func:`repro.autograd.get_default_dtype`) — NumPy generators
sample at float64 internally, so the cast here keeps float32 models
from ever allocating double-width parameter tensors.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import get_default_dtype
from repro.utils import resolve_rng

__all__ = [
    "zeros",
    "ones",
    "constant",
    "normal",
    "uniform",
    "xavier_uniform",
    "xavier_normal",
    "kaiming_uniform",
    "kaiming_normal",
    "trunc_normal",
]


def _as_policy(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=get_default_dtype())


def zeros(shape) -> np.ndarray:
    return np.zeros(shape, dtype=get_default_dtype())


def ones(shape) -> np.ndarray:
    return np.ones(shape, dtype=get_default_dtype())


def constant(shape, value: float) -> np.ndarray:
    return np.full(shape, float(value), dtype=get_default_dtype())


def normal(shape, std: float = 0.02, mean: float = 0.0, rng=None) -> np.ndarray:
    return _as_policy(resolve_rng(rng).normal(mean, std, size=shape))


def uniform(shape, low: float = -0.1, high: float = 0.1, rng=None) -> np.ndarray:
    return _as_policy(resolve_rng(rng).uniform(low, high, size=shape))


def _fan(shape) -> tuple[int, int]:
    """(fan_in, fan_out) following the torch convention."""
    shape = tuple(shape)
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        fan_out, fan_in = shape  # Linear weights are (out, in)
        return fan_in, fan_out
    receptive = int(np.prod(shape[2:]))
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def xavier_uniform(shape, gain: float = 1.0, rng=None) -> np.ndarray:
    fan_in, fan_out = _fan(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return _as_policy(resolve_rng(rng).uniform(-bound, bound, size=shape))


def xavier_normal(shape, gain: float = 1.0, rng=None) -> np.ndarray:
    fan_in, fan_out = _fan(shape)
    std = gain * np.sqrt(2.0 / (fan_in + fan_out))
    return _as_policy(resolve_rng(rng).normal(0.0, std, size=shape))


def kaiming_uniform(shape, a: float = np.sqrt(5.0), rng=None) -> np.ndarray:
    """He-uniform init matching torch's default for Linear/Conv layers."""
    fan_in, _ = _fan(shape)
    gain = np.sqrt(2.0 / (1.0 + a * a))
    bound = gain * np.sqrt(3.0 / fan_in)
    return _as_policy(resolve_rng(rng).uniform(-bound, bound, size=shape))


def kaiming_normal(shape, rng=None) -> np.ndarray:
    fan_in, _ = _fan(shape)
    std = np.sqrt(2.0 / fan_in)
    return _as_policy(resolve_rng(rng).normal(0.0, std, size=shape))


def trunc_normal(shape, std: float = 0.02, limit: float = 2.0, rng=None) -> np.ndarray:
    """Normal samples re-drawn (by clipping) to ±``limit``·std, the
    standard transformer token/positional init."""
    samples = resolve_rng(rng).normal(0.0, std, size=shape)
    return _as_policy(np.clip(samples, -limit * std, limit * std))
