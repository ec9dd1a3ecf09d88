"""Introspection utilities: extract CDCL attention maps.

The paper's core claim is that per-task keys ``K_i`` retain each task's
feature-alignment structure.  These helpers expose the attention
weights so that claim can be inspected (and is unit-tested): for a
given input and task id, return the softmax attention matrix of every
encoder layer, in self- or cross-attention mode.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, no_grad
from repro.core.attention import TaskConditionedAttention
from repro.core.network import CDCLNetwork

__all__ = ["attention_maps", "attention_entropy", "task_key_similarity"]


def _layer_attention(
    attn: TaskConditionedAttention, x: Tensor, task_id: int, context: Tensor | None
) -> np.ndarray:
    """Softmax attention weights (B, heads, n, n) for one layer."""
    return attn.attention_weights(x, task_id, context).data


def attention_maps(
    network: CDCLNetwork,
    images: np.ndarray,
    task_id: int,
    context_images: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Per-layer attention weights for ``images`` under task ``task_id``.

    Returns one array of shape (batch, heads, n, n) per encoder layer.
    ``context_images`` activates cross-attention in the first layer
    (matching the training-time mixing).
    """
    with no_grad():
        tokens = network.tokenizer(Tensor(np.asarray(images)))
        context_tokens = None
        if context_images is not None and network.config.use_cross_attention:
            context_tokens = network.tokenizer(Tensor(np.asarray(context_images)))
        maps: list[np.ndarray] = []
        x = tokens
        for i, layer in enumerate(network.encoder.layers):
            layer_context = context_tokens if i == 0 else None
            normed = layer.norm1(x)
            normed_context = (
                layer.norm1(layer_context) if layer_context is not None else None
            )
            maps.append(_layer_attention(layer.attn, normed, task_id, normed_context))
            x = layer(x, task_id, layer_context)
    return maps


def attention_entropy(weights: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Entropy of each attention row: how diffuse the attention is.

    Shape in (B, heads, n, n) -> out (B, heads, n); values in
    [0, log n].
    """
    weights = np.asarray(weights)
    return -(weights * np.log(weights + eps)).sum(axis=-1)


def task_key_similarity(network: CDCLNetwork, layer: int = 0) -> np.ndarray:
    """Cosine similarity matrix between the per-task key projections.

    A low off-diagonal similarity indicates that tasks carved distinct
    key subspaces — the mechanism behind CDCL's retention (Section
    IV-A).  Returned shape: (num_tasks, num_tasks).
    """
    attn = network.encoder.layers[layer].attn
    flat_keys = [key.weight.data.ravel() for key in attn.task_keys]
    n = len(flat_keys)
    out = np.eye(n)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = flat_keys[i], flat_keys[j]
            sim = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b) + 1e-12))
            out[i, j] = out[j, i] = sim
    return out
