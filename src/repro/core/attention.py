"""Inter- intra-task cross-attention (paper Section IV-A, Eqs. 2-3).

The mechanism that distinguishes CDCL from a plain transformer:

* The query and value projections (``Q``, ``V``) are **global** —
  shared by every task and always trainable.
* The key projection ``K_i`` and an attention bias ``b_i`` are
  **task-specific**.  A fresh pair is created when task ``t_i`` arrives;
  all previous pairs are frozen.  Because attention scores are formed
  as ``Q K_i^T + b_i``, the frozen keys preserve how earlier tasks
  carved up the latent space while the global Q/V keep adapting.
* In *self-attention* mode (one input), Q, K_i, V all come from the same
  sequence.  In *cross-attention* mode (a source/target pair), Q comes
  from the source tokens while K_i and V come from the target tokens,
  producing the mixed signal used for feature alignment.

A note on Eq. 2: the paper writes the attention output without an
explicit softmax (``x = (QK^T + b)/sqrt(d) V``).  We keep the standard
softmax over the score rows, as in CCT and every transformer the paper
builds on — without it the purely linear form is numerically unstable;
the Table IV "simple attention" ablation is unaffected by this choice
because both variants share it.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn import (
    FeedForward,
    LayerNorm,
    Linear,
    Module,
    ModuleList,
    Parameter,
)
from repro.nn import init as nn_init
from repro.nn.attention import merge_heads, split_heads
from repro.utils import resolve_rng, spawn_rng

__all__ = ["TaskConditionedAttention", "CDCLEncoderLayer", "CDCLEncoder"]


class TaskConditionedAttention(Module):
    """Multi-head attention with global Q/V and per-task K_i, b_i.

    Parameters
    ----------
    dim:
        Embedding width ``d``.
    num_heads:
        Attention heads (the per-task key is shared by all heads).
    seq_len:
        Token-sequence length ``n``; fixes the shape of the per-task
        bias ``b_i`` in ``R^{1 x n}``.
    """

    def __init__(self, dim: int, num_heads: int, seq_len: int, rng=None):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError(f"dim {dim} not divisible by num_heads {num_heads}")
        rng = resolve_rng(rng)
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.seq_len = seq_len
        self._rng = rng
        self.q_proj = Linear(dim, dim, rng=spawn_rng(rng))
        self.v_proj = Linear(dim, dim, rng=spawn_rng(rng))
        self.out_proj = Linear(dim, dim, rng=spawn_rng(rng))
        self.task_keys = ModuleList()  # K_i projections, one per task
        self._task_biases: list[Parameter] = []  # b_i, registered below

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    @property
    def num_tasks(self) -> int:
        return len(self.task_keys)

    def add_task(self) -> int:
        """Instantiate (K_i, b_i) for a new task; freeze all earlier pairs.

        Returns the new task's index.
        """
        for earlier in self.task_keys:
            earlier.freeze()
        for bias in self._task_biases:
            bias.requires_grad = False
        key = Linear(self.dim, self.dim, bias=False, rng=spawn_rng(self._rng))
        self.task_keys.append(key)
        bias = Parameter(nn_init.zeros((1, self.seq_len)))
        self._task_biases.append(bias)
        # Register the bias under a stable dotted name for state dicts.
        self._parameters[f"task_bias_{len(self._task_biases) - 1}"] = bias
        return self.num_tasks - 1

    def task_parameters(self, task_id: int) -> list[Parameter]:
        """Parameters owned by one task (its K_i and b_i)."""
        self._check_task(task_id)
        return list(self.task_keys[task_id].parameters()) + [self._task_biases[task_id]]

    def _check_task(self, task_id: int) -> None:
        if not 0 <= task_id < self.num_tasks:
            raise IndexError(
                f"task {task_id} not instantiated (have {self.num_tasks}); call add_task()"
            )

    # ------------------------------------------------------------------
    # Attention computation
    # ------------------------------------------------------------------
    def attention_weights(
        self, x: Tensor, task_id: int, context: Tensor | None = None
    ) -> Tensor:
        """Softmax scores ``(..., heads, n, n)`` of task ``task_id``'s
        attention of ``x`` into ``context`` (``x`` itself if None)."""
        self._check_task(task_id)
        context = x if context is None else context
        q = split_heads(self.q_proj(x), self.num_heads)
        k = split_heads(self.task_keys[task_id](context), self.num_heads)
        # matmul_bt folds K's transpose into the BLAS call (no graph node).
        scores = ops.matmul_bt(q, k) * (1.0 / np.sqrt(self.head_dim))
        # b_i in R^{1 x n} biases the key axis, broadcast over batch/heads/
        # rows; a seed-stacked (S, 1, n) bias keeps its seed axis in front.
        bias = self._task_biases[task_id]
        lead = bias.shape[:-2] + (1,) * (scores.ndim - bias.ndim + 1)
        return ops.softmax(scores + bias.reshape(lead + (self.seq_len,)), axis=-1)

    def forward(self, x: Tensor, task_id: int, context: Tensor | None = None) -> Tensor:
        """Apply attention for task ``task_id``.

        ``context=None`` is the self-attention path (Eq. 2); providing a
        context sequence activates cross-attention (Eq. 3) with queries
        from ``x`` (source) and keys/values from ``context`` (target).
        Leading axes of ``x``/``context`` (a seed axis included) pass
        through.
        """
        weights = self.attention_weights(x, task_id, context)
        v = split_heads(self.v_proj(x if context is None else context), self.num_heads)
        return self.out_proj(merge_heads(ops.matmul(weights, v)))

    def __repr__(self) -> str:
        return (
            f"TaskConditionedAttention(dim={self.dim}, heads={self.num_heads}, "
            f"seq_len={self.seq_len}, tasks={self.num_tasks})"
        )


class CDCLEncoderLayer(Module):
    """Pre-norm transformer block with task-conditioned attention."""

    def __init__(self, dim: int, num_heads: int, seq_len: int, mlp_ratio: float = 2.0, rng=None):
        super().__init__()
        rng = resolve_rng(rng)
        self.norm1 = LayerNorm(dim)
        self.attn = TaskConditionedAttention(dim, num_heads, seq_len, rng=spawn_rng(rng))
        self.norm2 = LayerNorm(dim)
        self.ff = FeedForward(dim, int(dim * mlp_ratio), rng=spawn_rng(rng))

    def forward(self, x: Tensor, task_id: int, context: Tensor | None = None) -> Tensor:
        normed_context = self.norm1(context) if context is not None else None
        x = x + self.attn(self.norm1(x), task_id, normed_context)
        x = x + self.ff(self.norm2(x))
        return x


class CDCLEncoder(Module):
    """Stack of :class:`CDCLEncoderLayer` with a final LayerNorm.

    For cross-attention the *mixing happens in the first layer*: the
    source stream attends into the target tokens once, after which the
    mixed sequence is refined by self-attention — mirroring CDTrans'
    three-branch design collapsed to its essential mixed branch.
    """

    def __init__(
        self,
        dim: int,
        depth: int,
        num_heads: int,
        seq_len: int,
        mlp_ratio: float = 2.0,
        rng=None,
    ):
        super().__init__()
        rng = resolve_rng(rng)
        self.layers = ModuleList(
            CDCLEncoderLayer(dim, num_heads, seq_len, mlp_ratio, rng=spawn_rng(rng))
            for _ in range(depth)
        )
        self.norm = LayerNorm(dim)

    @property
    def num_tasks(self) -> int:
        first = self.layers[0]
        return first.attn.num_tasks

    def add_task(self) -> int:
        task_id = -1
        for layer in self.layers:
            task_id = layer.attn.add_task()
        return task_id

    def task_parameters(self, task_id: int) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.attn.task_parameters(task_id))
        return params

    def forward(self, x: Tensor, task_id: int, context: Tensor | None = None) -> Tensor:
        for i, layer in enumerate(self.layers):
            x = layer(x, task_id, context if i == 0 else None)
        return self.norm(x)
