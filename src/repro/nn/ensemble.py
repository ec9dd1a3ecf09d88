"""Seed-ensemble lifting: run S independently-seeded models as one
tensor program.

A multi-seed sweep trains S copies of the *same* architecture that
differ only in their random draws (init, shuffling, replay sampling).
Per-process parallelism pays the full Python/im2col/graph overhead S
times; this module instead folds the seeds into a leading ``(S, ...)``
ensemble axis so one forward/backward advances every seed at once
(SNIPPETS-style batched-tensor design: once the weights are stacked,
leading dims flow through ``matmul``/``conv2d`` for free).

There is one model definition.  Every layer the lifted methods use is
rank-generic over leading axes: a parameter with extra leading axes
lines up with the input's leading axes (``Linear``, ``LayerNorm``,
the attention biases), and head split/merge, tokenizer flatten and
pooling address trailing axes only.  :meth:`SeedStack.lift` therefore
turns S solo models into one *clone* of the solo model whose
parameters are the stacked ones; calling the clone runs the solo
forward code over the seed axis.

Equivalence contract
--------------------
The lift is *transparent*: seed ``i``'s slice of every stacked
parameter, activation, and gradient is intended to be bitwise-identical
(float64) to what a solo model built with seed ``i`` computes.  Three
properties carry that guarantee:

* **storage** — :class:`SeedStack` builds each stacked parameter by
  ``np.stack`` of the solo parameters and rebinds every solo
  ``param.data`` to the corresponding axis-0 *view*, so solo optimizer
  steps and the batched forward read/write the same memory;
* **kernels** — the solo forwards use ops whose batched form is
  slicewise bitwise-equal to the solo form (batched BLAS ``matmul``
  / ``matmul_bt``, the 5-D ensemble ``conv2d``/pool path, trailing-axis
  reductions, elementwise ops);
* **stepping** — the engine-side lift runs the solo optimizer code
  (per seed on gradient views, or ``Adam._update`` once on the stacked
  slots), so update arithmetic is the solo code itself.

Dropout is the one layer whose lift would differ (the clone would draw
one mask from one generator); the lifted configurations all run
``p == 0`` (a no-op), and the engine refuses to lift a spec whose
config enables dropout.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.autograd import Tensor, ops
from repro.nn.module import Module, Parameter

__all__ = ["SeedStack", "cross_entropy_vec"]


class SeedStack:
    """Shared storage for an ensemble of S solo models.

    ``adopt`` fuses one logical parameter across seeds: it stacks the S
    solo arrays into an ``(S, ...)`` :class:`Parameter` and rebinds each
    solo ``param.data`` to the matching axis-0 view (contiguous for
    C-ordered storage).  From then on the batched forward reads — and
    the solo optimizers write — the same memory.  ``lift`` adopts a
    whole module tree and returns its seed-stacked clone.
    """

    def __init__(self, num_seeds: int):
        if num_seeds < 1:
            raise ValueError("SeedStack needs at least one seed")
        self.num_seeds = num_seeds
        #: every (stacked parameter, per-seed solo parameters) pair
        self.entries: list[tuple[Parameter, list[Parameter]]] = []
        self._by_id: dict[int, tuple[Parameter, int]] = {}

    def adopt(self, params) -> Parameter:
        params = list(params)
        if len(params) != self.num_seeds:
            raise ValueError(
                f"expected {self.num_seeds} per-seed parameters, got {len(params)}"
            )
        data = np.stack([p.data for p in params])
        stacked = Parameter(data)
        # Parameter construction may re-cast through the policy dtype;
        # rebind to the exact stacked array so slices stay bitwise.
        stacked.data = data
        stacked.requires_grad = any(p.requires_grad for p in params)
        for i, param in enumerate(params):
            param.data = data[i]
            self._by_id[id(param)] = (stacked, i)
        self.entries.append((stacked, params))
        return stacked

    def lift(self, solos) -> Module:
        """One module running the S solo ``solos`` over the seed axis.

        Every named parameter is adopted across the solos — or, if this
        stack adopted it before, its stacked parameter is reused, so
        optimizer state keyed by the stacked parameter and the solo
        views survive a re-lift (call again after a solo grows new
        parameters, e.g. per-task heads).  The result is a deep copy of
        ``solos[0]`` whose parameters are the stacked ones.
        """
        solos = list(solos)
        if len(solos) != self.num_seeds:
            raise ValueError(f"expected {self.num_seeds} solo modules, got {len(solos)}")
        named = [list(solo.named_parameters()) for solo in solos]
        layout = [(name, param.shape) for name, param in named[0]]
        for i, params in enumerate(named[1:], start=1):
            if [(name, param.shape) for name, param in params] != layout:
                raise ValueError(
                    f"solo {i} differs from solo 0 in parameter names or shapes; "
                    "only identical architectures lift"
                )
        memo = {}
        for position, (_name, param) in enumerate(named[0]):
            slot = self.slot(param)
            if slot is None:
                stacked = self.adopt([params[position][1] for params in named])
            else:
                stacked = slot[0]
            memo[id(param)] = stacked
        self.sync_flags()
        return copy.deepcopy(solos[0], memo)

    def slot(self, solo_param) -> tuple[Parameter, int] | None:
        """(stacked parameter, seed index) for an adopted solo param."""
        return self._by_id.get(id(solo_param))

    def sync_flags(self) -> None:
        """Propagate solo ``requires_grad`` flags (freeze/unfreeze is
        lockstep across seeds) onto the stacked parameters."""
        for stacked, solos in self.entries:
            stacked.requires_grad = any(p.requires_grad for p in solos)

    def zero_grad(self) -> None:
        for stacked, _solos in self.entries:
            stacked.grad = None


def cross_entropy_vec(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-seed cross-entropy: ``(S, B, C)`` logits against ``(S, B)``
    integer labels, returning an ``(S,)`` loss vector.

    Seed ``i``'s entry is bitwise-equal (float64) to
    ``functional.cross_entropy(logits[i], labels[i])``: log-softmax and
    the mean reduce over trailing axes only, and the label gather is an
    exact per-element scatter on backward.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2 or logits.ndim != 3:
        raise ValueError(
            f"cross_entropy_vec expects (S,B,C) logits and (S,B) labels, "
            f"got {logits.shape} and {labels.shape}"
        )
    num_classes = logits.shape[-1]
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()}, max={labels.max()}"
        )
    log_probs = ops.log_softmax(logits, axis=-1)
    s, b = labels.shape
    picked = ops.getitem(
        log_probs, (np.arange(s)[:, None], np.arange(b)[None, :], labels)
    )
    return (-picked).mean(axis=-1)
