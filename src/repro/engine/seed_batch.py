"""Seed-batched cell execution: train S seeds as one tensor program.

The process-pool path of :func:`~repro.engine.executor.run_seed_sweep`
pays the full Python/im2col/graph overhead once *per seed*.  This
module folds the uncached seeds of one spec into a single batched run:
:meth:`repro.nn.ensemble.SeedStack.lift` stacks every parameter of the
per-seed models along a leading ``(S, ...)`` ensemble axis and returns
a clone of the solo model over those stacked parameters, the clone's
own (rank-generic) forward runs once through the 5-D/seed-batched
kernels, and the result splits back into S independent per-seed
:class:`~repro.engine.runner.RunResult` cells cached under each seed's
*normal* cell key — so batched and per-process sweeps share the cache
bidirectionally.

Equivalence contract (see DESIGN.md "Ensemble axis"):

* the *real* per-seed method objects are constructed exactly as
  :func:`~repro.engine.runner.run_one` would (same factories, same rng
  spawn order), and their parameters become axis-0 views of the
  stacked storage;
* per-seed randomness (data order, replay sampling) draws from each
  seed's own solo generators in solo call order;
* optimizer/clip updates run the *solo* optimizer code — per seed on
  gradient views of the stacked backward, or ``Adam._update`` once on
  the stacked slots — so update arithmetic can never drift from the
  serial path;
* at float64 the lifted methods (FineTune, DER, CDCL) are
  bitwise-equal to serial ``run_one`` cells (asserted in tests).

Lifted methods: ``FineTune`` and ``DER`` run fully batched (training
and evaluation); ``CDCL`` runs its warm-up epochs batched and its
adaptation/rehearsal/evaluation per-seed in lockstep (those phases are
pair-set-shaped and stay on the solo code).  Everything else —
including DER++ — reports :func:`liftable` False and transparently
falls back to the process pool.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro import telemetry
from repro.autograd import Tensor, default_dtype, get_default_dtype, no_grad, ops
from repro.continual import Scenario
from repro.continual.evaluator import ContinualResult, _scenario_accuracy, evaluate_task_multi
from repro.continual.metrics import RMatrix
from repro.engine import cache
from repro.engine.registry import METHODS, SCENARIOS
from repro.engine.runner import RunResult, RunSpec, _save_checkpoint, spec_summary
from repro.baselines.base import BaselineTrainer
from repro.nn.ensemble import SeedStack, cross_entropy_vec
from repro.optim import Adam, WarmupCosineSchedule, clip_grad_norm

__all__ = ["liftable", "lifted_methods", "run_seed_batch"]


# ======================================================================
# Shared stepping: combined backward, per-seed update arithmetic
# ======================================================================
class _VecStepper:
    """Mirror of each method's ``_step`` across the ensemble.

    One backward of ``loss_vec.sum()`` fills the stacked gradients.
    The update then runs one of two ways, both bitwise-faithful to the
    serial path:

    * **vectorized** — when every seed's optimizer is a plain
      :class:`~repro.optim.Adam` with identical hyper-parameters and
      every clipped/updated parameter maps onto a stacked slot, the
      clip scaling runs once on the stacked ``(S, ...)`` arrays and
      one stacked :class:`~repro.optim.Adam` applies its own
      ``_update`` to each slot.  Every operation involved is
      elementwise over the seed axis (scalar-times-array,
      array-plus-array, ``sqrt``), so each seed's slice sees the exact
      float sequence the solo optimizer would produce — without the
      per-seed Python loop over parameters that otherwise dominates
      small-batch steps.
      Per-seed divergences the solo code allows (a non-finite gradient
      skips that seed's update) demote the affected slot to per-seed
      arithmetic from that step on.
    * **per-seed** — anything else (e.g. CDCL's AdamW, whose state the
      solo adaptation epochs consume mid-task) binds each solo
      parameter's ``grad`` to its seed's slice view and runs the real
      solo clipping/optimizer code per seed; in-place clip scaling and
      ``param.data`` updates write straight through the views into the
      stacked storage.

    Built once per task (after head/parameter registration) so the
    parameter lists are walked once, not once per step.
    """

    def __init__(self, stack: SeedStack, methods, params_of, grad_clip, adam_state=None):
        self.stack = stack
        self.methods = list(methods)
        self.grad_clip = grad_clip
        self.param_lists = [list(params_of(m)) for m in self.methods]
        #: Stacked-slot Adam state keyed by stacked-parameter identity.
        #: Solo optimizer state outlives one task, so callers that
        #: rebuild the stepper per task (heads appear) pass a dict
        #: owned by the lift to carry the moments across tasks.
        self.adam_state = {} if adam_state is None else adam_state
        self.vectorized = self._prepare()

    # -- preparation ---------------------------------------------------
    def _prepare(self) -> bool:
        opt0 = self.methods[0].optimizer
        if type(opt0) is not Adam:
            return False
        signature = (opt0.lr, tuple(opt0.betas), opt0.eps, opt0.weight_decay)
        for method in self.methods[1:]:
            opt = method.optimizer
            if type(opt) is not Adam:
                return False
            if (opt.lr, tuple(opt.betas), opt.eps, opt.weight_decay) != signature:
                return False
        self.clip_slots = self._match_slots(self.param_lists)
        if self.clip_slots is None:
            return False
        self.adam_slots = self._match_slots(
            [list(m.optimizer.params) for m in self.methods]
        )
        if self.adam_slots is None:
            return False
        self._adam = Adam(
            self.adam_slots, lr=opt0.lr, betas=opt0.betas, eps=opt0.eps,
            weight_decay=opt0.weight_decay,
        )
        self._adam.state = self.adam_state
        return True

    def _match_slots(self, param_lists):
        """Stacked parameter per position, or None if any seed's list
        diverges (length, slot identity, seed index or grad flags)."""
        if len({len(plist) for plist in param_lists}) != 1:
            return None
        slots = []
        for position in range(len(param_lists[0])):
            stacked = None
            flags = {plist[position].requires_grad for plist in param_lists}
            if len(flags) != 1:
                return None
            for seed_index, plist in enumerate(param_lists):
                slot = self.stack.slot(plist[position])
                if slot is None or slot[1] != seed_index:
                    return None
                if stacked is None:
                    stacked = slot[0]
                elif slot[0] is not stacked:
                    return None
            slots.append(stacked)
        return slots

    # -- stepping ------------------------------------------------------
    def step(self, loss_vec: Tensor) -> list[float]:
        data = np.asarray(loss_vec.data)
        if data.ndim == 0:
            values = [float(data)] * len(self.methods)
        else:
            values = [float(v) for v in data]
        if not loss_vec.requires_grad:
            return values
        if self.vectorized:
            self.stack.zero_grad()
            with telemetry.phase("backward"):
                loss_vec.sum().backward()
            with telemetry.phase("optimizer"):
                if self.grad_clip:
                    self._clip_vec()
                self._adam_vec()
        else:
            self._step_seedwise(loss_vec)
        return values

    def _step_seedwise(self, loss_vec: Tensor) -> None:
        for method in self.methods:
            method.optimizer.zero_grad()
        self.stack.zero_grad()
        with telemetry.phase("backward"):
            loss_vec.sum().backward()
        with telemetry.phase("optimizer"):
            for seed_index, method in enumerate(self.methods):
                params = self.param_lists[seed_index]
                for param in params:
                    slot = self.stack.slot(param)
                    if slot is None:
                        continue
                    stacked, index = slot
                    param.grad = None if stacked.grad is None else stacked.grad[index]
                if self.grad_clip:
                    clip_grad_norm(params, self.grad_clip)
                method.optimizer.step()

    # -- vectorized clip + Adam ----------------------------------------
    def _clip_vec(self) -> None:
        """Per-seed joint-norm clip on the stacked gradients.

        Mirrors :func:`~repro.optim.clip_grad_norm`: the squared-sum
        per parameter reduces each seed's contiguous slice with the
        same pairwise summation the solo ``(g * g).sum()`` uses, the
        Python-float accumulation runs in the same parameter order,
        and unclipped seeds scale by exactly ``1.0`` (an identity
        multiply, bit for bit).
        """
        live = [p.grad for p in self.clip_slots if p.grad is not None]
        if not live:
            return
        sums = [
            (grad * grad).sum(axis=tuple(range(1, grad.ndim))) for grad in live
        ]
        max_norm = self.grad_clip
        scales = None
        for seed_index in range(len(self.methods)):
            total = float(np.sqrt(sum(float(col[seed_index]) for col in sums)))
            if total > max_norm and total > 0:
                if scales is None:
                    scales = np.ones(len(self.methods))
                scales[seed_index] = max_norm / total
        if scales is None:
            return
        for grad in live:
            grad *= scales.astype(grad.dtype).reshape(
                (len(self.methods),) + (1,) * (grad.ndim - 1)
            )

    def _adam_vec(self) -> None:
        """:meth:`Adam._update` applied once to each stacked slot.

        The stacked optimizer's ``state`` is the lift's ``adam_state``;
        bias corrections stay Python-float scalars, so every seed's
        slice sees the identical expression the solo optimizer
        evaluates.
        """
        self._adam.lr = self.methods[0].optimizer.lr
        for method in self.methods:
            method.optimizer.step_count += 1
        for param in self.adam_slots:
            if param.grad is None or not param.requires_grad:
                continue
            grad = param.grad
            state = self.adam_state.setdefault(id(param), {"m": None, "v": None, "t": 0})
            finite = np.isfinite(grad)
            if state.get("skew") is not None or not finite.all():
                self._adam_slot_skewed(param, grad, state, finite)
                continue
            self._adam._update(param, grad)

    def _adam_slot_skewed(self, param, grad, state, finite) -> None:
        """Per-seed Adam for a slot whose seeds diverged.

        The solo optimizer skips a seed's update when its gradient is
        non-finite — leaving that seed's moments and step count behind
        the others.  Once that happens the slot's state goes per-seed
        (stacked moment storage, per-seed ``t`` and lazy-init flags)
        and each seed runs the solo recurrence on its slice.
        """
        lr, eps, wd = self._adam.lr, self._adam.eps, self._adam.weight_decay
        beta1, beta2 = self._adam.betas
        num_seeds = len(self.methods)
        if state.get("skew") is None:
            if state["m"] is None:
                state["m"] = np.empty_like(grad)
                state["v"] = np.empty_like(grad)
                initialized = [False] * num_seeds
            else:
                initialized = [True] * num_seeds
            state["skew"] = {"t": [state["t"]] * num_seeds, "init": initialized}
        skew = state["skew"]
        finite_rows = finite.reshape(num_seeds, -1).all(axis=1)
        for seed_index in range(num_seeds):
            if not finite_rows[seed_index]:
                continue
            g = grad[seed_index]
            if wd:
                g = g + wd * param.data[seed_index]
            t = skew["t"][seed_index] + 1
            if skew["init"][seed_index]:
                m = beta1 * state["m"][seed_index] + (1 - beta1) * g
                v = beta2 * state["v"][seed_index] + (1 - beta2) * g**2
            else:
                m = g * (1 - beta1)
                v = g**2 * (1 - beta2)
                skew["init"][seed_index] = True
            state["m"][seed_index] = m
            state["v"][seed_index] = v
            skew["t"][seed_index] = t
            m_hat = m / (1 - beta1**t)
            v_hat = v / (1 - beta2**t)
            param.data[seed_index] -= lr * m_hat / (np.sqrt(v_hat) + eps)


class _TaskBatcher:
    """Per-seed arrays stacked once per task; mini-batches gather with
    one fancy index into the ``(S, n, ...)`` stack instead of S
    separate gathers plus a stack per step."""

    def __init__(self, data):
        self.images = np.stack([x for x, _y in data])
        self.labels = np.stack([y for _x, y in data])
        self._seed_ix = np.arange(len(data))[:, None]

    def gather(self, orders, start: int, size: int):
        index = np.stack([order[start : start + size] for order in orders])
        return self.images[self._seed_ix, index], self.labels[self._seed_ix, index]


def _check_lockstep(lengths, what: str) -> int:
    lengths = [int(n) for n in lengths]
    if len(set(lengths)) != 1:
        raise ValueError(
            f"seed-batched execution needs identical {what} across seeds, "
            f"got {lengths}; rerun with batched=False"
        )
    return lengths[0]


# ======================================================================
# Baseline lifts: FineTune (fully batched), DER (batched + replay)
# ======================================================================
class _BaselineLift:
    """Batched training/eval of :class:`BaselineTrainer` seeds.

    ``backbone``, ``til_heads`` and ``cil_heads`` are the seed-stacked
    clones of the solo modules; the head logits are the trainer's own
    ``til_logits``/``cil_logits``, run on those clones.
    """

    til_logits = BaselineTrainer.til_logits
    cil_logits = BaselineTrainer.cil_logits

    def __init__(self, methods):
        self.methods = list(methods)
        self.num_seeds = len(self.methods)
        self.stack = SeedStack(self.num_seeds)
        self.backbone = self.stack.lift([m.backbone for m in self.methods])
        self._adam_state: dict[int, dict] = {}

    # -- heads ---------------------------------------------------------
    def _add_heads(self, num_classes: int) -> None:
        for method in self.methods:
            method._add_heads(num_classes)
        self.til_heads = self.stack.lift([m.til_heads for m in self.methods])
        self.cil_heads = self.stack.lift([m.cil_heads for m in self.methods])

    def class_offset(self, task_id: int) -> int:
        return self.methods[0].class_offset(task_id)

    # -- training ------------------------------------------------------
    def observe_task(self, tasks) -> None:
        task = tasks[0]
        config = self.methods[0].config
        self._add_heads(task.num_classes)
        data = [t.source_train.arrays() for t in tasks]
        n = _check_lockstep([len(x) for x, _y in data], "source-set sizes")
        batcher = _TaskBatcher(data)
        stepper = _VecStepper(
            self.stack,
            self.methods,
            lambda m: m._all_params(),
            config.grad_clip,
            adam_state=self._adam_state,
        )
        for _epoch in range(config.epochs):
            orders = [m._rng.permutation(n) for m in self.methods]
            for start in range(0, n, config.batch_size):
                xs, ys = batcher.gather(orders, start, config.batch_size)
                with telemetry.phase("forward"):
                    loss_vec = self.batch_loss_vec(task.task_id, xs, ys)
                stepper.step(loss_vec)
        for i, method in enumerate(self.methods):
            method.after_task(tasks[i], data[i][0], data[i][1])

    def batch_loss_vec(self, task_id: int, xs: np.ndarray, ys: np.ndarray) -> Tensor:
        """``BaselineTrainer.batch_loss`` (FineTune default), per seed."""
        features = self.backbone(xs)
        loss = cross_entropy_vec(self.til_logits(features, task_id), ys)
        global_labels = ys + self.class_offset(task_id)
        loss = loss + cross_entropy_vec(self.cil_logits(features), global_labels)
        return loss

    # -- evaluation ----------------------------------------------------
    def _embed_eval_vec(self, images_list) -> np.ndarray:
        """Mirror of ``_embed_eval``: chunked backbone features, (S, N, d)."""
        batch_size = self.methods[0].config.batch_size
        n = _check_lockstep([len(im) for im in images_list], "test-set sizes")
        stacked_all = np.stack(images_list)  # chunks below are views
        chunks = []
        with no_grad():
            for start in range(0, n, batch_size):
                chunks.append(self.backbone(stacked_all[:, start : start + batch_size]).data)
        if not chunks:
            return np.empty(
                (self.num_seeds, 0, self.backbone.embed_dim), dtype=get_default_dtype()
            )
        return np.concatenate(chunks, axis=1)

    def predict_multi_vec(self, images_list, task_id, scenarios):
        out = {}
        with no_grad():
            feats = Tensor(self._embed_eval_vec(images_list))
            for scenario in scenarios:
                if scenario is Scenario.CIL:
                    out[scenario] = self.cil_logits(feats).data.argmax(axis=-1)
                else:
                    tid = (
                        task_id
                        if (scenario is Scenario.TIL and task_id is not None)
                        else len(self.til_heads) - 1
                    )
                    out[scenario] = self.til_logits(feats, tid).data.argmax(axis=-1)
        return out

    def evaluate_tasks(self, seen_tasks, scenarios):
        arrays = [task.target_test.arrays() for task in seen_tasks]
        predictions = self.predict_multi_vec(
            [images for images, _labels in arrays], seen_tasks[0].task_id, scenarios
        )
        return {
            scenario: [
                _scenario_accuracy(
                    seen_tasks[i], scenario, predictions[scenario][i], arrays[i][1]
                )
                for i in range(self.num_seeds)
            ]
            for scenario in scenarios
        }


class _DERLift(_BaselineLift):
    """DER: the baseline lift plus batched dark-experience replay."""

    def batch_loss_vec(self, task_id: int, xs: np.ndarray, ys: np.ndarray) -> Tensor:
        features = self.backbone(xs)
        global_labels = ys + self.class_offset(task_id)
        loss = cross_entropy_vec(self.til_logits(features, task_id), ys)
        loss = loss + cross_entropy_vec(self.cil_logits(features), global_labels)
        loss = loss + self._replay_loss_vec()
        # Insert the batch with the logits it currently produces — after
        # the replay draw, matching the solo sample-then-add order.
        current = self.cil_logits(features)
        for i, method in enumerate(self.methods):
            method.memory.add_batch(xs[i], global_labels[i], current.data[i], task_id)
        return loss

    def _replay_loss_vec(self) -> Tensor:
        config = self.methods[0].config
        samples = [m.memory.sample(config.replay_batch) for m in self.methods]
        if samples[0] is None:
            # Reservoir counts are lockstep across seeds: all or none.
            return Tensor(0.0)
        x_mem = np.stack([s[0] for s in samples])
        logits_mem = [s[2] for s in samples]
        widths = [s[4] for s in samples]
        max_widths = [lm.shape[-1] for lm in logits_mem]
        current_full = self.cil_logits(self.backbone(x_mem))
        if len(set(max_widths)) == 1:
            max_width = max_widths[0]
            current = current_full[:, :, :max_width]
            mask = np.stack(
                [np.arange(max_width)[None, :] < w[:, None] for w in widths]
            )
            stored = Tensor(np.stack(logits_mem))
            squared = (current - stored) * (current - stored)
            per_record = (squared * Tensor(mask.astype(float))).sum(axis=-1) / Tensor(
                np.stack([w.astype(float) for w in widths])
            )
            return config.alpha * per_record.mean(axis=-1)
        # Ragged sampled widths: per-seed slices of the one batched
        # forward, solo arithmetic verbatim per seed.
        pieces = []
        for i in range(self.num_seeds):
            max_width = max_widths[i]
            current = current_full[i, :, :max_width]
            mask = np.arange(max_width)[None, :] < widths[i][:, None]
            stored = Tensor(logits_mem[i])
            squared = (current - stored) * (current - stored)
            per_record = (squared * Tensor(mask.astype(float))).sum(axis=-1) / Tensor(
                widths[i].astype(float)
            )
            pieces.append((config.alpha * per_record.mean()).reshape((1,)))
        return ops.concat(pieces, axis=0)


# ======================================================================
# CDCL lift: batched warm-up, lockstep solo adaptation/rehearsal/eval
# ======================================================================
class _CDCLLift:
    """Hybrid CDCL lift.

    Warm-up epochs (self-attention, source-only supervision) run
    batched on the seed-stacked clone of the solo ``CDCLNetwork``;
    pair building, adaptation, rehearsal, memory storage and
    evaluation run the unmodified solo code per seed — on parameters
    that are views of the stacked storage, so the two phases interleave
    freely and stay bitwise-faithful.
    """

    def __init__(self, methods):
        self.methods = list(methods)
        self.num_seeds = len(self.methods)
        self.stack = SeedStack(self.num_seeds)

    def observe_task(self, tasks) -> None:
        from repro.core.trainer import TaskLog

        task = tasks[0]
        schedulers = []
        task_id = -1
        for method in self.methods:
            config = method.config
            task_id = method.network.add_task(task.num_classes)
            method.logs.append(TaskLog(task_id=task_id))
            method._register_new_parameters(task_id)
            schedulers.append(
                WarmupCosineSchedule(
                    method.optimizer,
                    warmup_epochs=config.warmup_epochs,
                    total_epochs=config.epochs,
                    warmup_lr=config.warmup_lr,
                    peak_lr=config.peak_lr,
                    min_lr=config.min_lr,
                )
            )
        # Re-lift: adopts the new task's (K_i, b_i) and heads, and
        # propagates add_task's freeze of every earlier (K_i, b_i).
        self.network = self.stack.lift([m.network for m in self.methods])

        config = self.methods[0].config
        # AdamW + mid-task solo phases keep this on the per-seed path
        # (the solo adaptation epochs consume the optimizer state the
        # warm-up steps produce), but the one-backward step and the
        # once-per-task parameter walk still apply.
        stepper = _VecStepper(
            self.stack,
            self.methods,
            lambda m: list(m.network.parameters()),
            config.grad_clip,
        )
        source = [t.source_train.arrays() for t in tasks]
        target = [t.target_train.arrays() for t in tasks]
        pair_sets = [None] * self.num_seeds
        for epoch in range(config.epochs):
            if epoch < config.warmup_epochs:
                losses = self._warmup_epoch_vec(task_id, task, source, stepper)
            else:
                losses = []
                for i, method in enumerate(self.methods):
                    x_source, y_source = source[i]
                    x_target, y_target_hidden = target[i]
                    pair_set = method._build_pairs(task_id, x_source, y_source, x_target)
                    log = method.logs[-1]
                    log.pair_keep_ratio.append(pair_set.keep_ratio)
                    log.pseudo_label_accuracy.append(
                        float((pair_set.pseudo_labels == y_target_hidden).mean())
                    )
                    losses.append(
                        method._run_adaptation_epoch(
                            task_id, tasks[i], x_source, y_source, x_target, pair_set
                        )
                    )
                    pair_sets[i] = pair_set
            for i, method in enumerate(self.methods):
                method.logs[-1].epoch_losses.append(losses[i])
                schedulers[i].step()
        for i, method in enumerate(self.methods):
            method.logs[-1].memory_stored = method._store_memory(
                task_id, tasks[i], source[i][0], source[i][1], target[i][0], pair_sets[i]
            )

    def _warmup_epoch_vec(self, task_id: int, task, source, stepper) -> list[float]:
        """``_run_warmup_epoch`` across the ensemble."""
        config = self.methods[0].config
        n = _check_lockstep([len(x) for x, _y in source], "source-set sizes")
        index_lists = [m._minibatch_indices(n) for m in self.methods]
        offset = self.methods[0].network.class_offset(task_id)
        losses = [[] for _ in range(self.num_seeds)]
        for batch in range(len(index_lists[0])):
            xs = np.stack(
                [x[index_lists[i][batch]] for i, (x, _y) in enumerate(source)]
            )
            ys = np.stack(
                [y[index_lists[i][batch]] for i, (_x, y) in enumerate(source)]
            )
            with telemetry.phase("forward"):
                feats = self.network.features(xs, task_id)
                loss = Tensor(0.0)
                if config.use_cil_loss:
                    loss = loss + cross_entropy_vec(self.network.cil_logits(feats), ys + offset)
                if config.use_til_loss:
                    loss = loss + cross_entropy_vec(self.network.til_logits(feats, task_id), ys)
            values = stepper.step(loss)
            for i in range(self.num_seeds):
                losses[i].append(values[i])
        return [float(np.mean(seed_losses)) if seed_losses else 0.0 for seed_losses in losses]

    def evaluate_tasks(self, seen_tasks, scenarios):
        accuracies = {scenario: [] for scenario in scenarios}
        for i, method in enumerate(self.methods):
            per_task = evaluate_task_multi(method, seen_tasks[i], list(scenarios))
            for scenario in scenarios:
                accuracies[scenario].append(per_task[scenario])
        return accuracies


# ======================================================================
# Engine surface
# ======================================================================
_LIFTS = {
    "FineTune": _BaselineLift,
    "DER": _DERLift,
    "CDCL": _CDCLLift,
}


def lifted_methods() -> tuple[str, ...]:
    """Method names with a seed-batched execution path."""
    return tuple(sorted(_LIFTS))


def liftable(spec: RunSpec) -> bool:
    """True when ``spec`` can run on the ensemble axis.

    The lift covers FineTune, DER and CDCL; CDCL additionally requires
    dropout disabled (a lifted clone would draw one dropout mask from one
    generator instead of S per-seed streams — dropout is off in every
    profile-built config).
    """
    if spec.method not in _LIFTS:
        return False
    if spec.method == "CDCL" and spec.method_overrides.get("dropout"):
        return False
    return True


def run_seed_batch(
    spec: RunSpec,
    seeds,
    *,
    use_cache: bool = True,
    checkpoint: bool = False,
    verbose: bool = False,
) -> list[RunResult]:
    """Train every seed of ``spec`` in one batched run.

    Mirrors :func:`~repro.engine.runner.run_one` cell-for-cell: streams
    and methods are built exactly as the serial path builds them, the
    whole run executes under the profile's dtype policy, and each
    seed's :class:`RunResult` is cached (and optionally checkpointed)
    under that seed's normal cell key.  ``elapsed`` is the batched
    wall-clock divided evenly across seeds.
    """
    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds}; every seed must be distinct")
    if not liftable(spec):
        raise ValueError(
            f"method {spec.method!r} has no ensemble lift "
            f"(lifted: {', '.join(lifted_methods())}); use the process pool"
        )
    caching = use_cache and cache.cache_enabled()
    if checkpoint and not caching:
        raise ValueError(
            "checkpoint=True persists into the result cache; it cannot be "
            "combined with use_cache=False or REPRO_NO_CACHE"
        )
    specs = [replace(spec, seed=seed) for seed in seeds]
    profiles = [s.resolved_profile() for s in specs]
    mspec = METHODS.get(spec.method)
    scenario_spec = SCENARIOS.get(spec.scenario)
    # Same profiling scope as run_one: one span + phase collector per
    # batched run, with per-seed provenance rows written at the end
    # (each carries seeds=S so a shared total reads as shared).
    with default_dtype(profiles[0].dtype), telemetry.span(
        "engine.seed_batch", method=spec.method, scenario=spec.scenario, seeds=len(seeds)
    ), telemetry.collect_phases() as phases:
        with telemetry.phase("data_prep"):
            streams = [
                scenario_spec.build(profiles[i], specs[i].seed, **spec.scenario_params)
                for i in range(len(specs))
            ]
        start = time.perf_counter()
        sample_image = streams[0][0].source_train[0][0]
        in_channels = int(sample_image.shape[0])
        image_size = int(sample_image.shape[-1])
        methods = [
            mspec.factory(
                profiles[i],
                in_channels,
                image_size,
                specs[i].seed,
                dict(spec.method_overrides) or None,
            )
            for i in range(len(specs))
        ]
        lift = _LIFTS[spec.method](methods)
        scenarios = [Scenario.parse(s) for s in spec.eval_scenarios]
        per_seed_results = _run_lifted(lift, methods, streams, scenarios, verbose)
        elapsed = (time.perf_counter() - start) / len(seeds)
        cells = []
        for i, sub_spec in enumerate(specs):
            result = RunResult(
                method=sub_spec.method,
                scenario=sub_spec.scenario,
                stream_name=streams[i].name,
                seed=sub_spec.seed,
                results=per_seed_results[i],
                static_acc={},
                elapsed=elapsed,
            )
            if caching:
                key = sub_spec.cache_key()
                if checkpoint:
                    _save_checkpoint(methods[i], streams[i], key)
                cache.store(key, result, meta=spec_summary(sub_spec))
            cells.append(result)
    telemetry.registry.counter("engine.cells_trained").inc(len(seeds))
    for sub_spec in specs:
        telemetry.record_phase_provenance(
            sub_spec.cache_key(),
            phases,
            method=spec.method,
            seed=sub_spec.seed,
            seeds=len(seeds),
        )
    return cells


def _run_lifted(lift, methods, streams, scenarios, verbose: bool):
    """The ``run_continual_multi`` protocol across the ensemble."""
    num_seeds = len(methods)
    num_tasks = _check_lockstep([len(stream) for stream in streams], "stream lengths")
    results = [
        {
            scenario: ContinualResult(
                method=methods[i].name,
                stream=streams[i].name,
                scenario=scenario,
                r_matrix=RMatrix(num_tasks),
            )
            for scenario in scenarios
        }
        for i in range(num_seeds)
    ]
    for task_index in range(num_tasks):
        tasks = [stream[task_index] for stream in streams]
        # "train" here is the whole observe step; its forward/backward/
        # optimizer sub-phases accumulate separately (phases nest
        # without exclusion), so the gap between them is Python glue.
        with telemetry.phase("train"):
            lift.observe_task(tasks)
        with telemetry.phase("eval"):
            for seen_index in range(task_index + 1):
                seen = [stream.tasks[seen_index] for stream in streams]
                accuracies = lift.evaluate_tasks(seen, scenarios)
                for scenario in scenarios:
                    for i in range(num_seeds):
                        results[i][scenario].r_matrix.record(
                            task_index, seen_index, accuracies[scenario][i]
                        )
        for scenario in scenarios:
            for i in range(num_seeds):
                r_matrix = results[i][scenario].r_matrix
                results[i][scenario].history.append(
                    {"task_id": task_index, "row": r_matrix.row(task_index).copy()}
                )
                if verbose:
                    row = r_matrix.row(task_index)[: task_index + 1]
                    print(
                        f"[{methods[i].name}/{scenario.value}/seed{i}] "
                        f"task {task_index}: " + " ".join(f"{v:.3f}" for v in row)
                    )
    return results
