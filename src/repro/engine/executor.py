"""Parallel execution: spec fan-out and multi-seed aggregation.

Seeds are embarrassingly parallel — every :class:`RunSpec` cell seeds
its own stream sampling and parameter init — so this module fans them
out over a :class:`concurrent.futures.ProcessPoolExecutor`.  Workers
write finished cells into the shared disk cache, so a crashed or
interrupted sweep resumes where it stopped and a repeated invocation
costs only the cache reads.

Determinism: results are keyed by the spec alone, never by worker
identity or completion order, so ``jobs=N`` is seed-for-seed identical
to the serial run.  :func:`derive_seeds` gives a deterministic base ->
per-run seed expansion (``numpy.random.SeedSequence``) for callers that
want *n* statistically independent repetitions from one base seed.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro import telemetry
from repro.continual import ContinualResult, Scenario
from repro.engine import cache
from repro.engine.runner import RunResult, RunSpec, run_one

__all__ = [
    "SeedStatistics",
    "MultiSeedResult",
    "derive_seeds",
    "map_jobs",
    "resolve_cache_hits",
    "run_specs",
    "run_seed_cells",
    "run_seed_sweep",
]


@dataclass
class SeedStatistics:
    """Mean/std/raw values of one metric across seeds."""

    values: list[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def std(self) -> float:
        return float(np.std(self.values)) if self.values else float("nan")

    @property
    def n(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return f"{self.mean:.4f} +/- {self.std:.4f} (n={self.n})"


@dataclass
class MultiSeedResult:
    """ACC/FGT statistics per scenario over a set of seeds."""

    method: str
    stream: str
    seeds: tuple[int, ...]
    acc: dict[Scenario, SeedStatistics] = field(default_factory=dict)
    fgt: dict[Scenario, SeedStatistics] = field(default_factory=dict)
    runs: list[dict[Scenario, ContinualResult]] = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "method": self.method,
            "stream": self.stream,
            "seeds": list(self.seeds),
            **{
                f"acc_{s.value}": (stat.mean, stat.std)
                for s, stat in self.acc.items()
            },
            **{
                f"fgt_{s.value}": (stat.mean, stat.std)
                for s, stat in self.fgt.items()
            },
        }


def derive_seeds(base_seed: int, count: int) -> tuple[int, ...]:
    """Expand one base seed into ``count`` independent 32-bit seeds.

    Uses :class:`numpy.random.SeedSequence`, so the expansion is stable
    across processes and sessions — seed ``i`` of base ``b`` is the same
    everywhere, which keeps parallel sweeps cache-compatible with serial
    ones.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    return tuple(int(s) for s in np.random.SeedSequence(base_seed).generate_state(count))


def _call_job(args):
    fn, item = args
    try:
        return fn(item)
    finally:
        # Pool workers are long-lived (one per sweep, many cells each);
        # dropping the im2col workspaces between cells keeps a worker's
        # resident set at one cell's working set instead of the union of
        # every shape it ever trained.
        from repro.autograd import clear_workspaces

        clear_workspaces()


def map_jobs(fn, items, jobs: int = 1, on_result=None) -> list:
    """Map ``fn`` over ``items``, in-process or via a process pool.

    ``fn`` and each item must be picklable when ``jobs > 1`` (plain
    module-level functions and dataclasses are).  Results come back in
    input order regardless of completion order.  ``on_result(index,
    item, result)`` is invoked in the parent as each result is consumed
    (input order), so callers can report progress without touching the
    worker processes.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        results = []
        for index, item in enumerate(items):
            result = fn(item)
            if on_result is not None:
                on_result(index, item, result)
            results.append(result)
        return results
    # Workers must inherit the parent's registries (scenarios/methods
    # registered at runtime) and caller-supplied factories; only the
    # fork start method carries that state, so request it explicitly
    # rather than relying on the platform default (forkserver from
    # Python 3.14 on Linux, spawn on macOS/Windows).
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else None)
    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items)), mp_context=context
    ) as pool:
        results = []
        for index, result in enumerate(pool.map(_call_job, [(fn, item) for item in items])):
            if on_result is not None:
                on_result(index, items[index], result)
            results.append(result)
        return results


def _run_spec_job(args) -> RunResult:
    spec, use_cache, checkpoint, verbose = args
    return run_one(spec, use_cache=use_cache, checkpoint=checkpoint, verbose=verbose)


def resolve_cache_hits(
    specs, *, use_cache: bool = True, checkpoint: bool = False, progress=None
) -> tuple[list[RunResult | None], list[tuple[int, RunSpec]]]:
    """Resolve cells already on disk before dispatching the rest.

    The one copy of the executor's hit rule, shared by the local pool
    and the cluster client (so the two backends can never drift):
    a disk read is far cheaper than shipping the spec anywhere, and —
    same rule as :func:`~repro.engine.runner.run_one` — a
    required-but-missing checkpoint means the cell must re-run, so
    the stale result's read is skipped entirely.  Returns ``(results,
    pending)``: a full-length list with hits filled in (``None``
    placeholders elsewhere) and the ``(index, spec)`` pairs still to
    execute.  ``progress(index, spec, hit)`` fires per hit.
    """
    specs = list(specs)
    results: list[RunResult | None] = [None] * len(specs)
    pending: list[tuple[int, RunSpec]] = []
    for index, spec in enumerate(specs):
        if use_cache and cache.cache_enabled():
            key = spec.cache_key()
            if not checkpoint or cache.checkpoint_path(key).exists():
                hit = cache.load(key)
                if hit is not None:
                    telemetry.registry.counter("engine.cache_hits").inc()
                    results[index] = hit
                    if progress is not None:
                        progress(index, spec, hit)
                    continue
        pending.append((index, spec))
    return results, pending


def run_specs(
    specs,
    *,
    jobs: int = 1,
    use_cache: bool = True,
    checkpoint: bool = False,
    verbose: bool = False,
    progress=None,
    cluster: str | None = None,
) -> list[RunResult]:
    """Execute many cells, fanning uncached work over ``jobs`` processes.

    Cache hits are resolved in the parent first (a disk read is far
    cheaper than shipping the spec to a worker); only misses are
    dispatched.  With ``checkpoint=True`` every worker persists its
    trained model (atomic writes keep concurrent workers race-safe),
    and a hit without a checkpoint on disk counts as a miss.

    ``progress(index, spec, result)`` is called in the parent as each
    cell's result becomes available (hits immediately, computed cells
    as the pool yields them) — the hook :class:`repro.api.Session`
    turns into its progress events.

    ``cluster`` (a ``cluster://host:port`` coordinator address) swaps
    the local process pool for the queue-backed remote worker pool of
    :mod:`repro.cluster`: same cells, same cache short-circuit, same
    progress reporting, results in input order — ``jobs`` is ignored
    because parallelism is then however many workers are attached.
    """
    specs = list(specs)
    if cluster is not None:
        from repro.cluster.client import run_specs_via_cluster

        return run_specs_via_cluster(
            specs,
            cluster,
            use_cache=use_cache,
            checkpoint=checkpoint,
            progress=progress,
        )
    if jobs <= 1:
        results = []
        for index, spec in enumerate(specs):
            result = run_one(
                spec, use_cache=use_cache, checkpoint=checkpoint, verbose=verbose
            )
            if progress is not None:
                progress(index, spec, result)
            results.append(result)
        return results
    results, pending = resolve_cache_hits(
        specs, use_cache=use_cache, checkpoint=checkpoint, progress=progress
    )
    if pending:

        def _on_result(position, _args, result):
            index, spec = pending[position]
            results[index] = result
            if progress is not None:
                progress(index, spec, result)

        map_jobs(
            _run_spec_job,
            [(spec, use_cache, checkpoint, verbose) for _index, spec in pending],
            jobs=jobs,
            on_result=_on_result,
        )
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def run_seed_cells(
    spec: RunSpec,
    seeds,
    *,
    jobs: int = 1,
    use_cache: bool = True,
    checkpoint: bool = False,
    batched: bool | None = None,
    verbose: bool = False,
    progress=None,
    cluster: str | None = None,
) -> list[RunResult]:
    """Execute one spec across many seeds, batched or fanned out.

    ``batched=True`` folds the uncached seeds into a single ensemble-axis
    run (:func:`~repro.engine.seed_batch.run_seed_batch`) — one tensor
    program training all seeds at once — when the method supports the
    lift, and transparently falls back to the process pool when it does
    not.  ``batched=None`` (the default) auto-selects: batch whenever
    the spec is liftable, the run is local, and at least two seeds miss
    the cache.  ``batched=False`` always uses the classic per-seed path.

    Either way every seed's result lands under its normal per-seed cell
    key, so batched and per-process sweeps share the cache in both
    directions — warm seeds short-circuit here and only the misses are
    (re)computed, batched together when possible.
    """
    from repro.engine.seed_batch import liftable, run_seed_batch

    seeds = tuple(int(s) for s in seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"duplicate seeds in {seeds}; every seed must be distinct")
    if checkpoint and not (use_cache and cache.cache_enabled()):
        raise ValueError(
            "checkpoint=True persists into the result cache; it cannot be "
            "combined with use_cache=False or REPRO_NO_CACHE"
        )
    specs = [replace(spec, seed=seed) for seed in seeds]
    lift_ok = cluster is None and liftable(spec)
    if batched is False or (batched is None and (not lift_ok or jobs > 1)):
        # Auto mode defers to an explicit jobs=N fan-out request.
        batch_pending = False
    elif batched and not lift_ok:
        # Explicit request for an unliftable method (or a cluster run):
        # honour the sweep, not the flag — fall back transparently.
        batch_pending = False
    else:
        batch_pending = True
    if not batch_pending:
        return run_specs(
            specs,
            jobs=jobs,
            use_cache=use_cache,
            checkpoint=checkpoint,
            verbose=verbose,
            progress=progress,
            cluster=cluster,
        )
    results, pending = resolve_cache_hits(
        specs, use_cache=use_cache, checkpoint=checkpoint, progress=progress
    )
    if pending:
        if batched is None and len(pending) < 2:
            # Auto mode: a single miss gains nothing from the ensemble
            # axis; run it down the classic path.
            for index, sub_spec in pending:
                result = run_one(
                    sub_spec, use_cache=use_cache, checkpoint=checkpoint, verbose=verbose
                )
                results[index] = result
                if progress is not None:
                    progress(index, sub_spec, result)
        else:
            cells = run_seed_batch(
                spec,
                [sub_spec.seed for _index, sub_spec in pending],
                use_cache=use_cache,
                checkpoint=checkpoint,
                verbose=verbose,
            )
            for (index, sub_spec), cell in zip(pending, cells):
                results[index] = cell
                if progress is not None:
                    progress(index, sub_spec, cell)
    assert all(r is not None for r in results)
    return results  # type: ignore[return-value]


def run_seed_sweep(
    spec: RunSpec,
    seeds,
    *,
    jobs: int = 1,
    use_cache: bool = True,
    checkpoint: bool = False,
    batched: bool | None = None,
    keep_runs: bool = False,
    verbose: bool = False,
    progress=None,
    cluster: str | None = None,
) -> MultiSeedResult:
    """Repeat one cell across seeds and aggregate mean/std statistics.

    The engine-level replacement for the old serial loop in
    ``experiments/multiseed.py``: each seed is an independent cached
    cell, executed ``jobs`` at a time — leased out to the remote worker
    pool when ``cluster`` names a coordinator, or folded into one
    ensemble-axis tensor program under ``batched`` (see
    :func:`run_seed_cells` for the selection rules).
    """
    cells = run_seed_cells(
        spec,
        seeds,
        jobs=jobs,
        use_cache=use_cache,
        checkpoint=checkpoint,
        batched=batched,
        verbose=verbose,
        progress=progress,
        cluster=cluster,
    )
    seeds = tuple(int(s) for s in seeds)
    scenarios = [Scenario.parse(s) for s in spec.eval_scenarios]
    result = MultiSeedResult(
        method=spec.method,
        stream=cells[0].stream_name,
        seeds=seeds,
        acc={s: SeedStatistics() for s in scenarios},
        fgt={s: SeedStatistics() for s in scenarios},
    )
    for cell in cells:
        for scenario in scenarios:
            if cell.is_static:
                # Static methods (TVT) report one joint-training accuracy
                # per scenario and, having no task sequence, no forgetting.
                result.acc[scenario].values.append(cell.static_acc[scenario])
                result.fgt[scenario].values.append(0.0)
            else:
                result.acc[scenario].values.append(cell.results[scenario].acc)
                result.fgt[scenario].values.append(cell.results[scenario].fgt)
        if keep_runs:
            result.runs.append(cell.results)
    return result
