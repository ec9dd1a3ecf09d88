"""The three training workloads: table_column, seed_sweep, cluster_sweep.

Each trains real cells of the paper's protocol at the ``smoke`` profile
into fresh caches and checks every trained cell's TIL/CIL R-matrix
against the solo path (one ``run_one`` per cell, its own fresh cache)
for the same (method, scenario, seed).  The single-process workloads
train in a fresh interpreter per unit (:func:`unit`), so every unit is
cold and its peak memory is its own.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from perfbench import layers, procs
from perfbench.measure import Stopwatch, peak_rss_mb, union_length
from perfbench.report import Report

SCENARIO = "digits/mnist->usps"
PROFILE = "smoke"
SWEEP_METHODS = ("CDCL", "DER")
SWEEP_SEEDS = 4
WORKERS = 2
#: Fleets set up per run (cluster_sweep, predict_gateway); the median
#: set-up time is reported.
SETUPS = 3
#: Fresh interpreters timed per run as the set-up of the single-process
#: workloads; the median is reported.  Each takes under a second, so
#: more of them cost little and steady the median.
PROBES = 7

#: Boundaries each workload must exercise.  A zero-call boundary fails
#: the traced run: its wrapper was bypassed, or the layer went idle.
REQUIRED = {
    "table_column": (
        "autograd.backward", "autograd.conv2d", "autograd.max_pool2d", "autograd.tensors",
        "nn.forward", "optim.step", "core.pseudo_label", "data.build",
        "continual.observe_task", "continual.eval", "engine.cache.store", "store.sync",
    ),
    "seed_sweep": (
        "autograd.backward", "autograd.conv2d", "autograd.tensors", "nn.forward",
        "data.build", "engine.cache.store", "store.sync", "engine.seed_batch.cells",
    ),
    "cluster_sweep": (
        "autograd.backward", "autograd.conv2d", "autograd.tensors", "nn.forward",
        "optim.step", "data.build", "continual.observe_task", "continual.eval",
        "engine.cache.store",
    ),
}

#: What a fresh interpreter does before it can take a cell: import the
#: public API, open a session on an empty cache and its run store, and
#: resolve the cells.
READY_PROBE = (
    "from repro.api import Session\n"
    "s = Session({profile!r})\n"
    "s.cache_stats(); s.store()\n"
    "[s.spec(m, {scenario!r}) for m in s.methods.names()]\n"
)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def sweep_seeds(seed: int) -> list[int]:
    """The sweep's cell seeds, drawn from the workload seed."""
    return sorted(random.Random(seed).sample(range(1, 1_000_000), SWEEP_SEEDS))


def sweep_specs(session, seed: int) -> list:
    return [
        session.spec(method, SCENARIO, seed=cell_seed)
        for method in SWEEP_METHODS
        for cell_seed in sweep_seeds(seed)
    ]


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def summary(cell) -> dict:
    """What the checks compare of a trained cell: plain, picklable values."""
    from repro.continual import Scenario

    if cell.is_static:
        matrices = {s.value: np.asarray([cell.static_acc[s]]) for s in cell.static_acc}
        acc = {s: cell.static_acc[s] for s in (Scenario.TIL, Scenario.CIL)}
    else:
        matrices = {s.value: cell.results[s].r_matrix.values for s in cell.results}
        acc = {s: cell.results[s].acc for s in (Scenario.TIL, Scenario.CIL)}
    return {
        "method": cell.method, "seed": cell.seed, "matrices": matrices,
        "til": acc[Scenario.TIL], "cil": acc[Scenario.CIL],
    }


def same_cell(a: dict, b: dict) -> bool:
    """Same cell, TIL/CIL R-matrices (or static accuracies) equal, NaN-aware."""
    left, right = a["matrices"], b["matrices"]
    return (a["method"], a["seed"]) == (b["method"], b["seed"]) and (
        left.keys() == right.keys()
        and all(np.array_equal(left[k], right[k], equal_nan=True) for k in left)
    )


def check_cells(report: Report, got, expected, what: str) -> None:
    """Record every cell summary in ``got`` that differs from ``expected``."""
    if len(got) != len(expected):
        report.problems.append(f"{what}: {len(got)} cells returned, {len(expected)} expected")
        report.failed += abs(len(got) - len(expected))
    for cell, reference in zip(got, expected):
        if not same_cell(cell, reference):
            report.problems.append(
                f"{what}: {cell['method']} seed {cell['seed']} differs from the solo path"
            )
            report.failed += 1


def acc_means(cells) -> tuple[float, float]:
    """Mean TIL and CIL accuracy over cell summaries."""
    return (
        statistics.fmean(c["til"] for c in cells),
        statistics.fmean(c["cil"] for c in cells),
    )


def solo_reference(specs, cache_dir: Path) -> list[dict]:
    """The solo path: a plain ``Session.execute`` runs ``run_one`` per cell."""
    from repro.api import Session

    return [summary(cell) for cell in Session(PROFILE, cache_dir=cache_dir).execute(specs)]


def source_key() -> str:
    """Digest of the program's sources (``src/repro/**/*.py``)."""
    digest = hashlib.sha256()
    src = procs.ROOT / "src" / "repro"
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def sweep_reference(specs, workdir: Path) -> list[dict]:
    """Solo-path results of the sweep cells, kept across runs of the same sources.

    ``seed_sweep`` and ``cluster_sweep`` check the same cells, so a run
    reuses what an earlier run trained for the same (method, scenario,
    seed) through the engine's content-addressed cache.  The cache is
    keyed by :func:`source_key`: each version of the program is checked
    against its own solo path, never against another version's.
    """
    return solo_reference(specs, workdir.parent / f"solo-reference-{source_key()}")


# ----------------------------------------------------------------------
# Set-up and registry numbers
# ----------------------------------------------------------------------
def probe_ready(workdir: Path) -> list[float]:
    """Wall times of :data:`PROBES` fresh interpreters running READY_PROBE."""
    code = READY_PROBE.format(profile=PROFILE, scenario=SCENARIO)
    times = []
    for index in range(PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            env=procs.env_for(workdir / f"probe-{index}", workdir),
            cwd=procs.ROOT,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - start)
    return times


def registry_numbers() -> dict[str, float]:
    """Cells trained and seed-batch phase seconds, from the telemetry registry."""
    from repro import telemetry

    snap = telemetry.registry.snapshot()
    out = {"cells_trained": float(snap["counters"].get("engine.cells_trained", 0))}
    for phase in ("forward", "backward", "optimizer"):
        out[phase] = float(snap["histograms"].get(f"phase.{phase}", {}).get("sum", 0.0))
    return out


def engine_layers(batch_cells: float, moved: dict) -> dict[str, float]:
    """Engine selection and seed-batch phases from ``registry_numbers`` deltas."""
    out = {
        "engine.seed_batch.cells": batch_cells,
        "engine.solo.cells": moved["cells_trained"] - batch_cells,
    }
    for phase in ("forward", "backward", "optimizer"):
        out[f"engine.seed_batch.{phase}_s"] = moved[phase]
    return out


# ----------------------------------------------------------------------
# Single-process workloads
# ----------------------------------------------------------------------
def train_column(session, seed: int) -> list:
    """One Table I column: every registered method, serially, at one seed."""
    return session.execute(column_specs(session, seed))


def column_specs(session, seed: int) -> list:
    return [session.spec(m, SCENARIO, seed=seed) for m in session.methods.names()]


def train_sweep(session, seed: int) -> list:
    """``Session.sweep`` with default auto-selection: CDCL and DER over four seeds."""
    from repro.engine import RunResult

    cells = []
    for method in SWEEP_METHODS:
        result = session.sweep(session.spec(method, SCENARIO), sweep_seeds(seed), keep_runs=True)
        for cell_seed, runs in zip(result.seeds, result.runs):
            cells.append(
                RunResult(method=method, scenario=SCENARIO, stream_name=result.stream,
                          seed=cell_seed, results=runs)
            )
    return cells


TRAIN = {"table_column": train_column, "seed_sweep": train_sweep}


def unit(workload: str, seed: int, cache_dir: Path, traced: bool) -> dict:
    """One cold unit of ``workload`` into ``cache_dir``, in this interpreter.

    Started through ``procs.call`` in a fresh interpreter.  The unit is
    single-threaded and runs on one CPU, so that CPU's steal is the time
    the host took from it.  Returns the unit's :class:`Stopwatch`, its
    cell summaries and this process's peak memory; traced, also the
    per-layer numbers.  Tracing loads every ``repro`` module before the
    clock starts, to wrap its bindings.
    """
    from repro.api import Session

    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    session = Session(PROFILE, cache_dir=cache_dir)
    tracer = layers.Tracer()
    installation = layers.install(tracer) if traced else None
    before = registry_numbers()
    try:
        tracer.enabled = traced
        with Stopwatch({cpu}) as watch:
            cells = TRAIN[workload](session, seed)
    finally:
        tracer.enabled = False
        if installation is not None:
            installation.remove()
    out = {
        "watch": watch,
        "cells": [summary(cell) for cell in cells],
        "peak": peak_rss_mb(),
    }
    if traced:
        after = registry_numbers()
        out["layers"] = {
            **tracer.layer_metrics(),
            **engine_layers(
                tracer.counts.get("engine.seed_batch.cells", 0),
                {key: after[key] - before[key] for key in after},
            ),
            "trace.attributed_share": tracer.attributed_share(watch.start, watch.end),
        }
        out["calls"] = tracer.all_calls()
    return out


def _in_process(name, seed, trace, workdir, reference) -> Report:
    """Shared body of table_column and seed_sweep.

    One cold unit in a fresh interpreter gives ``makespan_s`` and
    ``peak_rss_mb``; a traced run adds one traced unit in another fresh
    interpreter, so the overhead ratio compares two cold units.
    ``reference()`` returns the solo-path summaries to check with.
    """
    report = Report()
    setup_times = probe_ready(workdir)
    units = [
        procs.call("perfbench.training:unit", workdir,
                   workload=name, seed=seed, cache_dir=workdir / f"cache-{index}",
                   traced=bool(index))
        for index in range(2 if trace else 1)
    ]
    if trace:
        traced = units[1]
        report.layers.update(traced["layers"])
        report.layers["trace.overhead_ratio"] = (
            traced["watch"].seconds / units[0]["watch"].seconds
        )
        report.require(REQUIRED[name], traced["calls"])
    report.attempted = sum(len(u["cells"]) for u in units)
    expected = reference()
    for index, u in enumerate(units):
        check_cells(report, u["cells"], expected, f"{name} unit {index}")
    til, cil = acc_means(units[0]["cells"])
    report.set_e2e(
        setup_times=setup_times, watches=[units[0]["watch"]], peak=units[0]["peak"],
        til=til, cil=cil,
    )
    return report


def table_column(seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    """One Table I column, cold; a unit takes well under ``seconds``."""

    def reference():
        # The column runs the solo path itself, so its reference is the
        # same cells read back through the cache and run store the unit
        # wrote, with one cell (rotating with the seed) retrained from
        # scratch in a cache of its own.
        from repro.api import Session

        specs = column_specs(Session(PROFILE), seed)
        warm = solo_reference(specs, workdir / "cache-0")
        pick = seed % len(specs)
        warm[pick] = solo_reference([specs[pick]], workdir / "reference")[0]
        return warm

    return _in_process("table_column", seed, trace, workdir, reference)


def seed_sweep(seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    """Four seeds each of CDCL and DER, cold; a unit takes well under ``seconds``."""

    def reference():
        from repro.api import Session

        return sweep_reference(sweep_specs(Session(PROFILE), seed), workdir)

    return _in_process("seed_sweep", seed, trace, workdir, reference)


# ----------------------------------------------------------------------
# cluster_sweep
# ----------------------------------------------------------------------
def cluster_sweep(seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    """The seed_sweep cells, leased to a coordinator and two workers.

    Every set-up starts a fresh fleet (empty caches everywhere); the last
    two run the sweep.  In a traced run the last sweep is traced and the
    one before it is the untraced baseline of the overhead ratio.
    """
    from repro.api import Session

    report = Report()
    setup_times, sweeps = [], []
    for index in range(SETUPS):
        traced = trace and index == SETUPS - 1
        fleet = ClusterFleet(workdir / f"fleet-{index}", traced)
        try:
            start = time.perf_counter()
            fleet.start()
            setup_times.append(time.perf_counter() - start)
            if index >= SETUPS - 2:
                sweeps.append(_leased_sweep(fleet, seed, workdir / f"client-{index}", traced))
        finally:
            workers = fleet.stop()
        if traced:
            sweeps[-1]["workers"] = workers
    untraced = sweeps[:-1] if trace else sweeps
    report.attempted = sum(len(sweep["cells"]) for sweep in sweeps)
    expected = sweep_reference(sweep_specs(Session(PROFILE), seed), workdir)
    for index, sweep in enumerate(sweeps):
        check_cells(report, sweep["cells"], expected, f"cluster_sweep sweep {index}")
    for sweep in untraced:
        busy = sweep["busy"]
        report.notes.append(
            f"cluster: {busy:.3f} s of cell time on {WORKERS} workers in "
            f"{sweep['watch'].wall:.3f} s"
        )
    if trace:
        _cluster_layers(report, sweeps[-1], untraced[0]["watch"])
    til, cil = acc_means(untraced[0]["cells"])
    report.set_e2e(
        setup_times=setup_times,
        watches=[sweep["watch"] for sweep in untraced],
        peak=max(sweep["peak"] for sweep in untraced),
        til=til,
        cil=cil,
    )
    return report


def _leased_sweep(fleet, seed: int, cache_dir: Path, traced: bool) -> dict:
    """One cold ``Session.execute`` of the sweep cells through ``fleet``."""
    from repro.api import Session
    from repro.cluster import ClusterClient

    client = ClusterClient(fleet.address, request_timeout=30.0)
    before = client.stats()
    tracer = layers.Tracer()
    installation = layers.install(tracer) if traced else None
    session = Session(PROFILE, cache_dir=cache_dir, executor=fleet.address)
    specs = sweep_specs(session, seed)
    try:
        tracer.enabled = traced
        # Two workers keep both CPUs busy.
        with Stopwatch(os.sched_getaffinity(0)) as watch:
            cells = session.execute(specs)
    finally:
        tracer.enabled = False
        if installation is not None:
            installation.remove()
    return {
        "cells": [summary(cell) for cell in cells],
        "busy": sum(cell.elapsed for cell in cells),
        "watch": watch,
        "before": before,
        "after": client.stats(),
        "peak": peak_rss_mb(fleet.pids()),
        "tracer": tracer,
    }


def _cluster_layers(report: Report, sweep: dict, untraced: Stopwatch) -> None:
    """Client-side spans plus every worker's, and the coordinator's counters."""
    tracer, workers = sweep["tracer"], sweep["workers"]
    merged, calls, top = tracer.layer_metrics(), tracer.all_calls(), list(tracer.top)
    trained = {"cells_trained": 0.0, "forward": 0.0, "backward": 0.0, "optimizer": 0.0}
    for numbers in workers:
        for key, value in numbers["layers"].items():
            merged[key] = merged.get(key, 0.0) + value
        for key, value in numbers["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key in trained:
            trained[key] += numbers["registry"][key]
        top.extend(tuple(interval) for interval in numbers["top"])
    if len(workers) != WORKERS:
        report.problems.append(f"{len(workers)} of {WORKERS} workers wrote their spans")
    report.require(REQUIRED["cluster_sweep"], calls)
    # Cell ``elapsed`` times are wall times, so the shares use wall time.
    watch, busy = sweep["watch"], sweep["busy"]
    makespan = watch.wall
    before, after = sweep["before"], sweep["after"]
    report.layers.update(merged)
    report.layers.update(engine_layers(0.0, trained))
    report.layers["cluster.worker_busy_share"] = busy / (WORKERS * makespan)
    report.layers["cluster.dispatch_overhead_s"] = makespan - busy / WORKERS
    report.layers["cluster.requeues"] = float(after["requeues"] - before["requeues"])
    report.layers["cluster.result_bytes"] = float(
        after["wire"]["bytes_in"] - before["wire"]["bytes_in"]
    )
    # perf_counter is the system-wide monotonic clock, so worker spans
    # and the client's share one timeline.
    window = [(max(lo, watch.start), min(hi, watch.end)) for lo, hi in top
              if hi > watch.start and lo < watch.end]
    report.layers["trace.attributed_share"] = union_length(window) / makespan
    report.layers["trace.overhead_ratio"] = watch.seconds / untraced.seconds


class ClusterFleet:
    """A coordinator subprocess and :data:`WORKERS` worker subprocesses."""

    def __init__(self, workdir: Path, trace: bool):
        self.workdir = workdir
        self.trace = trace
        self.port = procs.free_port()
        self.address = f"cluster://127.0.0.1:{self.port}"
        self.coordinator = None
        self.workers = []

    def start(self) -> None:
        from repro.cluster import ClusterClient

        self.workdir.mkdir(parents=True)
        self.coordinator = procs.spawn(
            ["cluster-coordinator", "--host", "127.0.0.1", "--port", str(self.port)],
            self.workdir / "coordinator-cache",
            self.workdir,
        )
        for index in range(WORKERS):
            args = [
                "cluster-worker", "--coordinator", f"127.0.0.1:{self.port}",
                "--name", f"bench-worker-{index}", "--poll-interval", "0.05",
            ]
            cache_dir = self.workdir / f"worker-{index}-cache"
            if self.trace:
                self.workers.append(procs.spawn(
                    [str(Path(__file__).with_name("traced_worker.py")), *args],
                    cache_dir, self.workdir, module=False,
                    PERFBENCH_TRACE_OUT=self.workdir / f"worker-{index}-trace.json",
                ))
            else:
                self.workers.append(procs.spawn(args, cache_dir, self.workdir))
        client = ClusterClient(self.address, request_timeout=5.0)
        procs.wait_until(
            lambda: len(client.stats()["workers"]) >= WORKERS, "cluster workers to register"
        )

    def pids(self) -> list[int]:
        return [proc.pid for proc in (self.coordinator, *self.workers) if proc is not None]

    def stop(self) -> list[dict]:
        """Shut the fleet down; returns each traced worker's numbers."""
        from repro.cluster import ClusterClient

        if self.coordinator is not None and self.coordinator.poll() is None:
            try:
                ClusterClient(self.address, request_timeout=5.0).shutdown()
            except Exception:
                pass
        for proc in self.workers:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
            procs.stop(proc)
        if self.coordinator is not None:
            procs.stop(self.coordinator)
        return [
            json.loads(path.read_text())
            for path in sorted(self.workdir.glob("worker-*-trace.json"))
        ]
