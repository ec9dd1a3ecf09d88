#!/usr/bin/env python
"""End-to-end smoke of the cluster stack — CI's ``cluster-smoke`` step.

The full distributed loop, with *real* process isolation at every
seam (client, coordinator and workers each own a private cache
directory, so nothing can pass by accident over a shared filesystem):

1. a serial baseline: one :class:`repro.api.Session` runs a small
   multi-seed sweep locally into its own cache directory;
2. a coordinator subprocess starts via the real CLI
   (``repro-experiments cluster-coordinator``) with a fresh cache, and
   ``--workers`` (default 2) worker subprocesses join it
   (``repro-experiments cluster-worker``), each with a private cache —
   every result must travel back over the wire;
3. the same sweep runs through ``Session(executor="cluster://...")``
   in this process (its own third cache) and is checked
   **bitwise-equal** to the serial baseline, per seed and per
   protocol — distribution must be invisible to the science;
4. the caches are audited: the client's holds every cell (delivery
   persisted locally) and — separately — the *coordinator's* holds
   every cell too, which only its own wire-to-disk hand-off can
   explain; queue counters are checked for a clean run.

Exit codes: 0 ok, 1 an assertion failed, 2 infrastructure error.
"""

from __future__ import annotations

import argparse
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Small enough to train in seconds, big enough to be a real sweep.
PROFILE_OVERRIDES = dict(
    samples_per_class=6, test_samples_per_class=8, epochs=2, warmup_epochs=1
)


def run_sweep(session, args):
    spec = session.spec(
        args.method, args.scenario, profile_overrides=dict(PROFILE_OVERRIDES)
    )
    return spec, session.sweep(spec, range(args.seeds))


def values(result):
    """The per-seed metric lists of a MultiSeedResult, protocol-keyed."""
    return {
        f"{metric}/{scenario.value}": list(stats.values)
        for metric, stats_by_scenario in (("acc", result.acc), ("fgt", result.fgt))
        for scenario, stats in stats_by_scenario.items()
    }


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def spawn(command_args, cache_dir: Path) -> subprocess.Popen:
    """A repro-experiments subprocess with its own private cache."""
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *command_args], env=env
    )


def cells_on_disk(directory: Path, spec, seeds: int) -> list[int]:
    """Which seeds of ``spec`` have a cached result under ``directory``."""
    from dataclasses import replace

    from repro.engine import cache

    os.environ["REPRO_CACHE_DIR"] = str(directory)
    return [seed for seed in range(seeds) if cache.contains(replace(spec, seed=seed).cache_key())]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=4)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--method", default="CDCL")
    parser.add_argument("--scenario", default="digits/mnist->usps")
    parser.add_argument(
        "--startup-timeout", type=float, default=60.0,
        help="how long to wait for the coordinator and workers to come up",
    )
    args = parser.parse_args()

    from repro.api import Session
    from repro.cluster import ClusterClient, format_address

    base = Path(tempfile.mkdtemp(prefix="cluster-smoke-"))
    print(f"scratch caches under {base}")

    print(f"1) serial baseline: {args.method} x {args.seeds} seeds ...")
    os.environ["REPRO_CACHE_DIR"] = str(base / "serial-cache")
    start = time.perf_counter()
    spec, serial = run_sweep(Session(profile="smoke"), args)
    print(f"   done in {time.perf_counter() - start:.1f}s")

    port = free_port()
    address = format_address("127.0.0.1", port)
    coordinator_cache = base / "coordinator-cache"
    print(f"2) coordinator subprocess at {address}; "
          f"{args.workers} worker subprocesses, all with private caches ...")
    procs = [
        spawn(
            ["cluster-coordinator", "--host", "127.0.0.1", "--port", str(port)],
            coordinator_cache,
        )
    ]
    client = ClusterClient(address, request_timeout=10.0)
    deadline = time.monotonic() + args.startup_timeout
    while True:
        try:
            client.ping()  # retries refused connects internally
            break
        except Exception:
            if time.monotonic() > deadline:
                procs[0].terminate()
                print("FAIL: coordinator never came up")
                return 2
            time.sleep(0.2)
    for index in range(args.workers):
        procs.append(
            spawn(
                [
                    "cluster-worker",
                    "--coordinator",
                    f"127.0.0.1:{port}",
                    "--name",
                    f"smoke-worker-{index}",
                    "--poll-interval",
                    "0.1",
                ],
                base / f"worker-{index}-cache",
            )
        )
    deadline = time.monotonic() + args.startup_timeout
    while len(client.stats()["workers"]) < args.workers:
        if time.monotonic() > deadline:
            for proc in procs:
                proc.terminate()
            print("FAIL: workers never registered")
            return 2
        time.sleep(0.2)

    # The *client* gets its own third cache: hits cannot mask the wire,
    # and anything in the coordinator's cache got there via its own
    # wire-to-disk hand-off, not via a store shared with this process.
    os.environ["REPRO_CACHE_DIR"] = str(base / "client-cache")
    print(f"3) the same sweep through Session(executor={address!r}) ...")
    start = time.perf_counter()
    _spec, clustered = run_sweep(Session(profile="smoke", executor=address), args)
    elapsed = time.perf_counter() - start
    stats = client.stats()
    client.shutdown()
    for proc in procs:
        proc.wait(timeout=30)
    print(
        f"   done in {elapsed:.1f}s; queue: {stats['tasks']}, "
        f"requeues={stats['requeues']}"
    )
    for worker in stats["workers"]:
        print(f"   {worker['name']}: {worker['completed']} cell(s)")

    print("4) bitwise equality serial vs cluster ...")
    ours, theirs = values(clustered), values(serial)
    if ours != theirs:
        print(f"FAIL: aggregates differ\n  cluster: {ours}\n  serial : {theirs}")
        return 1
    print(f"   ok: {len(ours)} metric series identical across {args.seeds} seeds")

    for label, directory in (
        ("client", base / "client-cache"),
        ("coordinator", coordinator_cache),
    ):
        have = cells_on_disk(directory, spec, args.seeds)
        if len(have) != args.seeds:
            print(
                f"FAIL: {label} cache holds cells for seeds {have}, "
                f"expected all of 0..{args.seeds - 1}"
            )
            return 1
    print("   ok: every wire-delivered cell landed in the client AND "
          "coordinator caches")

    executed = sum(worker["completed"] for worker in stats["workers"])
    if stats["tasks"].get("done") != args.seeds or executed != args.seeds:
        print(
            f"FAIL: queue accounting off (done={stats['tasks'].get('done')}, "
            f"worker executions={executed}, expected {args.seeds})"
        )
        return 1
    print("   ok: queue accounting clean (all cells done, all remote)")
    print("cluster smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
