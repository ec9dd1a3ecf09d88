#!/usr/bin/env python
"""End-to-end smoke of the serving gateway — CI's ``gateway-smoke`` step.

The full elastic-serving loop, with real process isolation at every
seam (the gateway subprocess owns the trained cache; every replica
subprocess gets a private, initially *empty* cache, so any served
prediction proves the wire checkpoint transport):

1. a :class:`repro.api.Session` trains **and checkpoints** a multi-model
   workload (``--models`` seeds, default 4) into the gateway's cache;
2. a gateway subprocess starts via the real CLI
   (``repro-experiments gateway run``) with an autoscaler bounded at
   ``1..--max-replicas`` and pressure scaling parked out of the way —
   the smoke drives fleet size explicitly through the ``scale`` op;
3. every model predicts through the gateway and is checked
   **bitwise-equal** against a direct ``predict_multi`` on the same
   checkpoint; replica caches are audited to hold zero trained
   ``.result.json`` entries (checkpoints arrived over the wire, nothing
   retrained);
4. a concurrent mixed-model workload is timed at 1 replica, the fleet
   scales to ``--max-replicas``, and the same workload must run at
   least ``--min-speedup`` (default 2x) faster;
5. one replica is SIGKILLed **mid-workload**: every client request must
   still succeed (instant dead-socket detection + reassignment + client
   retries), and the autoscaler must respawn the fleet back to target.

Exit codes: 0 ok, 1 an assertion failed, 2 infrastructure error.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

#: Small enough to train in seconds, big enough to be a real workload.
PROFILE_OVERRIDES = dict(
    samples_per_class=6, test_samples_per_class=16, epochs=2, warmup_epochs=1
)


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


async def raw_predict(host, port, line: bytes, *, attempts=10, base_delay=0.02):
    """One pre-framed predict with client-side busy/teardown retries.

    Pre-serializing the request lines keeps ``json.dumps`` of the image
    batches out of the timed sections — the throughput comparison must
    measure the fleet, not this process's encoder.
    """
    from repro import netio

    delays = netio.backoff_delays(attempts, base=base_delay)
    for attempt in range(attempts):
        try:
            reader, writer = await asyncio.open_connection(
                host, port, limit=netio.STREAM_LIMIT
            )
            try:
                writer.write(line)
                await writer.drain()
                raw = await reader.readline()
            finally:
                writer.close()
            if raw:
                answer = json.loads(raw)
                if answer.get("ok") or answer.get("error") != "busy":
                    return answer
        except OSError:
            pass
        try:
            await asyncio.sleep(next(delays))
        except StopIteration:
            break
    return {"ok": False, "error": f"no answer after {attempts} attempts"}


async def fire_workload(host, port, lines, count):
    """``count`` concurrent predicts round-robined across ``lines``."""
    results = await asyncio.gather(
        *(raw_predict(host, port, lines[i % len(lines)]) for i in range(count))
    )
    failed = [r for r in results if not r.get("ok")]
    return results, failed


async def wait_for(client, predicate, what, timeout=90.0):
    deadline = time.monotonic() + timeout
    while True:
        try:
            stats = await client.stats_async()
            if predicate(stats):
                return stats
        except (OSError, RuntimeError):
            stats = None
        if time.monotonic() > deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        await asyncio.sleep(0.25)


async def run(args) -> int:
    from repro.api import Session
    from repro.gateway import GatewayClient

    base = Path(tempfile.mkdtemp(prefix="gateway-smoke-"))
    gateway_cache = base / "gateway-cache"
    replica_root = base / "replica-caches"
    print(f"scratch caches under {base}")

    os.environ["REPRO_CACHE_DIR"] = str(gateway_cache)
    session = Session(profile="smoke")

    print(f"1) training + checkpointing {args.models} models ...")
    start = time.perf_counter()
    specs = []
    for seed in range(args.models):
        handle = (
            session.run(args.method)
            .on(args.scenario)
            .profile("smoke", **PROFILE_OVERRIDES)
            .seed(seed)
            .checkpoint()
            .start()
        )
        specs.append(handle.specs[0])
        handle.release()
    print(f"   done in {time.perf_counter() - start:.1f}s")

    port = free_port()
    print(f"2) gateway subprocess at 127.0.0.1:{port} "
          f"(1..{args.max_replicas} replicas, private empty caches) ...")
    gateway_proc = spawn(
        [
            "gateway", "run",
            "--host", "127.0.0.1",
            "--port", str(port),
            "--min-replicas", "1",
            "--max-replicas", str(args.max_replicas),
            # Park pressure scaling: the smoke drives fleet size via the
            # scale op so the throughput comparison is deterministic.
            "--scale-up-after", "100000",
            "--scale-down-after", "100000",
            # Deep per-replica admission: the timed workloads measure
            # queueing + compute, not busy-shed/backoff churn.
            "--replica-max-inflight", "64",
            "--replica-cache-root", str(replica_root),
        ],
        gateway_cache,
    )
    client = GatewayClient(f"127.0.0.1:{port}", session, attempts=10)
    try:
        return await check(args, session, specs, client, gateway_proc, replica_root)
    finally:
        gateway_proc.send_signal(signal.SIGINT)  # CLI path: close fleet, exit
        try:
            gateway_proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            gateway_proc.kill()


async def check(args, session, specs, client, gateway_proc, replica_root) -> int:
    from repro.continual import Scenario

    stats = await wait_for(
        client, lambda s: s["alive"] >= 1, "the first replica to join"
    )
    print(f"   up: {stats['alive']} replica(s) after "
          f"{stats['autoscaler']['spawned_total']} spawn(s)")

    print("3) bitwise equality through the gateway (cold replica caches) ...")
    lines = []
    for spec in specs:
        stream_images = sample_images(spec)
        direct = session.load_model(spec).predict_multi(
            stream_images, 0, [Scenario.TIL]
        )[Scenario.TIL]
        served = await client.predict_async(spec, stream_images, task_id=0)
        if not np.array_equal(served, direct):
            print(f"FAIL: seed {spec.seed}: "
                  f"{int((served != direct).sum())} predictions differ")
            return 1
        # Timed requests carry a slice: the throughput sections measure
        # routing + fleet compute, not megabytes of JSON per request.
        lines.append(
            json.dumps(
                {
                    "op": "predict",
                    "model": client._wire_spec(spec),
                    "images": stream_images[: args.batch].tolist(),
                    "task_id": 0,
                    "scenario": "til",
                }
            ).encode()
            + b"\n"
        )
    stats = await client.stats_async()
    pushes = stats["traffic"]["checkpoint_pushes"]
    if pushes < args.models:
        print(f"FAIL: only {pushes} checkpoint pushes for {args.models} models")
        return 1
    trained_locally = list(replica_root.rglob("*.result.json"))
    if trained_locally:
        print(f"FAIL: replica caches hold trained entries: {trained_locally}")
        return 1
    print(f"   ok: {args.models} models identical; {pushes} checkpoint "
          f"push(es); replica caches hold no trained entries")

    print(f"4) throughput: {args.requests} mixed-model predicts, "
          f"1 replica vs {args.max_replicas} ...")
    _, failed = await fire_workload(client.host, client.port, lines, args.requests)
    if failed:
        print(f"FAIL: warmup error: {failed[0].get('error')}")
        return 1
    start = time.perf_counter()
    _, failed = await fire_workload(client.host, client.port, lines, args.requests)
    single = time.perf_counter() - start
    if failed:
        print(f"FAIL: single-replica workload error: {failed[0].get('error')}")
        return 1
    print(f"   1 replica: {args.requests} predicts in {single * 1000:.0f} ms "
          f"({args.requests / single:.0f}/s)")

    await client.scale_async(args.max_replicas)
    await wait_for(
        client,
        lambda s: s["alive"] >= args.max_replicas,
        f"the fleet to reach {args.max_replicas} replicas",
    )
    # Warm the newcomers (checkpoint pushes land outside the timing).
    _, failed = await fire_workload(client.host, client.port, lines, args.requests)
    if failed:
        print(f"FAIL: scale-out warmup error: {failed[0].get('error')}")
        return 1
    start = time.perf_counter()
    _, failed = await fire_workload(client.host, client.port, lines, args.requests)
    fleet = time.perf_counter() - start
    if failed:
        print(f"FAIL: fleet workload error: {failed[0].get('error')}")
        return 1
    speedup = single / fleet
    print(f"   {args.max_replicas} replicas: {args.requests} predicts in "
          f"{fleet * 1000:.0f} ms ({args.requests / fleet:.0f}/s) "
          f"-> {speedup:.2f}x")
    # The fleet scales by process: with fewer cores than replicas (plus
    # one for gateway+client) the speedup physically cannot appear, so
    # the bar drops to "scaling out must not collapse throughput".
    cpus = os.cpu_count() or 1
    required = args.min_speedup
    if cpus < args.max_replicas + 1:
        required = 0.8 if cpus <= 2 else 1.3
        print(f"   note: {cpus} CPU(s) for a {args.max_replicas}-replica "
              f"fleet; relaxing the speedup bar to {required}x")
    if speedup < required:
        print(f"FAIL: fleet speedup {speedup:.2f}x < {required}x")
        return 1

    print("5) SIGKILL one replica mid-workload; zero client failures ...")
    stats = await client.stats_async()
    victims = [
        r for r in stats["replicas"]
        if r["state"] == "alive" and r["spawned"] and r["pid"]
    ]
    if not victims:
        print("FAIL: no spawned replica with a pid to kill")
        return 1
    victim = victims[0]
    loop = asyncio.get_running_loop()
    loop.call_later(0.05, os.kill, victim["pid"], signal.SIGKILL)
    results, failed = await fire_workload(
        client.host, client.port, lines, args.requests
    )
    if failed:
        print(f"FAIL: {len(failed)}/{len(results)} requests failed across "
              f"the kill: {failed[0].get('error')}")
        return 1
    print(f"   ok: all {len(results)} requests answered across the kill "
          f"of {victim['replica_id']} (pid {victim['pid']})")

    stats = await wait_for(
        client,
        lambda s: s["alive"] >= args.max_replicas,
        "the autoscaler to respawn the killed replica",
    )
    print(f"   ok: fleet healed to {stats['alive']} replicas "
          f"(dead={stats['dead']}, "
          f"spawned_total={stats['autoscaler']['spawned_total']})")

    print("6) telemetry snapshot over the wire (the CLI operators use) ...")
    # The same `repro-experiments telemetry snapshot --address` an
    # operator would run against the live gateway: the stats op must
    # carry the process-wide metrics registry, and it must show the
    # traffic this smoke just generated.
    probe = subprocess.run(
        [
            sys.executable, "-m", "repro.experiments",
            "telemetry", "snapshot",
            "--address", f"{client.host}:{client.port}",
            "--json",
        ],
        env=dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        ),
        capture_output=True,
        text=True,
        timeout=30,
    )
    if probe.returncode != 0:
        print(f"FAIL: telemetry snapshot exited {probe.returncode}: {probe.stderr}")
        return 1
    snapshot = json.loads(probe.stdout)
    telemetry_block = snapshot["stats"]["transport"].get("telemetry") or {}
    histograms = {
        name: h
        for name, h in (telemetry_block.get("histograms") or {}).items()
        if h.get("count")
    }
    dispatch = [name for name in histograms if name.startswith("span.server.")]
    if not dispatch:
        print(f"FAIL: no span.server.* dispatch histograms in "
              f"telemetry snapshot (have {sorted(histograms)})")
        return 1
    collectors = telemetry_block.get("collectors") or {}
    if "gateway.gate" not in collectors or "gateway.wire" not in collectors:
        print(f"FAIL: gate/wire collectors missing from telemetry "
              f"snapshot (have {sorted(collectors)})")
        return 1
    ratio = collectors["gateway.wire"].get("compressed_ratio", "absent")
    if not (ratio is None or isinstance(ratio, (int, float))):
        print(f"FAIL: compressed_ratio must be null or a number, got {ratio!r}")
        return 1
    print(f"   ok: {len(histograms)} live histograms "
          f"({', '.join(sorted(dispatch))}); gate+wire collectors present")
    print("gateway smoke: OK")
    return 0


def sample_images(spec):
    from repro.engine.registry import SCENARIOS

    stream = SCENARIOS.get(spec.scenario).build(spec.resolved_profile(), spec.seed)
    images, _labels = stream[0].target_test.arrays()
    return images


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=4, metavar="N",
                        help="distinct models (seeds) in the workload")
    parser.add_argument("--max-replicas", type=int, default=3)
    parser.add_argument("--requests", type=int, default=48, metavar="N",
                        help="concurrent predicts per timed workload")
    parser.add_argument("--batch", type=int, default=16, metavar="N",
                        help="images per timed predict request")
    parser.add_argument("--method", default="FineTune")
    parser.add_argument("--scenario", default="digits/mnist->usps")
    parser.add_argument(
        "--min-speedup", type=float, default=2.0,
        help="fail when the full fleet is below this multiple of 1 replica",
    )
    args = parser.parse_args(argv)
    if args.models < 1 or args.max_replicas < 2:
        parser.error("need --models >= 1 and --max-replicas >= 2")
    return asyncio.run(run(args))


if __name__ == "__main__":
    sys.exit(main())
