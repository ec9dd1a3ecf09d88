"""predict_gateway: 8-image predicts through a one-replica gateway.

A CDCL model is trained and checkpointed at a fixed seed (the served
fixture) in a fresh interpreter, which also draws the request pool from
the workload seed and computes each request's expected answer; this
process only generates load and checks answers, so its peak memory holds
no training.  The gateway subprocess runs with its fleet pinned to one
replica and the autoscaler parked.  The load comes from this process over
at most two connections:

* three open-loop Poisson steps at fixed offered rates, each request
  timed from its due time, with the generator's own lateness and the
  backlog at each step's end recorded;
* a closed-loop burst of :data:`BURST` requests from one client on each
  of the set-up fleets, with the client, gateway and replica sharing one
  CPU (``procs.one_cpu``); the median burst time, wall time less the host's
  steal from that CPU, is the workload's ``makespan_s``.

One request in four is a v1 JSON line, the rest v2 binary frames.
Every answer must equal a direct ``predict_multi`` on the same images,
computed once during set-up.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import statistics
import time
from pathlib import Path

import numpy as np

from perfbench import layers, procs
from perfbench.measure import (
    Stopwatch,
    highest_percentile,
    peak_rss_mb,
    percentile,
    union_length,
)
from perfbench.report import Report
from perfbench.training import PROFILE, SCENARIO, SETUPS

METHOD = "CDCL"
MODEL_SEED = 0
IMAGES = 8
POOL = 32
CONNECTIONS = 2
V1_EVERY = 4
#: Offered rates (requests/s) of the open-loop steps.  With two
#: connections and three processes on two cores, one replica's knee
#: sits between 75/s and 90/s.
RATES = {"low": 25.0, "mid": 50.0, "high": 75.0}
#: Share of ``--seconds`` each open-loop step runs for, and the fewest
#: requests a step sends (so its p90 has ten samples beyond it).
STEP_SHARE = 0.2
STEP_MIN = 110
BURST = 250
#: The latency limit applies to each step's p90 (the highest
#: percentile every step has ten samples beyond).
LIMIT_MS = 50.0
LIMIT_Q = 0.9
#: A step is invalid when more than 1% of its requests left the
#: generator this much later than due while a connection was free.
GEN_LATE_MS = 5.0
TIMEOUT_S = 10.0


class Request:
    """One pre-encoded predict and the answer it must get back."""

    def __init__(self, payload: dict, expected: np.ndarray, labels: np.ndarray):
        from repro import netio

        self.expected = expected
        self.labels = labels
        self.til = payload["scenario"] == "til"
        self.v2 = b"".join(bytes(part) for part in netio.build_frame(payload).parts)
        self.v1 = json.dumps({**payload, "images": payload["images"].tolist()}).encode() + b"\n"

    def correct(self, predictions) -> bool:
        return predictions is not None and np.array_equal(
            np.asarray(predictions, dtype=np.int64), self.expected
        )


def fixture(seed: int, cache_dir: Path) -> list[tuple]:
    """Train and checkpoint the served model into ``cache_dir``; the pool.

    Started through ``procs.call`` in a fresh interpreter.  Returns
    :data:`POOL` ``(payload, expected, labels)`` triples drawn from the
    workload seed, each expected answer a direct ``predict_multi``.
    """
    from repro.api import Session
    from repro.cluster.protocol import encode_spec
    from repro.continual import Scenario
    from repro.engine.registry import SCENARIOS

    session = Session(PROFILE, cache_dir=cache_dir)
    handle = session.run(METHOD).on(SCENARIO).seed(MODEL_SEED).checkpoint().start()
    spec = handle.specs[0]
    handle.release()
    rng = random.Random(seed)
    stream = SCENARIOS.get(spec.scenario).build(spec.resolved_profile(), spec.seed)
    model = session.load_model(spec)
    with session._activate():
        wire_spec = encode_spec(spec)
    pool = []
    for index in range(POOL):
        task = stream[rng.randrange(len(stream))]
        images, labels = task.target_test.arrays()
        pick = rng.sample(range(len(images)), IMAGES)
        images = np.ascontiguousarray(images[pick], dtype=np.float64)
        scenario = Scenario.TIL if index % 2 == 0 else Scenario.CIL
        expected = model.predict_multi(images, task.task_id, [scenario])[scenario]
        truth = labels[pick] + (task.class_offset if scenario is Scenario.CIL else 0)
        payload = {
            "op": "predict", "model": wire_spec, "images": images,
            "task_id": task.task_id, "scenario": scenario.value,
        }
        pool.append((payload, np.asarray(expected, dtype=np.int64), truth))
    return pool


# ----------------------------------------------------------------------
# Wire
# ----------------------------------------------------------------------
async def exchange(host: str, port: int, data: bytes):
    """Send one pre-encoded request on a fresh connection; the answer or None."""
    from repro import netio

    reader, writer = await asyncio.open_connection(host, port, limit=netio.STREAM_LIMIT)
    try:
        writer.write(data)
        await writer.drain()
        reply = await netio.WireReader(reader).read_request()
    finally:
        writer.close()
    return None if reply is None else reply.payload


async def fire(host, port, request: Request, v1: bool) -> tuple[bool, bool, float, float]:
    """(answered ok, answer correct, sent, done) for one request."""
    sent = time.perf_counter()
    try:
        answer = await asyncio.wait_for(
            exchange(host, port, request.v1 if v1 else request.v2), TIMEOUT_S
        )
    except (OSError, asyncio.TimeoutError, ValueError):
        answer = None
    done = time.perf_counter()
    ok = bool(answer and answer.get("ok"))
    return ok, ok and request.correct(answer.get("predictions")), sent, done


async def stats(host: str, port: int) -> dict:
    from repro import netio

    answer = await netio.request_async(host, port, {"op": "stats"}, timeout=TIMEOUT_S, proto=2)
    if not answer.get("ok"):
        raise RuntimeError(f"stats failed: {answer.get('error')}")
    return answer["stats"]


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def schedule(rng: random.Random, rate: float, count: int, offset: int) -> list:
    """``count`` Poisson arrivals at ``rate``: (due, pool index, v1?)."""
    out, due = [], 0.0
    for index in range(offset, offset + count):
        due += rng.expovariate(rate)
        out.append((due, rng.randrange(POOL), index % V1_EVERY == 0))
    return out


async def open_loop(host, port, pool, plan) -> list[dict]:
    """Send ``plan`` on schedule over at most :data:`CONNECTIONS` connections."""
    slots = asyncio.Semaphore(CONNECTIONS)
    records, tasks = [], []
    start = time.perf_counter()
    free_at = start

    async def one(record, request, v1):
        try:
            record["ok"], record["correct"], record["sent"], record["done"] = await fire(
                host, port, request, v1
            )
        finally:
            slots.release()

    for due, index, v1 in plan:
        due += start
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        # Lateness the generator itself caused: time since it could
        # have sent (due, or when it got back from the previous send).
        record = {
            "due": due,
            "end": start + plan[-1][0],
            "index": index,
            "late": max(0.0, time.perf_counter() - max(due, free_at)),
        }
        await slots.acquire()
        free_at = time.perf_counter()
        records.append(record)
        tasks.append(asyncio.create_task(one(record, pool[index], v1)))
    await asyncio.gather(*tasks)
    return records


async def burst(host, port, pool, pids) -> tuple[list[dict], Stopwatch]:
    """:data:`BURST` requests from one client, each sent when the last is answered.

    The burst time is then the sum of per-request round trips.  With two
    clients the replica's micro-batching lane could coalesce their
    requests or not, and ten runs of the same burst spread 29%.  ``pids``
    (client, gateway, replica) share one CPU meanwhile, so the burst
    keeps that CPU busy and its steal is what the host took from it.
    """
    records = []
    with procs.one_cpu(pids) as cpu, Stopwatch({cpu}) as watch:
        for index in range(BURST):
            ok, correct, sent, done = await fire(
                host, port, pool[index % POOL], index % V1_EVERY == 0
            )
            records.append(
                {"index": index % POOL, "ok": ok, "correct": correct, "sent": sent, "done": done}
            )
    return records, watch


# ----------------------------------------------------------------------
# Fleet
# ----------------------------------------------------------------------
class GatewayFleet:
    """A gateway subprocess whose autoscaler keeps exactly one replica."""

    def __init__(self, workdir: Path, cache_dir: Path):
        self.workdir = workdir
        workdir.mkdir(parents=True)
        self.port = procs.free_port()
        self.proc = procs.spawn(
            [
                "gateway", "run", "--host", "127.0.0.1", "--port", str(self.port),
                "--min-replicas", "1", "--max-replicas", "1", "--replication", "1",
                "--scale-up-after", "100000", "--scale-down-after", "100000",
                "--replica-cache-root", str(workdir / "replicas"),
            ],
            cache_dir,
            workdir,
        )

    def wait_ready(self, request: Request) -> bool:
        """Until the replica has joined; then whether a first predict is correct.

        The first predict pushes the checkpoint to the replica and loads
        the model there.  It is sent only once the replica has joined, so
        the time does not depend on the gateway's no-replica backoff.
        """

        async def joined():
            return (await stats("127.0.0.1", self.port))["alive"] >= 1

        procs.wait_until(lambda: asyncio.run(joined()), "the replica to join")
        _ok, correct, _sent, _done = asyncio.run(fire("127.0.0.1", self.port, request, False))
        return correct

    async def replica(self) -> tuple[str, int, int]:
        """(host, port, pid) of the one alive replica."""
        (replica,) = [r for r in (await stats("127.0.0.1", self.port))["replicas"]
                      if r["state"] == "alive"]
        host, port = replica["address"].rsplit(":", 1)
        return host, int(port), int(replica["pid"])

    def pids(self) -> list[int]:
        """This process, the gateway and its replica: every process of a burst."""
        _host, _port, replica_pid = asyncio.run(self.replica())
        return [os.getpid(), self.proc.pid, replica_pid]

    def stop(self) -> None:
        procs.stop(self.proc)


# ----------------------------------------------------------------------
def predict_gateway(seed: int, seconds: float, trace: bool, workdir: Path) -> Report:
    report = Report()
    cache_dir = workdir / "gateway-cache"
    pool = [
        Request(*entry)
        for entry in procs.call("perfbench.serving:fixture", workdir,
                                seed=seed, cache_dir=cache_dir)
    ]

    setup_times, bursts, fleet = [], [], None
    try:
        for index in range(SETUPS):
            if fleet is not None:
                fleet.stop()
            start = time.perf_counter()
            fleet = GatewayFleet(workdir / f"fleet-{index}", cache_dir)
            if not fleet.wait_ready(pool[0]):
                report.attempted = report.failed = 1
                report.problems.append("the first predict failed or differs from predict_multi")
                return report
            setup_times.append(time.perf_counter() - start)
            # One burst per fleet: the median then spans three fleets'
            # process placements rather than one.
            bursts.append(asyncio.run(burst("127.0.0.1", fleet.port, pool, fleet.pids())))
        # Traced, this process's own layers are wrapped too: they must
        # show no training work while the fleet serves.
        tracer = layers.Tracer()
        installation = layers.install(tracer) if trace else None
        try:
            tracer.enabled = trace
            outcome = asyncio.run(_drive(fleet, pool, seed, seconds, tracer if trace else None))
        finally:
            tracer.enabled = False
            if installation is not None:
                installation.remove()
    finally:
        if fleet is not None:
            fleet.stop()
    outcome["bursts"] = [watch for _records, watch in bursts]
    outcome["answers"] += [record for records, _watch in bursts for record in records]
    if trace:
        report.layers.update(tracer.layer_metrics())
    _summarize(report, outcome, trace)
    report.set_e2e(
        setup_times=setup_times,
        watches=outcome["bursts"],
        peak=outcome["peak"],
        til=_accuracy(pool, outcome["answers"], True),
        cil=_accuracy(pool, outcome["answers"], False),
    )
    return report


def _accuracy(pool, answers, til: bool) -> float:
    hits = [
        np.mean(pool[a["index"]].expected == pool[a["index"]].labels)
        for a in answers
        if pool[a["index"]].til == til
    ]
    return float(np.mean(hits))


async def _drive(fleet: GatewayFleet, pool, seed: int, seconds: float, tracer) -> dict:
    """The open-loop steps, and a traced burst when ``tracer`` is given."""
    host, port = "127.0.0.1", fleet.port
    replica_host, replica_port, replica_pid = await fleet.replica()

    async def snapshot():
        return await stats(host, port), await stats(replica_host, replica_port)

    rng = random.Random(seed)
    snapshots = [await snapshot()]
    steps = {}
    offset = 0
    for name, rate in RATES.items():
        count = max(STEP_MIN, round(rate * STEP_SHARE * seconds))
        plan = schedule(rng, rate, count, offset)
        offset += count
        records = await open_loop(host, port, pool, plan)
        steps[name] = {"rate": rate, "records": records}
        snapshots.append(await snapshot())
    # Against the untraced bursts this gives the overhead ratio; it also
    # brings the relays on this fleet past the 1000 a p99 needs.
    traced = []
    if tracer:
        traced.append(await burst(host, port, pool, [os.getpid(), fleet.proc.pid, replica_pid]))
    snapshots.append(await snapshot())
    return {
        "steps": steps,
        "traced_bursts": traced,
        "snapshots": snapshots,
        "peak": peak_rss_mb([fleet.proc.pid, replica_pid]),
        "answers": [r for step in steps.values() for r in step["records"]]
        + [record for records, _watch in traced for record in records],
    }


def _summarize(report: Report, outcome: dict, trace: bool) -> None:
    """Failures, per-step latency lines and (traced) per-layer numbers."""
    answers = outcome["answers"]
    report.attempted = len(answers)
    report.failed = sum(not a["ok"] for a in answers)
    wrong = sum(a["ok"] and not a["correct"] for a in answers)
    if wrong:
        report.problems.append(f"{wrong} served predictions differ from predict_multi")
        report.failed += wrong
    best = None
    all_late = []
    for name, step in outcome["steps"].items():
        records = step["records"]
        # A failed or refused predict counts as missing the limit.
        latency = [
            (r["done"] - r["due"]) * 1e3 if r["ok"] else float("inf") for r in records
        ]
        late = [r["late"] * 1e3 for r in records]
        all_late.extend(late)
        end = records[0]["end"] if records else 0.0
        backlog = sum(r["due"] <= end < r["done"] for r in records)
        behind = sum(value > GEN_LATE_MS for value in late)
        n = len(records)
        if behind > 0.01 * n:
            report.notes.append(
                f"step {name}: INVALID, the generator ran >{GEN_LATE_MS} ms late on "
                f"{behind}/{n} requests"
            )
            continue
        p50 = percentile(latency, 0.5)
        tail = percentile(latency, LIMIT_Q)
        p99 = percentile(latency, 0.99)
        top = highest_percentile(latency)
        report.notes.append(
            f"p50_ms.{name} = {_ms(p50)} ms; p{int(LIMIT_Q * 100)}_ms.{name} = {_ms(tail)} ms; "
            f"p99_ms.{name} = "
            + (f"{p99:.3f} ms" if p99 is not None else
               f"n/a ({n} samples; a p99 needs 1000)")
            + (f"; highest reportable p{top[0] * 100:g} = {top[1]:.3f} ms" if top else "")
            + f"; offered {step['rate']:g}/s, {n} requests, backlog at end {backlog}"
        )
        if tail is not None and tail <= LIMIT_MS and backlog <= 2 * CONNECTIONS:
            served = n / (max(r["done"] for r in records) - records[0]["due"])
            best = (step["rate"], served)
    report.notes.append(
        "max_rps_slo = "
        + (f"{best[0]:g}/s offered ({best[1]:.2f}/s served)" if best else "none of the rates")
        + f" with p{int(LIMIT_Q * 100)} <= {LIMIT_MS:g} ms and no growing backlog"
    )
    gen_late = highest_percentile(all_late)
    report.notes.append(
        f"gen.late_ms: p50 {_ms(percentile(all_late, 0.5))} ms"
        + (f", p{gen_late[0] * 100:g} {gen_late[1]:.3f} ms" if gen_late else "")
        + f" over {len(all_late)} requests; client retries 0 (busy answers count as failures)"
    )
    if trace:
        _layers(report, outcome, all_late)


def _ms(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _hist(snapshot: dict, name: str) -> dict:
    return snapshot["transport"]["telemetry"]["histograms"].get(name, {"count": 0})


def _layers(report: Report, outcome: dict, all_late) -> None:
    first_gw, first_rep = outcome["snapshots"][0]
    last_gw, last_rep = outcome["snapshots"][-1]
    relay = _hist(last_gw, "span.gateway.relay")
    server = _hist(last_rep, "span.server.predict")
    batch = _hist(last_rep, "span.serve.batch")
    # Hop times subtract means over the measured phases: means add up
    # along a request's path, medians do not.
    relay_mean = _mean_ms(_hist(first_gw, "span.gateway.relay"), relay)
    server_mean = _mean_ms(_hist(first_rep, "span.server.predict"), server)
    service = [(a["done"] - a["sent"]) * 1e3 for a in outcome["answers"] if a["ok"]]
    layers = report.layers
    layers["gateway.relay_ms.p50"] = relay.get("p50", 0.0) * 1e3
    # The registry's p99 is reported only over at least 1000 relays.
    layers["gateway.relay_ms.p99"] = relay["p99"] * 1e3 if relay["count"] >= 1000 else 0.0
    if relay["count"] < 1000:
        report.notes.append(
            f"gateway.relay_ms.p99 reads 0: {relay['count']} relays, a p99 needs 1000"
        )
    layers["replica.server_predict_ms.p50"] = server.get("p50", 0.0) * 1e3
    layers["serve.batch_ms.p50"] = batch.get("p50", 0.0) * 1e3
    layers["gateway.hop_ms.mean"] = statistics.fmean(service) - relay_mean
    layers["replica.hop_ms.mean"] = relay_mean - server_mean
    service_first = first_rep["transport"]["telemetry"]["collectors"]["serve.service"]
    service_last = last_rep["transport"]["telemetry"]["collectors"]["serve.service"]
    batches = service_last["batches"] - service_first["batches"]
    layers["serve.mean_batch"] = (
        (service_last["requests"] - service_first["requests"]) / batches if batches else 0.0
    )
    wire_first, wire_last = first_gw["wire"], last_gw["wire"]
    forwarded = last_gw["traffic"]["forwarded"] - first_gw["traffic"]["forwarded"]
    moved = (wire_last["bytes_in"] + wire_last["bytes_out"]) - (
        wire_first["bytes_in"] + wire_first["bytes_out"]
    )
    layers["netio.bytes_per_request"] = moved / forwarded if forwarded else 0.0
    lines = wire_last["lines_in"] - wire_first["lines_in"]
    frames = wire_last["frames_in"] - wire_first["frames_in"]
    layers["netio.v1_share"] = lines / (lines + frames) if lines + frames else 0.0
    layers["gateway.retries"] = float(
        last_gw["traffic"]["retries"] - first_gw["traffic"]["retries"]
    )
    layers["gen.late_ms.p90"] = percentile(all_late, 0.9) or 0.0
    traced = outcome["traced_bursts"]
    spans = [(r["sent"], r["done"]) for records, _watch in traced for r in records]
    watches = [watch for _records, watch in traced]
    layers["trace.attributed_share"] = union_length(spans) / sum(w.wall for w in watches)
    layers["trace.overhead_ratio"] = statistics.median(w.seconds for w in watches) / (
        statistics.median(w.seconds for w in outcome["bursts"])
    )
    if not relay["count"] or not server["count"]:
        report.problems.append("gateway relay or replica predict histogram recorded zero calls")
    report.notes.append(
        f"per-step means from snapshot differences: "
        + ", ".join(_step_means(outcome))
    )


def _step_means(outcome: dict) -> list[str]:
    out = []
    snaps = outcome["snapshots"]
    for (name, _step), (before, after) in zip(outcome["steps"].items(), zip(snaps, snaps[1:])):
        relay = [_hist(s[0], "span.gateway.relay") for s in (before, after)]
        server = [_hist(s[1], "span.server.predict") for s in (before, after)]
        out.append(
            f"{name}: relay {_mean_ms(*relay):.3f} ms, "
            f"replica predict {_mean_ms(*server):.3f} ms"
        )
    return out


def _mean_ms(before: dict, after: dict) -> float:
    """Mean of a cumulative histogram between two snapshots, in ms."""
    count = after.get("count", 0) - before.get("count", 0)
    if not count:
        return 0.0
    return (after["sum"] - before.get("sum", 0.0)) / count * 1e3
