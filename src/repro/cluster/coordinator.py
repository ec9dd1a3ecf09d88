"""The cluster coordinator: a work queue of RunSpec cells over TCP.

One coordinator owns the authoritative state of a sweep: every
submitted cell is a :class:`ClusterTask` that moves through ``queued ->
leased -> done`` (or ``failed`` after bounded retries).  Any number of
workers connect over TCP, lease one cell at a time, execute it via the
ordinary :func:`repro.engine.runner.run_one`, and report back; any
number of clients submit spec lists and collect finished results.  The
server is a single asyncio loop — every op handler is a synchronous
dict operation, so the queue needs no locks.

Op set (JSON lines or v2 binary frames, answered in kind; see
:mod:`repro.cluster.protocol` and :mod:`repro.netio`):

==================  =================================================
``hello``           worker registration -> ``worker_id`` + timing
                    contract + the coordinator's wire ``proto``
``lease``           pop one queued task (or ``task: null``;
                    ``shutdown: true`` once the coordinator drains)
``heartbeat``       renew the lease on a running task
``complete``        deliver a finished result (the JSON result tree,
                    on either framing); the answer may ask
                    ``want_checkpoint: true`` when the cell trained a
                    model the coordinator's cache lacks
``put_checkpoint``  upload a trained cell's checkpoint bytes (the
                    worker->coordinator direction of the gateway's
                    replica push; raw bytes over v2, base64 over v1)
``fail``            report a cell error -> requeue or give up
``submit``          client: enqueue cells -> ``job_id`` + task ids
``collect``         client: fetch results finished since last collect
``status``          client: per-job progress counters + failures
``stats``           global queue / worker / traffic / wire counters
``shutdown``        drain: workers are told to exit, the server stops
==================  =================================================

**Lease + heartbeat semantics.**  A lease lasts ``lease_timeout``
seconds; a worker heartbeats every ``lease_timeout / 3`` while
training, each beat pushing the deadline out again.  A background
sweeper requeues any leased task whose deadline passed — that is the
*only* dead-worker detector, so a killed worker costs at most one
lease timeout before its cell is back in the queue.  Leases count
attempts: a cell that expires or fails more than ``max_attempts``
times is marked ``failed`` (the error travels to the client) instead
of looping forever.  Late results are accepted: if a slow worker
completes a cell that was already requeued, the result is taken and
the duplicate execution becomes a no-op on delivery.

**Cache as the dedup/resume layer.**  Tasks are deduplicated on their
content-addressed cache key, and the coordinator consults its own disk
cache at submit time — a cell finished in a previous sweep (or by a
worker on a shared filesystem) is answered without ever entering the
queue.  Every result that travels back over the wire is written into
the coordinator's cache, so downstream table/figure code sees exactly
the store a local run would have produced.
"""

from __future__ import annotations

import asyncio
import base64
import json
import time
from collections import deque
from dataclasses import dataclass, field

from repro import netio, telemetry
from repro.cluster.protocol import decode_spec, persist_result
from repro.engine import cache
from repro.engine.runner import RunResult, result_from_tree, result_to_tree

__all__ = ["ClusterTask", "Coordinator", "CoordinatorThread"]


@dataclass
class ClusterTask:
    """One cell's lifecycle inside the queue."""

    task_id: int
    spec_payload: dict
    key: str | None  # content-addressed cache key (None when uncached)
    use_cache: bool
    checkpoint: bool
    state: str = "queued"  # queued | leased | done | failed
    attempts: int = 0
    worker_id: str | None = None
    deadline: float = 0.0
    leased_at: float = 0.0  # monotonic time of the current lease grant
    #: The decoded result (held until every interested job collected
    #: it); decoded on ``complete`` so a malformed tree is refused there.
    result: RunResult | None = None
    cached: bool = False  # the executing worker's cache served it
    error: str | None = None
    #: The submitting client's trace context ({"id", "span"}), stamped
    #: at submit and re-issued with every lease so worker-side spans
    #: (train, complete, checkpoint upload) join the client's trace.
    trace: dict | None = None


@dataclass
class _WorkerInfo:
    worker_id: str
    name: str
    last_seen: float
    task_id: int | None = None
    completed: int = 0
    failed: int = 0


@dataclass
class _Job:
    job_id: str
    task_ids: list[int] = field(default_factory=list)
    delivered: set[int] = field(default_factory=set)
    submit_id: str = ""  # idempotency token; cleared once fully delivered
    last_activity: float = 0.0  # monotonic time of the last client op


class Coordinator:
    """Queue-backed distributed execution of RunSpec cells (see module doc)."""

    def __init__(
        self,
        *,
        lease_timeout: float = 60.0,
        max_attempts: int = 3,
        check_interval: float = 1.0,
        max_inflight: int | None = 256,
        job_ttl: float = 3600.0,
    ):
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts
        self.check_interval = check_interval
        self.job_ttl = job_ttl
        # Same hardening contract as the serving front-end: refuse
        # ("busy") beyond the bound instead of queueing unboundedly.
        # There is deliberately no per-request timeout here: every op
        # handler is a synchronous dict operation that never awaits, so
        # a deadline would have nothing to preempt (unlike ServeApp,
        # whose predict genuinely awaits a model forward).
        self.gate = netio.InflightGate(max_inflight)
        self.wire = netio.WireStats()
        # Queue gate/wire counters behind the telemetry.metrics
        # namespace (read-time collectors: latest coordinator wins).
        telemetry.registry.register_collector("cluster.gate", self.gate.stats)
        telemetry.registry.register_collector("cluster.wire", self.wire.snapshot)

        self._tasks: dict[int, ClusterTask] = {}
        self._pending: deque[int] = deque()
        self._by_key: dict[tuple[str, bool], int] = {}  # (key, checkpoint) -> task_id
        self._jobs: dict[str, _Job] = {}
        self._submits: dict[str, dict] = {}  # client submit_id -> answer (idempotency)
        self._workers: dict[str, _WorkerInfo] = {}
        self._next_task = 0
        self._next_job = 0
        self._next_worker = 0
        self._requeues = 0
        self._expired_leases = 0
        self._expired_jobs = 0
        self._cache_shortcircuits = 0
        self._closing = False
        self._closed: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._sweeper: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind, start the lease sweeper; returns the actual (host, port)."""
        self._closed = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=netio.STREAM_LIMIT
        )
        self._sweeper = asyncio.get_running_loop().create_task(self._sweep_leases())
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def close(self) -> None:
        self._closing = True
        if self._sweeper is not None:
            self._sweeper.cancel()
            try:
                await self._sweeper
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._closed is not None:
            self._closed.set()

    async def serve_until_closed(self) -> None:
        """Serve until a ``shutdown`` op (or :meth:`close`) lands."""
        assert self._closed is not None, "call start() first"
        await self._closed.wait()

    async def _sweep_leases(self) -> None:
        """Requeue cells whose lease expired — the dead-worker detector.

        The same sweep prunes the worker registry: a registration that
        has not been heard from for ten lease timeouts and holds no
        task is gone for good (crashed, or replaced by its own
        re-registration), so a long-lived coordinator with churning
        workers does not accumulate `_WorkerInfo` records forever.
        """
        while True:
            await asyncio.sleep(self.check_interval)
            now = time.monotonic()
            for task in self._tasks.values():
                if task.state == "leased" and task.deadline < now:
                    self._expired_leases += 1
                    self._requeue_or_fail(
                        task,
                        f"lease expired after {self.lease_timeout:g}s "
                        f"(worker {task.worker_id} presumed dead)",
                    )
            silence = 10.0 * self.lease_timeout
            for worker_id in [
                w.worker_id
                for w in self._workers.values()
                if w.task_id is None and now - w.last_seen > silence
            ]:
                del self._workers[worker_id]
            # Job TTL: a client that aborted before its final ack (a
            # raised ClusterJobError, a Ctrl-C, a crash) leaves result
            # payloads pinned behind its undelivered tasks.  Once every
            # cell is settled and the client has been silent for
            # job_ttl, reclaim the job — the results live on in the
            # disk cache for any resubmission.
            for job in [
                job
                for job in self._jobs.values()
                if now - job.last_activity > self.job_ttl
                and all(
                    self._tasks[t].state in ("done", "failed")
                    for t in job.task_ids
                )
            ]:
                del self._jobs[job.job_id]
                if job.submit_id:
                    self._submits.pop(job.submit_id, None)
                self._expired_jobs += 1
                for task_id in set(job.task_ids):
                    task = self._tasks[task_id]
                    if task.state == "done":
                        self._maybe_release(task)

    def _requeue_or_fail(self, task: ClusterTask, reason: str) -> None:
        worker = self._workers.get(task.worker_id or "")
        if worker is not None and worker.task_id == task.task_id:
            worker.task_id = None
        failed_worker = task.worker_id
        task.worker_id = None
        if task.attempts >= self.max_attempts:
            task.state = "failed"
            task.error = f"{reason} (gave up after {task.attempts} attempts)"
            self._record_provenance(task, "cluster-failed", failed_worker, detail=task.error)
        else:
            task.state = "queued"
            self._pending.append(task.task_id)
            self._requeues += 1
            self._record_provenance(task, "cluster-requeue", failed_worker, detail=reason)

    # -- connection handling -------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        await netio.serve_connection(
            reader,
            writer,
            self._dispatch_request,
            gate=self.gate,
            # Operators must be able to ask a saturated queue what it
            # is doing; stats/ping are cheap dict reads.
            shed_exempt=netio.shed_exempt_ops("stats", "ping"),
            stats=self.wire,
        )

    async def _dispatch_request(self, request: netio.WireRequest) -> dict:
        try:
            message = request.payload
        except ValueError:
            return {"ok": False, "error": "malformed JSON"}
        return await self._dispatch(message, proto=request.proto)

    async def _dispatch(self, message: dict, *, proto: int = 1) -> dict:
        op = message.get("op")
        handler = getattr(self, f"_op_{str(op).replace('-', '_')}", None)
        if handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            return handler(message, proto)
        except Exception as error:  # a handler bug must answer, not hang
            return {"ok": False, "error": f"{type(error).__name__}: {error}"}

    # -- worker ops -----------------------------------------------------
    def _op_hello(self, message: dict, proto: int = 1) -> dict:
        self._next_worker += 1
        worker_id = f"w{self._next_worker}"
        self._workers[worker_id] = _WorkerInfo(
            worker_id=worker_id,
            name=str(message.get("name") or worker_id),
            last_seen=time.monotonic(),
        )
        return {
            "ok": True,
            "worker_id": worker_id,
            "lease_timeout": self.lease_timeout,
            "heartbeat_interval": max(self.lease_timeout / 3.0, 0.1),
            # Advertise the binary wire; v1 workers ignore the field.
            "proto": netio.WIRE_VERSION,
        }

    def _op_lease(self, message: dict, proto: int = 1) -> dict:
        worker = self._touch_worker(message)
        if worker is None:
            # A stale worker_id (coordinator restarted, worker did not)
            # must not receive a lease its heartbeats can never renew —
            # the cell would expire and retrain once per lease timeout.
            # Refusing makes the worker re-register and lease cleanly.
            return {"ok": False, "error": "unknown worker_id; re-register"}
        if self._closing:
            return {"ok": True, "task": None, "shutdown": True}
        while self._pending:
            task = self._tasks[self._pending.popleft()]
            if task.state != "queued":
                continue  # completed late or failed while waiting in the deque
            task.state = "leased"
            task.attempts += 1
            task.worker_id = worker.worker_id
            task.leased_at = time.monotonic()
            task.deadline = task.leased_at + self.lease_timeout
            worker.task_id = task.task_id
            return {
                "ok": True,
                "task": {
                    "task_id": task.task_id,
                    "spec": task.spec_payload,
                    "use_cache": task.use_cache,
                    "checkpoint": task.checkpoint,
                    "attempt": task.attempts,
                    # The submitting client's trace; old workers ignore
                    # it, new workers adopt it around execution.
                    "trace": task.trace,
                },
            }
        return {"ok": True, "task": None, "shutdown": False}

    def _op_heartbeat(self, message: dict, proto: int = 1) -> dict:
        worker = self._touch_worker(message)
        task = self._tasks.get(int(message.get("task_id", -1)))
        if (
            task is not None
            and worker is not None
            and task.state == "leased"
            and task.worker_id == worker.worker_id
        ):
            task.deadline = time.monotonic() + self.lease_timeout
            return {"ok": True, "lost": False}
        # The lease moved on (expired and requeued, or already done).
        # The worker may keep computing — a late `complete` is still
        # accepted — but it learns the coordinator no longer waits.
        return {"ok": True, "lost": True}

    def _op_complete(self, message: dict, proto: int = 1) -> dict:
        worker = self._touch_worker(message)
        task = self._tasks.get(int(message.get("task_id", -1)))
        if task is None:
            return {"ok": False, "error": "unknown task_id"}
        if worker is not None and worker.task_id == task.task_id:
            worker.task_id = None
        if task.state == "done":
            return {"ok": True, "duplicate": True}  # late double-execution
        try:
            task.result = result_from_tree(message["result"])
        except Exception as error:
            return {"ok": False, "error": f"undecodable result: {error}"}
        task.cached = bool(message.get("cached", False))
        task.state = "done"
        task.error = None
        completing_worker = (
            worker.worker_id if worker is not None else str(message.get("worker_id") or "")
        )
        if worker is not None:
            worker.completed += 1
        self._store_result(task)
        lease_seconds = (
            time.monotonic() - task.leased_at if task.leased_at else None
        )
        self._record_provenance(
            task,
            "cluster-complete",
            completing_worker or None,
            lease_seconds=lease_seconds,
            annotate=True,
        )
        answer = {"ok": True, "duplicate": False}
        if self._wants_checkpoint(task):
            # The cell trained a model on an isolated worker: ask for
            # the checkpoint bytes (the training-direction counterpart
            # of the gateway's replica push).
            answer["want_checkpoint"] = True
            answer["key"] = task.key
        return answer

    def _wants_checkpoint(self, task: ClusterTask) -> bool:
        return bool(
            task.checkpoint
            and task.key is not None
            and cache.cache_enabled()
            and not cache.checkpoint_path(task.key).exists()
        )

    def _op_put_checkpoint(self, message: dict, proto: int = 1) -> dict:
        """Install checkpoint bytes a worker uploaded for a finished cell.

        Raw bytes over the binary wire, base64 text over JSON lines.
        Idempotent: once the file exists the upload is acknowledged
        without rewriting (two workers racing the same cell is benign).
        """
        key = str(message.get("key") or "")
        if not key:
            return {"ok": False, "error": "missing key"}
        if not cache.cache_enabled():
            return {"ok": True, "installed": False, "reason": "cache disabled"}
        data = message.get("data")
        if isinstance(data, str):
            data = base64.b64decode(data.encode("ascii"))
        if not isinstance(data, (bytes, bytearray)):
            return {"ok": False, "error": "checkpoint data must be bytes or base64"}
        if cache.checkpoint_path(key).exists():
            return {"ok": True, "installed": False, "reason": "already present"}
        meta = message.get("meta")
        cache.install_checkpoint(key, bytes(data), meta=meta if isinstance(meta, dict) else None)
        task_id = self._by_key.get((key, True))
        if task_id is not None:
            self._record_provenance(
                self._tasks[task_id],
                "cluster-checkpoint-upload",
                str(message.get("worker_id") or "") or None,
                detail=f"{len(data)} bytes",
            )
        return {"ok": True, "installed": True}

    def _op_fail(self, message: dict, proto: int = 1) -> dict:
        worker = self._touch_worker(message)
        task = self._tasks.get(int(message.get("task_id", -1)))
        if task is None:
            return {"ok": False, "error": "unknown task_id"}
        if worker is not None:
            worker.failed += 1
        if task.state in ("done", "failed"):
            return {"ok": True}
        # Only the current lease holder's failure counts.  A stale
        # report — the reporter's lease expired and the cell is already
        # queued or leased to someone else — must not clobber the new
        # owner's run (or inflate attempts toward a spurious give-up).
        holds_lease = (
            task.state == "leased"
            and worker is not None
            and task.worker_id == worker.worker_id
        )
        if task.state == "queued" or not holds_lease:
            return {"ok": True, "stale": True}
        self._requeue_or_fail(task, str(message.get("error") or "worker error"))
        return {"ok": True}

    def _touch_worker(self, message: dict) -> _WorkerInfo | None:
        worker = self._workers.get(str(message.get("worker_id", "")))
        if worker is not None:
            worker.last_seen = time.monotonic()
        return worker

    def _store_result(self, task: ClusterTask) -> None:
        """Write a wire-delivered result into the coordinator's disk cache.

        This is what makes the cluster transparent to downstream code:
        after a sweep, the coordinator's store holds exactly the
        entries a local ``jobs=N`` run would have written, so tables,
        figures and repeated sweeps resume from disk as before.
        """
        if task.key is None or task.result is None or cache.contains(task.key):
            return  # nothing to persist, or a shared-fs worker already did
        persist_result(decode_spec(task.spec_payload), task.key, task.result)

    def _record_provenance(
        self,
        task: ClusterTask,
        event: str,
        worker: str | None,
        *,
        lease_seconds: float | None = None,
        detail: str | None = None,
        annotate: bool = False,
    ) -> None:
        """Record fleet-wide provenance for one task into the run store.

        The store is an observer (same contract as the cache's
        write-through sync): a broken index must never take down the
        queue, so every failure is swallowed.  ``annotate=True``
        additionally stamps the executing worker and attempt count onto
        the cell's runs row, so ``runs query`` answers "who trained
        this" without joining the provenance log.
        """
        if task.key is None:
            return  # uncached cells have no store identity
        try:
            from repro.store import RunStore, store_enabled

            if not store_enabled():
                return
            if detail is None and task.trace:
                # Link the provenance row to the submitting client's
                # trace so span rows and fleet events join on one id.
                detail = json.dumps({"trace": task.trace.get("id")})
            store = RunStore()
            store.record_provenance(
                task.key,
                event,
                worker=worker,
                attempts=task.attempts,
                lease_seconds=lease_seconds,
                detail=detail,
            )
            if annotate:
                store.annotate(task.key, worker=worker, attempts=task.attempts)
        except Exception:
            pass

    # -- client ops -----------------------------------------------------
    def _op_submit(self, message: dict, proto: int = 1) -> dict:
        # Submit is not idempotent by nature (it mints a job), so the
        # client sends a one-time submit_id and a retry after a lost
        # reply gets the *same* job back — never a duplicate orphan
        # whose cells would be retrained (or whose delivered-tracking
        # would pin result payloads in memory forever).
        submit_id = str(message.get("submit_id") or "")
        if submit_id and submit_id in self._submits:
            return self._submits[submit_id]
        use_cache = bool(message.get("use_cache", True))
        checkpoint = bool(message.get("checkpoint", False))
        caching = use_cache and cache.cache_enabled()
        # Validate and key *every* spec before enqueueing *any*: a spec
        # that fails keying (e.g. a scenario the coordinator's registry
        # lacks) must answer an error without leaving the batch's
        # earlier cells orphaned in the queue — workers would train
        # them for a job id no client ever learned.
        cells = []
        for spec_payload in message["specs"]:
            payload = dict(spec_payload)
            cells.append(
                (payload, decode_spec(payload).cache_key() if caching else None)
            )
        self._next_job += 1
        job = _Job(
            job_id=f"job{self._next_job}",
            submit_id=submit_id,
            last_activity=time.monotonic(),
        )
        self._jobs[job.job_id] = job
        # serve_connection adopted the submit's trace field (if any)
        # around dispatch, so the active context *is* the client's
        # trace; stamp it on every cell the submit minted.
        trace = telemetry.wire_context()
        for payload, key in cells:
            job.task_ids.append(
                self._enqueue(payload, key, use_cache, checkpoint, trace=trace)
            )
        answer = {"ok": True, "job_id": job.job_id, "task_ids": list(job.task_ids)}
        if submit_id:
            self._submits[submit_id] = answer
        return answer

    def _enqueue(
        self,
        spec_payload: dict,
        key: str | None,
        use_cache: bool,
        checkpoint: bool,
        *,
        trace: dict | None = None,
    ) -> int:
        if key is not None:
            # Dedup on content: a cell two jobs (or two seeds of an
            # overlapping sweep) both need runs once and is delivered
            # to every job that asked.  A done task whose payload was
            # already pruned cannot serve a new job — fall through and
            # let the disk cache answer the fresh task instead.
            existing = self._by_key.get((key, checkpoint))
            if existing is not None:
                task = self._tasks[existing]
                if task.state in ("queued", "leased") or (
                    task.state == "done" and task.result is not None
                ):
                    return existing
        self._next_task += 1
        task = ClusterTask(
            task_id=self._next_task,
            spec_payload=spec_payload,
            key=key,
            use_cache=use_cache,
            checkpoint=checkpoint,
            trace=trace,
        )
        self._tasks[task.task_id] = task
        if key is not None:
            self._by_key[(key, checkpoint)] = task.task_id
            if self._resume_from_cache(task):
                self._cache_shortcircuits += 1
                return task.task_id
        self._pending.append(task.task_id)
        return task.task_id

    def _resume_from_cache(self, task: ClusterTask) -> bool:
        """Answer a submitted cell from the coordinator's own disk cache."""
        if task.checkpoint and not cache.checkpoint_path(task.key).exists():
            return False  # same rule as run_one: result without model recomputes
        hit = cache.load(task.key)
        if hit is None:
            return False
        task.result = hit
        task.cached = True
        task.state = "done"
        return True

    def _op_status(self, message: dict, proto: int = 1) -> dict:
        job = self._jobs.get(str(message.get("job_id", "")))
        if job is None:
            return {"ok": False, "error": "unknown job_id"}
        job.last_activity = time.monotonic()
        tasks = [self._tasks[tid] for tid in job.task_ids]
        return {
            "ok": True,
            "total": len(tasks),
            "done": sum(1 for t in tasks if t.state == "done"),
            "queued": sum(1 for t in tasks if t.state == "queued"),
            "leased": sum(1 for t in tasks if t.state == "leased"),
            "failed": [
                {"task_id": t.task_id, "error": t.error}
                for t in tasks
                if t.state == "failed"
            ],
        }

    def _op_collect(self, message: dict, proto: int = 1) -> dict:
        """Return undelivered results; mark delivered only on the *next* ack.

        Collect must be safe to retry: the client may lose the reply
        (connection reset mid-read) and ask again, so handing out a
        result cannot be what consumes it.  Instead the client echoes
        the task ids it actually received as ``ack`` on its next
        collect (and sends a final ack-only collect when done) — only
        then is a result marked delivered and its payload eligible for
        release.  A retried collect with the same ack is idempotent.
        """
        job = self._jobs.get(str(message.get("job_id", "")))
        if job is None:
            return {"ok": False, "error": "unknown job_id"}
        job.last_activity = time.monotonic()
        for task_id in message.get("ack") or ():
            task_id = int(task_id)
            if task_id in job.task_ids and task_id not in job.delivered:
                job.delivered.add(task_id)
                self._maybe_release(self._tasks[task_id])
        if job.submit_id and job.delivered.issuperset(job.task_ids):
            # Fully delivered: the submit retry window (seconds) is
            # long past, so the idempotency record is dead weight.
            self._submits.pop(job.submit_id, None)
            job.submit_id = ""
        fresh = []
        emitted = set()  # task_ids may repeat (dedup'd specs in one job)
        for task_id in job.task_ids:
            task = self._tasks[task_id]
            if (
                task.state == "done"
                and task_id not in job.delivered
                and task_id not in emitted
            ):
                emitted.add(task_id)
                fresh.append(
                    {
                        "task_id": task_id,
                        "result": result_to_tree(task.result),
                        "cached": task.cached,
                    }
                )
        return {"ok": True, "results": fresh}

    def _maybe_release(self, task: ClusterTask) -> None:
        """Free a result payload once every interested job collected it.

        A long-lived coordinator serves many sweeps; the decoded
        results (NumPy accuracy matrices and histories) are the only
        heavyweight per-task state, and the same data is already
        persisted in the disk cache (which answers any *future* job
        that resubmits the cell).  Task and job skeletons stay for
        status/stats bookkeeping — they are a few counters each.
        """
        if any(
            task.task_id in job.task_ids and task.task_id not in job.delivered
            for job in self._jobs.values()
        ):
            return
        task.result = None

    # -- observability / lifecycle ops ---------------------------------
    def _op_stats(self, message: dict, proto: int = 1) -> dict:
        states: dict[str, int] = {}
        for task in self._tasks.values():
            states[task.state] = states.get(task.state, 0) + 1
        now = time.monotonic()
        # Shared transport assembly; the sibling "wire" key predates it
        # and is kept for older tooling that reads stats["wire"].
        transport = netio.stats_payload(self.gate, self.wire)
        return {
            "ok": True,
            "stats": {
                "tasks": {"total": len(self._tasks), **states},
                "jobs": len(self._jobs),
                "workers": [
                    {
                        "worker_id": w.worker_id,
                        "name": w.name,
                        "task_id": w.task_id,
                        "completed": w.completed,
                        "failed": w.failed,
                        "idle_seconds": now - w.last_seen,
                    }
                    for w in self._workers.values()
                ],
                "requeues": self._requeues,
                "expired_leases": self._expired_leases,
                "expired_jobs": self._expired_jobs,
                "cache_shortcircuits": self._cache_shortcircuits,
                "transport": transport,
                "wire": transport["wire"],
            },
        }

    def _op_ping(self, message: dict, proto: int = 1) -> dict:
        return {
            "ok": True,
            "service": "repro-cluster-coordinator",
            "proto": netio.WIRE_VERSION,
        }

    def _op_shutdown(self, message: dict, proto: int = 1) -> dict:
        self._closing = True
        # Let the response flush before the server goes away; workers
        # polling after this see {"shutdown": true} until the socket
        # closes, then exit on connection failure either way.
        assert self._closed is not None
        asyncio.get_running_loop().call_later(0.05, self._closed.set)
        return {"ok": True}


class CoordinatorThread:
    """A coordinator running on a background thread (tests, smoke, notebooks).

    ``with CoordinatorThread() as (host, port): ...`` — the event loop
    lives on a daemon thread; leaving the block closes the server.  The
    production entry point is ``repro-experiments cluster-coordinator``
    (one process, foreground); this helper exists so an in-process
    client can own a private queue without shelling out.
    """

    def __init__(self, **coordinator_kwargs):
        self.coordinator = Coordinator(**coordinator_kwargs)
        self.host: str | None = None
        self.port: int | None = None
        self._thread = None
        self._ready = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._startup_error: BaseException | None = None

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        import threading

        self._ready = threading.Event()

        async def main() -> None:
            try:
                self._loop = asyncio.get_running_loop()
                self.host, self.port = await self.coordinator.start(host, port)
            except BaseException as error:
                self._startup_error = error
                self._ready.set()
                raise
            self._ready.set()
            await self.coordinator.serve_until_closed()
            await self.coordinator.close()

        self._thread = threading.Thread(
            target=lambda: asyncio.run(main()), name="cluster-coordinator", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise RuntimeError(
                f"coordinator failed to start: {self._startup_error}"
            ) from self._startup_error
        return self.host, self.port

    def stop(self, timeout: float = 5.0) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            closed = self.coordinator._closed
            if closed is not None:
                self._loop.call_soon_threadsafe(closed.set)
            self._thread.join(timeout)

    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
