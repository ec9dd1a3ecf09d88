"""The client side of the cluster: submit cells, collect results.

:class:`ClusterClient` is a thin synchronous wrapper over the
coordinator's client ops (``submit`` / ``status`` / ``collect``);
:func:`run_specs_via_cluster` layers the executor contract on top so
:func:`repro.engine.executor.run_specs` (and therefore
:class:`repro.api.Session`) can treat ``cluster://host:port`` as just
another backend:

* local cache hits are resolved *before* anything touches the wire —
  exactly the short-circuit the process-pool path applies — so a
  resumed sweep only submits the missing cells;
* submitted cells are polled until done, each finished result is
  decoded, written into the **local** disk cache (when enabled and
  absent — on a shared filesystem the worker already wrote it), and
  reported through the same ``progress(index, spec, result)`` hook the
  local executor uses, so Session observers cannot tell remote
  completions from local ones;
* results come back in input order regardless of which worker finished
  what when, keeping cluster execution cell-for-cell identical to the
  serial run.

A cell that exhausts its retries raises :class:`ClusterJobError` with
the worker-side traceback — distributed sweeps fail loudly, never by
silently dropping cells.
"""

from __future__ import annotations

import time
import uuid
from dataclasses import dataclass, field

from repro import netio, telemetry
from repro.netio import call
from repro.cluster.protocol import encode_spec, parse_address, persist_result
from repro.engine import cache
from repro.engine.runner import RunResult, RunSpec, result_from_tree

__all__ = ["ClusterJobError", "ClusterJob", "ClusterClient", "run_specs_via_cluster"]


class ClusterJobError(RuntimeError):
    """One or more cells failed permanently (retries exhausted)."""


@dataclass
class ClusterJob:
    """A submitted spec list: its id plus the task id of every position."""

    job_id: str
    task_ids: list[int]  # aligned with the submitted specs (dedup may repeat ids)
    specs: list[RunSpec] = field(default_factory=list)


class ClusterClient:
    """Synchronous client of one coordinator."""

    def __init__(
        self,
        address: str,
        *,
        poll_interval: float = 0.25,
        request_timeout: float = 60.0,
    ):
        self.host, self.port = parse_address(address)
        self.poll_interval = poll_interval
        self.request_timeout = request_timeout
        self.proto: int | None = None  # learned lazily from a ping

    def _negotiated_proto(self) -> int:
        """The wire to speak: forced by ``REPRO_WIRE``, else probed once.

        The probe is a plain-JSON ``ping`` (safe against any
        coordinator vintage); its answer advertises the binary wire.
        Probe failures fall back to JSON for *this* call without
        pinning — the next op retries the negotiation.
        """
        if self.proto is None:
            forced = netio.wire_preference()
            if forced is not None:
                self.proto = forced
                return forced
            try:
                answer = call(
                    self.host, self.port, {"op": "ping"}, timeout=self.request_timeout
                )
            except OSError:
                return 1  # unreachable right now; the op's retry loop copes
            if not answer.get("ok"):
                return 1  # busy — do not pin a verdict off a shed answer
            self.proto = netio.preferred_proto(answer.get("proto"))
        return self.proto

    def _call(self, payload: dict) -> dict:
        # Neither a "busy" answer (the coordinator shedding load) nor a
        # transient connection error (refused connect under accept
        # pressure, a brief network blip) is a verdict on the job —
        # back off and retry, bounded by request_timeout overall,
        # instead of aborting an hours-long sweep over one round-trip.
        deadline = time.monotonic() + self.request_timeout
        last_error: OSError | None = None
        while True:
            try:
                answer = call(
                    self.host,
                    self.port,
                    payload,
                    timeout=self.request_timeout,
                    proto=self._negotiated_proto(),
                )
            except OSError as error:
                last_error = error
                if time.monotonic() >= deadline:
                    raise ClusterJobError(
                        f"coordinator {self.host}:{self.port} unreachable for "
                        f"{self.request_timeout:g}s ({last_error})"
                    ) from None
                time.sleep(self.poll_interval)
                continue
            if answer.get("ok"):
                return answer
            if answer.get("error") == "busy" and time.monotonic() < deadline:
                time.sleep(self.poll_interval)
                continue
            raise ClusterJobError(
                f"coordinator {self.host}:{self.port} refused "
                f"{payload.get('op')!r}: {answer.get('error')}"
            )

    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self._call({"op": "ping"})

    def stats(self) -> dict:
        return self._call({"op": "stats"})["stats"]

    def shutdown(self) -> None:
        """Drain the coordinator: workers exit, the server stops."""
        self._call({"op": "shutdown"})

    def submit(
        self, specs, *, use_cache: bool = True, checkpoint: bool = False
    ) -> ClusterJob:
        specs = list(specs)
        answer = self._call(
            {
                "op": "submit",
                # One-time id so a retry after a lost reply returns the
                # same job instead of minting a duplicate (submit is
                # otherwise not idempotent).
                "submit_id": uuid.uuid4().hex,
                "specs": [encode_spec(spec) for spec in specs],
                "use_cache": use_cache,
                "checkpoint": checkpoint,
            }
        )
        return ClusterJob(
            job_id=answer["job_id"],
            task_ids=[int(t) for t in answer["task_ids"]],
            specs=specs,
        )

    def status(self, job: ClusterJob) -> dict:
        return self._call({"op": "status", "job_id": job.job_id})

    def collect(self, job: ClusterJob, ack=()) -> list[tuple[int, RunResult]]:
        """Fetch undelivered results (decoded), acknowledging ``ack``.

        Collect is a safe-to-retry read: the coordinator only marks a
        result delivered (and frees its payload) when a *later* call
        acknowledges it, so a reply lost to a connection reset is
        simply fetched again.  :meth:`wait` threads the acks; direct
        callers who never ack just leave payloads resident until the
        job is re-collected or the coordinator restarts.
        """
        answer = self._call(
            {"op": "collect", "job_id": job.job_id, "ack": [int(t) for t in ack]}
        )
        collected = []
        for entry in answer["results"]:
            result = result_from_tree(entry["result"])
            result.cached = bool(entry.get("cached", False))
            collected.append((int(entry["task_id"]), result))
        return collected

    def wait(
        self,
        job: ClusterJob,
        *,
        timeout: float | None = None,
        on_result=None,
    ) -> dict[int, RunResult]:
        """Poll until every task of ``job`` is done; results by task id.

        ``on_result(task_id, result)`` fires once per task as it
        arrives.  Raises :class:`ClusterJobError` when any task failed
        permanently, or :class:`TimeoutError` past ``timeout`` seconds.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        outstanding = set(job.task_ids)
        results: dict[int, RunResult] = {}
        unacked: list[int] = []
        try:
            while outstanding:
                batch = self.collect(job, ack=unacked)
                unacked = [task_id for task_id, _result in batch]
                for task_id, result in batch:
                    if task_id not in outstanding:
                        continue  # redelivery after a lost reply; already handled
                    results[task_id] = result
                    outstanding.discard(task_id)
                    if on_result is not None:
                        on_result(task_id, result)
                if not outstanding:
                    break
                status = self.status(job)
                if status["failed"]:
                    details = "; ".join(
                        f"task {failure['task_id']}: {failure['error']}"
                        for failure in status["failed"]
                    )
                    raise ClusterJobError(
                        f"{len(status['failed'])} cell(s) failed: {details}"
                    )
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError(
                        f"cluster job {job.job_id} incomplete after {timeout:g}s "
                        f"({status['done']}/{status['total']} done, "
                        f"{status['leased']} leased, {status['queued']} queued)"
                    )
                time.sleep(self.poll_interval)
        finally:
            if unacked:
                # Flush the last acks on *every* exit path — success,
                # cell failure, timeout — so the coordinator can free
                # the delivered payloads.  Best-effort: the results are
                # already in hand, and the coordinator's job TTL sweep
                # reclaims anything a dead client leaves behind.
                try:
                    self.collect(job, ack=unacked)
                except (OSError, ClusterJobError):
                    pass
        return results


def run_specs_via_cluster(
    specs,
    address: str,
    *,
    use_cache: bool = True,
    checkpoint: bool = False,
    progress=None,
    timeout: float | None = None,
    poll_interval: float = 0.25,
) -> list[RunResult]:
    """Execute cells through a coordinator; the cluster executor backend.

    Drop-in for :func:`repro.engine.executor.run_specs` — same
    arguments where they make sense, same local cache short-circuit,
    same ``progress(index, spec, result)`` reporting, same input-order
    return.  ``timeout`` bounds the whole wait (None = until done).
    """
    from repro.engine.executor import resolve_cache_hits

    specs = list(specs)
    client = ClusterClient(address, poll_interval=poll_interval)
    caching = use_cache and cache.cache_enabled()
    # The same hit rule the local pool applies, from the same helper —
    # only cells genuinely missing from the local store touch the wire.
    results, pending = resolve_cache_hits(
        specs, use_cache=use_cache, checkpoint=checkpoint, progress=progress
    )
    if pending:
        # Root (or child, inside session.execute) span for the whole
        # distributed leg: netio's trace injection stamps its id onto
        # the submit payload, the coordinator leases it with each cell,
        # and workers adopt it — one trace id, client to worker.
        with telemetry.span("client.submit", cells=len(pending)):
            _submit_and_wait(
                client,
                specs,
                pending,
                results,
                use_cache=use_cache,
                checkpoint=checkpoint,
                caching=caching,
                progress=progress,
                timeout=timeout,
            )
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def _submit_and_wait(
    client: ClusterClient,
    specs,
    pending,
    results,
    *,
    use_cache: bool,
    checkpoint: bool,
    caching: bool,
    progress,
    timeout: float | None,
) -> None:
    """Submit the missing cells and deliver their results in place."""
    job = client.submit(
        [spec for _index, spec in pending],
        use_cache=use_cache,
        checkpoint=checkpoint,
    )
    positions: dict[int, list[int]] = {}
    for (index, _spec), task_id in zip(pending, job.task_ids):
        positions.setdefault(task_id, []).append(index)

    def deliver(task_id: int, result: RunResult) -> None:
        for index in positions[task_id]:
            results[index] = result
            spec = specs[index]
            if caching:
                # Isolated-worker topology: the result only exists
                # on the wire; persist it so downstream table and
                # figure code resumes from disk exactly as after a
                # local run (no-op when a shared-fs worker wrote it).
                persist_result(spec, spec.cache_key(), result)
            if progress is not None:
                progress(index, spec, result)

    client.wait(job, timeout=timeout, on_result=deliver)
