"""The cluster worker: lease a cell, run it, report back, repeat.

A worker is deliberately dumb — all scheduling intelligence lives in
the coordinator.  The loop:

1. ``hello`` — register, learn the lease/heartbeat contract;
2. ``lease`` — take at most **one** cell at a time (a worker is one
   execution slot; run several worker *processes* per machine to use
   several cores — the dtype policy and the BLAS thread pool are
   process-wide, so one cell per process is also the precision-safe
   configuration);
3. execute the cell with the ordinary
   :func:`repro.engine.runner.run_one` — the exact code path a local
   ``jobs=N`` pool runs, which is what makes cluster results
   cell-for-cell identical to local ones.  The worker's own disk
   cache is consulted first, so workers sharing a filesystem with the
   coordinator short-circuit to a read; isolated workers compute and
   the result travels back over the wire;
4. ``complete`` (or ``fail`` with the traceback) and go to 2.

While a cell trains, a daemon heartbeat thread renews the lease every
``heartbeat_interval`` seconds; if the worker dies, the beats stop and
the coordinator requeues the cell after one lease timeout.  A worker
that cannot reach the coordinator for ``max_connect_failures``
consecutive polls assumes the sweep is over and exits — as does one
whose ``lease`` answer carries ``shutdown: true``.

Wire: the ``hello`` answer advertises the coordinator's protocol; a
worker that learns ``proto: 2`` switches every subsequent op to
binary frames (checkpoints as raw bytes; results are the same JSON
tree on either framing), while against an old coordinator — or under
a forced ``REPRO_WIRE=json`` — everything stays JSON lines.  When a cell
trained a model the coordinator's cache lacks, the ``complete``
answer asks ``want_checkpoint: true`` and the worker uploads the
checkpoint file via ``put_checkpoint`` — the training-direction
counterpart of the gateway's replica push, closing the gap where an
isolated worker's checkpoint was unreachable for serving.
"""

from __future__ import annotations

import base64
import os
import socket
import threading
import time
import traceback

from repro import netio, telemetry
from repro.netio import call
from repro.cluster.protocol import (
    apply_unlocks,
    decode_spec,
    parse_address,
    spec_unlocks,
)
from repro.engine import cache
from repro.engine.runner import result_to_tree, run_one, spec_summary

__all__ = ["ClusterWorker"]

#: One cell trains at a time per *process*, no matter how many
#: ClusterWorker instances share it: the math core's dtype policy and
#: its reusable im2col workspaces are process-global, so concurrent
#: in-process training would race on them.  Real deployments run one
#: worker per process (per core); in-process multi-worker setups
#: (tests, notebooks) exercise the queue protocol, not parallelism.
_EXECUTION_LOCK = threading.Lock()


class ClusterWorker:
    """One execution slot attached to a coordinator (see module doc)."""

    def __init__(
        self,
        address: str,
        *,
        name: str | None = None,
        poll_interval: float = 0.5,
        request_timeout: float = 60.0,
        max_connect_failures: int = 10,
        verbose: bool = False,
        log=None,
    ):
        self.host, self.port = parse_address(address)
        self.name = name or f"{socket.gethostname()}:{os.getpid()}"
        self.poll_interval = poll_interval
        self.request_timeout = request_timeout
        self.max_connect_failures = max_connect_failures
        self.verbose = verbose
        self.log = log if log is not None else (lambda message: None)
        self.worker_id: str | None = None
        self.heartbeat_interval = 1.0
        self.completed = 0
        self.failed = 0
        self.proto = 1  # learned from the hello answer (or REPRO_WIRE)
        self.checkpoints_uploaded = 0
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Ask the loop to exit after the current cell (thread-safe)."""
        self._stop.set()

    def _call(self, payload: dict) -> dict:
        return call(
            self.host, self.port, payload, timeout=self.request_timeout, proto=self.proto
        )

    def register(self) -> str:
        """``hello`` with connection (and busy) retries; returns the worker id."""
        failures = 0
        while True:
            try:
                answer = self._call({"op": "hello", "name": self.name})
            except OSError as error:
                failures += 1
                if failures >= self.max_connect_failures or self._stop.is_set():
                    raise ConnectionError(
                        f"coordinator {self.host}:{self.port} unreachable "
                        f"after {failures} attempts: {error}"
                    ) from None
                time.sleep(self.poll_interval)
                continue
            if answer.get("error") == "busy":
                # The coordinator shedding load is the worst moment to
                # walk away with capacity — back off like the lease
                # loop does (bounded, so a permanently-saturated
                # coordinator still fails loudly).
                failures += 1
                if failures >= self.max_connect_failures:
                    raise ConnectionError(
                        f"coordinator {self.host}:{self.port} still busy "
                        f"after {failures} registration attempts"
                    )
                time.sleep(self.poll_interval)
                continue
            if not answer.get("ok"):
                raise RuntimeError(f"registration refused: {answer.get('error')}")
            self.worker_id = answer["worker_id"]
            self.heartbeat_interval = float(
                answer.get("heartbeat_interval") or self.heartbeat_interval
            )
            self.proto = netio.preferred_proto(answer.get("proto"))
            self.log(f"registered as {self.worker_id} at {self.host}:{self.port}")
            return self.worker_id

    # ------------------------------------------------------------------
    def run(self, max_cells: int | None = None) -> int:
        """The main loop; returns the number of cells executed."""
        if self.worker_id is None:
            self.register()
        executed = 0
        failures = 0
        while not self._stop.is_set():
            try:
                answer = self._call({"op": "lease", "worker_id": self.worker_id})
            except OSError:
                failures += 1
                if failures >= self.max_connect_failures:
                    self.log("coordinator gone; exiting")
                    break
                time.sleep(self.poll_interval)
                continue
            failures = 0
            if not answer.get("ok"):
                if "unknown worker_id" in str(answer.get("error", "")):
                    # Coordinator restarted and lost our registration;
                    # a fresh hello gets a lease whose heartbeats work.
                    self.log("coordinator forgot us; re-registering")
                    try:
                        self.register()
                    except (ConnectionError, RuntimeError):
                        break
                    continue
                # busy (load shed) or a transient refusal: back off.
                time.sleep(self.poll_interval)
                continue
            if answer.get("shutdown"):
                self.log("coordinator draining; exiting")
                break
            task = answer.get("task")
            if task is None:
                time.sleep(self.poll_interval)
                continue
            self._execute(task)
            executed += 1
            if max_cells is not None and executed >= max_cells:
                break
        return executed

    def _execute(self, task: dict) -> None:
        # Adopt the submitting client's trace (leased along with the
        # task) for the whole execute/report sequence: the train span
        # and the outbound complete/fail/put_checkpoint calls (which
        # re-attach the context via netio's trace injection) all carry
        # the one trace id the client minted.
        with telemetry.adopt(task.get("trace")), telemetry.span(
            "worker.execute", task_id=task["task_id"]
        ):
            self._execute_leased(task)

    def _execute_leased(self, task: dict) -> None:
        task_id = task["task_id"]
        spec = decode_spec(task["spec"])
        self.log(
            f"cell {task_id}: {spec.method} on {spec.scenario} "
            f"(seed={spec.seed}, attempt {task.get('attempt', '?')})"
        )
        stop_beats = threading.Event()
        beats = threading.Thread(
            target=self._heartbeat_loop,
            args=(task_id, stop_beats),
            name=f"heartbeat-{task_id}",
            daemon=True,
        )
        beats.start()
        try:
            # A spec resolved under an env gate on the client (e.g.
            # REPRO_FULL for the full-profile scenarios) carries the
            # unlock in its wire form; apply it for this cell only so
            # the lease succeeds on workers without the flag.
            with _EXECUTION_LOCK, apply_unlocks(spec_unlocks(task["spec"])):
                result = run_one(
                    spec,
                    use_cache=bool(task.get("use_cache", True)),
                    checkpoint=bool(task.get("checkpoint", False)),
                    verbose=self.verbose,
                )
        except Exception:
            self.failed += 1
            stop_beats.set()
            beats.join()
            self._report(
                {
                    "op": "fail",
                    "worker_id": self.worker_id,
                    "task_id": task_id,
                    "error": traceback.format_exc(limit=20),
                }
            )
            return
        stop_beats.set()
        beats.join()
        self.completed += 1
        answer = self._report(
            {
                "op": "complete",
                "worker_id": self.worker_id,
                "task_id": task_id,
                "result": result_to_tree(result),
                "cached": bool(result.cached),
            }
        )
        if answer is not None and answer.get("want_checkpoint"):
            self._upload_checkpoint(str(answer.get("key") or ""), spec)
        self.log(
            f"cell {task_id}: done in {result.elapsed:.1f}s"
            + (" (cache hit)" if result.cached else "")
        )

    def _upload_checkpoint(self, key: str, spec) -> None:
        """Ship a trained cell's checkpoint file to the coordinator.

        Best-effort: the coordinator asked because *its* cache lacks
        the model; if this worker's cache lacks it too (caching off, or
        the file vanished), skip silently — the result already landed,
        and the cell can always be retrained from it.  Raw bytes over
        the binary wire, base64 text over JSON lines.
        """
        if not key or not cache.cache_enabled():
            return
        path = cache.checkpoint_path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return
        data = blob if self.proto >= 2 else base64.b64encode(blob).decode("ascii")
        answer = self._report(
            {
                "op": "put_checkpoint",
                "worker_id": self.worker_id,
                "key": key,
                "data": data,
                "meta": spec_summary(spec),
            }
        )
        if answer is not None and answer.get("ok"):
            self.checkpoints_uploaded += 1
            self.log(f"uploaded checkpoint {key} ({len(blob)} bytes)")

    def _heartbeat_loop(self, task_id: int, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            try:
                self._call(
                    {
                        "op": "heartbeat",
                        "worker_id": self.worker_id,
                        "task_id": task_id,
                    }
                )
            except OSError:
                # The coordinator may be briefly unreachable; the cell
                # keeps training and `complete` will retry the contact.
                pass

    def _report(self, payload: dict) -> dict | None:
        """Deliver complete/fail, riding out transient coordinator load.

        A refused answer is not a delivery: ``busy`` (the coordinator
        shedding load) and connection errors are retried — dropping an
        hours-long result because one round-trip landed at the inflight
        bound would requeue and retrain the cell for nothing.  Any
        other refusal (e.g. ``unknown task_id`` after a coordinator
        restart) is terminal: retrying cannot change the answer, and
        the queue's lease machinery owns the cell's fate from here.
        Returns the coordinator's answer when one was delivered (the
        ``complete`` answer may ask for a checkpoint upload), or
        ``None`` when delivery was abandoned.
        """
        for _attempt in range(self.max_connect_failures):
            try:
                answer = self._call(payload)
            except OSError:
                if self._stop.is_set():
                    return None
                time.sleep(self.poll_interval)
                continue
            if answer.get("ok"):
                return answer
            if answer.get("error") != "busy":
                self.log(
                    f"coordinator refused {payload.get('op')} for task "
                    f"{payload.get('task_id')}: {answer.get('error')}"
                )
                return None
            time.sleep(self.poll_interval)
        self.log(
            f"could not deliver {payload.get('op')} for task "
            f"{payload.get('task_id')}; the lease will expire and requeue it"
        )
        return None
