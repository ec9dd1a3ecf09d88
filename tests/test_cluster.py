"""Tests for :mod:`repro.cluster` — distributed cell execution.

Contract under test: a sweep executed through a coordinator and N TCP
workers is cell-for-cell **bitwise identical** to the local run (same
cache keys, same accuracy matrices); a worker that dies mid-cell costs
one lease timeout before the cell is requeued and the sweep still
completes; a cell that keeps failing surfaces its error after bounded
retries instead of hanging the sweep; and the disk cache acts as the
dedup/resume layer on both ends of the wire.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro import netio
from repro.api import Session
from repro.cluster import (
    ClusterClient,
    ClusterJobError,
    ClusterWorker,
    CoordinatorThread,
    decode_spec,
    encode_spec,
    format_address,
    parse_address,
)
from repro.continual import Scenario
from repro.data.synthetic import mnist_usps
from repro.engine import cache
from repro.engine.executor import run_specs
from repro.engine.runner import (
    RunResult,
    result_from_tree,
    result_to_tree,
    run_one,
    spec_for,
)
from repro.engine.registry import METHODS, SCENARIOS, register_scenario

#: Small enough that one cell trains in about a second.
TINY = dict(samples_per_class=4, test_samples_per_class=4, epochs=1, warmup_epochs=1)

if "_test/cluster_digits" not in SCENARIOS:

    @register_scenario("_test/cluster_digits", description="2-task stream (cluster tests)")
    def _cluster_digits(profile, seed, **params):
        stream = mnist_usps(
            "mnist->usps", samples_per_class=4, test_samples_per_class=4, rng=seed
        )
        stream.tasks = stream.tasks[:2]
        return stream


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))
    yield


def tiny_spec(method: str = "FineTune", seed: int = 0):
    return spec_for(
        method, "_test/cluster_digits", "smoke", seed=seed, profile_overrides=TINY
    )


def assert_cells_identical(ours: RunResult, theirs: RunResult) -> None:
    """Bitwise equality of everything that is science (not wall-clock)."""
    assert ours.method == theirs.method
    assert ours.seed == theirs.seed
    assert ours.stream_name == theirs.stream_name
    assert set(ours.results) == set(theirs.results)
    for scenario, outcome in ours.results.items():
        other = theirs.results[scenario]
        assert np.array_equal(
            outcome.r_matrix.values, other.r_matrix.values, equal_nan=True
        )
        assert outcome.acc == other.acc
    assert ours.static_acc == theirs.static_acc


@contextmanager
def running_cluster(workers: int = 2, **coordinator_kwargs):
    """A coordinator plus N in-process workers, torn down afterwards."""
    coordinator_kwargs.setdefault("check_interval", 0.05)
    with CoordinatorThread(**coordinator_kwargs) as (host, port):
        address = f"{host}:{port}"
        pool = [
            ClusterWorker(address, name=f"test-worker-{i}", poll_interval=0.05)
            for i in range(workers)
        ]
        threads = [
            threading.Thread(target=worker.run, daemon=True, name=worker.name)
            for worker in pool
        ]
        for thread in threads:
            thread.start()
        try:
            yield address, pool
        finally:
            for worker in pool:
                worker.stop()
            try:
                ClusterClient(address).shutdown()
            except (OSError, ClusterJobError):
                pass  # coordinator already gone
            for thread in threads:
                thread.join(timeout=10)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_parse_address_forms(self):
        assert parse_address("cluster://10.1.2.3:7070") == ("10.1.2.3", 7070)
        assert parse_address("host:1234") == ("host", 1234)
        assert parse_address("host") == ("host", 7070)
        assert parse_address("[::1]:7070") == ("::1", 7070)
        assert parse_address("cluster://[fe80::2]") == ("fe80::2", 7070)
        assert format_address("h", 9) == "cluster://h:9"

    @pytest.mark.parametrize(
        "bad",
        [
            "", "   ", "http://h:1", "h:notaport", "h:99999", ":7070",
            "cluster://", "::1", "[::1", "[::1]x",
        ],
    )
    def test_parse_address_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_spec_round_trip_preserves_cache_key(self):
        spec = tiny_spec("DER", seed=7)
        wire = encode_spec(spec)
        decoded = decode_spec(wire)
        # The wire form pins the resolved dtype, so overrides may gain
        # one entry — everything that determines the cell is unchanged.
        assert decoded.cache_key() == spec.cache_key()
        assert (decoded.method, decoded.scenario, decoded.seed) == (
            spec.method, spec.scenario, spec.seed,
        )
        assert decoded.eval_scenarios == spec.eval_scenarios
        assert decoded.method_overrides == spec.method_overrides

    def test_wire_spec_pins_client_dtype_against_worker_env(self, monkeypatch):
        """A worker's divergent REPRO_DTYPE must not change what a wire
        spec trains at (or which cache key its result lands under)."""
        monkeypatch.delenv("REPRO_DTYPE", raising=False)
        spec = tiny_spec(seed=4)
        key = spec.cache_key()
        wire = encode_spec(spec)
        assert wire["profile_overrides"]["dtype"] == "float32"
        monkeypatch.setenv("REPRO_DTYPE", "float64")  # the "worker" machine
        decoded = decode_spec(wire)
        assert decoded.resolved_profile().dtype == "float32"
        assert decoded.cache_key() == key

    def test_spec_round_trip_survives_json(self):
        import json

        spec = tiny_spec(seed=3)
        decoded = decode_spec(json.loads(json.dumps(encode_spec(spec))))
        assert decoded.cache_key() == spec.cache_key()
        assert decoded.eval_scenarios == spec.eval_scenarios



class TestEnvUnlocks:
    """REPRO_FULL travels the wire: recorded by the client, applied
    around one cell on the worker, never an arbitrary-env vector."""

    def test_unlock_recorded_only_under_env(self, monkeypatch):
        from repro.cluster.protocol import spec_unlocks

        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert "unlocks" not in encode_spec(tiny_spec())
        assert spec_unlocks(encode_spec(tiny_spec())) == ()
        monkeypatch.setenv("REPRO_FULL", "1")
        wire = encode_spec(tiny_spec())
        assert wire["unlocks"] == ["REPRO_FULL"]
        assert spec_unlocks(wire) == ("REPRO_FULL",)

    def test_unknown_unlocks_never_applied(self):
        from repro.cluster.protocol import spec_unlocks

        wire = {"unlocks": ["PATH", "REPRO_FULL", "LD_PRELOAD"]}
        assert spec_unlocks(wire) == ("REPRO_FULL",)

    def test_apply_unlocks_scopes_the_env(self, monkeypatch):
        from repro.cluster.protocol import apply_unlocks

        monkeypatch.delenv("REPRO_FULL", raising=False)
        with apply_unlocks(("REPRO_FULL",)):
            assert os.environ["REPRO_FULL"] == "1"
        assert "REPRO_FULL" not in os.environ
        monkeypatch.setenv("REPRO_FULL", "0")
        with apply_unlocks(("REPRO_FULL",)):
            assert os.environ["REPRO_FULL"] == "1"
        assert os.environ["REPRO_FULL"] == "0"

    def test_gated_scenario_builds_under_wire_unlock(self, monkeypatch):
        """The worker-side composition: a domainnet_full spec resolved
        under REPRO_FULL=1 on the client must build on a worker whose
        environment lacks the flag."""
        from repro.cluster.protocol import apply_unlocks, spec_unlocks

        monkeypatch.setenv("REPRO_FULL", "1")
        spec = spec_for(
            "FineTune",
            "domainnet_full/clp->skt",
            "smoke",
            profile_overrides=dict(samples_per_class=1, test_samples_per_class=1),
        )
        wire = encode_spec(spec)
        monkeypatch.delenv("REPRO_FULL", raising=False)  # the worker machine
        decoded = decode_spec(wire)
        with pytest.raises(ValueError, match="REPRO_FULL"):
            SCENARIOS.get(decoded.scenario).build(
                decoded.resolved_profile(), decoded.seed, **decoded.scenario_params
            )
        with apply_unlocks(spec_unlocks(wire)):
            stream = SCENARIOS.get(decoded.scenario).build(
                decoded.resolved_profile(), decoded.seed, **decoded.scenario_params
            )
        assert len(stream) == 15
        assert "REPRO_FULL" not in os.environ


class TestInflightGate:
    def test_bounds_and_counts(self):
        gate = netio.InflightGate(2)
        assert gate.try_acquire() and gate.try_acquire()
        assert not gate.try_acquire()  # at the bound -> shed
        gate.release()
        assert gate.try_acquire()
        stats = gate.stats()
        assert stats["rejected"] == 1
        assert stats["peak"] == 2

    def test_unlimited_when_zero(self):
        gate = netio.InflightGate(0)
        assert all(gate.try_acquire() for _ in range(100))

    def test_release_underflow_raises(self):
        with pytest.raises(RuntimeError):
            netio.InflightGate(1).release()

    def test_shed_exempt_ops_sniffs_small_lines_only(self):
        exempt = netio.shed_exempt_ops("stats", "ping")
        assert exempt(b'{"op": "stats"}\n')
        assert exempt(b'{"op": "ping"}\n')
        assert not exempt(b'{"op": "predict", "images": []}\n')
        assert not exempt(b"not json\n")
        assert not exempt(b"x" * 2000)  # big lines are never sniffed


# ----------------------------------------------------------------------
# End-to-end
# ----------------------------------------------------------------------
class TestClusterExecution:
    def test_two_workers_match_local_jobs2_cell_for_cell(self, tmp_path, monkeypatch):
        """The acceptance criterion: cluster == local, bitwise."""
        specs = [tiny_spec(seed=seed) for seed in range(4)]
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "local-cache"))
        local = run_specs(specs, jobs=2)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cluster-cache"))
        order: list[int] = []
        with running_cluster(workers=2) as (address, pool):
            remote = run_specs(
                specs,
                cluster=address,
                progress=lambda index, spec, result: order.append(index),
            )
            stats = ClusterClient(address).stats()
        assert sorted(order) == [0, 1, 2, 3]
        for ours, theirs in zip(remote, local):
            assert_cells_identical(ours, theirs)
        assert not remote[0].cached  # computed, not replayed
        # every wire-delivered result landed in the client-side cache
        for spec in specs:
            assert cache.contains(spec.cache_key())
        assert stats["tasks"]["done"] == 4
        assert stats["requeues"] == 0

    def test_client_side_cache_hits_never_touch_the_wire(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm-cache"))
        spec = tiny_spec(seed=0)
        run_one(spec)  # warm the local cache
        # No workers attached: only a local hit can answer this.
        with CoordinatorThread(check_interval=0.05) as (host, port):
            [result] = run_specs([spec], cluster=f"{host}:{port}")
            stats = ClusterClient(f"{host}:{port}").stats()
        assert result.cached
        assert stats["tasks"]["total"] == 0  # nothing was ever enqueued

    def test_coordinator_cache_short_circuits_submitted_cells(
        self, tmp_path, monkeypatch
    ):
        """The coordinator's disk cache is the resume layer for the queue."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "coord-cache"))
        spec = tiny_spec(seed=1)
        run_one(spec)  # the coordinator's store already has the cell
        with CoordinatorThread(check_interval=0.05) as (host, port):
            client = ClusterClient(f"{host}:{port}", poll_interval=0.05)
            # Submit directly (bypassing the client-side hit pass) so
            # the queue itself must answer; no worker is attached.
            job = client.submit([spec])
            results = client.wait(job, timeout=10)
            stats = client.stats()
        assert stats["cache_shortcircuits"] == 1
        assert stats["tasks"]["done"] == 1
        assert_cells_identical(results[job.task_ids[0]], run_one(spec))

    def test_duplicate_specs_dedup_onto_one_task(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "dedup-cache"))
        spec = tiny_spec(seed=2)
        with running_cluster(workers=1) as (address, pool):
            results = run_specs([spec, spec], cluster=address)
            stats = ClusterClient(address).stats()
        assert stats["tasks"]["total"] == 1  # one execution, two deliveries
        assert_cells_identical(results[0], results[1])

    def test_session_cluster_executor_emits_progress_events(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "session-cache"))
        events = []
        with running_cluster(workers=2) as (address, pool):
            session = Session(
                profile="smoke",
                executor=f"cluster://{address}",
                on_event=events.append,
            )
            result = (
                session.run("FineTune")
                .on("_test/cluster_digits")
                .profile("smoke", **TINY)
                .seeds([0, 1])
                .result()
            )
        assert len(result.runs) == 2
        kinds = [event.kind for event in events]
        assert kinds[0] == "run-start"
        assert kinds[-1] == "run-done"
        assert kinds.count("cell-done") == 2

    def test_builder_on_cluster_overrides_local_session(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "builder-cache"))
        with running_cluster(workers=1) as (address, pool):
            session = Session(profile="smoke")  # local executor
            handle = (
                session.run("FineTune")
                .on("_test/cluster_digits")
                .profile("smoke", **TINY)
                .on_cluster(address)
                .start()
            )
            stats = ClusterClient(address).stats()
        assert stats["tasks"]["done"] == 1  # the cell really went remote
        assert len(handle.results) == 1


class TestFaultTolerance:
    def test_dead_worker_lease_expires_and_cell_is_requeued(
        self, tmp_path, monkeypatch
    ):
        """Killing a worker mid-sweep must not lose its cell."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "requeue-cache"))
        spec = tiny_spec(seed=5)
        with CoordinatorThread(
            lease_timeout=0.5, check_interval=0.05, max_attempts=3
        ) as (host, port):
            address = f"{host}:{port}"
            client = ClusterClient(address, poll_interval=0.05)
            job = client.submit([spec])
            # A zombie worker leases the cell and then dies silently:
            # no heartbeat, no complete, no fail.
            zombie = netio.call(host, port, {"op": "hello", "name": "zombie"})
            leased = netio.call(
                host, port, {"op": "lease", "worker_id": zombie["worker_id"]}
            )
            assert leased["task"]["task_id"] == job.task_ids[0]
            # A live worker picks the cell up after the lease expires.
            worker = ClusterWorker(address, name="survivor", poll_interval=0.05)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                results = client.wait(job, timeout=60)
                stats = client.stats()
            finally:
                worker.stop()
                client.shutdown()
                thread.join(timeout=10)
        assert stats["expired_leases"] >= 1
        assert stats["requeues"] >= 1
        assert_cells_identical(
            results[job.task_ids[0]], run_one(spec, use_cache=False)
        )

    def test_late_result_from_presumed_dead_worker_is_accepted(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "late-cache"))
        spec = tiny_spec(seed=6)
        result = run_one(spec, use_cache=False)
        with CoordinatorThread(
            lease_timeout=0.2, check_interval=0.05, max_attempts=2
        ) as (host, port):
            client = ClusterClient(f"{host}:{port}", poll_interval=0.05)
            job = client.submit([spec])
            zombie = netio.call(host, port, {"op": "hello", "name": "slowpoke"})
            netio.call(host, port, {"op": "lease", "worker_id": zombie["worker_id"]})
            time.sleep(0.5)  # lease expires; the cell is requeued
            # ... but the "dead" worker was only slow, and delivers.
            answer = netio.call(
                host,
                port,
                {
                    "op": "complete",
                    "worker_id": zombie["worker_id"],
                    "task_id": job.task_ids[0],
                    "result": result_to_tree(result),
                    "cached": False,
                },
            )
            assert answer["ok"]
            results = client.wait(job, timeout=10)
        assert_cells_identical(results[job.task_ids[0]], result)

    def test_failing_cell_gives_up_after_bounded_retries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "fail-cache"))
        # An unknown method name passes encode/submit (names resolve at
        # execution time) and fails identically on every attempt.
        spec = tiny_spec(seed=0)
        broken = encode_spec(spec)
        broken["method"] = "NoSuchMethod"
        assert "NoSuchMethod" not in METHODS
        with running_cluster(workers=1, lease_timeout=30, max_attempts=2) as (
            address,
            pool,
        ):
            client = ClusterClient(address, poll_interval=0.05)
            host, port = parse_address(address)
            answer = netio.call(
                host,
                port,
                {"op": "submit", "specs": [broken], "use_cache": False},
            )
            from repro.cluster.client import ClusterJob

            job = ClusterJob(job_id=answer["job_id"], task_ids=answer["task_ids"])
            with pytest.raises(ClusterJobError, match="NoSuchMethod"):
                client.wait(job, timeout=60)
            stats = client.stats()
        assert stats["tasks"]["failed"] == 1

    def test_worker_survives_unreachable_coordinator_at_start(self):
        worker = ClusterWorker(
            "127.0.0.1:1", poll_interval=0.01, max_connect_failures=3
        )
        with pytest.raises(ConnectionError, match="unreachable"):
            worker.register()


class TestCoordinatorOps:
    def test_unknown_op_and_unknown_job(self):
        with CoordinatorThread(check_interval=0.05) as (host, port):
            assert not netio.call(host, port, {"op": "frobnicate"})["ok"]
            assert not netio.call(host, port, {"op": "status", "job_id": "nope"})["ok"]
            assert netio.call(host, port, {"op": "ping"})["ok"]

    def test_submit_is_atomic_on_invalid_specs(self, tmp_path, monkeypatch):
        """One unkeyable spec must not orphan the batch's other cells."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "atomic-cache"))
        good = encode_spec(tiny_spec(seed=0))
        bad = dict(good, scenario="no/such/scenario")
        with CoordinatorThread(check_interval=0.05) as (host, port):
            answer = netio.call(
                host, port, {"op": "submit", "specs": [good, bad], "use_cache": True}
            )
            stats = ClusterClient(f"{host}:{port}").stats()
        assert not answer["ok"] and "no/such/scenario" in answer["error"]
        assert stats["tasks"]["total"] == 0  # nothing enqueued, nothing leaks

    def test_collect_redelivers_until_acked(self, tmp_path, monkeypatch):
        """A lost collect reply must not consume results: unacked results
        are redelivered, and acking releases them."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ack-cache"))
        spec = tiny_spec(seed=9)
        run_one(spec)  # coordinator short-circuits the cell at submit
        with CoordinatorThread(check_interval=0.05) as (host, port):
            client = ClusterClient(f"{host}:{port}", poll_interval=0.05)
            job = client.submit([spec])
            first = client.collect(job)
            again = client.collect(job)  # reply "lost": no ack sent
            assert [t for t, _ in first] == [t for t, _ in again] == job.task_ids
            acked = client.collect(job, ack=[t for t, _ in first])
            assert acked == []  # delivered; payload released

    def test_abandoned_job_reclaimed_after_ttl(self, tmp_path, monkeypatch):
        """A client that never acks (crash, Ctrl-C) must not pin results
        in coordinator memory forever — the job TTL sweep reclaims it."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ttl-cache"))
        spec = tiny_spec(seed=10)
        run_one(spec)  # submit short-circuits: the task is done instantly
        with CoordinatorThread(check_interval=0.05, job_ttl=0.2) as (host, port):
            client = ClusterClient(f"{host}:{port}", poll_interval=0.05)
            job = client.submit([spec])  # ... and the client walks away
            deadline = time.monotonic() + 10
            while client.stats()["jobs"]:
                assert time.monotonic() < deadline, "job never reclaimed"
                time.sleep(0.05)
            stats = client.stats()
        assert stats["expired_jobs"] == 1
        # the result still exists where it matters: on disk
        assert cache.contains(spec.cache_key())

    def test_submit_retry_with_same_id_returns_same_job(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "idem-cache"))
        payload = {
            "op": "submit",
            "submit_id": "retry-1",
            "specs": [encode_spec(tiny_spec(seed=0))],
            "use_cache": True,
        }
        with CoordinatorThread(check_interval=0.05) as (host, port):
            first = netio.call(host, port, payload)
            second = netio.call(host, port, payload)  # lost-reply retry
            stats = ClusterClient(f"{host}:{port}").stats()
        assert first["job_id"] == second["job_id"]
        assert first["task_ids"] == second["task_ids"]
        assert stats["jobs"] == 1

    def test_lease_refused_for_unregistered_worker(self):
        """A stale worker_id (coordinator restart) must re-register, not
        receive a lease whose heartbeats can never renew."""
        with CoordinatorThread(check_interval=0.05) as (host, port):
            answer = netio.call(host, port, {"op": "lease", "worker_id": "w999"})
            assert not answer["ok"]
            assert "re-register" in answer["error"]

    def test_stale_fail_report_does_not_clobber_requeued_task(
        self, tmp_path, monkeypatch
    ):
        """A failure from a worker whose lease already expired must not
        touch the cell (it may be queued for — or leased to — another)."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "stale-cache"))
        spec = tiny_spec(seed=8)
        with CoordinatorThread(
            lease_timeout=0.2, check_interval=0.05, max_attempts=5
        ) as (host, port):
            client = ClusterClient(f"{host}:{port}", poll_interval=0.05)
            job = client.submit([spec])
            zombie = netio.call(host, port, {"op": "hello", "name": "stale"})
            netio.call(host, port, {"op": "lease", "worker_id": zombie["worker_id"]})
            time.sleep(0.5)  # lease expires; cell is requeued
            answer = netio.call(
                host,
                port,
                {
                    "op": "fail",
                    "worker_id": zombie["worker_id"],
                    "task_id": job.task_ids[0],
                    "error": "stale report",
                },
            )
            status = client.status(job)
            stats = client.stats()
        assert answer["ok"] and answer.get("stale")
        assert status["queued"] == 1 and not status["failed"]
        # exactly the expiry requeue — the stale fail added nothing
        assert stats["requeues"] == 1

    def test_stats_reports_workers_and_transport(self):
        with running_cluster(workers=1) as (address, pool):
            # let the worker register before asking who is connected
            deadline = time.monotonic() + 5
            workers = []
            while time.monotonic() < deadline and not workers:
                workers = ClusterClient(address).stats()["workers"]
                time.sleep(0.05)
        assert workers and workers[0]["name"] == "test-worker-0"

    def test_shutdown_drains_workers(self):
        with CoordinatorThread(check_interval=0.05) as (host, port):
            worker = ClusterWorker(f"{host}:{port}", poll_interval=0.05)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            time.sleep(0.2)
            ClusterClient(f"{host}:{port}").shutdown()
            thread.join(timeout=10)
            assert not thread.is_alive()


# ----------------------------------------------------------------------
# The one result codec (cache file and both wire framings) + checkpoint upload
# ----------------------------------------------------------------------
def assert_results_equal(ours: RunResult, theirs: RunResult) -> None:
    """Every field equal, NaN positions and history dtypes included."""
    assert (ours.method, ours.scenario, ours.stream_name, ours.seed) == (
        theirs.method, theirs.scenario, theirs.stream_name, theirs.seed
    )
    assert ours.elapsed == theirs.elapsed
    assert ours.static_acc == theirs.static_acc
    assert set(ours.results) == set(theirs.results)
    for scenario, run in ours.results.items():
        other = theirs.results[scenario]
        assert (run.method, run.stream, run.scenario) == (other.method, other.stream, other.scenario)
        assert run.r_matrix.num_tasks == other.r_matrix.num_tasks
        assert run.r_matrix.values.dtype == other.r_matrix.values.dtype
        assert np.array_equal(run.r_matrix.values, other.r_matrix.values, equal_nan=True)
        assert len(run.history) == len(other.history)
        for entry, theirs_entry in zip(run.history, other.history):
            assert entry["task_id"] == theirs_entry["task_id"]
            assert entry["row"].dtype == theirs_entry["row"].dtype == np.float64
            assert np.array_equal(entry["row"], theirs_entry["row"], equal_nan=True)


class TestResultTree:
    """``result_to_tree``/``result_from_tree`` is bitwise-faithful through
    JSON and refuses anything else with a small, typed error."""

    def test_json_round_trip_is_exact(self, make_result):
        import json

        trained = run_one(tiny_spec(seed=12), use_cache=False)
        for result in (trained, make_result(3, num_tasks=4), make_result(static=True)):
            tree = json.loads(json.dumps(result_to_tree(result)))
            assert_results_equal(result_from_tree(tree), result)
        assert np.isnan(trained.results[Scenario.TIL].r_matrix.values).any()

    def test_frame_round_trip_is_exact(self):
        result = run_one(tiny_spec(seed=12), use_cache=False)
        wire = netio.encode_frame({"result": result_to_tree(result)}, compress=6)
        assert_results_equal(result_from_tree(netio.decode_frame(wire)["result"]), result)

    @pytest.mark.parametrize(
        "tree",
        [
            "gASVEAAAAAAAAAB9lIwDbm90lIwBYZRzLg==",  # a base64 pickle
            {"format": "not/a/result"},
            None,
        ],
    )
    def test_foreign_payloads_are_value_errors(self, tree):
        with pytest.raises(ValueError):
            result_from_tree(tree)

    def test_size_mismatch_refused_before_allocation(self, make_result):
        import tracemalloc

        tree = result_to_tree(make_result(num_tasks=1))
        tree["results"][0]["num_tasks"] = 5000  # claims a 5000x5000 R-matrix
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="floats"):
                result_from_tree(tree)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_malformed_entries_are_value_errors(self, make_result):
        tree = result_to_tree(make_result())
        del tree["results"][0]["history"]
        with pytest.raises(ValueError, match="malformed"):
            result_from_tree(tree)
        tree = result_to_tree(make_result())
        tree["results"][0]["r_values"][0][0] = "0.5"
        with pytest.raises(ValueError, match="floats"):
            result_from_tree(tree)

    def test_coordinator_refuses_undecodable_result(self):
        with CoordinatorThread(check_interval=0.05) as (host, port):
            client = ClusterClient(f"{host}:{port}", poll_interval=0.05)
            job = client.submit([tiny_spec(seed=0)])
            hello = netio.call(host, port, {"op": "hello", "name": "mal"})
            lease = netio.call(
                host, port, {"op": "lease", "worker_id": hello["worker_id"]}
            )
            answer = netio.call(
                host,
                port,
                {
                    "op": "complete",
                    "worker_id": hello["worker_id"],
                    "task_id": lease["task"]["task_id"],
                    "result": {"format": "garbage"},
                },
            )
            status = client.status(job)
        assert not answer["ok"] and "undecodable" in answer["error"]
        assert status["done"] == 0  # the cell was not marked complete

    def test_v1_pickle_text_refused_and_coordinator_keeps_serving(self):
        """A base64 pickle on a JSON line is refused as undecodable; it is
        never unpickled, and the coordinator goes on answering."""
        import base64
        import pickle

        class Marker:
            def __reduce__(self):  # unpickling would set the variable
                return (exec, ("import os; os.environ['REPRO_TEST_UNPICKLED'] = '1'",))

        text = base64.b64encode(pickle.dumps(Marker())).decode("ascii")
        with CoordinatorThread(check_interval=0.05) as (host, port):
            client = ClusterClient(f"{host}:{port}", poll_interval=0.05)
            job = client.submit([tiny_spec(seed=0)])
            hello = netio.call(host, port, {"op": "hello", "name": "mal"}, proto=1)
            lease = netio.call(
                host, port, {"op": "lease", "worker_id": hello["worker_id"]}, proto=1
            )
            answer = netio.call(
                host,
                port,
                {
                    "op": "complete",
                    "worker_id": hello["worker_id"],
                    "task_id": lease["task"]["task_id"],
                    "result": text,
                },
                proto=1,
            )
            ping = netio.call(host, port, {"op": "ping"}, proto=1)
            status = client.status(job)
        assert not answer["ok"] and "undecodable result" in answer["error"]
        assert "REPRO_TEST_UNPICKLED" not in os.environ
        assert ping["ok"]
        assert status["done"] == 0


class TestForcedJsonWire:
    def test_cluster_run_bitwise_identical_with_v1_forced(self, monkeypatch):
        """REPRO_WIRE=1 pins every peer to JSON lines; the sweep must
        still be cell-for-cell identical to the local run."""
        monkeypatch.setenv("REPRO_WIRE", "1")
        spec = tiny_spec(seed=13)
        local = run_one(spec, use_cache=False)
        with running_cluster(workers=1) as (address, _pool):
            client = ClusterClient(address, poll_interval=0.05)
            job = client.submit([spec], use_cache=False)
            remote = client.wait(job, timeout=120)[job.task_ids[0]]
        assert_cells_identical(remote, local)


class TestCheckpointUpload:
    """complete → want_checkpoint → put_checkpoint, both framings."""

    def _trained_blob(self, spec):
        run_one(spec, checkpoint=True)
        key = spec.cache_key()
        return key, cache.checkpoint_path(key).read_bytes()

    def _complete_task(self, host, port, spec, result):
        client = ClusterClient(f"{host}:{port}", poll_interval=0.05)
        job = client.submit([spec], checkpoint=True)
        hello = netio.call(host, port, {"op": "hello", "name": "up"})
        lease = netio.call(
            host, port, {"op": "lease", "worker_id": hello["worker_id"]}
        )
        answer = netio.call(
            host,
            port,
            {
                "op": "complete",
                "worker_id": hello["worker_id"],
                "task_id": lease["task"]["task_id"],
                "result": result_to_tree(result),
            },
        )
        return hello["worker_id"], answer

    def test_upload_round_trip_both_framings(self, tmp_path, monkeypatch):
        """Train in cache A, upload into coordinator cache B: the
        complete answer asks for the checkpoint, the upload installs it
        bit-for-bit, and a re-send is acknowledged idempotently."""
        import base64

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "worker-cache"))
        spec = tiny_spec(seed=14)
        key, blob = self._trained_blob(spec)
        result = run_one(spec)

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "coord-cache"))
        with CoordinatorThread(check_interval=0.05) as (host, port):
            worker_id, answer = self._complete_task(host, port, spec, result)
            assert answer["ok"] and answer.get("want_checkpoint")
            assert answer["key"] == key
            # v1: base64 text over a JSON line.
            first = netio.call(
                host,
                port,
                {
                    "op": "put_checkpoint",
                    "worker_id": worker_id,
                    "key": key,
                    "data": base64.b64encode(blob).decode("ascii"),
                },
            )
            # v2: raw bytes in a binary frame — idempotent replay.
            again = netio.call(
                host,
                port,
                {
                    "op": "put_checkpoint",
                    "worker_id": worker_id,
                    "key": key,
                    "data": blob,
                },
                proto=2,
            )
        assert first == {"ok": True, "installed": True}
        assert again["ok"] and not again["installed"]
        assert again["reason"] == "already present"
        assert cache.checkpoint_path(key).read_bytes() == blob

    def test_no_upload_requested_when_checkpoint_already_present(
        self, tmp_path, monkeypatch
    ):
        """Shared cache (or an earlier upload): complete must not ask."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "shared-cache"))
        spec = tiny_spec(seed=14)
        key, _blob = self._trained_blob(spec)  # checkpoint where it belongs
        result = run_one(spec)
        # Drop the cached *result* so the cell is leased out again, but
        # keep the checkpoint file — the interesting half of the state.
        cache._path_for(key).unlink()
        with CoordinatorThread(check_interval=0.05) as (host, port):
            _worker_id, answer = self._complete_task(host, port, spec, result)
        assert answer["ok"] and not answer.get("want_checkpoint")

    def test_worker_uploads_end_to_end(self, tmp_path, monkeypatch):
        """A real worker answering a want_checkpoint: the file lands in
        the coordinator cache and the worker counts the upload."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "e2e-cache"))
        spec = tiny_spec(seed=15)
        with CoordinatorThread(check_interval=0.05) as (host, port):
            address = f"{host}:{port}"
            client = ClusterClient(address, poll_interval=0.05)
            job = client.submit([spec], checkpoint=True)
            worker = ClusterWorker(address, name="ckpt-worker", poll_interval=0.05)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            try:
                client.wait(job, timeout=120)
            finally:
                worker.stop()
                thread.join(timeout=10)
        # In-process the cache is shared, so the worker's own training
        # already materialized the checkpoint — the coordinator must not
        # have requested a redundant upload.
        assert cache.checkpoint_path(spec.cache_key()).exists()
        assert worker.checkpoints_uploaded == 0
