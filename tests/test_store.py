"""Tests for :mod:`repro.store` — the queryable run index.

Contract under test: every cache mutation (store/evict/verify/clear)
is mirrored into ``runs.sqlite`` write-through, so on a warm cache the
store holds exactly one row per cached cell (count equals the cache
manifest count — the PR's acceptance criterion); ``backfill``
reconstructs the index from a cache directory that never had one;
reports rendered from recorded rows are byte-identical to the
engine-derived tables; and a cluster run records fleet provenance
(worker, attempts, lease timings) against the same rows.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import Session
from repro.cluster import ClusterClient, ClusterJobError, ClusterWorker, CoordinatorThread
from repro.continual import Scenario
from repro.data.synthetic import mnist_usps
from repro.engine import cache
from repro.engine.executor import run_specs
from repro.engine.registry import SCENARIOS, register_scenario
from repro.engine.runner import run_one, spec_for, spec_summary
from repro.store import RunStore, current_git_sha, record_rows, records_to_json

#: Small enough that one cell trains in about a second.
TINY = dict(samples_per_class=4, test_samples_per_class=4, epochs=1, warmup_epochs=1)

if "_test/store_digits" not in SCENARIOS:

    @register_scenario("_test/store_digits", description="2-task stream (store tests)")
    def _store_digits(profile, seed, **params):
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
        method, "_test/store_digits", "smoke", seed=seed, profile_overrides=TINY
    )


# ----------------------------------------------------------------------
# Write-through sync
# ----------------------------------------------------------------------
class TestWriteThrough:
    def test_store_sync_creates_typed_row(self):
        spec = tiny_spec()
        result = run_one(spec)
        store = RunStore()
        assert store.count() == 1
        record = store.get(spec.cache_key())
        assert record is not None
        assert record.method == "FineTune"
        assert record.scenario == "_test/store_digits"
        assert record.profile == "smoke"
        assert record.seed == 0
        assert record.dtype == spec.resolved_profile().dtype
        assert record.status == "complete"
        assert record.git_sha == current_git_sha()
        assert record.hostname
        assert set(record.protocols()) == {"til", "cil"}
        for protocol in record.protocols():
            assert record.acc(protocol) == pytest.approx(
                result.results[Scenario.parse(protocol)].acc
            )

    def test_row_count_matches_manifest(self):
        """Acceptance criterion: one store row per cached cell."""
        for method in ("FineTune", "DER"):
            for seed in (0, 1):
                run_one(tiny_spec(method, seed=seed))
        assert RunStore().count() == len(cache.manifest()) == 4

    def test_static_result_indexes_static_metrics(self, make_result):
        result = make_result(method="TVT", static=True)
        cache.store("a" * 32, result, meta={"method": "TVT", "scenario": "x"})
        store = RunStore()
        assert store.count() == len(cache.manifest()) == 1
        record = store.get("a" * 32)
        assert record.is_static and set(record.protocols()) == {"til", "cil"}
        assert record.acc("cil") == result.static_acc[Scenario.CIL]

    def test_evict_flips_status_and_keeps_provenance(self):
        spec = tiny_spec()
        run_one(spec)
        cache.evict(max_entries=0)
        store = RunStore()
        assert store.count() == 0  # default filter: complete only
        [record] = store.query(status=None)
        assert record.status == "evicted"
        events = [row["event"] for row in store.provenance(spec.cache_key())]
        # The cell's per-phase profile rows (span:<phase>) land between
        # the store and evict lifecycle events; both must survive.
        assert [e for e in events if not e.startswith("span:")] == ["store", "evict"]
        assert any(e.startswith("span:") for e in events)

    def test_verify_repair_demotes_checkpoint_only_entries(self):
        spec = tiny_spec()
        run_one(spec, checkpoint=True)
        key = spec.cache_key()
        (cache.cache_dir() / f"{key}.result.json").write_bytes(b"garbage")
        cache.verify(repair=True)
        record = RunStore().get(key)
        assert record.status == "checkpoint-only"

    def test_clear_wipes_the_index(self):
        run_one(tiny_spec())
        cache.clear()
        store = RunStore()
        assert store.query(status=None) == []
        assert store.provenance() == []

    def test_repro_no_store_disables_indexing(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        run_one(tiny_spec())
        assert not RunStore().path.exists()

    def test_store_failure_never_fails_the_run(self, monkeypatch):
        import repro.store

        def boom(*args, **kwargs):
            raise RuntimeError("store down")

        monkeypatch.setattr(repro.store, "sync_cache_event", boom)
        result = run_one(tiny_spec())  # must not raise
        assert cache.contains(tiny_spec().cache_key())
        assert result is not None


# ----------------------------------------------------------------------
# Query API
# ----------------------------------------------------------------------
class TestQuery:
    def _seed_cells(self):
        for method in ("FineTune", "DER"):
            for seed in (0, 1):
                run_one(tiny_spec(method, seed=seed))

    def test_filters_compose(self):
        self._seed_cells()
        store = RunStore()
        assert len(store.query()) == 4
        assert len(store.query(method="DER")) == 2
        [record] = store.query(method="DER", seed=1)
        assert (record.method, record.seed) == ("DER", 1)
        assert len(store.query(limit=3)) == 3

    def test_rows_ordered_oldest_first(self):
        self._seed_cells()
        created = [record.created for record in RunStore().query()]
        assert created == sorted(created)

    def test_since_sha_unknown_raises(self):
        self._seed_cells()
        with pytest.raises(ValueError, match="no rows"):
            RunStore().query(since_sha="feedface")

    def test_since_sha_keeps_rows_from_that_sha_on(self, monkeypatch):
        import repro.store.db as db

        monkeypatch.setattr(db, "_GIT_SHA", "aaa1111")
        run_one(tiny_spec(seed=0))
        monkeypatch.setattr(db, "_GIT_SHA", "bbb2222")
        run_one(tiny_spec(seed=1))
        store = RunStore()
        assert store.shas() == ["aaa1111", "bbb2222"]
        assert {r.seed for r in store.query(since_sha="bbb2222")} == {1}
        assert len(store.query(since_sha="aaa1111")) == 2

    def test_export_shapes_follow_result_conventions(self):
        run_one(tiny_spec())
        records = RunStore().query()
        rows = record_rows(records)
        assert len(rows) == 2  # one per (record, protocol)
        assert {row["protocol"] for row in rows} == {"til", "cil"}
        assert all("acc" in row and "cache_key" in row for row in rows)
        document = json.loads(records_to_json(records))
        assert document["rows"] == rows


# ----------------------------------------------------------------------
# Concurrency and backfill
# ----------------------------------------------------------------------
class TestConcurrentWriters:
    def test_jobs2_pool_indexes_every_cell(self):
        specs = [tiny_spec(seed=seed) for seed in range(4)]
        run_specs(specs, jobs=2)
        store = RunStore()
        assert store.count() == len(cache.manifest()) == 4
        for spec in specs:
            assert store.get(spec.cache_key()) is not None


class TestBackfill:
    def test_backfill_indexes_a_legacy_cache(self, monkeypatch):
        # Produce a cache that never had a store (pre-0.6 layout).
        monkeypatch.setenv("REPRO_NO_STORE", "1")
        specs = [tiny_spec(seed=seed) for seed in range(2)]
        for spec in specs:
            run_one(spec)
        monkeypatch.delenv("REPRO_NO_STORE")
        store = RunStore()
        assert not store.path.exists()

        summary = store.backfill()
        assert summary == {"entries": 2, "indexed": 2, "skipped": 0, "errors": 0}
        assert store.count() == len(cache.manifest()) == 2
        record = store.get(specs[0].cache_key())
        # The sidecar's spec summary survives the round-trip.
        assert record.method == "FineTune"
        assert record.profile == "smoke"
        assert record.metrics is not None

    def test_backfill_is_idempotent_and_rebuild_rereads(self):
        run_one(tiny_spec())
        store = RunStore()
        assert store.backfill()["skipped"] == 1
        summary = store.backfill(rebuild=True)
        assert summary["indexed"] == 1
        assert store.count() == 1

    def test_backfill_counts_unreadable_entries_as_errors(self):
        run_one(tiny_spec())
        (cache.cache_dir() / ("b" * 32 + ".result.json")).write_bytes(b"garbage")
        summary = RunStore().backfill(rebuild=True)
        assert summary["errors"] == 1
        assert summary["indexed"] == 1


# ----------------------------------------------------------------------
# Diff
# ----------------------------------------------------------------------
class TestDiff:
    def test_diff_between_shas_matches_cells_by_identity(self, monkeypatch):
        import repro.store.db as db

        monkeypatch.setattr(db, "_GIT_SHA", "aaa1111")
        spec = tiny_spec()
        result = run_one(spec)
        # Re-record the same cell under a second SHA without retraining.
        monkeypatch.setattr(db, "_GIT_SHA", "bbb2222")
        RunStore().index_result("f" * 32, result, spec_summary(spec))

        deltas = RunStore().diff("aaa1111", "bbb2222")
        assert {row["protocol"] for row in deltas} == {"til", "cil"}
        for row in deltas:
            assert row["method"] == "FineTune"
            assert row["acc_delta"] == pytest.approx(0.0)
            assert row["fgt_delta"] == pytest.approx(0.0)

    def test_diff_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            RunStore().diff("a", "b", axis="hostname")


# ----------------------------------------------------------------------
# Cluster provenance
# ----------------------------------------------------------------------
class TestClusterProvenance:
    def test_two_worker_run_records_fleet_provenance(self):
        specs = [tiny_spec(seed=seed) for seed in range(4)]
        with CoordinatorThread(check_interval=0.05) as (host, port):
            address = f"{host}:{port}"
            pool = [
                ClusterWorker(address, name=f"prov-worker-{i}", poll_interval=0.05)
                for i in range(2)
            ]
            threads = [
                threading.Thread(target=worker.run, daemon=True) for worker in pool
            ]
            for thread in threads:
                thread.start()
            try:
                run_specs(specs, cluster=address)
            finally:
                for worker in pool:
                    worker.stop()
                try:
                    ClusterClient(address).shutdown()
                except (OSError, ClusterJobError):
                    pass
                for thread in threads:
                    thread.join(timeout=10)

        store = RunStore()
        for spec in specs:
            record = store.get(spec.cache_key())
            assert record is not None
            # The coordinator's registered id (w1/w2...), not the
            # worker's self-chosen display name.
            assert record.worker
            assert record.attempts >= 1
            completes = [
                row
                for row in store.provenance(spec.cache_key())
                if row["event"] == "cluster-complete"
            ]
            assert len(completes) == 1
            assert completes[0]["worker"] == record.worker
            assert completes[0]["lease_seconds"] > 0
        # At most the two registered pollers executed the sweep.
        workers = {store.get(spec.cache_key()).worker for spec in specs}
        assert 1 <= len(workers) <= 2


# ----------------------------------------------------------------------
# Reports from the store
# ----------------------------------------------------------------------
class TestReportParity:
    def test_table1_from_store_is_byte_identical(self):
        """Acceptance criterion: store-rendered == engine-rendered."""
        from repro.experiments import get_profile, render_table1, run_table1
        from repro.store.report import render_report

        profile = get_profile("smoke")
        methods = ("DER", "CDCL")
        result = run_table1(columns=("MN->US",), profile=profile, methods=methods)
        engine_text = render_table1(result)
        store_text = render_report(
            RunStore(),
            "table1",
            columns=("MN->US",),
            profile="smoke",
            methods=methods,
        )
        assert store_text == engine_text

    def test_missing_cell_points_at_backfill(self):
        from repro.store.report import render_report

        with pytest.raises(LookupError, match="backfill"):
            render_report(RunStore(), "table1", columns=("MN->US",), profile="smoke")

    def test_trend_aggregates_per_sha(self, monkeypatch):
        import repro.store.db as db
        from repro.store.report import trend_from_store

        monkeypatch.setattr(db, "_GIT_SHA", "aaa1111")
        run_one(tiny_spec(seed=0))
        monkeypatch.setattr(db, "_GIT_SHA", "bbb2222")
        run_one(tiny_spec(seed=1))
        rows = trend_from_store(RunStore())
        assert [row["sha"] for row in rows] == ["aaa1111", "bbb2222"]
        assert all(row["cells"] == 1 for row in rows)
        assert rows[1]["delta"] is not None


# ----------------------------------------------------------------------
# Session.runs() fluent view
# ----------------------------------------------------------------------
class TestRunsView:
    def _session(self):
        return Session(profile="smoke")

    def test_chain_filters_and_typed_records(self):
        run_one(tiny_spec("FineTune", seed=0))
        run_one(tiny_spec("DER", seed=1))
        session = self._session()
        view = session.runs().method("der")  # registry-resolved casing
        [record] = view.records()
        assert record.method == "DER"
        assert view.count() == len(view) == 1
        assert [r.method for r in session.runs()] == ["FineTune", "DER"]

    def test_chains_are_immutable_and_shareable(self):
        session = self._session()
        base = session.runs().scenario("_test/store_digits")
        der = base.method("DER")
        assert base.filters == {"scenario": "_test/store_digits"}
        assert der.filters["method"] == "DER"
        assert "method" not in base.filters

    def test_export_matches_store_rows(self):
        run_one(tiny_spec())
        session = self._session()
        view = session.runs().seed(0).dtype("float32")
        assert view.to_rows() == record_rows(view.records())
        document = json.loads(view.to_json())
        assert document["filters"] == {"seed": 0, "dtype": "float32"}
        assert document["count"] == len(document["rows"]) == 2

    def test_unknown_method_names_pass_through(self):
        session = self._session()
        view = session.runs().method("not-a-method")
        assert view.filters["method"] == "not-a-method"
        assert view.records() == []
