"""Tests for the cache management layer (manifest/stats/evict/verify).

These drive :mod:`repro.engine.cache` directly with synthetic entries —
no training — so every policy branch is cheap to cover: LRU ordering,
byte/entry bounds, scenario/method filters, dry runs, and corruption
repair.
"""

import os
import time

import pytest

from repro.engine import cache


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))
    cache.reset_session_counters()


@pytest.fixture()
def put(make_result):
    def put(key: str, *, scenario="s1", method="m1", age=0.0):
        """Store a synthetic entry and back-date its last-use time."""
        meta = {"method": method, "scenario": scenario, "seed": 0}
        cache.store(key, make_result(method=method, scenario=scenario), meta=meta)
        if age:
            stamp = time.time() - age
            os.utime(result_path(key), (stamp, stamp))

    return put


def result_path(key: str):
    return cache.cache_dir() / f"{key}.result.json"


def entry_files() -> list[str]:
    """Cache-entry files on disk, ignoring the run-store index.

    The store's ``runs.sqlite`` deliberately survives evict / verify
    / clear of the entries it indexes: rows are retained with a
    status flip so provenance outlives the payload (see repro.store).
    """
    return [
        path.name
        for path in cache.cache_dir().iterdir()
        if not path.name.startswith("runs.sqlite")
    ]


class TestManifestAndStats:
    def test_manifest_orders_lru_first(self, put):
        put("b" * 32, age=10)
        put("a" * 32, age=100)
        put("c" * 32)
        assert [e.key for e in cache.manifest()] == ["a" * 32, "b" * 32, "c" * 32]

    def test_load_refreshes_lru_position(self, put):
        put("a" * 32, age=100)
        put("b" * 32, age=10)
        assert cache.load("a" * 32) is not None  # touch
        assert [e.key for e in cache.manifest()] == ["b" * 32, "a" * 32]

    def test_stats_counts_entries_bytes_and_traffic(self, put):
        put("a" * 32)
        cache.load("a" * 32)  # hit
        cache.load("f" * 32)  # miss
        report = cache.stats()
        assert report["entries"] == 1
        assert report["total_bytes"] > result_path("a" * 32).stat().st_size  # + sidecar
        assert report["session"]["hits"] == 1
        assert report["session"]["misses"] == 1
        assert report["session"]["stores"] == 1
        assert report["session"]["hit_rate"] == 0.5

    def test_stats_by_scenario_breakdown(self, put):
        put("a" * 32, scenario="digits")
        put("b" * 32, scenario="digits")
        put("c" * 32, scenario="visda")
        assert cache.stats()["by_scenario"] == {"digits": 2, "visda": 1}

    def test_inspect_reports_spec_and_sizes(self, put):
        put("a" * 32, scenario="digits", method="CDCL")
        report = cache.inspect("a" * 32)
        assert report["spec"] == {"method": "CDCL", "scenario": "digits", "seed": 0}
        assert report["result_bytes"] > 0
        assert report["result"]["method"] == "CDCL"
        assert set(report["result"]["metrics"]) == {"til", "cil"}
        assert not report["has_checkpoint"]

    def test_inspect_unknown_key_raises(self):
        with pytest.raises(KeyError):
            cache.inspect("0" * 32)

    def test_entry_without_sidecar_still_listed(self, put):
        """Entries from pre-manifest caches appear with an empty spec."""
        put("a" * 32)
        (cache.cache_dir() / ("a" * 32 + ".json")).unlink()
        [entry] = cache.manifest()
        assert entry.spec == {} and entry.created is None


class TestEvict:
    def test_noop_without_policy(self, put):
        put("a" * 32)
        assert cache.evict() == []
        assert cache.stats()["entries"] == 1

    def test_max_entries_drops_least_recently_used(self, put):
        put("a" * 32, age=100)
        put("b" * 32, age=10)
        put("c" * 32)
        victims = cache.evict(max_entries=2)
        assert [v.key for v in victims] == ["a" * 32]
        assert {e.key for e in cache.manifest()} == {"b" * 32, "c" * 32}

    def test_max_bytes_enforces_bound(self, put):
        for index, key in enumerate(("a", "b", "c", "d")):
            put(key * 32, age=100 - index)
        bound = int(2.5 * cache.manifest()[0].total_bytes)
        cache.evict(max_bytes=bound)
        assert cache.stats()["total_bytes"] <= bound
        # Newest survives, oldest went first.
        assert "d" * 32 in {e.key for e in cache.manifest()}

    def test_scenario_filter_evicts_all_matching(self, put):
        put("a" * 32, scenario="digits")
        put("b" * 32, scenario="visda")
        victims = cache.evict(scenario="digits")
        assert [v.key for v in victims] == ["a" * 32]
        assert [e.key for e in cache.manifest()] == ["b" * 32]

    def test_method_filter_with_bound_spares_other_methods(self, put):
        put("a" * 32, method="CDCL", age=100)
        put("b" * 32, method="DER", age=50)
        put("c" * 32, method="CDCL")
        victims = cache.evict(method="CDCL", max_entries=2)
        assert [v.key for v in victims] == ["a" * 32]  # oldest CDCL only
        assert {e.key for e in cache.manifest()} == {"b" * 32, "c" * 32}

    def test_dry_run_deletes_nothing(self, put):
        put("a" * 32)
        victims = cache.evict(max_entries=0, dry_run=True)
        assert len(victims) == 1
        assert cache.stats()["entries"] == 1

    def test_evict_removes_sidecar_files(self, put):
        put("a" * 32)
        cache.evict(max_entries=0)
        assert entry_files() == []


class TestVerify:
    def test_clean_cache_verifies(self, put):
        put("a" * 32)
        report = cache.verify()
        assert report["entries"] == 1 and report["ok"] == 1
        assert report["corrupt"] == [] and report["orphaned"] == []

    def test_corrupt_entry_detected_and_repaired(self, put):
        put("a" * 32)
        path = result_path("a" * 32)
        path.write_bytes(b"not a result")
        assert cache.verify()["corrupt"] == [path.name]
        assert path.exists()  # detection alone must not delete
        cache.verify(repair=True)
        assert not path.exists()
        assert cache.verify()["corrupt"] == []

    def test_orphans_detected_and_repaired(self, put):
        put("a" * 32)
        directory = cache.cache_dir()
        orphan_meta = directory / ("b" * 32 + ".json")
        orphan_meta.write_text("{}")
        orphan_ckpt = cache.checkpoint_path("c" * 32)
        orphan_ckpt.write_bytes(b"")
        torn = directory / "xyz.tmp"
        torn.write_bytes(b"")
        stamp = time.time() - 2 * cache._TMP_ORPHAN_AGE_SECONDS
        os.utime(torn, (stamp, stamp))  # old enough to be a killed worker's
        report = cache.verify()
        assert sorted(report["orphaned"]) == sorted(
            [orphan_meta.name, orphan_ckpt.name, torn.name]
        )
        cache.verify(repair=True)
        assert cache.verify()["orphaned"] == []
        assert result_path("a" * 32).exists()  # untouched

    def test_leftover_pickles_are_orphans(self, put):
        """``.pkl`` results of cache version 3 and older are unreachable."""
        put("a" * 32)
        stale = cache.cache_dir() / ("b" * 32 + ".pkl")
        stale.write_bytes(b"old layout")
        report = cache.verify()
        assert report["orphaned"] == [stale.name] and report["ok"] == 1
        cache.verify(repair=True)
        assert not stale.exists()
        assert result_path("a" * 32).exists()

    def test_fresh_tmp_file_is_not_an_orphan(self):
        """A young .tmp may be a concurrent worker mid-write: hands off."""
        in_flight = cache.cache_dir() / "live.tmp"
        in_flight.parent.mkdir(parents=True, exist_ok=True)
        in_flight.write_bytes(b"partial")
        assert cache.verify()["orphaned"] == []
        cache.verify(repair=True)
        assert in_flight.exists()

    def test_entry_checkpoint_is_not_an_orphan(self, put):
        put("a" * 32)
        cache.checkpoint_path("a" * 32).write_bytes(b"model")
        assert cache.verify()["orphaned"] == []
        [entry] = cache.manifest()
        assert entry.has_checkpoint and entry.checkpoint_bytes == 5

    def test_repair_preserves_checkpoint_of_corrupt_result(self, put):
        """A corrupt result must never take its trained model with it."""
        key = "a" * 32
        put(key)
        ckpt = cache.checkpoint_path(key)
        ckpt.write_bytes(b"hours of training")
        result = result_path(key)
        result.write_bytes(b"not a result")
        cache.verify(repair=True)
        assert not result.exists()
        assert ckpt.exists()
        # The surviving pair is a checkpoint-only entry: not an orphan
        # on later passes, visible to the management layer, evictable.
        report = cache.verify()
        assert report["corrupt"] == [] and report["orphaned"] == []
        entries = cache.manifest()
        assert [e.key for e in entries] == [key]
        assert entries[0].has_checkpoint and entries[0].result_bytes == 0
        assert cache.inspect(key)["has_checkpoint"]
        cache.evict(max_entries=0)
        assert not ckpt.exists()

    def test_repair_drops_corrupt_result_without_checkpoint_entirely(self, put):
        key = "a" * 32
        put(key)
        result_path(key).write_bytes(b"not a result")
        cache.verify(repair=True)
        assert entry_files() == []


class TestClear:
    def test_clear_removes_everything(self, put):
        put("a" * 32)
        cache.checkpoint_path("a" * 32).write_bytes(b"model")
        assert cache.clear() == 1  # one entry (bookkeeping files uncounted)
        assert entry_files() == []
