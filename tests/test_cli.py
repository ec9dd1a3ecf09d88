"""Tests for the ``python -m repro.experiments`` command-line interface."""

import json

import pytest

from repro.engine import cache
from repro.experiments.__main__ import main


class TestArgumentParsing:
    def test_requires_artifact(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["table9"])

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            main(["--profile", "huge", "table1"])


class TestSmokeExecution:
    def test_figure2_smoke(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert main(["figure2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out

    def test_table3_smoke_tiny(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "smoke")
        assert main(["table3", "--domains", "clp", "skt"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out


class TestCacheCommands:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch, make_result):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))
        self.make_result = make_result

    def _seed_entry(self, key="a" * 32, scenario="digits"):
        result = self.make_result(scenario=scenario)
        cache.store(key, result, meta={"method": "CDCL", "scenario": scenario, "seed": 0})
        return key

    def test_cache_stats_reports_counts_and_bytes(self, capsys):
        self._seed_entry()
        assert main(["cache-stats"]) == 0
        out = capsys.readouterr().out
        assert "entries         : 1" in out
        assert "digits" in out

    def test_cache_stats_json_lists_keys(self, capsys):
        key = self._seed_entry()
        assert main(["cache-stats", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 1
        assert report["keys"] == [key]

    def test_cache_inspect(self, capsys):
        key = self._seed_entry()
        assert main(["cache-inspect", key]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spec"]["method"] == "CDCL"

    def test_cache_inspect_unknown_key(self, capsys):
        assert main(["cache-inspect", "0" * 32]) == 2

    def test_cache_evict_requires_a_policy(self, capsys):
        assert main(["cache-evict"]) == 2

    def test_cache_evict_max_bytes_enforces_bound(self, capsys):
        self._seed_entry("a" * 32)
        self._seed_entry("b" * 32, scenario="visda")
        assert main(["cache-evict", "--max-bytes", "0"]) == 0
        assert "evicted 2 entries" in capsys.readouterr().out
        assert cache.stats()["entries"] == 0

    def test_cache_evict_dry_run_keeps_entries(self, capsys):
        self._seed_entry()
        assert main(["cache-evict", "--max-entries", "0", "--dry-run"]) == 0
        assert "would evict 1" in capsys.readouterr().out
        assert cache.stats()["entries"] == 1

    def test_cache_evict_rejects_bad_size(self):
        with pytest.raises(SystemExit):
            main(["cache-evict", "--max-bytes", "lots"])

    def test_cache_verify_flags_corruption(self, capsys):
        key = self._seed_entry()
        (cache.cache_dir() / f"{key}.result.json").write_bytes(b"garbage")
        assert main(["cache-verify"]) == 1
        assert "1 corrupt" in capsys.readouterr().out
        assert main(["cache-verify", "--repair"]) == 0
        capsys.readouterr()
        assert main(["cache-verify"]) == 0

    def test_checkpoint_conflicts_with_no_cache(self, capsys):
        assert main(["--checkpoint", "--no-cache", "figure2"]) == 2
        assert "checkpoint" in capsys.readouterr().err


class TestClusterCommands:
    def test_worker_fails_cleanly_when_coordinator_unreachable(self, capsys):
        # Port 1 is never listening; the worker must give up with a
        # tidy error, not a traceback.
        code = main(
            [
                "cluster-worker",
                "--coordinator",
                "127.0.0.1:1",
                "--poll-interval",
                "0.01",
            ]
        )
        assert code == 2
        assert "unreachable" in capsys.readouterr().err

    def test_coordinator_and_worker_round_trip(self, capsys):
        """A coordinator thread serves a real worker started via the CLI."""
        import threading
        import time

        from repro.cluster import ClusterClient, CoordinatorThread

        with CoordinatorThread(check_interval=0.05) as (host, port):
            outcome = {}

            def run_worker_cli():
                outcome["code"] = main(
                    [
                        "cluster-worker",
                        "--coordinator",
                        f"{host}:{port}",
                        "--poll-interval",
                        "0.05",
                    ]
                )

            thread = threading.Thread(target=run_worker_cli, daemon=True)
            thread.start()
            client = ClusterClient(f"{host}:{port}")
            # Drain only after the worker registered — shutting down
            # mid-hello would race its registration connect.
            deadline = time.monotonic() + 10
            while not client.stats()["workers"]:
                assert time.monotonic() < deadline, "worker never registered"
                time.sleep(0.05)
            client.shutdown()
            thread.join(timeout=10)
        assert outcome["code"] == 0
        assert "0 cell(s) executed" in capsys.readouterr().out

    def test_rejects_malformed_cluster_address(self, capsys):
        code = main(["--cluster", "http://nope:1", "multiseed", "--seeds", "0"])
        assert code == 2
        assert "scheme" in capsys.readouterr().err


class TestNounVerbGroups:
    """The 0.6 noun-verb surface and its deprecated flat aliases."""

    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch, make_result):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))
        self.make_result = make_result

    def _seed_entry(self, key="a" * 32, scenario="digits"):
        result = self.make_result(scenario=scenario)
        cache.store(key, result, meta={"method": "CDCL", "scenario": scenario, "seed": 0})
        return key

    def test_cache_stats_noun_verb(self, capsys):
        self._seed_entry()
        assert main(["cache", "stats"]) == 0
        captured = capsys.readouterr()
        assert "entries         : 1" in captured.out
        assert "deprecated" not in captured.err

    def test_deprecated_alias_still_works_and_warns(self, capsys):
        self._seed_entry()
        assert main(["cache-stats"]) == 0
        captured = capsys.readouterr()
        assert "entries         : 1" in captured.out
        assert "'cache-stats' is deprecated" in captured.err
        assert "cache stats" in captured.err

    def test_alias_rewrite_skips_value_taking_globals(self, capsys):
        # --profile consumes "smoke": the scan must not mistake the
        # value for the subcommand word.
        self._seed_entry()
        assert main(["--profile", "smoke", "cache-stats", "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out)["entries"] == 1
        assert "deprecated" in captured.err

    def test_cache_verb_required(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_cache_inspect_both_spellings(self, capsys):
        key = self._seed_entry()
        assert main(["cache", "inspect", key]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["cache-inspect", key]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_cache_evict_noun_verb(self, capsys):
        self._seed_entry()
        assert main(["cache", "evict", "--max-entries", "0"]) == 0
        assert "evicted 1" in capsys.readouterr().out

    def test_cluster_worker_noun_verb_fails_cleanly(self, capsys):
        code = main(
            ["cluster", "worker", "--coordinator", "127.0.0.1:1",
             "--poll-interval", "0.01"]
        )
        assert code == 2
        assert "unreachable" in capsys.readouterr().err


class TestRunsCommands:
    @pytest.fixture(autouse=True)
    def _isolated_cache(self, tmp_path, monkeypatch, make_result):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))
        self.make_result = make_result

    def _seed_entry(self, key="a" * 32, method="CDCL", seed=0):
        cache.store(
            key,
            self.make_result(seed, method=method),
            meta={"method": method, "scenario": "digits", "seed": seed,
                  "profile": "smoke", "dtype": "float32"},
        )
        return key

    def test_runs_query_empty_store(self, capsys):
        assert main(["runs", "query"]) == 0
        assert "0 rows" in capsys.readouterr().out

    def test_runs_query_lists_indexed_cells(self, capsys):
        self._seed_entry("a" * 32, method="CDCL")
        self._seed_entry("b" * 32, method="DER", seed=1)
        assert main(["runs", "query"]) == 0
        out = capsys.readouterr().out
        assert "2 rows" in out and "CDCL" in out and "DER" in out
        assert main(["runs", "query", "--method", "DER", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        rows = document["rows"]
        assert {row["cache_key"] for row in rows} == {"b" * 32}
        expected = self.make_result(1, method="DER").results
        assert {row["protocol"]: row["acc"] for row in rows} == {
            protocol.value: run.acc for protocol, run in expected.items()
        }
        assert main(["runs", "query", "--method", "nope"]) == 0
        assert "0 rows" in capsys.readouterr().out

    def test_runs_query_unknown_since_sha_is_tidy(self, capsys):
        self._seed_entry()
        assert main(["runs", "query", "--since-sha", "feedface"]) == 2
        assert "no rows" in capsys.readouterr().err

    def test_runs_backfill_reindexes_a_wiped_store(self, capsys):
        from repro.store import RunStore

        self._seed_entry()
        store = RunStore()
        store.clear()
        assert main(["runs", "backfill"]) == 0
        out = capsys.readouterr().out
        assert "1 indexed" in out
        assert store.count() == 1

    def test_runs_report_missing_cell_points_at_backfill(self, capsys):
        assert main(["--profile", "smoke", "runs", "report", "table1"]) == 2
        assert "backfill" in capsys.readouterr().err

    def test_runs_report_rejects_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["runs", "report", "table9"])

    def test_runs_diff_empty_sides(self, capsys):
        assert main(["runs", "diff", "aaa", "bbb"]) == 0
        assert "0 matched" in capsys.readouterr().out

    def test_runs_verb_required(self):
        with pytest.raises(SystemExit):
            main(["runs"])
