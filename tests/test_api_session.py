"""Tests for the :mod:`repro.api` Session facade.

Contract: one Session owns cache dir / profile / executor settings;
the fluent builder produces the same engine cells the free functions
did; handles expose typed results with row/JSON export; checkpointed
handles pin their cache entries; progress observers see the full
lifecycle and can never kill a run.
"""

import json

import pytest

from repro.api import ProgressEvent, Result, RunHandle, Session
from repro.continual import Scenario
from repro.data.synthetic import mnist_usps
from repro.engine import cache
from repro.engine.registry import SCENARIOS, register_scenario

TINY = dict(samples_per_class=4, test_samples_per_class=2, epochs=2, warmup_epochs=1)

if "_test/api_digits" not in SCENARIOS:

    @register_scenario("_test/api_digits", description="2-task digit stream (api tests)")
    def _api_digits(profile, seed, **params):
        stream = mnist_usps(
            "mnist->usps", samples_per_class=4, test_samples_per_class=2, rng=seed
        )
        stream.tasks = stream.tasks[:2]
        return stream


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))


def tiny_builder(session: Session, method: str = "FineTune"):
    return session.run(method).on("_test/api_digits").profile("smoke", **TINY)


class TestBuilder:
    def test_chain_is_immutable(self):
        session = Session()
        base = tiny_builder(session)
        seeded = base.seed(7)
        assert base.base_seed == 0 and seeded.base_seed == 7

    def test_specs_carry_profile_and_overrides(self):
        builder = tiny_builder(Session()).overrides(epochs=1).params(rng_label=1)
        (spec,) = builder.specs()
        assert spec.method == "FineTune"
        assert spec.scenario == "_test/api_digits"
        assert spec.profile == "smoke"
        assert spec.profile_overrides["samples_per_class"] == 4
        assert spec.method_overrides == {"epochs": 1}
        assert spec.scenario_params == {"rng_label": 1}

    def test_seeds_count_expands_from_base(self):
        specs = tiny_builder(Session()).seed(10).seeds(3).specs()
        assert [s.seed for s in specs] == [10, 11, 12]

    def test_seeds_independent_uses_seed_sequence(self):
        from repro.engine.executor import derive_seeds

        specs = tiny_builder(Session()).seeds(3, independent=True).specs()
        assert tuple(s.seed for s in specs) == derive_seeds(0, 3)

    def test_seeds_iterable_taken_verbatim(self):
        specs = tiny_builder(Session()).seeds([5, 3]).specs()
        assert [s.seed for s in specs] == [5, 3]

    def test_eval_parses_protocol_names(self):
        (spec,) = tiny_builder(Session()).eval("til").specs()
        assert spec.eval_scenarios == ("til",)

    def test_unknown_scenario_fails_fast(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            Session().run("CDCL").on("nope/nothing")

    def test_missing_scenario_is_a_clear_error(self):
        with pytest.raises(ValueError, match="on\\("):
            Session().run("CDCL").specs()

    def test_method_lookup_is_case_insensitive(self):
        assert Session().run("cdcl").method == "CDCL"
        assert Session().run("der++").method == "DER++"
        with pytest.raises(ValueError, match="unknown method"):
            Session().run("definitely-not-registered")


class TestExecution:
    def test_result_rows_and_json(self):
        result = tiny_builder(Session()).result()
        assert isinstance(result, Result)
        rows = result.to_rows()
        assert {row["protocol"] for row in rows} == {"til", "cil"}
        for row in rows:
            assert row["method"] == "FineTune"
            assert 0.0 <= row["acc"] <= 1.0
        payload = json.loads(result.to_json())
        assert payload["seeds"] == [0]
        assert len(payload["rows"]) == len(rows)
        assert set(payload["stats"]) == {"til", "cil"}

    def test_acc_and_fgt_accessors(self):
        result = tiny_builder(Session()).result()
        assert result.acc("til") == pytest.approx(
            result.stats()["til"]["acc"][0]
        )
        assert -1.0 <= result.fgt(Scenario.TIL) <= 1.0

    def test_second_run_is_served_from_cache(self):
        session = Session()
        first = tiny_builder(session).start()
        again = tiny_builder(session).start()
        assert isinstance(first, RunHandle)
        assert not first.results[0].cached
        assert again.results[0].cached

    def test_static_method_rows(self):
        result = tiny_builder(Session(), method="TVT").result()
        rows = result.to_rows()
        assert all(row["fgt"] is None for row in rows)
        assert {row["protocol"] for row in rows} == {"til", "cil"}

    def test_session_cache_dir_scopes_the_store(self, tmp_path, monkeypatch):
        import os

        custom = tmp_path / "custom-store"
        session = Session(cache_dir=custom)
        tiny_builder(session).start()
        assert list(custom.glob("*.result.json"))  # entries landed in the session dir
        # and the process environment was restored afterwards
        assert os.environ["REPRO_CACHE_DIR"] != str(custom)

    def test_pair_assembles_table_shape(self):
        from repro.engine.profiles import get_profile

        pair = Session(profile=get_profile("smoke", **TINY)).pair(
            "_test/api_digits",
            ["FineTune"],
            include_tvt=False,
            method_overrides=None,
        )
        assert set(pair.results) == {"FineTune"}
        assert 0.0 <= pair.acc("FineTune", Scenario.TIL) <= 1.0

    def test_sweep_aggregates_seeds(self):
        session = Session()
        spec = tiny_builder(session).specs()[0]
        result = session.sweep(spec, seeds=(0, 1))
        assert result.seeds == (0, 1)
        assert result.acc[Scenario.TIL].n == 2


class TestEvents:
    def test_lifecycle_sequence_serial(self):
        events: list[ProgressEvent] = []
        session = Session(on_event=events.append)
        tiny_builder(session).seeds(2).start()
        kinds = [event.kind for event in events]
        assert kinds == [
            "run-start",
            "cell-start",
            "cell-done",
            "cell-start",
            "cell-done",
            "run-done",
        ]
        assert events[0].total == 2
        assert events[-1].elapsed is not None
        done = [e for e in events if e.kind == "cell-done"]
        assert all(e.result is not None for e in done)

    def test_cell_done_marks_cache_hits(self):
        session = Session()
        tiny_builder(session).start()
        events = []
        session.subscribe(events.append)
        tiny_builder(session).start()
        (done,) = [e for e in events if e.kind == "cell-done"]
        assert done.cached

    def test_observer_exception_never_kills_the_run(self):
        session = Session()

        @session.subscribe
        def _explode(event):
            raise RuntimeError("observer bug")

        result = tiny_builder(session).result()  # must not raise
        assert result.to_rows()
        assert session.events.errors > 0

    def test_unsubscribe_stops_delivery(self):
        session = Session()
        events = []
        session.subscribe(events.append)
        session.unsubscribe(events.append)
        tiny_builder(session).start()
        assert events == []

    def test_events_str_is_loggable(self):
        events = []
        session = Session(on_event=events.append)
        tiny_builder(session).start()
        assert "FineTune" in str([e for e in events if e.kind == "cell-done"][0])


class TestHandles:
    def test_checkpointed_handle_pins_until_release(self):
        session = Session()
        handle = tiny_builder(session).checkpoint().start()
        key = handle.specs[0].cache_key()
        assert key in cache.pinned()
        # A full LRU sweep must skip the pinned entry...
        cache.evict(max_entries=0)
        assert session.has_checkpoint(handle.specs[0])
        handle.release()
        assert key not in cache.pinned()
        # ...and take it once the handle lets go.
        cache.evict(max_entries=0)
        assert not session.has_checkpoint(handle.specs[0])

    def test_release_is_idempotent_and_context_managed(self):
        session = Session()
        with tiny_builder(session).checkpoint().start() as handle:
            assert handle.specs[0].cache_key() in cache.pinned()
        assert handle.specs[0].cache_key() not in cache.pinned()
        handle.release()  # second release: no-op

    def test_uncheckpointed_handle_pins_nothing(self):
        handle = tiny_builder(Session()).start()
        assert not cache.pinned()
        with pytest.raises(ValueError, match="checkpoint"):
            handle.load_model()

    def test_load_model_round_trips(self):
        session = Session()
        handle = tiny_builder(session).checkpoint().start()
        method = handle.load_model()
        assert method.tasks_seen == 2
        handle.release()


class TestRegistryViews:
    def test_views_expose_registries(self):
        session = Session()
        assert "CDCL" in session.methods.names()
        assert "digits/mnist->usps" in session.scenarios.names()

    def test_repr_mentions_profile(self):
        assert "smoke" in repr(Session(profile="smoke"))


class TestRunThroughExperiments:
    def test_table_runner_accepts_a_session(self):
        """The rewired table specs run through a caller-owned session."""
        from repro.experiments.table4 import run_table4

        events = []
        session = Session(
            profile="smoke", on_event=events.append
        )
        result = run_table4(
            directions=("mnist->usps",), variants=("full",), session=session
        )
        assert result.profile == "smoke"
        assert [e.kind for e in events][0] == "run-start"
        assert any(e.kind == "cell-done" for e in events)
