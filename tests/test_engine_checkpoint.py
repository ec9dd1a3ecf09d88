"""Tests for checkpoint-aware run cells.

Contract: a cell run with ``checkpoint=True`` persists its trained
model next to the cached metrics, and ``load_checkpoint(spec)``
reproduces the cell's evaluation metrics exactly — no retraining, for
every method family (growing-head CDCL/baselines, single-head CDTrans,
static TVT) — including under parallel workers.
"""

import numpy as np
import pytest

from repro.continual import Scenario, evaluate_task_multi
from repro.data.synthetic import mnist_usps
from repro.engine import SCENARIOS, RunSpec, cache, register_scenario
from repro.engine.executor import run_specs
from repro.engine.runner import has_checkpoint, load_checkpoint, run_one

#: Tiny workload: 2-task digit stream, 2-epoch training.
TINY_OVERRIDES = dict(
    samples_per_class=4, test_samples_per_class=2, epochs=2, warmup_epochs=1
)

SCENARIOS_BOTH = [Scenario.TIL, Scenario.CIL]


@register_scenario("_test/ckpt_digits", description="2-task digit stream (checkpoint tests)")
def _ckpt_digits(profile, seed, **params):
    stream = mnist_usps(
        "mnist->usps", samples_per_class=4, test_samples_per_class=2, rng=seed
    )
    stream.tasks = stream.tasks[:2]
    return stream


def tiny_spec(method: str = "FineTune", **kwargs) -> RunSpec:
    return RunSpec(
        method=method,
        scenario="_test/ckpt_digits",
        profile="smoke",
        profile_overrides=dict(TINY_OVERRIDES),
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))


def _stream_for(spec: RunSpec):
    return SCENARIOS.get(spec.scenario).build(spec.resolved_profile(), spec.seed)


class TestRoundTrip:
    @pytest.mark.parametrize("method", ["CDCL", "DER", "CDTrans-S"])
    def test_reload_reproduces_final_row_metrics(self, method):
        """train -> persist -> load_checkpoint -> identical eval accuracies."""
        spec = tiny_spec(method)
        cell = run_one(spec, checkpoint=True)
        assert not cell.cached
        loaded = load_checkpoint(spec)
        stream = _stream_for(spec)
        last = len(stream) - 1
        for task in stream:
            accs = evaluate_task_multi(loaded, task, SCENARIOS_BOTH)
            for scenario in SCENARIOS_BOTH:
                expected = cell.results[scenario].r_matrix.values[last, task.task_id]
                assert accs[scenario] == pytest.approx(expected, abs=1e-12)

    def test_static_method_round_trips(self):
        """TVT (static, fit on the whole stream) checkpoints like any cell."""
        spec = tiny_spec("TVT")
        cell = run_one(spec, checkpoint=True)
        loaded = load_checkpoint(spec)
        stream = _stream_for(spec)
        for scenario in SCENARIOS_BOTH:
            accs = [
                evaluate_task_multi(loaded, task, [scenario])[scenario]
                for task in stream
            ]
            assert float(np.mean(accs)) == pytest.approx(
                cell.static_acc[scenario], abs=1e-12
            )

    def test_loaded_method_reports_trained_structure(self):
        spec = tiny_spec("CDCL")
        run_one(spec, checkpoint=True)
        loaded = load_checkpoint(spec)
        assert loaded.tasks_seen == len(_stream_for(spec))


class TestCheckpointLifecycle:
    def test_plain_run_leaves_no_checkpoint(self):
        spec = tiny_spec()
        run_one(spec)
        assert not has_checkpoint(spec)
        with pytest.raises(FileNotFoundError, match="--checkpoint"):
            load_checkpoint(spec)

    def test_hit_without_checkpoint_recomputes_to_materialize_it(self):
        spec = tiny_spec()
        run_one(spec)  # warm the metrics cache, no checkpoint
        again = run_one(spec, checkpoint=True)
        assert not again.cached  # had to retrain to produce the model
        assert has_checkpoint(spec)
        third = run_one(spec, checkpoint=True)
        assert third.cached  # checkpoint present -> plain hit

    def test_checkpoint_requires_caching(self, monkeypatch):
        with pytest.raises(ValueError, match="checkpoint"):
            run_one(tiny_spec(), use_cache=False, checkpoint=True)
        # REPRO_NO_CACHE must not silently drop the model either.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        with pytest.raises(ValueError, match="checkpoint"):
            run_one(tiny_spec(), checkpoint=True)

    def test_checkpoint_evicts_with_its_entry(self):
        spec = tiny_spec()
        run_one(spec, checkpoint=True)
        assert has_checkpoint(spec)
        cache.evict(max_entries=0)
        assert not has_checkpoint(spec)
        assert cache.load(spec.cache_key()) is None


class TestConcurrentWriters:
    def test_parallel_workers_write_loadable_checkpoints(self):
        """Two workers persisting concurrently must never tear a file."""
        specs = [tiny_spec(seed=seed) for seed in (0, 1)]
        cells = run_specs(specs, jobs=2, checkpoint=True)
        for spec, cell in zip(specs, cells):
            assert has_checkpoint(spec)
            loaded = load_checkpoint(spec)
            stream = _stream_for(spec)
            last = len(stream) - 1
            accs = evaluate_task_multi(loaded, stream[last], SCENARIOS_BOTH)
            for scenario in SCENARIOS_BOTH:
                expected = cell.results[scenario].r_matrix.values[last, last]
                assert accs[scenario] == pytest.approx(expected, abs=1e-12)

    def test_parallel_hit_requires_checkpoint(self):
        """A warm metrics cache without checkpoints still dispatches workers."""
        specs = [tiny_spec(seed=seed) for seed in (0, 1)]
        run_specs(specs, jobs=2)  # metrics only
        assert not any(has_checkpoint(s) for s in specs)
        run_specs(specs, jobs=2, checkpoint=True)
        assert all(has_checkpoint(s) for s in specs)
