"""Tests for the unified experiment engine (registry, cache, executor).

Coverage contract from the engine's design:

* every registered method name constructs a working instance on the
  smoke profile;
* every registered scenario yields a valid task stream;
* a cache round-trip returns bit-identical results;
* a two-seed parallel run matches the serial run seed-for-seed;
* a new scenario is usable by registering one factory, with no edits
  to any table module.
"""

import numpy as np
import pytest

from repro.continual import ContinualMethod, Scenario
from repro.data.synthetic import mnist_usps
from repro.engine import (
    METHODS,
    SCENARIOS,
    RunSpec,
    cache,
    get_profile,
    register_scenario,
)
from repro.engine.executor import derive_seeds, run_seed_sweep, run_specs
from repro.engine.runner import run_one, run_pair_cells, spec_for

SMOKE = get_profile("smoke")

#: Tiny workload shared by the execution tests: 5-task digit stream at
#: minimal size, 2-epoch training.
TINY_OVERRIDES = dict(
    samples_per_class=4, test_samples_per_class=2, epochs=2, warmup_epochs=1
)


@register_scenario("_test/tiny_digits", description="truncated 2-task digit stream")
def _tiny_digits(profile, seed, **params):
    stream = mnist_usps(
        "mnist->usps", samples_per_class=4, test_samples_per_class=2, rng=seed
    )
    stream.tasks = stream.tasks[:2]
    return stream


def tiny_spec(method: str = "FineTune", **kwargs) -> RunSpec:
    return RunSpec(
        method=method,
        scenario="_test/tiny_digits",
        profile="smoke",
        profile_overrides=dict(TINY_OVERRIDES),
        **kwargs,
    )


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))


class TestMethodRegistry:
    def test_expected_method_set(self):
        assert "CDCL" in METHODS
        assert "TVT" in METHODS
        assert len(METHODS) >= 12  # CDCL + the 11 baselines

    @pytest.mark.parametrize("name", METHODS.names())
    def test_every_method_constructs(self, name):
        spec = METHODS.get(name)
        method = spec.factory(SMOKE, 1, 16, 0, None)
        assert isinstance(method, ContinualMethod)
        assert method.name == name

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown method"):
            METHODS.get("iCaRL")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            METHODS.register(METHODS.get("CDCL"))


class TestScenarioRegistry:
    def test_papers_benchmarks_registered(self):
        for name in (
            "office31/A->W",
            "digits/mnist->usps",
            "visda2017",
            "office_home/Ar->Cl",
            "domainnet/clp->skt",
            "office_home_dil",
            "digits_drift",
        ):
            assert name in SCENARIOS

    # domainnet_full/* are paper-scale and refuse to build without
    # REPRO_FULL=1; their guard and geometry have dedicated tests below.
    @pytest.mark.parametrize(
        "name",
        [n for n in SCENARIOS.names() if not n.startswith("domainnet_full/")],
    )
    def test_every_scenario_yields_valid_stream(self, name):
        stream = SCENARIOS.get(name).build(
            SMOKE, seed=0, samples_per_class=2, test_samples_per_class=2
        )
        assert len(stream) > 0
        for position, task in enumerate(stream):
            assert task.task_id == position
            assert task.num_classes == stream.classes_per_task
            image = task.source_train[0][0]
            assert image.ndim == 3  # (C, H, W)
            assert len(task.target_test) > 0

    def test_drift_scenario_gap_widens(self):
        stream = SCENARIOS.get("digits_drift").build(
            SMOKE, seed=0, samples_per_class=2, test_samples_per_class=2
        )
        assert len(stream) == 5
        assert "drift" in stream.name

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            SCENARIOS.get("imagenet")


class TestPaperScaleScenarios:
    """domainnet_full/*: the real 345-class geometry, gated on REPRO_FULL."""

    def test_all_thirty_pairs_registered(self):
        full = [n for n in SCENARIOS.names() if n.startswith("domainnet_full/")]
        assert len(full) == 30  # 6 domains, ordered pairs
        assert "domainnet_full/clp->skt" in SCENARIOS

    def test_refuses_to_build_without_repro_full(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        with pytest.raises(ValueError, match="REPRO_FULL"):
            SCENARIOS.get("domainnet_full/clp->skt").build(SMOKE, seed=0)

    def test_paper_geometry_under_repro_full(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        stream = SCENARIOS.get("domainnet_full/rel->qdr").build(
            SMOKE, seed=0, samples_per_class=1, test_samples_per_class=1
        )
        assert len(stream) == 15  # 15 tasks x 23 classes = 345
        assert stream.classes_per_task == 23
        assert {c for task in stream for c in task.classes} == set(range(345))


class TestRunSpecCache:
    def test_key_is_deterministic(self):
        assert tiny_spec().cache_key() == tiny_spec().cache_key()

    def test_key_distinguishes_fields(self):
        base = tiny_spec()
        assert base.cache_key() != tiny_spec(seed=1).cache_key()
        assert base.cache_key() != tiny_spec(method="DER").cache_key()
        assert (
            base.cache_key()
            != tiny_spec(method_overrides={"lr": 1e-4}).cache_key()
        )

    def test_round_trip_is_bit_identical(self):
        spec = tiny_spec()
        cold = run_one(spec, use_cache=True)
        assert not cold.cached
        warm = run_one(spec, use_cache=True)
        assert warm.cached
        for scenario in (Scenario.TIL, Scenario.CIL):
            np.testing.assert_array_equal(
                cold.results[scenario].r_matrix.values,
                warm.results[scenario].r_matrix.values,
            )
            assert cold.results[scenario].acc == warm.results[scenario].acc
            assert cold.results[scenario].fgt == warm.results[scenario].fgt

    def test_no_cache_recomputes(self):
        spec = tiny_spec()
        run_one(spec, use_cache=True)
        again = run_one(spec, use_cache=False)
        assert not again.cached

    def test_env_var_disables_cache(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        spec = tiny_spec()
        run_one(spec, use_cache=True)
        assert run_one(spec, use_cache=True).cached is False

    def test_corrupt_entry_is_a_miss(self):
        spec = tiny_spec()
        run_one(spec, use_cache=True)
        path = cache.cache_dir() / f"{spec.cache_key()}.result.json"
        path.write_bytes(b"not a result")
        result = run_one(spec, use_cache=True)
        assert not result.cached  # recomputed, then re-stored
        assert run_one(spec, use_cache=True).cached


class TestParallelExecution:
    def test_two_seed_parallel_matches_serial(self):
        spec = tiny_spec()
        serial = run_seed_sweep(spec, seeds=(0, 1), jobs=1, use_cache=False)
        parallel = run_seed_sweep(spec, seeds=(0, 1), jobs=2, use_cache=False)
        for scenario in (Scenario.TIL, Scenario.CIL):
            assert serial.acc[scenario].values == parallel.acc[scenario].values
            assert serial.fgt[scenario].values == parallel.fgt[scenario].values

    def test_results_keep_input_order(self):
        specs = [tiny_spec(seed=s) for s in (3, 1, 2)]
        results = run_specs(specs, jobs=2, use_cache=False)
        assert [r.seed for r in results] == [3, 1, 2]

    def test_parallel_run_warms_shared_cache(self):
        spec = tiny_spec()
        run_seed_sweep(spec, seeds=(0, 1), jobs=2, use_cache=True)
        warm = run_specs([tiny_spec(seed=0), tiny_spec(seed=1)], use_cache=True)
        assert all(cell.cached for cell in warm)

    def test_empty_seeds_raise(self):
        with pytest.raises(ValueError):
            run_seed_sweep(tiny_spec(), seeds=())

    def test_derive_seeds_deterministic_and_distinct(self):
        seeds = derive_seeds(7, 4)
        assert seeds == derive_seeds(7, 4)
        assert len(set(seeds)) == 4
        assert seeds != derive_seeds(8, 4)


class TestPairAssembly:
    def test_pair_cells_include_tvt(self):
        pair = run_pair_cells(
            "_test/tiny_digits",
            methods=("FineTune",),
            profile=get_profile("smoke", **TINY_OVERRIDES),
            include_tvt=True,
        )
        assert 0.0 <= pair.acc("FineTune", Scenario.TIL) <= 1.0
        assert Scenario.TIL in pair.tvt_acc

    def test_new_scenario_needs_no_table_edit(self):
        """Registering one factory makes a scenario runnable end-to-end."""

        @register_scenario("_test/registered_late", description="added in-test")
        def _late(profile, seed, **params):
            stream = mnist_usps(
                "usps->mnist", samples_per_class=4, test_samples_per_class=2, rng=seed
            )
            stream.tasks = stream.tasks[:2]
            return stream

        cell = run_one(
            spec_for(
                "FineTune",
                "_test/registered_late",
                get_profile("smoke", **TINY_OVERRIDES),
            ),
            use_cache=False,
        )
        assert Scenario.CIL in cell.results

    def test_static_method_reports_static_acc(self):
        cell = run_one(tiny_spec(method="TVT"), use_cache=False)
        assert cell.is_static
        assert set(cell.static_acc) == {Scenario.TIL, Scenario.CIL}

    def test_multiseed_supports_static_methods(self):
        """TVT is listed by list-methods, so the seed sweep must take it."""
        result = run_seed_sweep(tiny_spec(method="TVT"), seeds=(0, 1), use_cache=False)
        assert result.acc[Scenario.TIL].n == 2
        assert result.fgt[Scenario.TIL].values == [0.0, 0.0]  # static: no forgetting

    def test_custom_named_profile_round_trips(self):
        """Profiles with unregistered names must survive the spec round-trip."""
        from dataclasses import replace

        custom = replace(get_profile("smoke", **TINY_OVERRIDES), name="mine")
        spec = spec_for("FineTune", "_test/tiny_digits", custom)
        resolved = spec.resolved_profile()
        assert resolved.name == "mine"
        assert resolved.samples_per_class == TINY_OVERRIDES["samples_per_class"]
        cell = run_one(spec, use_cache=False)
        assert Scenario.TIL in cell.results


class TestEvaluatorBatching:
    def test_predict_multi_matches_per_scenario_predicts(self):
        """The shared-forward fast path must agree with predict/predict_global."""
        from repro.continual import run_continual_multi
        from repro.core import CDCLConfig, CDCLTrainer

        stream = _tiny_digits(SMOKE, seed=0)
        trainer = CDCLTrainer(
            CDCLConfig.fast(epochs=2, warmup_epochs=1), 1, 16, rng=0
        )
        run_continual_multi(trainer, stream, [Scenario.TIL])
        images = stream[0].target_test.arrays()[0]
        multi = trainer.predict_multi(images, 0, [Scenario.TIL, Scenario.CIL])
        np.testing.assert_array_equal(
            multi[Scenario.TIL], trainer.predict(images, 0, Scenario.TIL)
        )
        np.testing.assert_array_equal(
            multi[Scenario.CIL], trainer.predict_global(images, Scenario.CIL)
        )
