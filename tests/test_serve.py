"""Tests for :mod:`repro.serve` — batched inference over checkpoints.

Contract: concurrent ``predict`` calls are micro-batched into shared
``predict_multi`` forwards whose outputs are bitwise-identical to a
direct call; the model pool LRU-bounds resident models and pins their
cache entries so disk eviction cannot delete a checkpoint a live
service holds; a missing checkpoint fails cleanly, never silently.
"""

import asyncio

import numpy as np
import pytest

from repro.api import Session
from repro.continual import Scenario
from repro.data.synthetic import mnist_usps
from repro.engine import cache
from repro.engine.registry import SCENARIOS, register_scenario
from repro.serve import (
    CheckpointUnavailable,
    InferenceService,
    ModelPool,
    ServeApp,
    request_async,
)

TINY = dict(samples_per_class=4, test_samples_per_class=8, epochs=2, warmup_epochs=1)

if "_test/serve_digits" not in SCENARIOS:

    @register_scenario("_test/serve_digits", description="2-task stream (serve tests)")
    def _serve_digits(profile, seed, **params):
        stream = mnist_usps(
            "mnist->usps",
            samples_per_class=4,
            test_samples_per_class=8,
            rng=seed,
        )
        stream.tasks = stream.tasks[:2]
        return stream


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "engine-cache"))
    cache.reset_pins()  # pins are process-global; isolate each test
    yield
    cache.reset_pins()


@pytest.fixture()
def session():
    return Session()


def checkpointed_spec(session, method="FineTune", seed=0):
    handle = (
        session.run(method)
        .on("_test/serve_digits")
        .profile("smoke", **TINY)
        .seed(seed)
        .checkpoint()
        .start()
    )
    spec = handle.specs[0]
    handle.release()  # tests drive pinning through the pool, not the handle
    return spec


def sample_images(spec, task: int = 0):
    stream = SCENARIOS.get(spec.scenario).build(spec.resolved_profile(), spec.seed)
    return stream[task].target_test.arrays()


class TestModelPool:
    def test_load_once_then_hits(self, session):
        spec = checkpointed_spec(session)
        pool = ModelPool(session, capacity=2)
        first = pool.get(spec)
        second = pool.get(spec)
        assert first is second
        assert pool.stats()["loads"] == 1
        assert pool.stats()["hits"] == 1

    def test_missing_checkpoint_fails_cleanly(self, session):
        spec = session.spec("FineTune", "_test/serve_digits", profile_overrides=TINY)
        with pytest.raises(CheckpointUnavailable, match="checkpoint"):
            ModelPool(session).get(spec)

    def test_lru_bounds_resident_models_and_pins(self, session):
        specs = [checkpointed_spec(session, seed=seed) for seed in (0, 1)]
        pool = ModelPool(session, capacity=1)
        pool.get(specs[0])
        assert specs[0].cache_key() in cache.pinned()
        pool.get(specs[1])  # evicts the first resident model
        assert len(pool) == 1
        assert specs[0].cache_key() not in cache.pinned()
        assert specs[1].cache_key() in cache.pinned()
        assert pool.stats()["evictions"] == 1
        pool.close()
        assert not cache.pinned()

    def test_rejects_nonpositive_capacity(self, session):
        with pytest.raises(ValueError, match="capacity"):
            ModelPool(session, capacity=0)


class TestServeVsCacheEviction:
    """The ISSUE's interaction contract: pin while held, fail cleanly after."""

    def test_disk_eviction_skips_entries_held_by_the_pool(self, session):
        spec = checkpointed_spec(session)
        pool = ModelPool(session)
        pool.get(spec)
        victims = cache.evict(max_entries=0)  # full LRU sweep
        assert spec.cache_key() not in [v.key for v in victims]
        assert session.has_checkpoint(spec)
        # still servable after the sweep
        assert pool.get(spec).tasks_seen == 2

    def test_eviction_after_release_then_reload_fails_cleanly(self, session):
        spec = checkpointed_spec(session)
        pool = ModelPool(session)
        pool.get(spec)
        pool.close()  # release the pin
        cache.evict(max_entries=0)
        assert not session.has_checkpoint(spec)
        with pytest.raises(CheckpointUnavailable, match="checkpoint"):
            pool.get(spec)

    def test_checkpoint_only_entry_pins_too(self, session):
        """A corrupt result repaired into a checkpoint-only entry still
        serves, and serving pins it against eviction."""
        spec = checkpointed_spec(session)
        key = spec.cache_key()
        (cache.cache_dir() / f"{key}.result.json").write_bytes(b"garbage")
        cache.verify(repair=True)  # drops the result, keeps the checkpoint
        pool = ModelPool(session)
        model = pool.get(spec)  # load_checkpoint does not need the result
        assert model.tasks_seen == 2
        cache.evict(max_entries=0)
        assert session.has_checkpoint(spec)
        pool.close()


class TestMicroBatching:
    def test_concurrent_predicts_match_predict_multi_bitwise(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)
        direct = session.load_model(spec).predict_multi(images, 0, [Scenario.TIL])[
            Scenario.TIL
        ]

        async def main():
            service = InferenceService(session, max_batch=64, max_delay_ms=100)
            served = await asyncio.gather(
                *(service.predict(spec, image, task_id=0) for image in images)
            )
            stats = service.stats()
            await service.close()
            return np.array(served), stats

        served, stats = asyncio.run(main())
        assert np.array_equal(served, direct)
        assert stats["requests"] == len(images)
        # concurrent submissions coalesced into shared forwards
        assert stats["batches"] < len(images)

    def test_full_coalescing_with_wide_window(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)

        async def main():
            service = InferenceService(session, max_batch=64, max_delay_ms=250)
            await service.predict_many(spec, images, task_id=0)
            stats = service.stats()
            await service.close()
            return stats

        stats = asyncio.run(main())
        assert stats["batches"] == 1
        assert stats["largest_batch"] == len(images)

    def test_max_batch_splits_oversized_bursts(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)
        direct = session.load_model(spec).predict_multi(images, 0, [Scenario.TIL])[
            Scenario.TIL
        ]

        async def main():
            service = InferenceService(session, max_batch=4, max_delay_ms=100)
            served = await service.predict_many(spec, images, task_id=0)
            stats = service.stats()
            await service.close()
            return served, stats

        served, stats = asyncio.run(main())
        assert stats["largest_batch"] <= 4
        assert np.array_equal(served, direct)  # splitting is invisible

    def test_scenarios_and_tasks_get_separate_lanes(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec, task=1)

        async def main():
            service = InferenceService(session, max_delay_ms=50)
            til = await service.predict_many(
                spec, images, task_id=1, scenario="til"
            )
            cil = await service.predict_many(
                spec, images, task_id=1, scenario="cil"
            )
            lanes = service.stats()["lanes"]
            await service.close()
            return til, cil, lanes

        til, cil, lanes = asyncio.run(main())
        assert lanes == 2
        method = session.load_model(spec)
        expected = method.predict_multi(images, 1, [Scenario.TIL, Scenario.CIL])
        assert np.array_equal(til, expected[Scenario.TIL])
        assert np.array_equal(cil, expected[Scenario.CIL])

    def test_malformed_batch_fails_its_awaiters_but_lane_survives(self, session):
        """Mismatched shapes torn apart by np.stack must error every
        awaiter of that batch and leave the lane serving the next one."""
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)
        small = images[0][:, :8, :8]  # (1, 8, 8): stackable with nothing

        async def main():
            service = InferenceService(session, max_batch=8, max_delay_ms=100)
            outcomes = await asyncio.gather(
                service.predict(spec, images[0], task_id=0),
                service.predict(spec, small, task_id=0),
                return_exceptions=True,
            )
            # The poisoned batch failed cleanly...
            assert any(isinstance(o, RuntimeError) for o in outcomes)
            # ...and the same lane still answers fresh requests.
            follow_up = await service.predict(spec, images[1], task_id=0)
            await service.close()
            return follow_up

        follow_up = asyncio.run(main())
        direct = session.load_model(spec).predict_multi(
            images[1:2], 0, [Scenario.TIL]
        )[Scenario.TIL]
        assert follow_up == int(direct[0])

    def test_pool_eviction_prunes_the_models_lanes(self, session):
        """An LRU-evicted model must not stay resident via its lanes."""
        specs = [checkpointed_spec(session, seed=seed) for seed in (0, 1)]
        images, _labels = sample_images(specs[0])

        async def main():
            service = InferenceService(
                session,
                pool=ModelPool(session, capacity=1),
                max_delay_ms=50,
            )
            await service.predict(spec=specs[0], image=images[0], task_id=0)
            assert service.stats()["lanes"] == 1
            # Loading the second model evicts the first from the pool;
            # the next resolve drops the orphaned lane with it.
            await service.predict(spec=specs[1], image=images[0], task_id=0)
            lanes = {key[0] for key in service._lanes}
            await service.close()
            return lanes

        lanes = asyncio.run(main())
        assert lanes == {specs[1].cache_key()}

    def test_bad_task_id_is_rejected(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)

        async def main():
            service = InferenceService(session)
            try:
                with pytest.raises(ValueError, match="task_id"):
                    await service.predict(spec, images[0], task_id=99)
            finally:
                await service.close()

        asyncio.run(main())


class TestTcpFrontEnd:
    def test_round_trip_info_predict_stats(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)
        direct = session.load_model(spec).predict_multi(images, 0, [Scenario.TIL])[
            Scenario.TIL
        ]

        async def main():
            app = ServeApp(InferenceService(session, max_delay_ms=50), spec)
            host, port = await app.start()
            info = await request_async(host, port, {"op": "info"})
            responses = await asyncio.gather(
                *(
                    request_async(
                        host,
                        port,
                        {"op": "predict", "images": image.tolist(), "task_id": 0},
                    )
                    for image in images
                )
            )
            batch = await request_async(
                host,
                port,
                {"op": "predict", "images": images.tolist(), "task_id": 0},
            )
            unknown = await request_async(host, port, {"op": "nonsense"})
            malformed = await request_async(
                host, port, {"op": "predict", "images": [[1.0]]}
            )
            await app.close()
            return info, responses, batch, unknown, malformed

        info, responses, batch, unknown, malformed = asyncio.run(main())
        assert info["ok"] and info["model"]["method"] == "FineTune"
        assert info["model"]["tasks_seen"] == 2
        served = np.array([r["predictions"][0] for r in responses])
        assert np.array_equal(served, direct)
        assert batch["ok"] and np.array_equal(np.array(batch["predictions"]), direct)
        assert not unknown["ok"] and "unknown op" in unknown["error"]
        assert not malformed["ok"]

    def test_startup_fails_fast_without_checkpoint(self, session):
        spec = session.spec("FineTune", "_test/serve_digits", profile_overrides=TINY)

        async def main():
            app = ServeApp(InferenceService(session), spec)
            with pytest.raises(CheckpointUnavailable):
                await app.start()

        asyncio.run(main())

    def test_wire_spec_predict_on_specless_app(self, session):
        """A spec-less app serves any cell named by a wire-form spec —
        the gateway-replica mode — bitwise-equal to the direct call."""
        from repro.cluster.protocol import encode_spec

        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)
        direct = session.load_model(spec).predict_multi(images, 0, [Scenario.TIL])[
            Scenario.TIL
        ]

        async def main():
            app = ServeApp(InferenceService(session, max_delay_ms=1))
            host, port = await app.start()
            with session._activate():
                wire = encode_spec(spec)
            good = await request_async(
                host,
                port,
                {
                    "op": "predict",
                    "model": wire,
                    "images": images.tolist(),
                    "task_id": 0,
                },
            )
            # Without a model field there is no default to fall back on.
            missing = await request_async(
                host, port, {"op": "predict", "images": images.tolist()}
            )
            info = await request_async(host, port, {"op": "info"})
            await app.close()
            return good, missing, info

        good, missing, info = asyncio.run(main())
        assert good["ok"] and np.array_equal(np.array(good["predictions"]), direct)
        assert not missing["ok"] and "no default model" in missing["error"]
        assert info["ok"] and info["model"] is None
        assert info["models"] == [spec.cache_key()]


class TestGracefulDrain:
    def test_drain_refuses_new_predicts_and_finishes_inflight(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)

        async def main():
            service = InferenceService(session, max_delay_ms=1)
            app = ServeApp(service, spec)
            host, port = await app.start()

            release = asyncio.Event()
            real_predict_many = service.predict_many

            async def stalled(*args, **kwargs):
                await release.wait()
                return await real_predict_many(*args, **kwargs)

            service.predict_many = stalled
            inflight = asyncio.ensure_future(
                request_async(
                    host,
                    port,
                    {"op": "predict", "images": images[:1].tolist(), "task_id": 0},
                )
            )
            while app.gate.inflight == 0:
                await asyncio.sleep(0.001)

            drain = await request_async(host, port, {"op": "drain"})
            refused = await request_async(
                host,
                port,
                {"op": "predict", "images": images[:1].tolist(), "task_id": 0},
            )
            stats = await request_async(host, port, {"op": "stats"})
            not_yet = await app.wait_drained(grace=0.05)
            release.set()
            finished = await inflight
            drained = await app.wait_drained(grace=5.0)
            await app.close()
            return drain, refused, stats, not_yet, finished, drained

        drain, refused, stats, not_yet, finished, drained = asyncio.run(main())
        # The drain op holds a slot of its own while answering, so the
        # reported inflight covers the stalled predict plus itself.
        assert drain["ok"] and drain["draining"] and drain["inflight"] >= 1
        assert refused == {"ok": False, "error": "draining"}
        assert stats["stats"]["transport"]["draining"] is True
        assert not_yet is False  # grace expired while the stall held
        assert finished["ok"]  # in-flight work completed despite the drain
        assert drained is True

    def test_drain_is_idempotent_and_shed_exempt(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)

        async def main():
            service = InferenceService(session, max_delay_ms=1)
            app = ServeApp(service, spec, max_inflight=1)
            host, port = await app.start()

            release = asyncio.Event()
            real_predict_many = service.predict_many

            async def stalled(*args, **kwargs):
                await release.wait()
                return await real_predict_many(*args, **kwargs)

            service.predict_many = stalled
            inflight = asyncio.ensure_future(
                request_async(
                    host,
                    port,
                    {"op": "predict", "images": images[:1].tolist(), "task_id": 0},
                )
            )
            while not app.gate.saturated:
                await asyncio.sleep(0.001)
            # The gate is full, yet the drain op still answers (exempt).
            first = await request_async(host, port, {"op": "drain"})
            second = await request_async(host, port, {"op": "drain"})
            release.set()
            finished = await inflight
            await app.close()
            return first, second, finished

        first, second, finished = asyncio.run(main())
        assert first["ok"] and first["draining"]
        assert second["ok"] and second["draining"]  # idempotent
        assert finished["ok"]


class TestHardening:
    """Backpressure and timeouts: the server sheds load, never queues forever."""

    def test_busy_beyond_max_inflight(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)

        async def main():
            app = ServeApp(
                InferenceService(session, max_delay_ms=5), spec, max_inflight=1
            )
            host, port = await app.start()
            release = asyncio.Event()

            async def stalled_predict(*args, **kwargs):
                await release.wait()
                return np.zeros(1, dtype=np.int64)

            app.service.predict_many = stalled_predict
            blocked = asyncio.ensure_future(
                request_async(
                    host,
                    port,
                    {"op": "predict", "images": images[0].tolist(), "task_id": 0},
                )
            )
            await asyncio.sleep(0.1)  # the slot is taken
            shed = await request_async(
                host,
                port,
                {"op": "predict", "images": images[0].tolist(), "task_id": 0},
            )
            # Observability must survive saturation: stats answers even
            # while every inflight slot is held (shed exemption).
            stats_during = await request_async(host, port, {"op": "stats"})
            release.set()
            first = await blocked
            stats = await request_async(host, port, {"op": "stats"})
            await app.close()
            return shed, stats_during, first, stats

        shed, stats_during, first, stats = asyncio.run(main())
        assert shed == {"ok": False, "error": "busy"}
        assert stats_during["ok"]
        assert stats_during["stats"]["transport"]["inflight"] == 1  # the held predict
        assert first["ok"]  # the admitted request completed normally
        # only the shed predict counts: the exempted stats call was
        # answered, so it is not a rejection
        assert stats["stats"]["transport"]["rejected"] == 1
        assert stats["stats"]["transport"]["limit"] == 1

    def test_per_request_timeout_frees_the_slot(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)

        async def main():
            app = ServeApp(
                InferenceService(session, max_delay_ms=5),
                spec,
                max_inflight=4,
                request_timeout=0.1,
            )
            host, port = await app.start()

            async def hung_predict(*args, **kwargs):
                await asyncio.sleep(30)

            app.service.predict_many = hung_predict
            timed_out = await request_async(
                host,
                port,
                {"op": "predict", "images": images[0].tolist(), "task_id": 0},
            )
            stats = await request_async(host, port, {"op": "stats"})
            await app.close()
            return timed_out, stats

        timed_out, stats = asyncio.run(main())
        assert not timed_out["ok"] and "timeout" in timed_out["error"]
        assert stats["stats"]["transport"]["timeouts"] == 1
        # The hung request's slot was released: only the stats request
        # itself is inflight while it reports.
        assert stats["stats"]["transport"]["inflight"] == 1

    def test_unbounded_by_default_request_still_answers(self, session):
        spec = checkpointed_spec(session)
        images, _labels = sample_images(spec)

        async def main():
            app = ServeApp(
                InferenceService(session, max_delay_ms=5), spec, max_inflight=0
            )
            host, port = await app.start()
            answer = await request_async(
                host,
                port,
                {"op": "predict", "images": images[0].tolist(), "task_id": 0},
            )
            await app.close()
            return answer

        assert asyncio.run(main())["ok"]


class TestSessionServeBridge:
    def test_session_serve_builds_a_service(self, session):
        service = session.serve(max_batch=8)
        assert isinstance(service, InferenceService)
        assert service.session is session
        assert service.max_batch == 8
