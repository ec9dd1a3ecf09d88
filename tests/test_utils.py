"""Tests for the shared utilities and the package surface."""

import numpy as np
import pytest

import repro
from repro.utils import (
    format_bytes,
    global_rng,
    parse_size,
    resolve_rng,
    set_seed,
    spawn_rng,
)


class TestRngManagement:
    def test_set_seed_reproducible(self):
        set_seed(42)
        a = global_rng().random(5)
        set_seed(42)
        b = global_rng().random(5)
        assert np.allclose(a, b)

    def test_resolve_passthrough(self):
        gen = np.random.default_rng(0)
        assert resolve_rng(gen) is gen

    def test_resolve_int_seeds(self):
        a = resolve_rng(7).random(3)
        b = resolve_rng(7).random(3)
        assert np.allclose(a, b)

    def test_resolve_none_is_global(self):
        set_seed(1)
        assert resolve_rng(None) is global_rng()

    def test_spawn_produces_independent_streams(self):
        base = np.random.default_rng(0)
        child_a = spawn_rng(base)
        child_b = spawn_rng(base)
        assert not np.allclose(child_a.random(5), child_b.random(5))

    def test_spawn_deterministic_given_parent_state(self):
        a = spawn_rng(np.random.default_rng(3)).random(4)
        b = spawn_rng(np.random.default_rng(3)).random(4)
        assert np.allclose(a, b)


class TestParseSize:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("0", 0),
            ("1024", 1024),
            ("1K", 1024),
            ("1.5K", 1536),
            ("500M", 500 * 1024**2),
            ("2G", 2 * 1024**3),
            (" 10k ", 10 * 1024),  # whitespace + lowercase suffix
        ],
    )
    def test_parses_valid_sizes(self, text, expected):
        assert parse_size(text) == expected

    def test_accepts_int_passthrough(self):
        assert parse_size(12345) == 12345

    @pytest.mark.parametrize("text", ["lots", "", "12Q", "G"])
    def test_rejects_garbage_with_value_error(self, text):
        with pytest.raises(ValueError, match="invalid size"):
            parse_size(text)


class TestFormatBytes:
    @pytest.mark.parametrize(
        "count, expected",
        [
            (0, "0 B"),
            (1023, "1023 B"),
            (1024, "1.0 KiB"),
            (1536, "1.5 KiB"),
            (5 * 1024**2, "5.0 MiB"),
            (3 * 1024**3, "3.0 GiB"),
            (5000 * 1024**3, "5000.0 GiB"),  # GiB is the ceiling unit
        ],
    )
    def test_formats(self, count, expected):
        assert format_bytes(count) == expected

    def test_round_trips_with_parse(self):
        assert parse_size("500M") == 500 * 1024**2
        assert format_bytes(parse_size("500M")) == "500.0 MiB"


class TestCacheIntegration:
    def test_evict_accepts_suffixed_max_bytes(self, tmp_path, monkeypatch, make_result):
        from repro.engine import cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        cache.store("a" * 32, make_result(), meta={"scenario": "s"})
        victims = cache.evict(max_bytes="0K")
        assert [v.key for v in victims] == ["a" * 32]


class TestPackageSurface:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        assert callable(repro.set_seed)

    def test_subpackages_importable(self):
        import repro.autograd
        import repro.baselines
        import repro.continual
        import repro.core
        import repro.data
        import repro.experiments
        import repro.io
        import repro.nn
        import repro.optim
        import repro.theory
