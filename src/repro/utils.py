"""Shared utilities: deterministic RNG management and stdlib helpers.

All stochastic components in the library (parameter init, data
generation, shuffling, dropout) draw from ``numpy.random.Generator``
objects threaded through explicitly, falling back to a process-global
generator controlled by :func:`set_seed`.

The module also hosts the small dependency-free helpers that every
layer shares (``env_flag``, ``parse_size``, ``format_bytes``).
"""

from __future__ import annotations

import os

import numpy as np

__all__ = [
    "set_seed",
    "global_rng",
    "resolve_rng",
    "spawn_rng",
    "env_flag",
    "parse_size",
    "format_bytes",
]

_GLOBAL_RNG = np.random.default_rng(0)


def set_seed(seed: int) -> None:
    """Reset the process-global generator used as the default RNG."""
    global _GLOBAL_RNG
    _GLOBAL_RNG = np.random.default_rng(seed)


def global_rng() -> np.random.Generator:
    """Return the process-global generator."""
    return _GLOBAL_RNG


def resolve_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Normalize ``rng`` arguments: Generator passes through, int seeds
    a fresh generator, None falls back to the global generator."""
    if rng is None:
        return _GLOBAL_RNG
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def spawn_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Derive an independent child generator (for parallel components)."""
    base = resolve_rng(rng)
    return np.random.default_rng(base.integers(0, 2**63 - 1))


def env_flag(name: str) -> bool:
    """True when environment variable ``name`` is set to a truthy value.

    One parse for every on/off knob (``REPRO_FULL`` today): unset,
    empty, ``0``, ``false``, ``no`` and ``off`` (any case) are off,
    anything else is on — so ``REPRO_FULL=true`` and ``REPRO_FULL=1``
    cannot disagree between two gates reading the same switch.
    """
    return os.environ.get(name, "").strip().lower() not in (
        "", "0", "false", "no", "off",
    )

_SIZE_MULTIPLIERS = {"K": 1024, "M": 1024**2, "G": 1024**3}


def parse_size(text: str | int) -> int:
    """Parse a byte size: plain int, or K/M/G-suffixed (binary units).

    Accepts an ``int`` unchanged so callers may take ``int | str``
    budgets (e.g. ``cache.evict(max_bytes="500M")``).  Raises
    :class:`ValueError` on anything unparseable; the CLI wraps that
    into an ``argparse`` error.
    """
    if isinstance(text, int):
        return text
    cleaned = text.strip().upper()
    try:
        if cleaned and cleaned[-1] in _SIZE_MULTIPLIERS:
            return int(float(cleaned[:-1]) * _SIZE_MULTIPLIERS[cleaned[-1]])
        return int(cleaned)
    except ValueError:
        raise ValueError(
            f"invalid size {text!r}; expected bytes or K/M/G suffix (e.g. 500M)"
        ) from None


def format_bytes(count: int) -> str:
    """Human-readable byte count (binary units, one decimal)."""
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    raise AssertionError
