"""Queryable run store + provenance layer over the engine cache.

`repro.store` indexes every executed cell into a SQLite database
(``runs.sqlite`` inside the cache directory): the spec that identifies
the cell, the metrics it produced, and the provenance of its execution
(git SHA, hostname, cluster worker, attempts, wall-clock).  The index
is kept write-through-synced from the engine cache — see
:func:`sync_cache_event`, called by ``repro.engine.cache`` on every
store/evict/verify/clear — and can be rebuilt from any cache directory
with :meth:`RunStore.backfill`.

On top of the index: :meth:`RunStore.query` (typed ``RunRecord`` rows),
:meth:`RunStore.diff` (per-cell metric deltas between SHAs or dtypes),
and :mod:`repro.store.report` (paper tables + bench trends rendered
straight from recorded rows, byte-identical to the engine's renderers).

``REPRO_NO_STORE=1`` disables the write-through sync entirely.
"""

from __future__ import annotations

import os

from .db import DB_NAME, RunStore, current_git_sha
from .records import RunRecord, metrics_payload, record_rows, records_to_json

__all__ = [
    "DB_NAME",
    "RunRecord",
    "RunStore",
    "current_git_sha",
    "metrics_payload",
    "record_rows",
    "records_to_json",
    "store_enabled",
    "sync_cache_event",
]

_ENV_DISABLE = "REPRO_NO_STORE"


def store_enabled() -> bool:
    """False when ``REPRO_NO_STORE`` is set to a truthy value."""
    value = os.environ.get(_ENV_DISABLE, "").strip().lower()
    return value in ("", "0", "false", "no", "off")


def sync_cache_event(event: str, key: str, *, result=None, meta=None) -> None:
    """Write-through hook the engine cache calls on every mutation.

    Events: ``store`` (new/overwritten entry — indexes the result),
    ``evict`` (entry deleted — row kept, status flipped so provenance
    survives eviction), ``demote`` (verify --repair kept only the
    checkpoint), ``clear`` (cache wiped — index wiped with it).

    The caller wraps this in a never-raise guard; anything that goes
    wrong here must not fail the run that produced the result.
    """
    if not store_enabled():
        return
    store = RunStore()
    if event == "store":
        store.index_result(key, result, meta)
    elif event == "evict":
        store.mark_status(key, "evicted", event="evict")
    elif event == "demote":
        store.mark_status(key, "checkpoint-only", event="verify-demote")
    elif event == "clear":
        store.clear()
