"""Content-addressed disk cache for experiment runs.

A run is fully determined by its :class:`~repro.engine.runner.RunSpec`
(method, scenario, resolved profile, seed, evaluation protocols): every
stochastic component in the library is seeded from those fields, so the
spec's canonical JSON hashes to a stable key and the result can be
reused across table sweeps, multi-seed aggregation and repeated CLI
invocations.  Repeating a sweep then costs milliseconds per cell
instead of minutes of redundant CPU.

Layout: up to three files per entry under ``$REPRO_CACHE_DIR``
(default ``~/.cache/repro-engine``):

* ``<sha256[:32]>.result.json`` — the :class:`RunResult` (the metrics)
  as the JSON tree of :func:`~repro.engine.runner.result_to_tree`;
* ``<sha256[:32]>.json`` — the manifest sidecar (creation time plus
  the spec summary the management commands filter on);
* ``<sha256[:32]>.ckpt.npz`` — the trained model state, present only
  when the cell was run with checkpointing enabled.

All writes are atomic (tmp file + rename) so concurrent multi-seed
workers can share the directory; per-entry sidecars (rather than one
global manifest file) keep manifest maintenance lock-free.  A
successful :func:`load` touches the entry's mtime, which is what the
LRU eviction policy orders on.  ``REPRO_NO_CACHE=1`` disables the
cache globally; the CLI's ``--no-cache`` flag does the same per
invocation.

Management layer: :func:`manifest` scans the directory into
:class:`CacheEntry` records; :func:`stats` aggregates them (plus this
process's hit/miss counters); :func:`inspect` details one entry;
:func:`evict` applies LRU / max-bytes / max-entries / by-scenario
policies; :func:`verify` detects corrupt or orphaned files.  The CLI
(``cache-stats`` / ``cache-evict`` / ``cache-verify``) is a thin shell
over these functions.

``CACHE_VERSION`` is part of every key — bump it whenever training or
evaluation semantics change so stale results can never leak into new
sweeps.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "CACHE_VERSION",
    "CacheEntry",
    "cache_dir",
    "cache_enabled",
    "cache_key",
    "checkpoint_path",
    "contains",
    "load",
    "read_result",
    "store",
    "clear",
    "manifest",
    "stats",
    "inspect",
    "evict",
    "verify",
    "pin",
    "unpin",
    "pinned",
    "reset_pins",
    "session_counters",
    "reset_session_counters",
]

#: Bump on any change that alters run results for an unchanged spec, or
#: that changes the on-disk entry format (v2: manifest sidecars and
#: optional checkpoints next to each result; v3: profiles carry a
#: compute dtype — float32 default — and cells run under it; v4: the
#: result is a JSON tree, no longer a pickle).
CACHE_VERSION = 4

#: File name suffixes of an entry: ``<key><suffix>``.  Keys hold no dots,
#: which is what tells a sidecar from a result in a ``*.json`` glob.
_RESULT = ".result.json"
_SIDECAR = ".json"
_CHECKPOINT = ".ckpt.npz"

_ENV_DIR = "REPRO_CACHE_DIR"
_ENV_DISABLE = "REPRO_NO_CACHE"

#: A ``.tmp`` file older than this is debris from a killed worker; a
#: younger one may be a concurrent write in flight (verify skips it).
_TMP_ORPHAN_AGE_SECONDS = 3600.0

#: Cache traffic of this process: loads that found a valid entry
#: ("hits"), loads that did not ("misses"), and stores.  Per-process by
#: design — a shared on-disk counter would serialize parallel workers
#: on every read.
_SESSION = {"hits": 0, "misses": 0, "stores": 0}

#: Pin counts per key: entries a live handle depends on (a Session run
#: handle holding a checkpoint, a serving ModelPool with the model
#: loaded).  Pinned entries are skipped by :func:`evict` so a cache
#: bound applied mid-serve can never delete a model out from under its
#: holder.  Process-local by design, like the traffic counters: pins
#: protect *this* process's handles; cross-process coordination is the
#: deployment's job.
_PINS: dict[str, int] = {}


def pin(key: str) -> None:
    """Protect ``key`` from :func:`evict` until :func:`unpin` (refcounted)."""
    _PINS[key] = _PINS.get(key, 0) + 1


def unpin(key: str) -> None:
    """Drop one pin on ``key``; unknown keys are a no-op."""
    count = _PINS.get(key, 0) - 1
    if count > 0:
        _PINS[key] = count
    else:
        _PINS.pop(key, None)


def pinned() -> frozenset[str]:
    """The keys currently protected from eviction."""
    return frozenset(_PINS)


def reset_pins() -> None:
    """Drop every pin (test isolation; never call under live handles)."""
    _PINS.clear()


def cache_dir() -> Path:
    """Resolve the cache directory (created lazily by :func:`store`)."""
    custom = os.environ.get(_ENV_DIR)
    if custom:
        return Path(custom)
    return Path.home() / ".cache" / "repro-engine"


def cache_enabled() -> bool:
    """False when ``REPRO_NO_CACHE`` is set to a truthy value."""
    value = os.environ.get(_ENV_DISABLE, "").strip().lower()
    return value in ("", "0", "false", "no", "off")


def cache_key(payload: dict) -> str:
    """Hash a JSON-serializable payload into a hex cache key.

    The payload is canonicalized (sorted keys, no whitespace variance)
    so logically equal specs always collide onto the same key.
    """
    canonical = json.dumps(
        {"cache_version": CACHE_VERSION, **payload},
        sort_keys=True,
        separators=(",", ":"),
        default=_jsonify,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def _path_for(key: str) -> Path:
    return cache_dir() / f"{key}{_RESULT}"


def _meta_path_for(key: str) -> Path:
    return cache_dir() / f"{key}{_SIDECAR}"


def checkpoint_path(key: str) -> Path:
    """Where a cell's trained-model checkpoint lives (may not exist)."""
    return cache_dir() / f"{key}{_CHECKPOINT}"


def _files(directory: Path, suffix: str) -> list[tuple[str, Path]]:
    """``(key, path)`` of every ``<key><suffix>`` file in ``directory``."""
    found = []
    for path in directory.glob(f"*{suffix}"):
        key = path.name[: -len(suffix)]
        if "." not in key:
            found.append((key, path))
    return found


def read_result(path: Path):
    """Decode one result file; raises on a missing, torn or foreign file.

    A plain read: no LRU touch, no traffic counter.
    """
    from repro.engine.runner import result_from_tree

    return result_from_tree(json.loads(path.read_bytes()))


def contains(key: str) -> bool:
    """True when a result entry for ``key`` is on disk.

    A pure existence probe: no decode, no LRU touch, no traffic
    counter — the check the cluster layer uses to decide whether a
    wire-delivered result still needs persisting.
    """
    return _path_for(key).exists()


def load(key: str):
    """Return the cached :class:`RunResult` for ``key``, or None on miss/corruption.

    A hit comes back with ``cached`` set, and bumps the entry's mtime so
    LRU eviction sees it as recently used.
    """
    path = _path_for(key)
    try:
        result = read_result(path)
    except Exception:
        # Absent, torn or from a foreign layout: a cache read must never
        # crash the run — treat it as a miss and let the fresh result
        # overwrite the entry.
        _SESSION["misses"] += 1
        return None
    _SESSION["hits"] += 1
    try:
        os.utime(path)
    except OSError:
        pass  # read-only cache mounts still serve hits
    result.cached = True
    return result


def store(key: str, result, meta: dict | None = None) -> Path:
    """Atomically persist a :class:`RunResult` under ``key``; returns the file path.

    ``meta`` (JSON-safe, typically the spec summary) is written to the
    entry's manifest sidecar so the management commands can report and
    filter without decoding results.
    """
    from repro.engine.runner import result_to_tree

    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = _path_for(key)
    payload = json.dumps(result_to_tree(result)).encode()
    _atomic_write(path, lambda handle: handle.write(payload))
    sidecar = {"created": time.time(), "spec": dict(meta or {})}
    payload = json.dumps(sidecar, sort_keys=True).encode()
    _atomic_write(_meta_path_for(key), lambda handle: handle.write(payload))
    _SESSION["stores"] += 1
    _sync_store("store", key, result=result, meta=meta)
    return path


def install_checkpoint(key: str, blob: bytes, meta: dict | None = None) -> Path:
    """Install a checkpoint delivered as bytes (wire transport).

    Writes ``<key>.ckpt.npz`` atomically plus the manifest sidecar when
    the entry has none yet — producing the same *checkpoint-only* entry
    shape :func:`verify` already recognises (checkpoint + sidecar, no
    result).  This is how a serving replica with a disjoint cache
    receives a model from the gateway; scores stay wherever the cell
    was trained.
    """
    directory = cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = checkpoint_path(key)
    _atomic_write(path, lambda handle: handle.write(blob))
    if not _meta_path_for(key).exists():
        sidecar = {"created": time.time(), "spec": dict(meta or {})}
        payload = json.dumps(sidecar, sort_keys=True).encode()
        _atomic_write(_meta_path_for(key), lambda handle: handle.write(payload))
    return path


def _atomic_write(path: Path, write) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def clear() -> int:
    """Delete every cached run; returns the number of entries removed."""
    directory = cache_dir()
    if not directory.exists():
        return 0
    removed = 0
    # .tmp: torn writes from killed workers; .pkl: results of cache
    # version 3 and older.  Sidecars and checkpoints are bookkeeping,
    # not entries — delete but don't count them.
    for _key, path in _files(directory, _RESULT):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    for pattern in ("*.json", "*.ckpt.npz", "*.tmp", "*.pkl"):
        for path in directory.glob(pattern):
            try:
                path.unlink()
            except OSError:
                pass
    _sync_store("clear", "*")
    return removed


# ----------------------------------------------------------------------
# Management layer: manifest / stats / inspect / evict / verify
# ----------------------------------------------------------------------
@dataclass
class CacheEntry:
    """Manifest record of one cached cell (result + optional checkpoint)."""

    key: str
    result_bytes: int
    checkpoint_bytes: int
    last_used: float  # mtime of the result file; bumped on every hit
    sidecar_bytes: int = 0
    created: float | None = None
    spec: dict = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return self.result_bytes + self.checkpoint_bytes + self.sidecar_bytes

    @property
    def has_checkpoint(self) -> bool:
        return self.checkpoint_bytes > 0


def manifest() -> list[CacheEntry]:
    """Scan the cache directory into per-entry manifest records.

    Ordered least-recently-used first (the order :func:`evict`
    consumes).  Entries whose sidecar is missing (pre-manifest caches)
    or unreadable still appear, with an empty spec.
    """
    directory = cache_dir()
    if not directory.exists():
        return []
    entries = []
    seen = set()
    for key, path in _files(directory, _RESULT):
        try:
            result_stat = path.stat()
        except OSError:
            continue  # evicted between glob and stat
        seen.add(key)
        entries.append(_build_entry(key, result_stat))
    # Checkpoint-only entries (result lost to corruption, checkpoint
    # preserved by ``verify(repair=True)``) still occupy disk; list them
    # so stats/evict govern their volume too.
    for key, path in _files(directory, _CHECKPOINT):
        if key in seen or not _meta_path_for(key).exists():
            continue
        try:
            ckpt_stat = path.stat()
        except OSError:
            continue
        entry = _build_entry(key, None)
        entry.last_used = ckpt_stat.st_mtime
        entries.append(entry)
    entries.sort(key=lambda e: (e.last_used, e.key))
    return entries


def _build_entry(key: str, result_stat) -> CacheEntry:
    """``result_stat`` is None for checkpoint-only entries."""
    entry = CacheEntry(
        key=key,
        result_bytes=result_stat.st_size if result_stat is not None else 0,
        checkpoint_bytes=_size_of(checkpoint_path(key)),
        sidecar_bytes=_size_of(_meta_path_for(key)),
        last_used=result_stat.st_mtime if result_stat is not None else 0.0,
    )
    sidecar = _read_sidecar(key)
    if sidecar is not None:
        entry.created = sidecar.get("created")
        entry.spec = sidecar.get("spec", {})
    return entry


def stats(entries: list[CacheEntry] | None = None) -> dict:
    """Aggregate cache statistics: volume on disk + this process's traffic.

    Pass ``entries`` (a :func:`manifest` result) to reuse an existing
    directory scan instead of re-walking the cache.
    """
    if entries is None:
        entries = manifest()
    hits, misses = _SESSION["hits"], _SESSION["misses"]
    loads = hits + misses
    by_scenario: dict[str, int] = {}
    for entry in entries:
        scenario = entry.spec.get("scenario", "<unknown>")
        by_scenario[scenario] = by_scenario.get(scenario, 0) + 1
    return {
        "directory": str(cache_dir()),
        "entries": len(entries),
        "total_bytes": sum(e.total_bytes for e in entries),
        "result_bytes": sum(e.result_bytes for e in entries),
        "checkpoint_bytes": sum(e.checkpoint_bytes for e in entries),
        "checkpoints": sum(1 for e in entries if e.has_checkpoint),
        "by_scenario": dict(sorted(by_scenario.items())),
        "session": {
            "hits": hits,
            "misses": misses,
            "stores": _SESSION["stores"],
            "hit_rate": (hits / loads) if loads else None,
        },
    }


def inspect(key: str) -> dict:
    """Everything known about one entry, including the result summary."""
    path = _path_for(key)
    try:
        result_stat = path.stat()
    except OSError:
        # Checkpoint-only entries (result lost, checkpoint preserved by
        # repair) are still inspectable — geometry, spec, sizes.
        if not (checkpoint_path(key).exists() and _meta_path_for(key).exists()):
            raise KeyError(f"no cache entry {key!r} under {cache_dir()}") from None
        result_stat = None
    entry = _build_entry(key, result_stat)
    report = {
        "key": key,
        "result_bytes": entry.result_bytes,
        "checkpoint_bytes": entry.checkpoint_bytes,
        "has_checkpoint": entry.has_checkpoint,
        "created": entry.created,
        "last_used": entry.last_used,
        "spec": entry.spec,
    }
    # Read the file directly, NOT through load(): inspecting an entry
    # must neither bump its LRU position nor count as cache traffic.
    try:
        result = read_result(path)
    except Exception:
        report["result"] = None  # corrupt — verify() will flag it
        return report
    summary = {
        "type": type(result).__name__,
        "method": result.method,
        "scenario": result.scenario,
        "stream_name": result.stream_name,
        "seed": result.seed,
        "elapsed": result.elapsed,
        "metrics": {
            scenario.value: {"acc": run.acc, "fgt": run.fgt}
            for scenario, run in result.results.items()
        },
    }
    if result.static_acc:
        summary["static_acc"] = {
            scenario.value: acc for scenario, acc in result.static_acc.items()
        }
    report["result"] = summary
    return report


def evict(
    *,
    max_bytes: int | str | None = None,
    max_entries: int | None = None,
    scenario: str | None = None,
    method: str | None = None,
    dry_run: bool = False,
) -> list[CacheEntry]:
    """Remove entries under an LRU policy; returns what was (or would be) evicted.

    ``scenario`` / ``method`` restrict the *candidates* (matched against
    the sidecar spec).  With a ``max_bytes`` / ``max_entries`` bound,
    least-recently-used candidates are evicted until the bound holds
    over the whole cache; with filters and no bound, every candidate
    goes.  ``max_bytes`` accepts a K/M/G-suffixed string (``"500M"``).
    Entries :func:`pin`-ned by a live handle (a serving model pool, a
    checkpointed Session run) are never candidates.  Calling with no
    arguments is a no-op (use :func:`clear` to drop everything).
    """
    from repro.utils import parse_size

    if max_bytes is not None:
        max_bytes = parse_size(max_bytes)
    entries = manifest()  # LRU-first
    candidates = [
        entry
        for entry in entries
        if entry.key not in _PINS
        and (scenario is None or entry.spec.get("scenario") == scenario)
        and (method is None or entry.spec.get("method") == method)
    ]
    filtered = scenario is not None or method is not None
    bounded = max_bytes is not None or max_entries is not None
    if not filtered and not bounded:
        return []

    victims: list[CacheEntry] = []
    if filtered and not bounded:
        victims = candidates
    else:
        total_bytes = sum(e.total_bytes for e in entries)
        total_entries = len(entries)
        for entry in candidates:
            over_bytes = max_bytes is not None and total_bytes > max_bytes
            over_entries = max_entries is not None and total_entries > max_entries
            if not (over_bytes or over_entries):
                break
            victims.append(entry)
            total_bytes -= entry.total_bytes
            total_entries -= 1

    if not dry_run:
        for entry in victims:
            _delete_entry(entry.key)
    return victims


def verify(repair: bool = False) -> dict:
    """Check every file in the cache directory for consistency.

    Reports (and with ``repair=True`` deletes):

    * ``corrupt`` — result files that fail to decode.  Repair removes
      the unreadable result but *preserves* the entry's checkpoint (and
      its sidecar): the checkpoint holds hours of training, is written
      atomically (so a torn result does not imply a torn checkpoint),
      and :func:`~repro.engine.runner.load_checkpoint` can still serve
      it.  The surviving pair is a *checkpoint-only* entry — listed by
      :func:`manifest`, evictable like any other.
    * ``orphaned`` — sidecars and checkpoints whose entry is otherwise
      gone (a checkpoint with a sidecar is a checkpoint-only entry, not
      an orphan), leftover ``.tmp`` files from killed workers, and
      ``.pkl`` results of the pre-JSON layout (cache version 3 and
      older), which no key reaches any more.

    Returns ``{"entries": total, "ok": n, "corrupt": [...],
    "orphaned": [...], "repaired": bool}`` with file names in the lists.
    """
    directory = cache_dir()
    report = {"entries": 0, "ok": 0, "corrupt": [], "orphaned": [], "repaired": repair}
    if not directory.exists():
        return report
    keys = set()
    for key, path in _files(directory, _RESULT):
        keys.add(key)
        report["entries"] += 1
        try:
            read_result(path)
            report["ok"] += 1
        except Exception:
            report["corrupt"].append(path.name)
            if repair:
                if checkpoint_path(key).exists():
                    _unlink_quiet(path)  # keep checkpoint + sidecar
                    _sync_store("demote", key)
                else:
                    _delete_entry(key)
                keys.discard(key)

    orphans = list(directory.glob("*.pkl"))
    for key, path in _files(directory, _SIDECAR):
        if key not in keys and not checkpoint_path(key).exists():
            orphans.append(path)
    for key, path in _files(directory, _CHECKPOINT):
        if key not in keys and not _meta_path_for(key).exists():
            orphans.append(path)
    for path in orphans:
        report["orphaned"].append(path.name)
        if repair:
            _unlink_quiet(path)
    for path in directory.glob("*.tmp"):
        # A fresh tmp file is most likely a concurrent worker mid-write;
        # only age qualifies it as the debris of a killed run.  Racing
        # `cache-verify --repair` against a live sweep must never delete
        # a file a worker is about to os.replace().
        try:
            age = time.time() - path.stat().st_mtime
        except OSError:
            continue  # completed (renamed away) while we looked
        if age > _TMP_ORPHAN_AGE_SECONDS:
            report["orphaned"].append(path.name)
            if repair:
                _unlink_quiet(path)
    return report


def session_counters() -> dict:
    """This process's hit/miss/store counters (copy)."""
    return dict(_SESSION)


def reset_session_counters() -> None:
    """Zero the per-process traffic counters (tests, bench harness)."""
    for name in _SESSION:
        _SESSION[name] = 0


def _delete_entry(key: str) -> None:
    _unlink_quiet(_path_for(key))
    _unlink_quiet(_meta_path_for(key))
    _unlink_quiet(checkpoint_path(key))
    _sync_store("evict", key)


def _sync_store(event: str, key: str, result=None, meta: dict | None = None) -> None:
    """Write-through to the run store index (``repro.store``).

    The store is an observer: a locked, corrupt, or read-only
    ``runs.sqlite`` must never fail the run that produced the result,
    so every error is swallowed here.  Imported lazily — the store
    depends on this module, not the other way round.
    """
    try:
        from repro.store import sync_cache_event

        sync_cache_event(event, key, result=result, meta=meta)
    except Exception:
        pass


def _unlink_quiet(path: Path) -> None:
    try:
        path.unlink()
    except OSError:
        pass


def _read_sidecar(key: str) -> dict | None:
    try:
        return json.loads(_meta_path_for(key).read_text())
    except (OSError, ValueError):
        return None


def _size_of(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


def _jsonify(obj):
    """Fallback serializer for spec payloads (enums, numpy scalars)."""
    value = getattr(obj, "value", None)
    if value is not None:
        return value
    item = getattr(obj, "item", None)
    if callable(item):
        return item()
    raise TypeError(f"cannot canonicalize {type(obj)} for cache hashing")
