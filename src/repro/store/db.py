"""SQLite-backed run store: the queryable index of executed cells.

The engine's disk cache stays the system of record for result payloads
(JSON results + sidecars + checkpoints); the store is the *index* over it —
one SQLite database (``runs.sqlite``, WAL mode) living inside the cache
directory, kept write-through-synced from every cache mutation
(:func:`repro.engine.cache.store`, evict, verify, clear) and
reconstructible at any time with :meth:`RunStore.backfill`.

Concurrency: the store never holds a connection open across calls —
every operation opens, commits, closes.  That makes it safe under the
fork-based process pool (``jobs=N``) and multiple cluster workers on a
shared filesystem; WAL journaling plus a generous busy timeout
serialises the writers.

Failure policy: indexing is an observer, never a participant.  All
write-through hooks are wrapped so a broken/locked/readonly database
can never fail a training run (see :func:`sync_cache_event` in
``repro.store``).
"""

from __future__ import annotations

import json
import os
import socket
import sqlite3
import subprocess
import time
from contextlib import contextmanager
from pathlib import Path

from .records import RunRecord, metrics_payload

__all__ = ["RunStore", "DB_NAME", "current_git_sha"]

DB_NAME = "runs.sqlite"
SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    cache_key        TEXT PRIMARY KEY,
    method           TEXT,
    scenario         TEXT,
    profile          TEXT,
    seed             INTEGER,
    dtype            TEXT,
    stream           TEXT,
    eval_scenarios   TEXT,
    method_overrides TEXT,
    scenario_params  TEXT,
    metrics          TEXT,
    elapsed          REAL,
    git_sha          TEXT,
    hostname         TEXT,
    worker           TEXT,
    attempts         INTEGER DEFAULT 0,
    created          REAL,
    updated          REAL,
    status           TEXT DEFAULT 'complete',
    has_checkpoint   INTEGER DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_runs_method_scenario ON runs (method, scenario);
CREATE INDEX IF NOT EXISTS idx_runs_sha ON runs (git_sha);
CREATE TABLE IF NOT EXISTS provenance (
    id            INTEGER PRIMARY KEY AUTOINCREMENT,
    cache_key     TEXT NOT NULL,
    event         TEXT NOT NULL,
    worker        TEXT,
    attempts      INTEGER,
    lease_seconds REAL,
    detail        TEXT,
    created       REAL
);
CREATE INDEX IF NOT EXISTS idx_provenance_key ON provenance (cache_key);
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT
);
"""

_GIT_SHA: str | None = None


def current_git_sha() -> str:
    """Short SHA of the code producing results (cached per process)."""
    global _GIT_SHA
    if _GIT_SHA is None:
        sha = ""
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=Path(__file__).resolve().parents[3],
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = ""
        _GIT_SHA = sha or os.environ.get("GITHUB_SHA", "")[:12] or "unknown"
    return _GIT_SHA


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True)


def _loads(text, default):
    if not text:
        return default
    try:
        return json.loads(text)
    except ValueError:
        return default


class RunStore:
    """Index of executed cells in one cache directory.

    ``directory=None`` resolves the engine's active cache directory at
    every call (tracking ``REPRO_CACHE_DIR`` the way the cache itself
    does); pass an explicit directory to pin a store.
    """

    def __init__(self, directory: str | os.PathLike | None = None) -> None:
        self._directory = Path(directory) if directory is not None else None

    @property
    def directory(self) -> Path:
        if self._directory is not None:
            return self._directory
        from repro.engine import cache

        return cache.cache_dir()

    @property
    def path(self) -> Path:
        return self.directory / DB_NAME

    # -- connection ----------------------------------------------------
    @contextmanager
    def _db(self):
        """One transaction, then close — no connection outlives a call."""
        self.directory.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        try:
            conn.row_factory = sqlite3.Row
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA busy_timeout=30000")
            conn.executescript(_SCHEMA)
            conn.execute(
                "INSERT OR IGNORE INTO store_meta (key, value) "
                "VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            with conn:
                yield conn
        finally:
            conn.close()

    # -- write-through -------------------------------------------------
    def index_result(
        self,
        key: str,
        result,
        meta: dict | None = None,
        *,
        created: float | None = None,
        worker: str | None = None,
        event: str = "store",
    ) -> None:
        """Upsert one cached ``RunResult`` as a runs row (+ a provenance row)."""
        meta = dict(meta or {})
        now = time.time()
        metrics = metrics_payload(result)
        row = {
            "cache_key": key,
            "method": meta.get("method", result.method),
            "scenario": meta.get("scenario", result.scenario),
            "profile": meta.get("profile"),
            "seed": int(meta.get("seed", result.seed)),
            "dtype": meta.get("dtype"),
            "stream": result.stream_name,
            "eval_scenarios": _dumps(list(meta.get("eval_scenarios", []))),
            "method_overrides": _dumps(meta.get("method_overrides", {})),
            "scenario_params": _dumps(meta.get("scenario_params", {})),
            "metrics": _dumps(metrics) if metrics is not None else None,
            "elapsed": result.elapsed,
            "git_sha": current_git_sha(),
            "hostname": socket.gethostname(),
            "worker": worker,
            "created": created if created is not None else now,
            "updated": now,
            "status": "complete",
            "has_checkpoint": int(self._has_checkpoint(key)),
        }
        columns = ", ".join(row)
        holes = ", ".join("?" for _ in row)
        with self._db() as conn:
            conn.execute(
                f"INSERT INTO runs ({columns}) VALUES ({holes}) "
                "ON CONFLICT(cache_key) DO UPDATE SET "
                + ", ".join(f"{c}=excluded.{c}" for c in row if c != "cache_key"),
                tuple(row.values()),
            )
            self._insert_provenance(conn, key, event, worker=worker)

    def _has_checkpoint(self, key: str) -> bool:
        # Mirrors the cache's on-disk entry layout (<key>.ckpt.npz).
        try:
            return (self.directory / f"{key}.ckpt.npz").exists()
        except OSError:
            return False

    def mark_status(self, key: str, status: str, *, event: str | None = None) -> None:
        """Flip a row's lifecycle status (evicted / checkpoint-only)."""
        with self._db() as conn:
            conn.execute(
                "UPDATE runs SET status = ?, updated = ? WHERE cache_key = ?",
                (status, time.time(), key),
            )
            if event:
                self._insert_provenance(conn, key, event)

    def annotate(
        self, key: str, *, worker: str | None = None, attempts: int | None = None
    ) -> None:
        """Attach cluster execution provenance onto an existing row."""
        sets, params = ["updated = ?"], [time.time()]
        if worker is not None:
            sets.append("worker = ?")
            params.append(worker)
        if attempts is not None:
            sets.append("attempts = ?")
            params.append(attempts)
        params.append(key)
        with self._db() as conn:
            conn.execute(
                f"UPDATE runs SET {', '.join(sets)} WHERE cache_key = ?", params
            )

    def record_provenance(
        self,
        key: str,
        event: str,
        *,
        worker: str | None = None,
        attempts: int | None = None,
        lease_seconds: float | None = None,
        detail: str | None = None,
    ) -> None:
        with self._db() as conn:
            self._insert_provenance(
                conn,
                key,
                event,
                worker=worker,
                attempts=attempts,
                lease_seconds=lease_seconds,
                detail=detail,
            )

    @staticmethod
    def _insert_provenance(
        conn,
        key: str,
        event: str,
        *,
        worker: str | None = None,
        attempts: int | None = None,
        lease_seconds: float | None = None,
        detail: str | None = None,
    ) -> None:
        conn.execute(
            "INSERT INTO provenance "
            "(cache_key, event, worker, attempts, lease_seconds, detail, created) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (key, event, worker, attempts, lease_seconds, detail, time.time()),
        )

    def clear(self) -> None:
        """Drop every row (mirrors ``cache.clear``)."""
        if not self.path.exists():
            return
        with self._db() as conn:
            conn.execute("DELETE FROM runs")
            conn.execute("DELETE FROM provenance")

    # -- read API ------------------------------------------------------
    def query(
        self,
        *,
        method: str | None = None,
        scenario: str | None = None,
        profile: str | None = None,
        seed: int | None = None,
        dtype: str | None = None,
        git_sha: str | None = None,
        since_sha: str | None = None,
        status: str | None = "complete",
        worker: str | None = None,
        limit: int | None = None,
    ) -> list[RunRecord]:
        """Typed filter over the runs table, oldest rows first.

        ``since_sha`` keeps rows created at or after the first row of
        that SHA (raises ``ValueError`` for a SHA the store has never
        seen); ``status=None`` disables the default complete-only
        filter.
        """
        clauses, params = [], []
        for column, value in (
            ("method", method),
            ("scenario", scenario),
            ("profile", profile),
            ("seed", seed),
            ("dtype", dtype),
            ("git_sha", git_sha),
            ("status", status),
            ("worker", worker),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if since_sha is not None:
            if not self._sha_known(since_sha):
                raise ValueError(
                    f"since_sha {since_sha!r} has no rows in {self.path}"
                )
            clauses.append(
                "created >= (SELECT MIN(created) FROM runs WHERE git_sha = ?)"
            )
            params.append(since_sha)
        sql = "SELECT * FROM runs"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created, cache_key"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        if not self.path.exists():
            return []
        with self._db() as conn:
            rows = conn.execute(sql, params).fetchall()
        return [self._to_record(row) for row in rows]

    def get(self, key: str) -> RunRecord | None:
        if not self.path.exists():
            return None
        with self._db() as conn:
            row = conn.execute(
                "SELECT * FROM runs WHERE cache_key = ?", (key,)
            ).fetchone()
        return self._to_record(row) if row is not None else None

    def count(self, *, status: str | None = "complete") -> int:
        if not self.path.exists():
            return 0
        sql, params = "SELECT COUNT(*) FROM runs", ()
        if status is not None:
            sql += " WHERE status = ?"
            params = (status,)
        with self._db() as conn:
            return int(conn.execute(sql, params).fetchone()[0])

    def provenance(self, key: str | None = None) -> list[dict]:
        if not self.path.exists():
            return []
        sql, params = "SELECT * FROM provenance", ()
        if key is not None:
            sql += " WHERE cache_key = ?"
            params = (key,)
        sql += " ORDER BY id"
        with self._db() as conn:
            rows = conn.execute(sql, params).fetchall()
        return [dict(row) for row in rows]

    def shas(self) -> list[str]:
        """Distinct SHAs in first-seen order (the trend axis)."""
        if not self.path.exists():
            return []
        with self._db() as conn:
            rows = conn.execute(
                "SELECT git_sha, MIN(created) AS first FROM runs "
                "WHERE git_sha IS NOT NULL GROUP BY git_sha ORDER BY first"
            ).fetchall()
        return [row["git_sha"] for row in rows]

    def _sha_known(self, sha: str) -> bool:
        if not self.path.exists():
            return False
        with self._db() as conn:
            row = conn.execute(
                "SELECT 1 FROM runs WHERE git_sha = ? LIMIT 1", (sha,)
            ).fetchone()
        return row is not None

    @staticmethod
    def _to_record(row: sqlite3.Row) -> RunRecord:
        metrics_text = row["metrics"]
        return RunRecord(
            cache_key=row["cache_key"],
            method=row["method"],
            scenario=row["scenario"],
            profile=row["profile"],
            seed=row["seed"],
            dtype=row["dtype"],
            stream=row["stream"],
            eval_scenarios=tuple(_loads(row["eval_scenarios"], [])),
            method_overrides=_loads(row["method_overrides"], {}),
            scenario_params=_loads(row["scenario_params"], {}),
            metrics=_loads(metrics_text, None) if metrics_text else None,
            elapsed=row["elapsed"],
            git_sha=row["git_sha"],
            hostname=row["hostname"],
            worker=row["worker"],
            attempts=row["attempts"] or 0,
            created=row["created"],
            updated=row["updated"],
            status=row["status"],
            has_checkpoint=bool(row["has_checkpoint"]),
        )

    # -- diff ----------------------------------------------------------
    def diff(self, a: str, b: str, *, axis: str = "git_sha") -> list[dict]:
        """Per-cell metric deltas between two SHAs or two dtypes.

        Cells are matched on their spec identity (method, scenario,
        profile, seed, overrides — plus dtype when diffing SHAs); the
        newest row on each side wins.  Returns one dict per
        (cell, protocol) with ``acc_a/acc_b/acc_delta`` and
        ``fgt_a/fgt_b/fgt_delta``.
        """
        if axis not in ("git_sha", "dtype"):
            raise ValueError(f"diff axis must be git_sha or dtype, not {axis!r}")
        kwargs_a = {"git_sha": a} if axis == "git_sha" else {"dtype": a}
        kwargs_b = {"git_sha": b} if axis == "git_sha" else {"dtype": b}
        side_a = self._latest_by_identity(self.query(**kwargs_a), axis)
        side_b = self._latest_by_identity(self.query(**kwargs_b), axis)
        deltas = []
        for identity in sorted(set(side_a) & set(side_b), key=str):
            rec_a, rec_b = side_a[identity], side_b[identity]
            for protocol in rec_a.protocols():
                if protocol not in rec_b.protocols():
                    continue
                acc_a, acc_b = rec_a.acc(protocol), rec_b.acc(protocol)
                fgt_a, fgt_b = rec_a.fgt(protocol), rec_b.fgt(protocol)
                deltas.append(
                    {
                        "method": rec_a.method,
                        "scenario": rec_a.scenario,
                        "profile": rec_a.profile,
                        "seed": rec_a.seed,
                        "dtype": (a, b) if axis == "dtype" else rec_a.dtype,
                        "protocol": protocol,
                        "acc_a": acc_a,
                        "acc_b": acc_b,
                        "acc_delta": acc_b - acc_a,
                        "fgt_a": fgt_a,
                        "fgt_b": fgt_b,
                        "fgt_delta": fgt_b - fgt_a,
                    }
                )
        return deltas

    @staticmethod
    def _latest_by_identity(records, axis: str) -> dict:
        latest: dict = {}
        for record in records:
            identity = (
                record.method,
                record.scenario,
                record.profile,
                record.seed,
                _dumps(record.method_overrides),
                _dumps(record.scenario_params),
            )
            if axis == "git_sha":
                identity += (record.dtype,)
            held = latest.get(identity)
            if held is None or (record.created or 0) >= (held.created or 0):
                latest[identity] = record
        return latest

    # -- backfill ------------------------------------------------------
    def backfill(self, *, rebuild: bool = False) -> dict:
        """Index every entry of the cache directory not yet in the store.

        Scans the cache layout directly (``<key>.result.json`` +
        ``<key>.json`` sidecar), decoding each missing entry to extract
        metrics.  ``rebuild`` drops the index first and re-reads everything.
        Returns ``{"entries", "indexed", "skipped", "errors"}``.
        """
        from repro.engine import cache

        if rebuild:
            self.clear()
        known = {record.cache_key for record in self.query(status=None)}
        indexed = skipped = errors = entries = 0
        for path in sorted(self.directory.glob("*.result.json")):
            key = path.name[: -len(".result.json")]
            entries += 1
            if key in known:
                skipped += 1
                continue
            created, spec = None, {}
            try:
                sidecar = json.loads((self.directory / f"{key}.json").read_text())
                created = sidecar.get("created")
                spec = sidecar.get("spec", {})
            except (OSError, ValueError):
                pass  # no sidecar: index with what the result has
            try:
                result = cache.read_result(path)
            except Exception:
                errors += 1
                continue
            self.index_result(key, result, spec, created=created, event="backfill")
            indexed += 1
        return {
            "entries": entries,
            "indexed": indexed,
            "skipped": skipped,
            "errors": errors,
        }
