"""Typed rows of the run store.

A :class:`RunRecord` is one indexed cell: the spec fields that identify
it (method, scenario, profile, seed, dtype, overrides), the metrics it
produced, and the provenance of its execution (git SHA, hostname,
worker, wall-clock, creation time).  Records are what
:meth:`repro.store.RunStore.query` and the :meth:`repro.api.Session.runs`
view return; ``to_row()``/``record_rows()`` flatten them to the same
spreadsheet shape as :meth:`repro.api.session.Result.to_rows`.

The ``metrics`` payload is a plain JSON-safe dict:

* streaming methods — ``{"protocols": {"til": {"acc": ..., "fgt": ...,
  "r": [[...]]}, "cil": {...}}}`` where ``r`` is the full R-matrix
  (rows = after-task, columns = on-task, NaN where unmeasured), enough
  to re-render Figure 2 without touching the cached result;
* static methods (TVT) — ``{"static": {"til": ..., "cil": ...}}``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

__all__ = ["RunRecord", "metrics_payload", "record_rows", "records_to_json"]


@dataclass(frozen=True)
class RunRecord:
    """One indexed cell of the run store (see module doc)."""

    cache_key: str
    method: str | None = None
    scenario: str | None = None
    profile: str | None = None
    seed: int | None = None
    dtype: str | None = None
    stream: str | None = None
    eval_scenarios: tuple[str, ...] = ()
    method_overrides: dict = field(default_factory=dict)
    scenario_params: dict = field(default_factory=dict)
    metrics: dict | None = None
    elapsed: float | None = None
    git_sha: str | None = None
    hostname: str | None = None
    worker: str | None = None
    attempts: int = 0
    created: float | None = None
    updated: float | None = None
    status: str = "complete"
    has_checkpoint: bool = False

    # -- metric accessors ----------------------------------------------
    @property
    def is_static(self) -> bool:
        return bool(self.metrics) and "static" in self.metrics

    def protocols(self) -> tuple[str, ...]:
        """The evaluation protocols this record carries metrics for."""
        if not self.metrics:
            return ()
        if self.is_static:
            return tuple(self.metrics["static"])
        return tuple(self.metrics.get("protocols", {}))

    def acc(self, protocol: str = "til") -> float:
        """Accuracy under one protocol (static methods report joint ACC)."""
        if not self.metrics:
            raise KeyError(f"record {self.cache_key} carries no metrics")
        if self.is_static:
            return float(self.metrics["static"][protocol])
        return float(self.metrics["protocols"][protocol]["acc"])

    def fgt(self, protocol: str = "til") -> float:
        """Forgetting under one protocol (0.0 for static methods)."""
        if not self.metrics:
            raise KeyError(f"record {self.cache_key} carries no metrics")
        if self.is_static:
            return 0.0
        return float(self.metrics["protocols"][protocol]["fgt"])

    def r_matrix(self, protocol: str = "til") -> list[list[float]]:
        """The raw R-matrix rows recorded for one protocol."""
        if not self.metrics or self.is_static:
            raise KeyError(f"record {self.cache_key} has no R-matrix")
        return self.metrics["protocols"][protocol]["r"]

    # -- export ---------------------------------------------------------
    def to_row(self) -> list[dict]:
        """Flatten to one dict per protocol — the ``Result.to_rows`` shape."""
        base = {
            "cache_key": self.cache_key,
            "method": self.method,
            "scenario": self.scenario,
            "stream": self.stream,
            "profile": self.profile,
            "seed": self.seed,
            "dtype": self.dtype,
            "git_sha": self.git_sha,
            "hostname": self.hostname,
            "worker": self.worker,
            "status": self.status,
            "elapsed": self.elapsed,
        }
        if not self.metrics:
            return [{**base, "protocol": None, "acc": None, "fgt": None}]
        return [
            {
                **base,
                "protocol": protocol,
                "acc": self.acc(protocol),
                "fgt": None if self.is_static else self.fgt(protocol),
            }
            for protocol in self.protocols()
        ]


def record_rows(records) -> list[dict]:
    """Flatten many records into one row list (spreadsheet shape)."""
    rows: list[dict] = []
    for record in records:
        rows.extend(record.to_row())
    return rows


def records_to_json(records, indent: int | None = None) -> str:
    """Records as one JSON document — the ``Result.to_json`` convention."""
    return json.dumps({"rows": record_rows(records)}, indent=indent)


def metrics_payload(result) -> dict | None:
    """Extract the store's metrics dict from a finished ``RunResult``."""
    if result.results:
        return {
            "protocols": {
                scenario.value: {
                    "acc": float(run.acc),
                    "fgt": float(run.fgt),
                    "r": [
                        [float(cell) for cell in row]
                        for row in run.r_matrix.values.tolist()
                    ],
                }
                for scenario, run in result.results.items()
            }
        }
    if result.static_acc:
        return {
            "static": {
                scenario.value: float(acc)
                for scenario, acc in result.static_acc.items()
            }
        }
    return None
