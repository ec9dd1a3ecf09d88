"""Wire format of the cluster: addresses, specs and results as JSON.

The coordinator and its workers speak the same newline-framed JSON
dialect as the serving layer (one object per line, both directions;
the framing lives in :mod:`repro.netio`).  This module owns what goes
*inside* the frames:

* :func:`parse_address` — ``"cluster://host:port"`` (or a bare
  ``"host:port"``) into a ``(host, port)`` pair.  The scheme-prefixed
  form is what :class:`repro.api.Session` accepts as its ``executor``.
* :func:`encode_spec` / :func:`decode_spec` — a
  :class:`~repro.engine.runner.RunSpec` as a plain JSON object.  Specs
  are *names into the registries* (method, scenario, profile), so the
  wire form is small and human-readable, and both ends resolve it
  against their own registry state.
* :func:`persist_result` — the one step both ends of the wire run to
  write a delivered result into the local cache.

Finished results travel as the JSON tree of
:func:`~repro.engine.runner.result_to_tree` on both framings, the same
tree the disk cache stores; :func:`~repro.engine.runner.result_from_tree`
checks its sizes before building anything, so a peer's bytes are never
unpickled and a malformed tree is refused with a :class:`ValueError`.

Every message carries an ``op`` field; the coordinator's op set is
documented in :mod:`repro.cluster.coordinator`.

Requests may additionally carry a ``trace`` field — ``{"id": <16 hex>,
"span": <8 hex>}`` — appended by :mod:`repro.netio` when the sender has
an active :mod:`repro.telemetry` trace.  It is not part of any op's
semantics: old peers ignore the unknown key (both framings tolerate
extra payload fields), new coordinators stamp it onto the task and
re-issue it with every ``lease`` answer so the executing worker adopts
the submitting client's trace id.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.engine import cache
from repro.engine.runner import RunResult, RunSpec, spec_summary

__all__ = [
    "ALLOWED_UNLOCKS",
    "DEFAULT_PORT",
    "parse_address",
    "format_address",
    "encode_spec",
    "decode_spec",
    "spec_unlocks",
    "apply_unlocks",
    "persist_result",
]

#: Default coordinator port (the serving layer claims 7071).
DEFAULT_PORT = 7070

_SCHEME = "cluster://"


def parse_address(address: str) -> tuple[str, int]:
    """``"cluster://host:port"`` / ``"host:port"`` / ``"host"`` -> (host, port)."""
    if not isinstance(address, str) or not address.strip():
        raise ValueError(f"invalid cluster address {address!r}")
    text = address.strip()
    if text.startswith(_SCHEME):
        text = text[len(_SCHEME):]
    if "://" in text:
        scheme = address.split("://", 1)[0]
        raise ValueError(
            f"unsupported executor scheme {scheme!r}; expected cluster://host:port"
        )
    if text.startswith("["):
        # RFC 3986 bracketed IPv6 literal: [::1] or [::1]:7070.
        host, sep, rest = text[1:].partition("]")
        if not sep or (rest and not rest.startswith(":")):
            raise ValueError(f"malformed bracketed host in cluster address {address!r}")
        port_text = rest[1:]
    else:
        host, sep, port_text = text.rpartition(":")
        if not sep:
            host, port_text = text, ""
        if ":" in host:
            raise ValueError(
                f"ambiguous IPv6 address {address!r}; bracket the host: [host]:port"
            )
    if not host:
        raise ValueError(f"missing host in cluster address {address!r}")
    if not port_text:
        return host, DEFAULT_PORT
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid port {port_text!r} in cluster address {address!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in cluster address {address!r}")
    return host, port


def format_address(host: str, port: int) -> str:
    """The canonical ``cluster://host:port`` form of an endpoint."""
    return f"{_SCHEME}{host}:{port}"


#: Environment gates a client may pass through the wire and a worker
#: honours around one cell (see :func:`encode_spec`).  Closed set: the
#: wire must not become a vector for arbitrary env injection.
ALLOWED_UNLOCKS = ("REPRO_FULL",)


def encode_spec(spec: RunSpec) -> dict:
    """A :class:`RunSpec` as a plain JSON object (registry names + params).

    The compute dtype is *pinned* into the wire form: profile
    resolution injects ``REPRO_DTYPE`` from the resolving process's
    environment, so a spec shipped as bare names would train at the
    **worker's** precision while being cached under the **client's**
    dtype-keyed cache key — poisoning the store and breaking the
    bitwise contract.  Sending the client-resolved dtype as an
    explicit override makes the cell's precision (and therefore its
    key) identical on every machine, whatever their environments say.

    ``REPRO_FULL`` gets the same treatment for the same reason in the
    other direction: full-profile scenarios (``domainnet_full/*``) are
    gated behind the env flag, so a client that resolved a spec under
    ``REPRO_FULL=1`` records the unlock in the wire form and the worker
    re-applies it around the cell — otherwise the leased cell would
    fail on a worker whose environment lacks the flag.
    """
    from repro.utils import env_flag

    profile_overrides = dict(spec.profile_overrides)
    profile_overrides.setdefault("dtype", spec.resolved_profile().dtype)
    payload = {
        "method": spec.method,
        "scenario": spec.scenario,
        "profile": spec.profile,
        "seed": spec.seed,
        "eval_scenarios": list(spec.eval_scenarios),
        "profile_overrides": profile_overrides,
        "method_overrides": dict(spec.method_overrides),
        "scenario_params": dict(spec.scenario_params),
    }
    unlocks = [name for name in ALLOWED_UNLOCKS if env_flag(name)]
    if unlocks:
        payload["unlocks"] = unlocks
    return payload


def spec_unlocks(payload: dict) -> tuple[str, ...]:
    """The environment gates a wire spec asks for, filtered to the
    allow-list (unknown names are ignored, never applied)."""
    requested = payload.get("unlocks") or ()
    return tuple(name for name in ALLOWED_UNLOCKS if name in requested)


@contextmanager
def apply_unlocks(names):
    """Set the named env gates to ``"1"`` for the duration of one cell.

    Restores each variable's previous value (including absence) on the
    way out, so the worker's own environment is untouched between
    cells.
    """
    saved = {name: os.environ.get(name) for name in names}
    for name in names:
        os.environ[name] = "1"
    try:
        yield
    finally:
        for name, previous in saved.items():
            if previous is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous


def decode_spec(payload: dict) -> RunSpec:
    """Rebuild a :class:`RunSpec` from its wire form.

    The receiving process resolves the names against *its* registries,
    so coordinator and workers must agree on the registered methods and
    scenarios — which the cache-key check downstream enforces anyway
    (a drifted registry produces a different key and a loud miss).
    """
    return RunSpec(
        method=payload["method"],
        scenario=payload["scenario"],
        profile=payload.get("profile", "scaled"),
        seed=int(payload.get("seed", 0)),
        eval_scenarios=tuple(payload.get("eval_scenarios") or ("til", "cil")),
        profile_overrides=dict(payload.get("profile_overrides") or {}),
        method_overrides=dict(payload.get("method_overrides") or {}),
        scenario_params=dict(payload.get("scenario_params") or {}),
    )


def persist_result(spec: RunSpec, key: str | None, result: RunResult) -> None:
    """Write a wire-delivered result into the local disk cache, once.

    The single copy of the persistence step both ends of the wire run —
    the coordinator on ``complete``, the client on delivery — so the
    stored entry (and its manifest meta) can never drift between them.
    No-op when caching is off, the key is unknown, or the entry already
    exists (a worker on a shared filesystem wrote it first).
    """
    if key is None or not cache.cache_enabled() or cache.contains(key):
        return
    cache.store(key, result, meta=spec_summary(spec))
