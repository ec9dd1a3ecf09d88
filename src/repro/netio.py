"""Shared TCP plumbing for the serving, cluster, and gateway layers.

Every network front-end in this library — the inference server
(:mod:`repro.serve.net`), the cluster coordinator
(:mod:`repro.cluster.coordinator`), and the gateway
(:mod:`repro.gateway`) — speaks the same wire dialect through this
module.  Two framings coexist on every connection:

* **v1 — JSON lines.**  One UTF-8 JSON object per line, newline
  framed, both directions.  The original dialect; accepted forever.
* **v2 — binary frames.**  A magic-prefixed frame (``REPB`` + a JSON
  header + N raw buffers) that carries numpy arrays as contiguous
  bytes with dtype/shape in the header: zero base64, zero pickle for
  arrays, optional per-frame zlib, and chunked streaming so
  multi-megabyte checkpoints never materialise as one giant line.

Framing is detected *per message* from the first bytes on the stream
(``REPB`` ⇒ frame, anything else ⇒ JSON line) and every server answers
in the framing the request used — that is the whole negotiation
story on the server side.  Clients learn that a server can accept
frames from the ``"proto"`` field servers put in their ``hello`` /
``ping`` / ``info`` answers (see :func:`preferred_proto`), and the
``REPRO_WIRE`` environment variable forces either framing end to end
(:func:`wire_preference`).

The request-hardening primitives all servers share also live here:
:class:`InflightGate` busy-shedding, :func:`serve_connection` (the
per-connection loop), retrying round-trips, and :class:`WireStats`
byte/frame counters.

Stdlib + numpy only (asyncio + socket + json + struct + zlib).
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import socket
import struct
import zlib

import numpy as np

from repro import telemetry

__all__ = [
    "STREAM_LIMIT",
    "BUSY",
    "MAGIC",
    "WIRE_VERSION",
    "FrameError",
    "InflightGate",
    "WireStats",
    "WireRequest",
    "WireReader",
    "RawReply",
    "Frame",
    "build_frame",
    "encode_frame",
    "decode_frame",
    "wire_preference",
    "preferred_proto",
    "send_message",
    "read_message",
    "serve_connection",
    "shed_exempt_ops",
    "stats_payload",
    "request_async",
    "request",
    "request_with_retry",
    "backoff_delays",
    "call",
]

#: Newline-framed JSON with array payloads easily exceeds asyncio's
#: 64 KiB default stream limit; 64 MiB comfortably fits paper-scale
#: batches (a 256x3x224x224 float batch serializes under 40 MiB).
STREAM_LIMIT = 64 * 1024 * 1024

#: The canonical load-shedding answer, shared by every server.
BUSY = {"ok": False, "error": "busy"}

#: First bytes of every binary frame; anything else on the stream is a
#: JSON line.  ``R`` can never start a JSON document, so one byte is
#: enough to tell the framings apart (the remaining three are checked
#: anyway).
MAGIC = b"REPB"

#: The frame format this build writes, and the value servers advertise
#: in ``hello`` / ``ping`` / ``info`` answers.
WIRE_VERSION = 2

# Frame prefix: magic(4) | version(u8) | flags(u8) | nbuf(u16) |
# header_len(u32), little-endian.  ``flags`` is reserved (always 0).
_PREFIX = struct.Struct("<4sBBHI")
PREFIX_SIZE = _PREFIX.size

#: Decode-side guard: a declared header length past this is a corrupt
#: or hostile frame, refused *before* any allocation.  (The u32 field
#: caps headers at 4 GiB anyway; real headers are a few KiB.)
_MAX_HEADER_BYTES = 64 * 1024 * 1024

#: Decode-side guard for individual buffer lengths (1 TiB) — large
#: enough for any real payload, small enough to refuse garbage sizes
#: before ``bytearray(2**63)`` takes the process down.
_MAX_BUFFER_BYTES = 1 << 40

#: Streaming granularity: big buffers are written (and read) in slices
#: of this size with a drain between slices, so a checkpoint push never
#: buffers more than one chunk beyond the transport's own watermark.
_WIRE_CHUNK = 1 << 20

#: Buffers smaller than this are never worth a zlib round-trip.
_COMPRESS_MIN_BYTES = 512

#: The placeholder key marking "this dict is buffer #i" in a frame
#: header.  Reserved: payloads cannot use it as a mapping key.
_BUF_KEY = "__repb__"


class FrameError(ValueError):
    """A malformed, truncated, or oversized binary frame."""


def wire_preference() -> int | None:
    """The ``REPRO_WIRE`` override: 1 (JSON), 2 (binary), or None.

    Lets an operator force either framing end to end without touching
    call sites — the compat CI job runs whole client fleets with
    ``REPRO_WIRE=1`` to prove the JSON path still carries everything.
    """
    raw = os.environ.get("REPRO_WIRE", "").strip().lower()
    if not raw:
        return None
    if raw in {"1", "v1", "json"}:
        return 1
    if raw in {"2", "v2", "binary"}:
        return 2
    raise ValueError(f"REPRO_WIRE must be 1/json or 2/binary, got {raw!r}")


def preferred_proto(advertised) -> int:
    """The framing a client should use against a server advertising
    ``advertised`` (the ``"proto"`` field of its hello/ping/info
    answer; None or absent means a pre-v2 server).

    ``REPRO_WIRE`` wins over negotiation in both directions.
    """
    forced = wire_preference()
    if forced is not None:
        return forced
    try:
        return 2 if int(advertised or 1) >= 2 else 1
    except (TypeError, ValueError):
        return 1


class InflightGate:
    """A non-blocking bound on concurrent requests.

    ``try_acquire`` either admits the request or refuses immediately —
    there is deliberately no waiting path, because a bounded server
    must *answer* (busy) under overload, not silently queue.  A
    ``limit`` of ``None`` or ``0`` disables the bound (the gate still
    counts traffic).  Single-threaded by design: both servers run their
    handlers on one asyncio loop, so plain counters are race-free.
    """

    def __init__(self, limit: int | None = None):
        if limit is not None and limit < 0:
            raise ValueError("inflight limit must be >= 0 (0/None disables it)")
        self.limit = limit or None
        self.inflight = 0
        self.peak = 0
        self.admitted = 0
        self.rejected = 0

    @property
    def saturated(self) -> bool:
        """True when the next ``try_acquire`` would reject."""
        return self.limit is not None and self.inflight >= self.limit

    def try_acquire(self) -> bool:
        if self.saturated:
            self.rejected += 1
            return False
        self.inflight += 1
        self.admitted += 1
        self.peak = max(self.peak, self.inflight)
        return True

    def release(self) -> None:
        if self.inflight <= 0:
            raise RuntimeError("release() without a matching try_acquire()")
        self.inflight -= 1

    def stats(self) -> dict:
        return {
            "inflight": self.inflight,
            "limit": self.limit,
            "peak": self.peak,
            "admitted": self.admitted,
            "rejected": self.rejected,
        }


class WireStats:
    """Per-server wire counters, surfaced by every ``stats`` op.

    Counts both directions by framing (lines vs frames) plus the raw
    vs on-wire byte totals of compressed buffers, so operators can see
    what the binary protocol and zlib are actually buying on a live
    server.  Single asyncio loop per server ⇒ plain ints are race-free.
    """

    __slots__ = (
        "bytes_in",
        "bytes_out",
        "frames_in",
        "frames_out",
        "lines_in",
        "lines_out",
        "zlib_raw_out",
        "zlib_wire_out",
    )

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, 0)

    def count_in(self, proto: int, nbytes: int) -> None:
        self.bytes_in += nbytes
        if proto >= 2:
            self.frames_in += 1
        else:
            self.lines_in += 1

    def count_out(self, proto: int, nbytes: int, *, raw_nbytes: int | None = None) -> None:
        self.bytes_out += nbytes
        if proto >= 2:
            self.frames_out += 1
        else:
            self.lines_out += 1
        if raw_nbytes is not None and raw_nbytes > nbytes:
            self.zlib_raw_out += raw_nbytes
            self.zlib_wire_out += nbytes

    def snapshot(self) -> dict:
        data = {name: getattr(self, name) for name in self.__slots__}
        data["compressed_ratio"] = (
            round(self.zlib_raw_out / self.zlib_wire_out, 3) if self.zlib_wire_out else None
        )
        return data


# ----------------------------------------------------------------------
# v2 frame codec
# ----------------------------------------------------------------------
class Frame:
    """An encoded outgoing frame: the wire parts plus size accounting.

    ``parts`` is ``[prefix, header, buffer, buffer, ...]`` — each part
    is bytes or a flat ``B``-format memoryview aliasing the source
    array (zero copy for contiguous inputs).  ``raw_nbytes`` is what
    the frame would have weighed without compression, for the stats
    counters.
    """

    __slots__ = ("parts", "nbytes", "raw_nbytes")

    def __init__(self, parts: list, nbytes: int, raw_nbytes: int):
        self.parts = parts
        self.nbytes = nbytes
        self.raw_nbytes = raw_nbytes


def _as_wire_buffer(arr: np.ndarray):
    """A flat byte view of ``arr`` without copying contiguous data."""
    if arr.nbytes == 0:
        return b""
    return np.ascontiguousarray(arr).data.cast("B")


def _pack_payload(obj, buffers: list, metas: list, compress: int | None):
    """Walk ``obj`` replacing binary leaves with buffer placeholders."""
    if isinstance(obj, np.ndarray):
        if obj.dtype.hasobject:
            raise FrameError("object-dtype arrays cannot travel the wire")
        contiguous = np.ascontiguousarray(obj)
        meta = {"kind": "nd", "dtype": contiguous.dtype.str, "shape": list(obj.shape)}
        data = _as_wire_buffer(contiguous)
        metas.append(meta)
        buffers.append(_maybe_compress(data, meta, compress))
        return {_BUF_KEY: len(metas) - 1}
    if isinstance(obj, (bytes, bytearray, memoryview)):
        meta = {"kind": "bytes"}
        metas.append(meta)
        buffers.append(_maybe_compress(obj, meta, compress))
        return {_BUF_KEY: len(metas) - 1}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, dict):
        if _BUF_KEY in obj:
            raise FrameError(f"{_BUF_KEY!r} is a reserved mapping key")
        return {k: _pack_payload(v, buffers, metas, compress) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pack_payload(v, buffers, metas, compress) for v in obj]
    return obj


def _maybe_compress(data, meta: dict, compress: int | None):
    raw_len = memoryview(data).nbytes
    if compress and raw_len >= _COMPRESS_MIN_BYTES:
        packed = zlib.compress(data, compress)
        if len(packed) < raw_len:
            meta["zlib"] = raw_len  # doubles as flag and expected raw length
            return packed
    return data


def build_frame(payload: dict, *, compress: int | None = None) -> Frame:
    """Encode ``payload`` (JSON tree + ndarray/bytes leaves) as a frame.

    ``compress`` is a zlib level (1–9); buffers only ship compressed
    when that actually saves bytes, recorded per buffer in the header
    so mixed frames decode correctly.
    """
    buffers: list = []
    metas: list = []
    clean = _pack_payload(payload, buffers, metas, compress)
    raw_total = 0
    for meta, data in zip(metas, buffers):
        meta["nbytes"] = memoryview(data).nbytes
        raw_total += meta.get("zlib", meta["nbytes"])
    header = json.dumps({"payload": clean, "buffers": metas}, separators=(",", ":")).encode()
    if len(header) > _MAX_HEADER_BYTES:
        raise FrameError(f"frame header too large ({len(header)} bytes)")
    if len(buffers) > 0xFFFF:
        raise FrameError(f"too many buffers in one frame ({len(buffers)})")
    prefix = _PREFIX.pack(MAGIC, WIRE_VERSION, 0, len(buffers), len(header))
    parts = [prefix, header, *buffers]
    nbytes = sum(memoryview(p).nbytes for p in parts)
    return Frame(parts, nbytes, nbytes - sum(m["nbytes"] for m in metas) + raw_total)


def encode_frame(payload: dict, *, compress: int | None = None) -> bytes:
    """:func:`build_frame` flattened to one bytes object (tests, sync IO)."""
    return b"".join(build_frame(payload, compress=compress).parts)


def _check_prefix(prefix: bytes) -> tuple[int, int]:
    magic, version, _flags, nbuf, header_len = _PREFIX.unpack(prefix)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if version != WIRE_VERSION:
        raise FrameError(f"unsupported frame version {version}")
    if header_len > _MAX_HEADER_BYTES:
        raise FrameError(f"declared frame header of {header_len} bytes exceeds the cap")
    return nbuf, header_len


def _parse_header(header_bytes) -> tuple[dict, list]:
    try:
        header = json.loads(bytes(header_bytes))
    except ValueError as exc:
        raise FrameError(f"frame header is not valid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FrameError("frame header must be a JSON object")
    metas = header.get("buffers", [])
    if not isinstance(metas, list):
        raise FrameError("frame buffer table must be a list")
    for meta in metas:
        nbytes = meta.get("nbytes") if isinstance(meta, dict) else None
        if not isinstance(nbytes, int) or nbytes < 0 or nbytes > _MAX_BUFFER_BYTES:
            raise FrameError(f"frame declares an invalid buffer length: {nbytes!r}")
        raw = meta.get("zlib")
        if raw is not None and (not isinstance(raw, int) or raw < 0 or raw > _MAX_BUFFER_BYTES):
            raise FrameError(f"frame declares an invalid raw buffer length: {raw!r}")
    return header, metas


def _inflate(raw, size: int) -> bytes:
    """Decompress ``raw``, producing at most one byte more than ``size``."""
    inflater = zlib.decompressobj()
    try:
        # max_length 0 would mean "unbounded", hence the +1.
        data = inflater.decompress(bytes(raw), size + 1)
    except zlib.error as exc:
        raise FrameError(f"compressed buffer is corrupt: {exc}") from exc
    if len(data) != size or not inflater.eof:
        raise FrameError("compressed buffer decoded to an unexpected length")
    return data


def _decode_buffer(meta: dict, raw):
    if meta.get("zlib") is not None:
        raw = _inflate(raw, meta["zlib"])
    kind = meta.get("kind")
    if kind == "nd":
        try:
            dtype = np.dtype(meta["dtype"])
        except (TypeError, KeyError, ValueError) as exc:
            raise FrameError(f"frame declares an invalid dtype: {exc}") from exc
        if dtype.hasobject:
            raise FrameError("object-dtype arrays cannot travel the wire")
        shape = meta.get("shape", [])
        if not isinstance(shape, list) or not all(
            type(d) is int and d >= 0 for d in shape
        ):
            raise FrameError(f"frame declares an invalid shape: {shape!r}")
        shape = tuple(shape)
        # Python ints cannot wrap; the product of () is 1 (0-d arrays).
        expected = dtype.itemsize * math.prod(shape)
        if memoryview(raw).nbytes != expected:
            raise FrameError(
                f"array buffer length {memoryview(raw).nbytes} does not match "
                f"dtype {dtype.str} shape {shape}"
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape)
    if kind == "bytes":
        return bytes(raw)
    raise FrameError(f"unknown buffer kind {kind!r}")


def _resolve_payload(obj, buffers: list):
    """Walk a decoded header tree replacing placeholders with buffers."""
    if isinstance(obj, dict):
        if len(obj) == 1 and _BUF_KEY in obj:
            index = obj[_BUF_KEY]
            if not isinstance(index, int) or not 0 <= index < len(buffers):
                raise FrameError(f"frame references missing buffer {index!r}")
            return buffers[index]
        return {k: _resolve_payload(v, buffers) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_resolve_payload(v, buffers) for v in obj]
    return obj


def decode_frame(data) -> dict:
    """Decode one complete frame held in memory back to its payload.

    Arrays alias ``data`` where possible (read-only when ``data`` is
    immutable bytes).  Raises :class:`FrameError` on truncation, bad
    magic, or any malformed declaration — checked before allocation.
    """
    view = memoryview(data).cast("B")
    if view.nbytes < PREFIX_SIZE:
        raise FrameError("truncated frame prefix")
    nbuf, header_len = _check_prefix(bytes(view[:PREFIX_SIZE]))
    offset = PREFIX_SIZE
    if view.nbytes < offset + header_len:
        raise FrameError("truncated frame header")
    header, metas = _parse_header(view[offset : offset + header_len])
    offset += header_len
    if len(metas) != nbuf:
        raise FrameError(f"frame declares {nbuf} buffers but lists {len(metas)}")
    buffers = []
    for meta in metas:
        nbytes = meta["nbytes"]
        if view.nbytes < offset + nbytes:
            raise FrameError("truncated frame buffer")
        buffers.append(_decode_buffer(meta, view[offset : offset + nbytes]))
        offset += nbytes
    return _resolve_payload(header.get("payload"), buffers)


_UNSET = object()


class WireRequest:
    """One decoded incoming message, in either framing.

    ``parts`` is the exact wire representation (``[line]`` for v1,
    ``[prefix, header, buffer...]`` for v2) so a relay can forward the
    message verbatim without re-encoding.  ``payload`` materialises
    lazily: v2 headers expose ``op`` and other control fields without
    touching the array buffers, which is what keeps gateway routing
    O(header) for megabyte batches.
    """

    __slots__ = ("proto", "parts", "header", "buffers", "_payload")

    def __init__(self, proto: int, parts: list, header: dict | None = None, buffers: list | None = None):
        self.proto = proto
        self.parts = parts
        self.header = header
        self.buffers = buffers
        self._payload = _UNSET

    @property
    def line(self) -> bytes | None:
        """The raw JSON line (v1 requests only)."""
        return self.parts[0] if self.proto == 1 else None

    @property
    def control(self) -> dict:
        """Control-plane fields without decoding array buffers.

        For v2 this is the header's payload tree (array leaves appear
        as placeholder dicts); for v1 it is the parsed line.
        """
        if self.proto >= 2:
            payload = self.header.get("payload") if self.header else None
            return payload if isinstance(payload, dict) else {}
        payload = self.payload
        return payload if isinstance(payload, dict) else {}

    @property
    def op(self) -> str | None:
        """The request op, read cheaply (no buffer decode for v2)."""
        if self.proto >= 2:
            op = self.control.get("op")
            return op if isinstance(op, str) else None
        try:
            op = self.payload.get("op")
        except (ValueError, AttributeError):
            return None
        return op if isinstance(op, str) else None

    @property
    def payload(self):
        """The full request payload (parsed / buffer-resolved, cached)."""
        if self._payload is _UNSET:
            if self.proto >= 2:
                self._payload = _resolve_payload(self.header.get("payload"), self.buffers)
            else:
                self._payload = json.loads(self.parts[0])
        return self._payload

    @property
    def nbytes(self) -> int:
        return sum(memoryview(p).nbytes for p in self.parts)


class RawReply:
    """A pre-encoded response written to the peer verbatim.

    Returned by gateway dispatch when relaying a replica's answer:
    the bytes that arrived from the replica go back out untouched, in
    whatever framing the client asked in.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: list):
        self.parts = list(parts)

    @property
    def proto(self) -> int:
        return 2 if self.parts and bytes(self.parts[0][:4]) == MAGIC else 1

    @property
    def nbytes(self) -> int:
        return sum(memoryview(p).nbytes for p in self.parts)


class WireReader:
    """Reads both wire framings off one stream, message by message.

    Owns its own buffer (never mixes with the underlying reader's
    ``readline``), so the 4-byte framing sniff can push bytes back when
    the message turns out to be a short JSON line.  Large frame buffers
    are read in bounded chunks into preallocated storage — the stream
    side of "chunked streaming".
    """

    def __init__(self, reader: asyncio.StreamReader):
        self._reader = reader
        self._buf = bytearray()

    async def _more(self) -> bool:
        chunk = await self._reader.read(_WIRE_CHUNK)
        if not chunk:
            return False
        self._buf += chunk
        return True

    async def _take(self, n: int, what: str) -> bytes:
        while len(self._buf) < n:
            if not await self._more():
                raise FrameError(f"connection closed mid-{what}")
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    async def _take_buffer(self, n: int) -> bytearray:
        out = bytearray()
        take = min(len(self._buf), n)
        if take:
            out += self._buf[:take]
            del self._buf[:take]
        while len(out) < n:
            chunk = await self._reader.read(min(_WIRE_CHUNK, n - len(out)))
            if not chunk:
                raise FrameError("connection closed mid-buffer")
            out += chunk
        return out

    async def _take_line(self) -> bytes:
        while b"\n" not in self._buf:
            if len(self._buf) > STREAM_LIMIT:
                raise FrameError("unframed line exceeds the stream limit")
            if not await self._more():
                out = bytes(self._buf)
                self._buf.clear()
                return out
        end = self._buf.index(b"\n") + 1
        out = bytes(self._buf[:end])
        del self._buf[:end]
        return out

    async def read_request(self) -> WireRequest | None:
        """The next message, or ``None`` on clean EOF between messages."""
        while not self._buf:
            if not await self._more():
                return None
        if self._buf[:1] != MAGIC[:1]:
            return WireRequest(1, [await self._take_line()])
        while len(self._buf) < PREFIX_SIZE:
            if not await self._more():
                raise FrameError("truncated frame prefix")
        prefix = bytes(self._buf[:PREFIX_SIZE])
        if prefix[:4] != MAGIC:
            # Started like a frame but is not one: hand it to the line
            # path (a JSON line can legally contain 'R' only inside a
            # string, so this is already a protocol violation the
            # dispatcher will answer with a parse error).
            return WireRequest(1, [await self._take_line()])
        del self._buf[:PREFIX_SIZE]
        nbuf, header_len = _check_prefix(prefix)
        header_bytes = await self._take(header_len, "frame header")
        header, metas = _parse_header(header_bytes)
        if len(metas) != nbuf:
            raise FrameError(f"frame declares {nbuf} buffers but lists {len(metas)}")
        raws = [await self._take_buffer(meta["nbytes"]) for meta in metas]
        buffers = [_decode_buffer(meta, raw) for meta, raw in zip(metas, raws)]
        parts = [prefix, header_bytes, *raws]
        return WireRequest(2, parts, header=header, buffers=buffers)


async def _write_parts(writer: asyncio.StreamWriter, parts) -> int:
    """Write wire parts, slicing large buffers with a drain between
    slices so a multi-megabyte frame streams in bounded segments."""
    total = 0
    for part in parts:
        view = memoryview(part)
        if view.format != "B":
            view = view.cast("B")
        size = view.nbytes
        if size > _WIRE_CHUNK:
            for offset in range(0, size, _WIRE_CHUNK):
                writer.write(view[offset : offset + _WIRE_CHUNK])
                await writer.drain()
        elif size:
            writer.write(view)
        total += size
    await writer.drain()
    return total


# ----------------------------------------------------------------------
# Asyncio framing
# ----------------------------------------------------------------------
async def send_message(writer: asyncio.StreamWriter, payload: dict) -> None:
    """Write one framed JSON object and flush it."""
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def read_message(reader: asyncio.StreamReader) -> dict | None:
    """Read one framed JSON object; ``None`` on a clean EOF."""
    line = await reader.readline()
    if not line:
        return None
    return json.loads(line)


#: Requests longer than this are never considered for shed exemption —
#: sniffing an op out of a 40 MiB predict line would defeat the O(1)
#: admission the gate exists to provide.
_SHED_EXEMPT_MAX_LINE = 1024


def shed_exempt_ops(*ops: str):
    """A shed-exemption predicate for cheap read-only ops.

    Servers pass the result as ``serve_connection``'s ``shed_exempt``
    so observability requests (``stats`` / ``info`` / ``ping``) still
    answer while every inflight slot is held by slow work — the ops an
    operator needs precisely when the server is saturated.  Only tiny
    lines are sniffed, so heavyweight payloads keep O(1) shedding; v2
    requests are matched on the header op via the ``.ops`` attribute
    (already O(1) — arrays live in buffers, not the header).
    """
    wanted = frozenset(ops)

    def exempt(line: bytes) -> bool:
        if len(line) > _SHED_EXEMPT_MAX_LINE:
            return False
        try:
            return json.loads(line).get("op") in wanted
        except ValueError:
            return False

    exempt.ops = wanted
    return exempt


def _shed_exempted(shed_exempt, request: WireRequest) -> bool:
    if shed_exempt is None:
        return False
    if request.proto >= 2:
        ops = getattr(shed_exempt, "ops", None)
        return ops is not None and request.op in ops
    return shed_exempt(request.parts[0])


#: Clients append the trace context last, so on v1 lines it can be read
#: off the tail without parsing the (possibly multi-megabyte) line —
#: the same O(1)-per-request discipline as shed sniffing.
_TRACE_TAIL = re.compile(
    rb'"trace":\s*\{"id":\s*"([0-9a-f]+)",\s*"span":\s*"([0-9a-f]+)"\}\}\s*$'
)
_TRACE_TAIL_MAX = 160

#: v1 lines up to this size are fully parsed when the tail sniff misses
#: (a foreign client may have placed ``trace`` anywhere); bigger lines
#: stay unparsed so gateway routing keeps its O(header) admission.
_TRACE_PARSE_MAX_LINE = 64 * 1024


def _request_trace(request: WireRequest) -> dict | None:
    """The request's ``trace`` field, read without decoding buffers."""
    if request.proto >= 2:
        trace = request.control.get("trace")
        return trace if isinstance(trace, dict) else None
    line = request.parts[0]
    match = _TRACE_TAIL.search(line[-_TRACE_TAIL_MAX:])
    if match is not None:
        return {"id": match.group(1).decode(), "span": match.group(2).decode()}
    if len(line) > _TRACE_PARSE_MAX_LINE:
        return None
    try:
        trace = request.payload.get("trace")
    except (ValueError, AttributeError):
        return None
    return trace if isinstance(trace, dict) else None


def _with_trace(payload: dict) -> dict:
    """``payload`` plus the active trace context as a ``trace`` field.

    Appended *last* (dict insertion order survives ``json.dumps``) so
    prefix sniffers — the gateway's predict router — see unchanged
    bytes, and the v1 tail sniff above can find it.  A payload that
    already carries a ``trace`` (a relay) keeps it; with no sampled
    context active the payload passes through untouched, which is what
    keeps old-peer wire bytes byte-identical when tracing is off.
    """
    if "trace" in payload:
        return payload
    ctx = telemetry.wire_context()
    if ctx is None:
        return payload
    return {**payload, "trace": ctx}


def stats_payload(
    gate: InflightGate | None = None,
    wire: WireStats | None = None,
    *,
    with_telemetry: bool = True,
    **extra,
) -> dict:
    """The transport block every server's ``stats`` op shares.

    One assembly for serve/cluster/gateway: the gate counters flat at
    the top (inflight/limit/peak/admitted/rejected), any server
    extras, the wire snapshot under ``"wire"``, and the process-wide
    metrics registry under ``"telemetry"``.
    """
    payload: dict = {}
    if gate is not None:
        payload.update(gate.stats())
    payload.update(extra)
    if wire is not None:
        payload["wire"] = wire.snapshot()
    if with_telemetry:
        payload["telemetry"] = telemetry.registry.snapshot()
    return payload


async def _write_reply(
    writer: asyncio.StreamWriter,
    request_proto: int,
    response,
    stats: WireStats | None,
    compress: int | None,
) -> None:
    if isinstance(response, RawReply):
        total = await _write_parts(writer, response.parts)
        if stats is not None:
            stats.count_out(response.proto, total)
        return
    if request_proto >= 2:
        frame = build_frame(response, compress=compress)
        total = await _write_parts(writer, frame.parts)
        if stats is not None:
            stats.count_out(2, total, raw_nbytes=frame.raw_nbytes)
        return
    data = json.dumps(response).encode() + b"\n"
    writer.write(data)
    await writer.drain()
    if stats is not None:
        stats.count_out(1, len(data))


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    dispatch,
    *,
    gate: InflightGate | None = None,
    request_timeout: float | None = None,
    on_timeout=None,
    shed_exempt=None,
    stats: WireStats | None = None,
    compress: int | None = None,
) -> None:
    """The per-connection loop every server runs (one copy, no drift).

    For each message (JSON line or binary frame, detected per message):
    admission through ``gate`` (answer :data:`BUSY` in O(1) at the
    bound, before any payload decode), then ``await dispatch(request)``
    bounded by ``request_timeout`` (a timeout answers an error, calls
    ``on_timeout`` and frees the slot), then the response — written in
    the framing the request used, or verbatim when dispatch returns a
    :class:`RawReply`.  ``dispatch`` takes a :class:`WireRequest` and
    must return a JSON-safe dict (ndarray/bytes leaves allowed for v2
    peers) — protocol errors are its job to turn into ``{"ok": false,
    ...}`` answers; only transport-level disconnects are swallowed
    here.  A malformed *frame* is answered then the connection closes:
    framing errors desync the stream, so there is no next message to
    read.  ``shed_exempt`` (see :func:`shed_exempt_ops`) lets cheap
    observability requests through a saturated gate without occupying
    a slot; ``stats`` aggregates byte/frame counters.
    """
    wire = WireReader(reader)
    try:
        while True:
            try:
                request = await wire.read_request()
            except FrameError as exc:
                await _write_reply(
                    writer, 1, {"ok": False, "error": f"bad frame: {exc}"}, stats, None
                )
                break
            if request is None:
                break
            if stats is not None:
                stats.count_in(request.proto, request.nbytes)
            if gate is not None and gate.saturated and _shed_exempted(shed_exempt, request):
                # Exempt op on a full gate: dispatch without a slot and
                # without counting a rejection — `rejected` keeps
                # meaning "requests actually answered busy".
                admitted, dispatchable = False, True
            else:
                admitted = dispatchable = gate is None or gate.try_acquire()
            if not dispatchable:
                response = dict(BUSY)
            else:
                # Adopt the caller's trace (if any) around dispatch so
                # handler spans — and outbound calls the handler makes —
                # carry one trace id across hops.  The op names the span
                # only when already parsed: big v1 relay lines stay raw.
                trace = _request_trace(request)
                if request.proto >= 2 or request._payload is not _UNSET:
                    op_name = request.op or "unknown"
                else:
                    op_name = "raw"
                try:
                    with telemetry.adopt(trace), telemetry.span(f"server.{op_name}"):
                        response = await asyncio.wait_for(
                            dispatch(request), request_timeout
                        )
                except asyncio.TimeoutError:
                    if on_timeout is not None:
                        on_timeout()
                    response = {
                        "ok": False,
                        "error": f"timeout after {request_timeout:g}s",
                    }
                finally:
                    if admitted and gate is not None:
                        gate.release()
            await _write_reply(writer, request.proto, response, stats, compress)
    except (ConnectionResetError, asyncio.IncompleteReadError):
        pass  # a torn peer must not kill the server
    except asyncio.CancelledError:
        # Loop shutdown cancelling per-connection handler tasks: end
        # the connection quietly.  Re-raising would make asyncio's
        # stream machinery log a traceback for every idle connection at
        # exit — and there is no outer handler that wants the signal.
        pass
    finally:
        writer.close()


async def _exchange(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    payload: dict,
    proto: int,
    compress: int | None,
) -> dict:
    payload = _with_trace(payload)
    if proto >= 2:
        await _write_parts(writer, build_frame(payload, compress=compress).parts)
    else:
        await send_message(writer, payload)
    response = await WireReader(reader).read_request()
    if response is None:
        raise ConnectionError("server closed the connection without answering")
    return response.payload


async def request_async(
    host: str,
    port: int,
    payload: dict,
    *,
    timeout: float | None = None,
    proto: int = 1,
    compress: int | None = None,
) -> dict:
    """One request/response round-trip on a fresh connection.

    ``proto=2`` sends a binary frame (``payload`` may carry ndarray /
    bytes leaves); the response is decoded whichever framing the server
    answers in.
    """

    async def round_trip() -> dict:
        reader, writer = await asyncio.open_connection(host, port, limit=STREAM_LIMIT)
        try:
            return await _exchange(reader, writer, payload, proto, compress)
        finally:
            writer.close()

    if timeout is None:
        return await round_trip()
    return await asyncio.wait_for(round_trip(), timeout)


def request(
    host: str,
    port: int,
    payload: dict,
    *,
    timeout: float | None = None,
    proto: int = 1,
    compress: int | None = None,
) -> dict:
    """Synchronous convenience wrapper around :func:`request_async`."""
    return asyncio.run(
        request_async(host, port, payload, timeout=timeout, proto=proto, compress=compress)
    )


def backoff_delays(
    attempts: int, *, base: float = 0.05, factor: float = 2.0, cap: float = 2.0
):
    """The retry schedule every backoff in this library uses.

    Yields ``attempts - 1`` delays (the wait *between* tries):
    exponential from ``base``, clamped at ``cap``.  Deliberately
    jitter-free — retries here space out a single client's attempts
    against one server, not a thundering herd, and a deterministic
    schedule keeps the retry tests exact.
    """
    if attempts < 1:
        raise ValueError("attempts must be >= 1")
    delay = base
    for _ in range(attempts - 1):
        yield min(delay, cap)
        delay *= factor


async def request_with_retry(
    host: str,
    port: int,
    payload: dict,
    *,
    attempts: int = 5,
    timeout: float | None = None,
    base_delay: float = 0.05,
    cap_delay: float = 2.0,
    idempotent: bool = False,
    proto: int = 1,
    compress: int | None = None,
) -> dict:
    """:func:`request_async` with backoff on ``busy`` and dead sockets.

    Retries the transient failure shapes of this dialect — a
    :data:`BUSY` answer (the server shed the request; it will have
    capacity again shortly) and *connect-phase* errors (refused /
    reset / timeout before anything was sent: the peer may be
    restarting or still binding).  Any other answer is returned
    verbatim on the first try: a server that *answered* with a real
    error will answer the same way again, so retrying would only mask
    the problem.

    A connection that tears *after* the request started writing is
    different: the server may already be applying the op, so replaying
    it could double-apply.  Those failures only retry when the caller
    declares the request ``idempotent`` (pure reads, at-most-once
    installs keyed by content, re-registrations); otherwise they raise
    immediately.

    On exhaustion the last busy answer is returned (callers can see the
    shed) while connection errors re-raise — there is nothing useful to
    return when the peer never spoke.  ``timeout`` bounds the connect
    and the exchange separately.
    """
    delays = backoff_delays(attempts, base=base_delay, cap=cap_delay)
    last_error: Exception | None = None
    for attempt in range(attempts):
        response = None
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port, limit=STREAM_LIMIT), timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            last_error = exc  # nothing was sent yet: always safe to retry
        else:
            try:
                response = await asyncio.wait_for(
                    _exchange(reader, writer, payload, proto, compress), timeout
                )
            except (OSError, asyncio.TimeoutError) as exc:
                if not idempotent:
                    raise ConnectionError(
                        f"connection to {host}:{port} failed mid-request; "
                        "not retrying a non-idempotent op"
                    ) from exc
                last_error = exc
            finally:
                writer.close()
        if response is not None:
            if response.get("error") != "busy":
                return response
            if attempt == attempts - 1:
                return response
        try:
            await asyncio.sleep(next(delays))
        except StopIteration:  # pragma: no cover - loop bound matches schedule
            break
    raise ConnectionError(
        f"no answer from {host}:{port} after {attempts} attempts"
    ) from last_error


def _read_exact_sync(stream, n: int, what: str) -> bytes:
    out = bytearray()
    while len(out) < n:
        chunk = stream.read(min(_WIRE_CHUNK, n - len(out)))
        if not chunk:
            raise ConnectionError(f"connection closed mid-{what}")
        out += chunk
    return bytes(out)


def _read_payload_sync(stream) -> dict:
    """Read one response (either framing) off a blocking binary stream."""
    head = stream.read(1)
    if not head:
        raise ConnectionError("server closed the connection without answering")
    if head != MAGIC[:1]:
        return json.loads(head + stream.readline())
    prefix = head + _read_exact_sync(stream, PREFIX_SIZE - 1, "frame prefix")
    if prefix[:4] != MAGIC:
        return json.loads(prefix + stream.readline())
    nbuf, header_len = _check_prefix(prefix)
    header, metas = _parse_header(_read_exact_sync(stream, header_len, "frame header"))
    if len(metas) != nbuf:
        raise FrameError(f"frame declares {nbuf} buffers but lists {len(metas)}")
    buffers = [
        _decode_buffer(meta, _read_exact_sync(stream, meta["nbytes"], "frame buffer"))
        for meta in metas
    ]
    return _resolve_payload(header.get("payload"), buffers)


def call(
    host: str,
    port: int,
    payload: dict,
    *,
    timeout: float | None = None,
    proto: int = 1,
    compress: int | None = None,
) -> dict:
    """Blocking one-shot round trip over a plain socket (no event loop).

    The cluster worker and client run synchronous loops in plain
    threads; spinning an event loop per heartbeat would be pure
    overhead, so they use this instead of :func:`request`.  ``timeout``
    bounds each socket operation (connect / send / read), not the sum.
    """
    payload = _with_trace(payload)
    with socket.create_connection((host, port), timeout=timeout) as conn:
        if proto >= 2:
            for part in build_frame(payload, compress=compress).parts:
                conn.sendall(part)
        else:
            conn.sendall(json.dumps(payload).encode() + b"\n")
        with conn.makefile("rb") as stream:
            return _read_payload_sync(stream)
