"""Tests for the v2 binary wire protocol (:mod:`repro.netio`).

Three layers, mirroring the protocol's own structure:

* the frame codec — every payload shape that can cross the wire must
  round-trip bitwise, and every malformed frame must be refused with
  :class:`netio.FrameError` *before* any large allocation;
* negotiation — both framings coexist per connection, servers answer
  in kind, clients follow the advertised ``proto`` unless
  ``REPRO_WIRE`` forces a side;
* the retry contract — non-idempotent requests must never be re-sent
  after a torn socket mid-exchange, idempotent ones may.
"""

import asyncio
import json
import struct

import numpy as np
import pytest

from repro import netio


def roundtrip(payload, *, compress=None):
    return netio.decode_frame(netio.encode_frame(payload, compress=compress))


class TestFrameRoundTrip:
    """Encode → decode must be the identity, bit for bit."""

    @pytest.mark.parametrize("dtype", ["<f4", "<f8", "<i8", "|b1", "<u2"])
    @pytest.mark.parametrize("compress", [None, 1, 6])
    def test_dtypes_bitwise(self, dtype, compress):
        rng = np.random.default_rng(7)
        arr = (rng.random((5, 7)) * 100).astype(np.dtype(dtype))
        out = roundtrip({"ok": True, "x": arr}, compress=compress)
        assert out["x"].dtype == np.dtype(dtype)
        assert out["x"].shape == arr.shape
        np.testing.assert_array_equal(out["x"], arr)
        assert out["x"].tobytes() == arr.tobytes()

    def test_zero_dimensional_array(self):
        arr = np.array(3.25)  # 0-d, shape ()
        out = roundtrip({"x": arr})["x"]
        assert out.shape == ()
        assert out.dtype == np.float64
        assert float(out) == 3.25

    def test_empty_array(self):
        arr = np.zeros((0, 4), dtype=np.float32)
        out = roundtrip({"x": arr})["x"]
        assert out.shape == (0, 4)
        assert out.dtype == np.float32

    def test_fortran_ordered_array(self):
        arr = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        out = roundtrip({"x": arr})["x"]
        np.testing.assert_array_equal(out, arr)

    def test_non_contiguous_view(self):
        base = np.arange(20, dtype=np.int64).reshape(4, 5)
        view = base[::2, 1::2]  # strided, non-contiguous
        out = roundtrip({"x": view})["x"]
        np.testing.assert_array_equal(out, view)

    def test_bytes_and_nested_structure(self):
        payload = {
            "op": "put_checkpoint",
            "data": b"\x00\x01binary\xff",
            "meta": {"name": "cdcl", "list": [1, 2.5, None, True, "s"]},
            "arrays": [np.arange(3), {"inner": np.ones((2, 2), dtype=np.float32)}],
        }
        out = roundtrip(payload)
        assert out["data"] == payload["data"]
        assert out["meta"] == payload["meta"]
        np.testing.assert_array_equal(out["arrays"][0], np.arange(3))
        np.testing.assert_array_equal(out["arrays"][1]["inner"], np.ones((2, 2)))

    def test_numpy_scalars_become_python_values(self):
        out = roundtrip({"i": np.int64(7), "f": np.float64(0.5), "b": np.bool_(True)})
        assert out == {"i": 7, "f": 0.5, "b": True}
        assert isinstance(out["i"], int) and isinstance(out["f"], float)

    def test_float_repr_exactness(self):
        # JSON floats in the header must round-trip exactly (repr).
        value = 0.1 + 0.2  # 0.30000000000000004
        assert roundtrip({"v": value})["v"] == value

    def test_compression_only_when_it_saves(self):
        # Tiny buffer: below the threshold, never compressed.
        small = netio.build_frame({"x": np.arange(4)}, compress=9)
        assert small.nbytes == small.raw_nbytes
        # Compressible buffer: zeros shrink dramatically.
        big = netio.build_frame(
            {"x": np.zeros(100_000, dtype=np.float64)}, compress=6
        )
        assert big.nbytes < big.raw_nbytes / 2
        out = netio.decode_frame(b"".join(big.parts))
        np.testing.assert_array_equal(out["x"], np.zeros(100_000))

    def test_object_dtype_rejected(self):
        with pytest.raises(netio.FrameError, match="object-dtype"):
            netio.encode_frame({"x": np.array([{"a": 1}], dtype=object)})

    def test_reserved_key_rejected(self):
        with pytest.raises(netio.FrameError, match="reserved"):
            netio.encode_frame({"__repb__": 0})


class TestFrameRejection:
    """Malformed frames must raise FrameError before allocating."""

    def test_bad_magic(self):
        good = netio.encode_frame({"ok": True})
        with pytest.raises(netio.FrameError, match="magic"):
            netio.decode_frame(b"XXXX" + good[4:])

    def test_bad_version(self):
        good = bytearray(netio.encode_frame({"ok": True}))
        good[4] = 99
        with pytest.raises(netio.FrameError, match="version"):
            netio.decode_frame(bytes(good))

    def test_truncated_prefix(self):
        with pytest.raises(netio.FrameError, match="truncated"):
            netio.decode_frame(b"REPB\x02")

    def test_truncated_header_and_buffer(self):
        good = netio.encode_frame({"x": np.arange(10)})
        with pytest.raises(netio.FrameError, match="truncated"):
            netio.decode_frame(good[: netio.PREFIX_SIZE + 2])
        with pytest.raises(netio.FrameError, match="truncated"):
            netio.decode_frame(good[:-1])

    def test_huge_declared_header_refused_before_allocation(self):
        # A prefix declaring a multi-GiB header must be refused from
        # the 12 fixed bytes alone.
        prefix = struct.pack("<4sBBHI", b"REPB", 2, 0, 0, 0xFFFF_FFFF)
        with pytest.raises(netio.FrameError, match="exceeds the cap"):
            netio.decode_frame(prefix)

    def test_huge_declared_buffer_refused(self):
        header = json.dumps(
            {
                "payload": {"x": {"__repb__": 0}},
                "buffers": [{"kind": "nd", "dtype": "<f8", "shape": [1], "nbytes": 1 << 50}],
            }
        ).encode()
        frame = struct.pack("<4sBBHI", b"REPB", 2, 0, 1, len(header)) + header
        with pytest.raises(netio.FrameError, match="invalid buffer length"):
            netio.decode_frame(frame)

    def test_length_dtype_mismatch_refused(self):
        header = json.dumps(
            {
                "payload": {"x": {"__repb__": 0}},
                "buffers": [{"kind": "nd", "dtype": "<f8", "shape": [4], "nbytes": 8}],
            }
        ).encode()
        frame = (
            struct.pack("<4sBBHI", b"REPB", 2, 0, 1, len(header)) + header + b"\x00" * 8
        )
        with pytest.raises(netio.FrameError, match="does not match"):
            netio.decode_frame(frame)

    @staticmethod
    def _one_buffer_frame(meta: dict, data: bytes) -> bytes:
        header = json.dumps(
            {"payload": {"x": {"__repb__": 0}}, "buffers": [{**meta, "nbytes": len(data)}]}
        ).encode()
        return struct.pack("<4sBBHI", b"REPB", 2, 0, 1, len(header)) + header + data

    def test_inflate_bomb_refused_with_small_peak(self):
        """A buffer declaring 1 raw byte that inflates to 64 MiB must be
        refused without materialising the inflated bytes."""
        import tracemalloc
        import zlib

        bomb = zlib.compress(b"\0" * (64 << 20), 9)
        frame = self._one_buffer_frame({"kind": "bytes", "zlib": 1}, bomb)
        tracemalloc.start()
        try:
            with pytest.raises(netio.FrameError, match="unexpected length"):
                netio.decode_frame(frame)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * len(frame)

    def test_corrupt_compressed_buffer_refused(self):
        frame = self._one_buffer_frame({"kind": "bytes", "zlib": 4}, b"not zlib")
        with pytest.raises(netio.FrameError, match="corrupt"):
            netio.decode_frame(frame)

    @pytest.mark.parametrize(
        "shape, data",
        [
            (["x"], b""),
            ([-1, -1], b"\0" * 8),
            ([2**32, 2**32], b""),  # an int64 product would wrap to 0
        ],
    )
    def test_malformed_shape_refused(self, shape, data):
        frame = self._one_buffer_frame({"kind": "nd", "dtype": "<f8", "shape": shape}, data)
        with pytest.raises(netio.FrameError):
            netio.decode_frame(frame)

    def test_missing_buffer_reference_refused(self):
        header = json.dumps({"payload": {"x": {"__repb__": 3}}, "buffers": []}).encode()
        frame = struct.pack("<4sBBHI", b"REPB", 2, 0, 0, len(header)) + header
        with pytest.raises(netio.FrameError, match="missing buffer"):
            netio.decode_frame(frame)


class _EchoServer:
    """serve_connection around a dispatch that reflects proto + payload."""

    def __init__(self, *, compress=None):
        self.stats = netio.WireStats()
        self.server = None
        self.compress = compress

    async def dispatch(self, request: netio.WireRequest):
        payload = request.payload
        answer = {"ok": True, "proto_seen": request.proto, "op": payload.get("op")}
        if "echo" in payload:
            answer["echo"] = payload["echo"]
        if payload.get("op") == "ping":
            answer["proto"] = netio.WIRE_VERSION
        return answer

    async def __aenter__(self):
        async def handle(reader, writer):
            await netio.serve_connection(
                reader, writer, self.dispatch, stats=self.stats,
                compress=self.compress,
            )

        self.server = await asyncio.start_server(
            handle, "127.0.0.1", 0, limit=netio.STREAM_LIMIT
        )
        return self.server.sockets[0].getsockname()[1]

    async def __aexit__(self, *exc):
        self.server.close()
        await self.server.wait_closed()


class TestNegotiation:
    """Both framings on one connection; answers in kind; env override."""

    def test_server_answers_each_framing_in_kind(self):
        async def scenario():
            async with _EchoServer() as port:
                v1 = await netio.request_async(
                    "127.0.0.1", port, {"op": "a"}, proto=1
                )
                v2 = await netio.request_async(
                    "127.0.0.1", port, {"op": "b", "echo": np.arange(5)}, proto=2
                )
                return v1, v2

        v1, v2 = asyncio.run(scenario())
        assert v1["proto_seen"] == 1
        assert v2["proto_seen"] == 2
        np.testing.assert_array_equal(v2["echo"], np.arange(5))

    def test_mixed_framings_on_one_connection(self):
        """A line, then a frame, then a line again — same socket."""

        async def scenario():
            async with _EchoServer() as port:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port, limit=netio.STREAM_LIMIT
                )
                try:
                    answers = []
                    for proto, payload in [
                        (1, {"op": "a"}),
                        (2, {"op": "b", "echo": np.ones(3)}),
                        (1, {"op": "c"}),
                    ]:
                        if proto == 2:
                            for part in netio.build_frame(payload).parts:
                                writer.write(bytes(part))
                        else:
                            writer.write(json.dumps(payload).encode() + b"\n")
                        await writer.drain()
                        reply = await netio.WireReader(reader).read_request()
                        answers.append((reply.proto, reply.payload))
                    return answers
                finally:
                    writer.close()

        answers = asyncio.run(scenario())
        assert [proto for proto, _ in answers] == [1, 2, 1]
        assert [p["proto_seen"] for _, p in answers] == [1, 2, 1]

    def test_frame_split_across_tcp_segments(self):
        """The reader must reassemble a frame trickled byte by byte."""

        async def scenario():
            async with _EchoServer() as port:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    wire = netio.encode_frame({"op": "x", "echo": np.arange(100)})
                    for start in range(0, len(wire), 64):
                        writer.write(wire[start : start + 64])
                        await writer.drain()
                        await asyncio.sleep(0)
                    reply = await netio.WireReader(reader).read_request()
                    return reply.payload
                finally:
                    writer.close()

        out = asyncio.run(scenario())
        np.testing.assert_array_equal(out["echo"], np.arange(100))

    def test_garbled_frame_answers_error_then_closes(self):
        async def scenario():
            async with _EchoServer() as port:
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(struct.pack("<4sBBHI", b"REPB", 9, 0, 0, 4) + b"{}{}")
                    await writer.drain()
                    reply = await netio.WireReader(reader).read_request()
                    closed = await reader.read()
                    return reply.payload, closed
                finally:
                    writer.close()

        payload, closed = asyncio.run(scenario())
        assert payload["ok"] is False and "bad frame" in payload["error"]
        assert closed == b""  # server hung up: a desynced stream is dead

    def test_preferred_proto_follows_advertisement(self, monkeypatch):
        monkeypatch.delenv("REPRO_WIRE", raising=False)
        assert netio.preferred_proto(2) == 2
        assert netio.preferred_proto(3) == 2
        assert netio.preferred_proto(1) == 1
        assert netio.preferred_proto(None) == 1
        assert netio.preferred_proto("bogus") == 1

    def test_repro_wire_forces_both_directions(self, monkeypatch):
        monkeypatch.setenv("REPRO_WIRE", "json")
        assert netio.preferred_proto(2) == 1
        monkeypatch.setenv("REPRO_WIRE", "2")
        assert netio.preferred_proto(None) == 2
        monkeypatch.setenv("REPRO_WIRE", "nonsense")
        with pytest.raises(ValueError):
            netio.wire_preference()

    def test_wire_stats_count_both_framings(self):
        async def scenario():
            server = _EchoServer()
            async with server as port:
                await netio.request_async("127.0.0.1", port, {"op": "a"}, proto=1)
                await netio.request_async(
                    "127.0.0.1", port, {"op": "b", "echo": np.arange(10)}, proto=2
                )
                return server.stats.snapshot()

        snap = asyncio.run(scenario())
        assert snap["lines_in"] == 1 and snap["frames_in"] == 1
        assert snap["lines_out"] == 1 and snap["frames_out"] == 1
        assert snap["bytes_in"] > 0 and snap["bytes_out"] > 0

    def test_server_side_compression_is_counted(self):
        async def scenario():
            server = _EchoServer(compress=6)
            async with server as port:
                answer = await netio.request_async(
                    "127.0.0.1",
                    port,
                    {"op": "b", "echo": np.zeros(50_000, dtype=np.float64)},
                    proto=2,
                )
                return answer, server.stats.snapshot()

        answer, snap = asyncio.run(scenario())
        np.testing.assert_array_equal(answer["echo"], np.zeros(50_000))
        assert snap["zlib_raw_out"] > snap["zlib_wire_out"] > 0
        assert snap["compressed_ratio"] > 2


class TestIdempotentRetry:
    """request_with_retry must not replay non-idempotent ops blindly."""

    def _flaky_server(self, fail_first: int):
        """A server whose first ``fail_first`` connections die mid-request."""
        seen = {"connections": 0, "dispatched": 0}

        async def handle(reader, writer):
            seen["connections"] += 1
            if seen["connections"] <= fail_first:
                # Read the request, then tear the socket without answering
                # — the dangerous window where the op may have side effects.
                await netio.WireReader(reader).read_request()
                writer.close()
                return

            async def dispatch(request):
                seen["dispatched"] += 1
                return {"ok": True, "dispatched": seen["dispatched"]}

            await netio.serve_connection(reader, writer, dispatch)

        return seen, handle

    def test_non_idempotent_raises_on_torn_socket(self):
        async def scenario():
            seen, handle = self._flaky_server(fail_first=1)
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                with pytest.raises(ConnectionError, match="non-idempotent"):
                    await netio.request_with_retry(
                        "127.0.0.1", port, {"op": "submit"}, attempts=5,
                        base_delay=0.001,
                    )
                return seen
            finally:
                server.close()
                await server.wait_closed()

        seen = asyncio.run(scenario())
        assert seen["connections"] == 1  # exactly one send; never replayed

    def test_idempotent_retries_through_torn_socket(self):
        async def scenario():
            seen, handle = self._flaky_server(fail_first=2)
            server = await asyncio.start_server(handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                answer = await netio.request_with_retry(
                    "127.0.0.1", port, {"op": "stats"}, attempts=5,
                    base_delay=0.001, idempotent=True,
                )
                return answer, seen
            finally:
                server.close()
                await server.wait_closed()

        answer, seen = asyncio.run(scenario())
        assert answer == {"ok": True, "dispatched": 1}
        assert seen["connections"] == 3

    def test_sync_call_speaks_binary(self):
        """The worker-side synchronous path carries frames too."""

        async def scenario():
            async with _EchoServer() as port:
                return await asyncio.to_thread(
                    netio.call,
                    "127.0.0.1",
                    port,
                    {"op": "x", "echo": np.arange(6, dtype=np.float32)},
                    timeout=10.0,
                    proto=2,
                )

        answer = asyncio.run(scenario())
        assert answer["proto_seen"] == 2
        assert answer["echo"].dtype == np.float32
        np.testing.assert_array_equal(answer["echo"], np.arange(6))
