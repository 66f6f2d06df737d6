"""Tests for the service wire protocol: framing, versioning, limits.

The frame layer is the trust boundary of the gateway — it must reject
oversized, truncated, wrong-version, and non-JSON input with the typed
:class:`~repro.service.protocol.ProtocolError`, never a silent misparse.
"""

import asyncio
import json
import socket
import struct

import pytest

from repro.service import protocol
from repro.service.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_payload,
    encode_frame,
    error_frame,
)


class TestFraming:
    def test_round_trip(self):
        frame = encode_frame({"type": "health"})
        (length,) = struct.unpack("<I", frame[:4])
        assert length == len(frame) - 4
        obj = decode_payload(frame[4:])
        assert obj == {"v": PROTOCOL_VERSION, "type": "health"}

    def test_version_is_injected(self):
        payload = encode_frame({"type": "status"})[4:]
        assert json.loads(payload)["v"] == PROTOCOL_VERSION

    def test_explicit_version_survives(self):
        payload = encode_frame({"type": "status", "v": 1})[4:]
        assert json.loads(payload)["v"] == 1

    def test_wrong_version_rejected(self):
        payload = json.dumps({"v": 999, "type": "status"}).encode()
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_payload(payload)

    def test_missing_version_rejected(self):
        with pytest.raises(ProtocolError, match="version mismatch"):
            decode_payload(b'{"type": "status"}')

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(b"[1, 2, 3]")

    def test_garbage_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            decode_payload(b"\xff\xfe not json")

    def test_oversize_encode_rejected(self):
        big = {"type": "submit", "blob": "x" * (MAX_FRAME_BYTES + 1)}
        with pytest.raises(ProtocolError, match="frame ceiling"):
            encode_frame(big)

    def test_error_frame_shape(self):
        frame = error_frame("AdmissionError", "queue full", job_id="j9")
        assert frame["type"] == "error"
        assert frame["error"] == "AdmissionError"
        assert frame["message"] == "queue full"
        assert frame["job_id"] == "j9"
        assert frame["v"] == PROTOCOL_VERSION


class TestBlockingSide:
    """The client's blocking send/recv over a real socket pair."""

    def test_send_recv_round_trip(self):
        a, b = socket.socketpair()
        try:
            protocol.Connection(a).send_frame(
                {"type": "status", "job_id": "j1"})
            frame = protocol.Connection(b).recv_frame()
            assert frame["type"] == "status"
            assert frame["job_id"] == "j1"
        finally:
            a.close()
            b.close()

    def test_clean_eof_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert protocol.Connection(b).recv_frame() is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(encode_frame({"type": "health"})[:-3])
        finally:
            a.close()
        try:
            with pytest.raises(ProtocolError, match="mid-frame"):
                protocol.Connection(b).recv_frame()
        finally:
            b.close()

    def test_oversize_prefix_rejected(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("<I", MAX_FRAME_BYTES + 1))
            with pytest.raises(ProtocolError, match="frame ceiling"):
                protocol.Connection(b).recv_frame()
        finally:
            a.close()
            b.close()


    def test_frames_behind_a_frame_wait_in_the_buffer(self):
        """One ``recv`` may bring several frames (or a frame and a half):
        each ``recv_frame`` hands out exactly one, in order."""
        a, b = socket.socketpair()
        try:
            third = encode_frame({"type": "state", "n": 3})
            a.sendall(encode_frame({"type": "accepted", "n": 1})
                      + encode_frame({"type": "state", "n": 2})
                      + third[:5])
            conn = protocol.Connection(b)
            assert conn.recv_frame()["n"] == 1
            assert conn.stale()  # unread bytes: not reusable as idle
            assert conn.recv_frame()["n"] == 2
            a.sendall(third[5:])
            assert conn.recv_frame()["n"] == 3
            assert not conn.stale()
        finally:
            a.close()
            b.close()

    def test_stale_probe_sees_a_closed_peer(self):
        a, b = socket.socketpair()
        conn = protocol.Connection(b)
        try:
            assert not conn.stale()
            a.close()
            assert conn.stale()
        finally:
            conn.close()


class TestAsyncioSide:
    """The gateway's stream reader, driven without sockets."""

    def _read(self, data: bytes):
        async def body():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await protocol.read_frame(reader)

        return asyncio.run(body())

    def test_read_frame(self):
        frame = self._read(encode_frame({"type": "health"}))
        assert frame == {"v": PROTOCOL_VERSION, "type": "health"}

    def test_clean_eof_is_none(self):
        assert self._read(b"") is None

    def test_mid_prefix_raises(self):
        with pytest.raises(ProtocolError, match="mid-prefix"):
            self._read(b"\x01\x02")

    def test_mid_frame_raises(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            self._read(encode_frame({"type": "health"})[:-1])

    def test_oversize_prefix_raises(self):
        with pytest.raises(ProtocolError, match="frame ceiling"):
            self._read(struct.pack("<I", MAX_FRAME_BYTES + 1))
