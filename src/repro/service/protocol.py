"""Service wire protocol: versioned, length-prefixed JSON frames.

One frame is::

    u32 length (little-endian) | length bytes of UTF-8 JSON

— the length-prefix discipline of :mod:`repro.backends.tcp_wire`
(``send_msg``/``recv_msg``), with JSON instead of pickle: the gateway
serves arbitrary local clients, and a job submission must never be able
to execute code in the server by crafting a pickle.  Every frame is a
JSON object carrying ``"v": PROTOCOL_VERSION``; a version mismatch is
rejected with a typed error frame, not a silent misparse, so old clients
fail loudly against new gateways (and vice versa).

Request frames (client → gateway)
---------------------------------
A connection carries any number of requests, one at a time: the next
request follows the last reply frame (for a stream, the terminal state).

``{"v": 1, "type": "submit", "tenant": t, "stream": bool, "job": {...}}``
    Queue one job (see :class:`~repro.service.jobs.JobSpec` for the
    ``job`` fields).  With ``stream`` (the default) the connection stays
    open and receives ``state`` frames until the job is terminal; without
    it the gateway answers ``accepted`` and the client polls ``status``.
    An optional ``"key"`` (non-empty string) makes the submission
    idempotent: a later submit with the same key — including after a
    gateway restart, when the gateway journals — re-attaches to the
    existing job (the ``accepted`` reply carries ``"deduped": true``)
    instead of queuing a duplicate.
``{"v": 1, "type": "watch", "job_id": id}`` / ``{..., "key": k}``
    Re-attach to an existing job's state stream by id or idempotency
    key: ``accepted`` then ``state`` frames to terminal (a late joiner
    first receives the *current* state — the stream is monotonic
    snapshots, not edge events).  The reconnect half of a client
    surviving a gateway bounce.
``{"v": 1, "type": "status", "job_id": id}`` / ``{"v": 1, "type": "status"}``
    One job record, or the service-level summary of every known job.
``{"v": 1, "type": "cancel", "job_id": id}``
    Cancel a QUEUED job (never launched) or request-best-effort on a
    RUNNING one (which is *not* interruptible; the reply says so).
``{"v": 1, "type": "health"}``
    Fleet + scheduler + counter telemetry, all plain JSON data
    (``PoolHealth.to_dict`` snapshots — never pickled live objects).
``{"v": 1, "type": "shutdown"}``
    Stop the gateway (tests/benchmarks; production deployments gate this
    behind the fact that the gateway binds loopback by default).

Response frames (gateway → client)
----------------------------------
``accepted`` (job record), ``state`` (lifecycle transition, streamed),
``job`` / ``jobs`` (status replies), ``cancelled``, ``health``,
``bye`` (shutdown ack) and ``error`` — the error frame carries
``error`` (exception-class-shaped code, e.g. ``"AdmissionError"``) and
``message``.
"""

from __future__ import annotations

import asyncio
import json
import select
import socket
import struct
from typing import Any

from ..core.errors import BspError

#: Bump on any incompatible frame-shape change.
PROTOCOL_VERSION = 1

#: Hard ceiling on one frame's JSON payload; a length prefix beyond it
#: is structural damage (or a stranger speaking another protocol) and
#: closes the connection — the same discipline tcp_wire applies to its
#: header lengths.
MAX_FRAME_BYTES = 8 << 20

_PREFIX = struct.Struct("<I")


class ProtocolError(BspError, ValueError):
    """A malformed, oversized, or wrong-version service frame."""


def encode_frame(obj: dict[str, Any]) -> bytes:
    """Serialize one message dict into a length-prefixed JSON frame."""
    obj.setdefault("v", PROTOCOL_VERSION)
    payload = json.dumps(obj, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling")
    return _PREFIX.pack(len(payload)) + payload


def decode_payload(payload: bytes | bytearray) -> dict[str, Any]:
    """Parse and version-check one frame's JSON payload."""
    try:
        obj = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"undecodable service frame: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"service frame must be a JSON object, got {type(obj).__name__}")
    version = obj.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: frame says {version!r}, this end "
            f"speaks {PROTOCOL_VERSION}")
    return obj


def _payload_length(prefix: bytes | bytearray) -> int:
    (length,) = _PREFIX.unpack_from(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame ceiling")
    return length


def error_frame(error: str, message: str, **extra: Any) -> dict[str, Any]:
    """Build a typed ``error`` response frame."""
    frame = {"v": PROTOCOL_VERSION, "type": "error",
             "error": error, "message": message}
    frame.update(extra)
    return frame


# -- asyncio side (gateway) --------------------------------------------------

async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any] | None:
    """Read one frame; ``None`` on clean EOF before a prefix byte."""
    try:
        prefix = await reader.readexactly(_PREFIX.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError("connection closed mid-prefix") from None
    try:
        payload = await reader.readexactly(_payload_length(prefix))
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame") from None
    return decode_payload(payload)


async def write_frame(writer: asyncio.StreamWriter,
                      obj: dict[str, Any]) -> None:
    writer.write(encode_frame(obj))
    await writer.drain()


# -- blocking side (client) --------------------------------------------------

class Connection:
    """A blocking socket and the bytes received past the last frame.

    One request at a time; when its replies are read the next may follow.
    A frame costs one buffered ``recv`` (not prefix-then-payload): what
    arrives behind it waits in the buffer for the next ``recv_frame``.
    """

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self._buf = bytearray()

    def send_frame(self, obj: dict[str, Any]) -> None:
        self.sock.sendall(encode_frame(obj))

    def recv_frame(self) -> dict[str, Any] | None:
        """Blocking read of one frame; ``None`` on clean EOF."""
        buf = self._buf
        while True:
            if len(buf) >= _PREFIX.size:
                end = _PREFIX.size + _payload_length(buf)
                if len(buf) >= end:
                    payload = buf[_PREFIX.size:end]
                    del buf[:end]
                    return decode_payload(payload)
            chunk = self.sock.recv(1 << 16)
            if not chunk:
                if not buf:
                    return None
                raise ProtocolError("connection closed mid-frame")
            buf += chunk

    def stale(self) -> bool:
        """Zero-timeout peek at an *idle* connection: the gateway sends
        nothing between requests, so readable means EOF (it closed or
        restarted) or stray bytes — either way, not reusable."""
        return bool(self._buf or select.select([self.sock], (), (), 0)[0])

    def close(self) -> None:
        self.sock.close()
