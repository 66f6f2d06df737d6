"""Length-prefixed binary wire protocol for the TCP backend (Appendix B.3).

The paper's third library version runs "on a network of PCs ... using
TCP"; its transport moves the same combined boundary frames as the other
versions, just over a byte stream instead of pipes or shared buffers.
This module defines that stream format and nothing else — no sockets, no
event loop — so it is unit-testable against partial reads, frames split
at arbitrary byte boundaries, and corrupt or oversized headers.

One wire frame (protocol version 3) is::

    envelope | header (pickle) | buffer bytes ... | u32 crc32

where ``envelope`` is the fixed 23-byte struct
``version u8 | flags u8 | seq i64 | ack i64 | header_len u32 | echk u8``
(``echk`` is the XOR of the preceding 22 envelope bytes, so any
single-bit flip inside the envelope is caught before its fields are
trusted), and ``header`` is the pickled tuple ``(tag, run_id, step, src,
lens, meta, lease)``:

* ``tag`` — frame kind (:data:`~repro.backends.frames.TAG_PKT` and its
  control siblings, plus the TCP-only tags below);
* ``run_id`` / ``step`` / ``src`` — the same addressing the process
  backend's frames carry, so stale frames from an aborted run are
  filtered identically;
* ``lens`` — sizes of the out-of-band buffers that follow the header,
  in order; the payload bytes are **not** inside the pickle stream;
* ``meta`` — the pickle-5 metadata blob produced by
  :func:`repro.backends.frames.encode_packets` (for packet frames) or a
  small pickled object (for control frames);
* ``lease`` — ``None`` on sockets; on the pipe fabric, the lease ids
  going home to the receiver and the shared-memory region that holds
  the frame's buffers instead of the stream
  (:attr:`~repro.backends.frames.Frame.lease`).

``seq`` is the per-link sequence number a mesh channel assigns at send
time (``-1``: unsequenced control-plane frame); ``ack`` piggybacks the
sender's cumulative receive position on the reverse direction, which is
what lets the peer trim its retransmit journal.  The trailing CRC32
(every frame carries one; :data:`FLAG_CRC` says so) covers the header
bytes plus the first
:data:`CRC_PAYLOAD_CAP` payload bytes — full coverage for every control
and boundary frame the protocol itself produces, bounded cost for
multi-megabyte application payloads whose tails remain under the
TCP/link-layer checksums (the cap is a protocol constant so both ends
always agree on the covered span).

Corruption surfaces on two disjoint paths:

* **structural** — a bad version byte, an envelope checksum mismatch, a
  cleared :data:`FLAG_CRC`, an insane length, an unpicklable header: the
  stream framing itself can no
  longer be trusted, so the decoder raises
  :class:`~repro.core.errors.PacketError` and the owning link must be
  reset and replayed from the journal;
* **recoverable** — framing intact but the CRC disagrees: the decoder
  stays synchronized, swallows the damaged frame, and emits a
  :data:`TAG_CORRUPT` marker so the channel can NACK exactly one
  sequence number and keep the connection.

Packet frames reuse the exact per-destination combining and out-of-band
buffer layout of :mod:`repro.backends.frames`: the ``seq`` and ``h``
arrays ride ``meta`` byte-for-byte, which is what keeps the ``H``
accounting bit-identical to the other backends.

The decoder (:class:`FrameDecoder`) is incremental: feed it whatever
a read returned and it yields every frame completed so far, keeping
partial bytes buffered — for the sockets of the TCP mesh and the pipes
of the process backend alike.  It rejects frames whose header or total buffer
size exceeds a bound (:class:`~repro.core.errors.PacketError`) so a
corrupt or hostile length prefix cannot make a rank allocate unbounded
memory.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from typing import Any, Sequence

from ..core.errors import PacketError
from ..core.packets import Packet
from .frames import (  # noqa: F401 - TAG_RELEASE/TAG_RESULT re-exported
    TAG_PKT,
    TAG_RELEASE,
    TAG_RESULT,
    Frame,
    encode_packets,
)

#: Control and link tags, disjoint from :mod:`repro.backends.frames`'s
#: 0..2, TAG_LEASES = 4 (pipe fabric only: lease ids going home),
#: TAG_RELEASE = 5 (the release round, which only sockets run) and
#: TAG_RESULT = 8 (an outcome, rank -> supervisor / every rank).  The
#: control tags serve both fabrics' supervisors.
TAG_HB = 6          #: heartbeat, rank -> supervisor (sockets)
TAG_HELLO = 7       #: control-channel registration, rank -> supervisor
#: Persistent mode — supervisor ships one run to a rank: the object is
#: ``(program, args, kwargs, sync)``, ``step`` the run's ``nprocs``.
TAG_RUN = 9
TAG_CLOSE = 10      #: persistent mode — supervisor shuts a rank down
TAG_NACK = 11       #: link-level "resend sequence number N" (``step`` = N)
TAG_ABORT = 12      #: supervisor -> rank: abandon the named run mid-flight
#: Supervisor -> rank: link to the replacements of dead ranks (a new
#: mesh epoch on sockets; on pipes, drop the dead links first).
TAG_REMESH = 13

#: Decoder-emitted marker for a CRC-damaged but structurally intact frame.
#: Never appears on the wire.
TAG_CORRUPT = -1

#: Protocol version carried in every envelope; a mismatch is structural
#: corruption (or an old peer) and resets the link.
WIRE_VERSION = 4

#: Envelope flag: the trailer is the frame's CRC32.  Every frame sets it;
#: one without is structural corruption.
FLAG_CRC = 0x01

#: Payload bytes covered by the CRC (header bytes are always covered in
#: full).  A protocol constant — both ends must agree on the span.
CRC_PAYLOAD_CAP = 128 << 10

#: version u8 | flags u8 | seq i64 | ack i64 | header_len u32 (then echk u8).
_ENV_BODY = struct.Struct("<BBqqI")
#: Total envelope size including the trailing XOR check byte.
ENVELOPE_BYTES = _ENV_BODY.size + 1

#: u32 little-endian CRC trailer / rendezvous length prefix.
_PREFIX = struct.Struct("<I")

#: Ceiling on one pickled header (the header carries ``meta``, which for
#: packet frames holds every payload's pickle metadata — generous, but a
#: corrupt prefix claiming gigabytes must die here, not in bytearray()).
MAX_HEADER_BYTES = 64 << 20

#: Ceiling on the out-of-band buffer bytes of a single frame.
DEFAULT_MAX_FRAME_BYTES = 1 << 30


def _xor(body: bytes | bytearray) -> int:
    """XOR of the 22 envelope body bytes, folded in a few integer ops."""
    x = int.from_bytes(body[:_ENV_BODY.size], "little")
    x ^= x >> 128
    x ^= x >> 64
    x ^= x >> 32
    x ^= x >> 16
    x ^= x >> 8
    return x & 0xFF


def pack_envelope(seq: int, ack: int, hlen: int) -> bytes:
    """The 23-byte frame envelope, XOR check byte included."""
    body = _ENV_BODY.pack(WIRE_VERSION, FLAG_CRC, seq, ack, hlen)
    return body + bytes((_xor(body),))


def _crc_frame(header: bytes, buffers: Sequence[Any]) -> int:
    """CRC32 over the header plus the first CRC_PAYLOAD_CAP payload bytes."""
    crc = zlib.crc32(header)
    if not buffers:
        return crc
    covered = 0
    for buf in buffers:
        if covered >= CRC_PAYLOAD_CAP:
            break
        mv = memoryview(buf)
        if mv.format != "B" or mv.ndim != 1:
            mv = mv.cast("B")
        take = min(mv.nbytes, CRC_PAYLOAD_CAP - covered)
        crc = zlib.crc32(mv[:take] if take < mv.nbytes else mv, crc)
        covered += take
    return crc


def encode_frame(tag: int, run_id: int, step: int, src: int,
                 meta: bytes | None = None,
                 buffers: Sequence[Any] = (), lease: Any = None) -> list[Any]:
    """Encode one unsequenced frame as a list of wire chunks (no payload
    copies).

    The first chunk is ``envelope + header``; each out-of-band buffer
    follows as its own chunk (a memoryview straight over the source
    object), and the CRC trailer closes the frame — so callers can hand
    the list to a vectored/queued send without ever concatenating
    payload bytes.  A mesh link sequences the frame with
    :func:`reenvelope` when it sends it.
    """
    lens = tuple(memoryview(b).nbytes for b in buffers) if buffers else ()
    header = pickle.dumps((tag, run_id, step, src, lens, meta, lease),
                          protocol=pickle.HIGHEST_PROTOCOL)
    return [pack_envelope(-1, -1, len(header)) + header, *buffers,
            _PREFIX.pack(_crc_frame(header, buffers))]


def reenvelope(chunks: Sequence[Any], seq: int, ack: int) -> list[Any]:
    """Re-address an encoded frame with fresh ``seq``/``ack`` fields.

    The CRC trailer intentionally excludes the envelope, so one encoded
    payload (an empty final, a broadcast result) can be re-sequenced per
    peer by rebuilding only the small first chunk — header and payload
    bytes are shared untouched.
    """
    first = memoryview(chunks[0])
    if first.format != "B" or first.ndim != 1:
        first = first.cast("B")
    hlen = _ENV_BODY.unpack_from(first)[4]
    head = pack_envelope(seq, ack, hlen) + bytes(first[ENVELOPE_BYTES:])
    return [head, *chunks[1:]]


def encode_packet_frame(run_id: int, step: int, src: int,
                        packets: Sequence[Packet]) -> list[Any]:
    """One combined boundary frame for a per-destination packet bucket.

    Reuses :func:`repro.backends.frames.encode_packets`, so the combined
    layout (and therefore the ``seq``/``h`` accounting) is identical to
    the process backend's frames.
    """
    return encode_frame(TAG_PKT, run_id, step, src, *encode_packets(packets))


def frame_object(frame: Frame) -> Any:
    """The object :func:`~repro.backends.frames.encode_object` framed."""
    assert frame.meta is not None
    return pickle.loads(frame.meta, buffers=frame.buffers)


class FrameDecoder:
    """Incremental frame decoder over a byte stream (socket or pipe).

    Feed it arbitrary chunks (whatever a read returned); it yields the
    frames completed so far and buffers the remainder.  Partial reads,
    multiple frames per chunk, and frames split anywhere — including in
    the middle of the 23-byte envelope — are all handled.

    Corruption handling is two-tier (module docstring): structural
    damage raises :class:`~repro.core.errors.PacketError`; a CRC
    mismatch on an intact frame yields a :data:`TAG_CORRUPT` marker
    frame (carrying the envelope's ``seq``) and decoding continues with
    the next frame.
    """

    __slots__ = ("_buf", "_env", "_header", "_hbytes", "_total",
                 "_max_frame")

    def __init__(self, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        self._buf = bytearray()
        #: Parsed envelope awaiting header/payload: (seq, ack, hlen).
        self._env: tuple | None = None
        #: Parsed header awaiting its buffer bytes, or None.
        self._header: tuple | None = None
        self._hbytes: bytes = b""
        self._total = 0  # buffer bytes the pending header announced
        self._max_frame = max_frame_bytes

    def feed(self, data: bytes) -> list[Frame]:
        """Consume ``data``; return every frame it completed."""
        buf = self._buf
        buf += data
        frames: list[Frame] = []
        while self._env is not None or len(buf) >= ENVELOPE_BYTES:
            frame = self._next()
            if frame is None:
                break
            frames.append(frame)
        return frames

    def _next(self) -> Frame | None:
        buf = self._buf
        if self._env is None:
            if len(buf) < ENVELOPE_BYTES:
                return None
            version, flags, seq, ack, hlen = _ENV_BODY.unpack_from(buf)
            if _xor(buf) != buf[_ENV_BODY.size]:
                raise PacketError(
                    "wire frame envelope checksum mismatch (corrupt stream)")
            if version != WIRE_VERSION:
                raise PacketError(
                    f"wire protocol version {version} != {WIRE_VERSION} "
                    "(corrupt stream or incompatible peer)")
            if not flags & FLAG_CRC:
                raise PacketError(
                    "wire frame without a CRC trailer (corrupt stream or "
                    "incompatible peer)")
            if not 0 < hlen <= MAX_HEADER_BYTES:
                raise PacketError(
                    f"wire frame header of {hlen} bytes exceeds the "
                    f"{MAX_HEADER_BYTES}-byte bound (corrupt stream?)")
            self._env = (seq, ack, hlen)
        seq, ack, hlen = self._env
        if self._header is None:
            end = ENVELOPE_BYTES + hlen
            if len(buf) < end:
                return None
            hbytes = buf[ENVELOPE_BYTES:end]
            try:
                header = pickle.loads(hbytes)
                tag, run_id, step, src, lens, meta, lease = header
            except Exception as exc:
                raise PacketError(
                    f"undecodable wire frame header: {exc}") from exc
            total = sum(lens)
            if total > self._max_frame:
                raise PacketError(
                    f"wire frame of {total} payload bytes exceeds the "
                    f"{self._max_frame}-byte bound; raise max_frame_bytes "
                    "or split the payload")
            del buf[:end]
            self._header, self._hbytes, self._total = header, hbytes, total
        total = self._total
        if len(buf) < total + _PREFIX.size:
            return None
        tag, run_id, step, src, lens, meta, lease = self._header
        buffers: list[bytearray] = []
        off = 0
        for n in lens:
            buffers.append(buf[off:off + n])
            off += n
        (wire_crc,) = _PREFIX.unpack_from(buf, total)
        del buf[:total + _PREFIX.size]
        self._env = self._header = None
        if _crc_frame(self._hbytes, buffers) != wire_crc:
            # Framing held (the envelope and header parsed, the byte
            # count matched) but the content did not: a recoverable,
            # single-frame loss.  Stay synchronized and let the channel
            # NACK the sequence number.
            return Frame(TAG_CORRUPT, -1, -1, -1, None, None, seq, ack)
        return Frame(tag, run_id, step, src, meta, buffers, seq, ack,
                     lease=lease)

    @property
    def mid_frame(self) -> bool:
        """True while a frame is partially received (stream not at a
        frame boundary) — used to detect truncation on EOF."""
        return self._env is not None or len(self._buf) > 0


# ---------------------------------------------------------------------------
# Blocking helpers (rendezvous; links and control use the frames above)
# ---------------------------------------------------------------------------


def send_msg(sock, obj: Any) -> None:
    """Length-prefixed pickle for the rendezvous handshake (tiny messages)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_PREFIX.pack(len(payload)) + payload)


def recv_msg(sock) -> Any:
    """Blocking inverse of :func:`send_msg`."""
    prefix = _recv_exact(sock, _PREFIX.size)
    (length,) = _PREFIX.unpack(prefix)
    if length > MAX_HEADER_BYTES:
        raise PacketError(f"rendezvous message of {length} bytes rejected")
    return pickle.loads(_recv_exact(sock, length))


def _recv_exact(sock, nbytes: int) -> bytes:
    parts = bytearray()
    while len(parts) < nbytes:
        chunk = sock.recv(nbytes - len(parts))
        if not chunk:
            raise PacketError(
                "connection closed mid-message during rendezvous")
        parts += chunk
    return bytes(parts)
