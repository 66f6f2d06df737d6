"""The byte-stream frame format both fabrics share (Appendix B.3).

The paper's third library version runs "on a network of PCs ... using
TCP"; its transport moves the same combined boundary frames as the other
versions, over a byte stream.  Every link of either fabric — a socket of
the TCP mesh, a pipe of the process backend — carries this format, and
this module is that format and nothing else (no sockets, no event
loop), so it is unit-testable against partial reads, frames split at
any byte, and corrupt or oversized fields.

One wire frame (protocol version 5) is::

    envelope | u64 buffer lengths | meta | lease | buffers | u32 crc32

* ``envelope`` — one fixed struct (:data:`ENVELOPE_BYTES`): version,
  flags, ``tag``, ``src``, ``seq``, ``ack``, ``run_id``, ``step`` and
  the counts ``nbufs``, ``meta_len`` and ``lease_len``, closed by the
  crc32 of those fields: any damage to the envelope is caught before a
  field is trusted.  ``seq`` is the per-link sequence number a mesh
  channel assigns at send time (``-1``: unsequenced), ``ack`` the
  sender's cumulative receive position on the reverse direction;
* ``meta`` — the raw bytes of :func:`~repro.backends.frames.encode_object`
  (an empty bucket has none), so the ``seq``/``h`` arrays ride
  byte-for-byte and ledgers stay bit-identical across backends;
* ``lease`` — pickled, present only on pipe frames that carry lease ids
  home or name the shared-memory region holding the buffers
  (:attr:`~repro.backends.frames.Frame.lease`);
* ``buffers`` — the out-of-band payload buffers, in the stream;
* the trailer — the CRC32 of the header (lengths, meta, lease) plus the
  first :data:`CRC_PAYLOAD_CAP` payload bytes: full coverage for every
  frame the protocol produces, bounded cost for multi-megabyte payloads
  whose tails stay under the TCP/link-layer checksums.  It leaves the
  envelope out, so :func:`reenvelope` re-sequences a frame by swapping
  its first chunk.

Corruption surfaces on two disjoint paths:

* **structural** — an envelope crc mismatch, a wrong version, a cleared
  :data:`FLAG_CRC`, a length over its bound, an undecodable lease: the
  stream framing can no longer be trusted, so the decoder raises
  :class:`~repro.core.errors.PacketError` and the owning link is reset
  and replayed from its journal;
* **recoverable** — framing intact but the trailer disagrees: the
  decoder stays synchronized, swallows the frame, and emits a
  :data:`TAG_CORRUPT` marker so the channel can NACK exactly one
  sequence number.

:data:`MAX_HEADER_BYTES` bounds the lengths and the lease, and
``max_frame_bytes`` the meta plus buffer bytes, so a hostile count
cannot make a rank allocate unbounded memory — and a large in-band
payload is bounded as payload, not mistaken for a corrupt header.
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
WIRE_VERSION = 5

#: Envelope flag: the trailer is the frame's CRC32.  Every frame sets it;
#: one without is structural corruption.
FLAG_CRC = 0x01

#: Payload bytes covered by the CRC (header bytes are always covered in
#: full).  A protocol constant — both ends must agree on the span.
CRC_PAYLOAD_CAP = 128 << 10

#: version u8 | flags u8 | tag i16 | src i32 | seq i64 | ack i64 |
#: run_id i64 | step i64 | nbufs u32 | meta_len u64 | lease_len u32 ...
_ENV = struct.Struct("<BBhiqqqqIQI")
#: ... then the crc32 of those 56 bytes: the whole envelope.
_ENV_CRC = struct.Struct(_ENV.format + "I")
ENVELOPE_BYTES = _ENV_CRC.size

#: u32 little-endian CRC word / rendezvous length prefix.
_PREFIX = struct.Struct("<I")

#: Ceiling on a frame's header beside ``meta`` — its buffer lengths and
#: its lease — and on a rendezvous message: a corrupt count claiming
#: gigabytes must die here, not in an allocation.
MAX_HEADER_BYTES = 64 << 20

#: Ceiling on the ``meta`` plus buffer bytes of a single frame.
DEFAULT_MAX_FRAME_BYTES = 1 << 30


def pack_envelope(*fields: int) -> bytes:
    """The envelope of ``fields`` (in :data:`_ENV` order), sealed with
    their crc32."""
    body = _ENV.pack(*fields)
    return body + _PREFIX.pack(zlib.crc32(body))


def _crc_frame(header: bytes, buffers: Sequence[Any]) -> int:
    """CRC32 over the header plus the first CRC_PAYLOAD_CAP payload bytes."""
    crc, room = zlib.crc32(header), CRC_PAYLOAD_CAP
    for buf in buffers:
        if room <= 0:
            break
        mv = memoryview(buf).cast("B")
        crc = zlib.crc32(mv[:room], crc)
        room -= mv.nbytes
    return crc


def encode_frame(tag: int, run_id: int, step: int, src: int,
                 meta: bytes | None = None,
                 buffers: Sequence[Any] = (), lease: Any = None) -> list[Any]:
    """Encode one unsequenced frame as wire chunks, copying no payload:
    ``[envelope, header, *buffers, crc]``.

    The header is the buffer lengths, ``meta`` and the pickled
    ``lease``; each out-of-band buffer follows as its own chunk (a
    memoryview straight over the source object), so callers hand the
    list to a vectored/queued send without concatenating payload bytes.
    A mesh link sequences the frame with :func:`reenvelope` when it
    sends it.
    """
    meta = meta or b""
    pickled = b"" if lease is None else pickle.dumps(
        lease, protocol=pickle.HIGHEST_PROTOCOL)
    lens = struct.pack(f"<{len(buffers)}Q", *[
        memoryview(b).nbytes for b in buffers]) if buffers else b""
    header = lens + meta + pickled  # meta alone when the rest is empty
    return [pack_envelope(WIRE_VERSION, FLAG_CRC, tag, src, -1, -1, run_id,
                          step, len(buffers), len(meta), len(pickled)),
            header, *buffers, _PREFIX.pack(_crc_frame(header, buffers))]


def reenvelope(chunks: Sequence[Any], seq: int, ack: int) -> list[Any]:
    """Re-address an encoded frame with fresh ``seq``/``ack`` fields.

    The CRC trailer leaves the envelope out, so one encoded payload (an
    empty final, a broadcast result) is re-sequenced per peer by
    swapping the envelope alone — header and payload chunks are shared
    untouched.
    """
    fields = _ENV.unpack_from(chunks[0])
    return [pack_envelope(*fields[:4], seq, ack, *fields[6:]), *chunks[1:]]


def encode_packet_frame(run_id: int, step: int, src: int,
                        packets: Sequence[Packet]) -> list[Any]:
    """One combined boundary frame for a per-destination packet bucket."""
    return encode_frame(TAG_PKT, run_id, step, src, *encode_packets(packets))


def frame_object(frame: Frame) -> Any:
    """The object :func:`~repro.backends.frames.encode_object` framed."""
    assert frame.meta is not None
    return pickle.loads(frame.meta, buffers=frame.buffers)


class FrameDecoder:
    """Incremental frame decoder over a byte stream (socket or pipe).

    Feed it whatever a read returned — part of a frame, several frames,
    a frame split anywhere; it returns the frames completed so far and
    keeps the remainder.  Structural damage raises
    :class:`~repro.core.errors.PacketError`; a trailer mismatch on an
    intact frame yields a :data:`TAG_CORRUPT` marker carrying the
    envelope's ``seq``, and decoding goes on with the next frame.
    """

    __slots__ = ("_buf", "_max_frame")

    def __init__(self, *, max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES):
        #: Bytes of a frame not yet complete.
        self._buf = bytearray()
        self._max_frame = max_frame_bytes

    def feed(self, data: bytes) -> list[Frame]:
        """Consume ``data``; return every frame it completed.

        Frames are parsed in one pass over the read (or over the
        leftover plus the read) by offsets; each buffer is copied out of
        the stream once, and the leftover is kept once per feed.
        """
        buf = self._buf
        if buf:
            buf += data
            data = buf
        frames: list[Frame] = []
        off, n = 0, len(data)
        with memoryview(data) as mv:
            while n - off >= ENVELOPE_BYTES:
                end = self._frame(mv, off, n, frames)
                if end < 0:
                    break
                off = end
            if data is not buf:
                buf += mv[off:]
                off = 0
        if off:  # the view is released: the buffer may shrink
            del buf[:off]
        return frames

    def _frame(self, mv: memoryview, off: int, n: int,
               frames: list[Frame]) -> int:
        """Parse the frame at ``off`` into ``frames`` and return where it
        ends, or -1 while its bytes are not all in."""
        (version, flags, tag, src, seq, ack, run_id, step, nbufs, mlen,
         llen, echk) = _ENV_CRC.unpack_from(mv, off)
        head = off + ENVELOPE_BYTES
        if zlib.crc32(mv[off:head - 4]) != echk:
            raise PacketError(
                "wire frame envelope checksum mismatch (corrupt stream)")
        if version != WIRE_VERSION:
            raise PacketError(
                f"wire protocol version {version} != {WIRE_VERSION} "
                "(corrupt stream or incompatible peer)")
        if not flags & FLAG_CRC:
            raise PacketError("wire frame without a CRC trailer (corrupt "
                              "stream or incompatible peer)")
        lens: tuple = ()
        total = mlen
        if nbufs or llen:
            if 8 * nbufs + llen > MAX_HEADER_BYTES:
                raise PacketError(
                    f"wire frame header of {8 * nbufs + llen} bytes exceeds "
                    f"the {MAX_HEADER_BYTES}-byte bound (corrupt stream?)")
            if nbufs:
                if n < head + 8 * nbufs:
                    return -1
                lens = struct.unpack_from(f"<{nbufs}Q", mv, head)
                total += sum(lens)
        if total > self._max_frame:
            raise PacketError(
                f"wire frame of {total} payload bytes exceeds the "
                f"{self._max_frame}-byte bound; raise max_frame_bytes "
                "or split the payload")
        meta_at = head + 8 * nbufs
        at = meta_at + mlen + llen  # the first buffer
        end = at + total - mlen + 4
        if n < end:
            return -1
        if zlib.crc32(mv[head:min(end - 4, at + CRC_PAYLOAD_CAP)]) != \
                _PREFIX.unpack_from(mv, end - 4)[0]:
            # Framing held (the envelope checked out, the byte count
            # matched) but the content did not: a recoverable,
            # single-frame loss.  Stay synchronized and let the channel
            # NACK the sequence number.
            frames.append(Frame(TAG_CORRUPT, -1, -1, -1, None, None,
                                seq, ack))
            return end
        lease = None
        if llen:
            try:
                lease = pickle.loads(mv[at - llen:at])
            except Exception as exc:
                raise PacketError(
                    f"undecodable wire frame lease: {exc}") from exc
        buffers = []
        for size in lens:
            buffers.append(bytearray(mv[at:at + size]))
            at += size
        frames.append(Frame(
            tag, run_id, step, src,
            bytes(mv[meta_at:meta_at + mlen]) if mlen else None,
            buffers, seq, ack, lease))
        return end

    @property
    def mid_frame(self) -> bool:
        """True while a frame is partially received (stream not at a
        frame boundary) — used to detect truncation on EOF."""
        return len(self._buf) > 0


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
