"""Batched zero-copy boundary frames — the codec both fabrics share.

The paper's central claim about superstep discipline is that it lets the
library "combine messages and schedule the total exchange" (Section 1).
This module is that combining layer: instead of pickling a Python
``list[Packet]`` per peer — one reduce call and one payload copy per
packet — each per-destination bucket crosses the process boundary as
**one frame**, and so does everything else that crosses one — a run's
``(program, args, kwargs, sync)``, a rank's outcome — all through
:func:`encode_object`:

* the *meta* blob: the packets' ``seq``/``h`` arrays plus their
  payloads, serialized once with pickle protocol 5 so that contiguous
  buffers (NumPy halos, Cannon blocks, essential trees) are split out as
  out-of-band buffers instead of being copied into the pickle stream.
  *Small* buffers — under :data:`_INBAND_MAX` — stay in the stream: for
  a 528-byte ghost row a shared-memory round trip costs more than the
  copy it saves;
* the out-of-band *buffers* themselves, as raw memoryviews over their
  exporters: no intermediate copy.

How a frame travels is the fabric's: every link of either fabric is a
byte stream of :mod:`~repro.backends.tcp_wire` frames.  On the pipe
fabric (:mod:`repro.backends.processes`) a frame's out-of-band buffers
go into **one leased region** of the sender's shared-memory segment
pool (:mod:`repro.backends.shm`), named in the frame header, and the
receiver reconstructs the payloads with ``pickle.loads(meta,
buffers=...)`` directly over views of the shared pages: one copy end to
end.  On sockets, and on pipes when no region can be had
(``REPRO_ZEROCOPY=off``, or ``/dev/shm`` refusing a segment), the
buffers follow the header in the stream, sent straight from the source
memoryviews.

Everything here is transport: h-unit accounting is carried through
byte-for-byte (``seq`` and ``h`` ride the frame metadata), so ledgers are
identical to the per-packet implementation's.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Sequence

from ..core.packets import Packet

#: Frame tags.  TAG_LEASES carries zero-copy lease ids back to the
#: segment owner when no boundary frame is owed to piggyback them on
#: (pipe fabric only; not the release round's ``TAG_RELEASE``).
TAG_PKT, TAG_LEFT, TAG_DEAD, TAG_LEASES = 0, 1, 2, 4
#: The release round — "I hold every frame of step s" (only a fabric
#: whose links cannot prove receipt runs it).
TAG_RELEASE = 5
#: A worker -> supervisor outcome or ack, on either fabric.
TAG_RESULT = 8

#: The one cut of the data plane.  Payload buffers smaller than this
#: stay in the pickle stream: a ghost row then rides its frame's header
#: instead of a shared-memory round trip that saves a copy of a few
#: hundred bytes.  Everything else rides a shared-memory lease on the
#: pipe fabric, and the stream beside the header on sockets.
_INBAND_MAX = 2 << 10


@dataclass
class Frame:
    """One received boundary frame, payload still undecoded.

    There is exactly one boundary frame per link per boundary in every
    sync mode, so a frame from ``src`` for ``step`` *is* that link's
    arrival.

    ``seq``/``ack`` are the TCP wire envelope's link-sequencing fields
    (see :mod:`repro.backends.tcp_wire`): ``seq`` is this frame's
    per-link sequence number, ``ack`` the sender's cumulative receive
    position on the reverse direction.  Pipe-fabric frames never set
    them; ``-1`` means "unsequenced".

    ``lease`` is the pipe fabric's shared-memory envelope, ``None`` on
    sockets: ``(lease ids going home to the receiver, the region holding
    the buffers or None)``.  ``stale`` is set on receipt when that
    region predates a reset of its sender's segment pool: the bytes may
    alias a newer lease, so a channel that matches the frame to its
    current run must fail loudly instead of delivering it.
    """

    tag: int
    run_id: int
    step: int
    src: int
    meta: bytes | None
    buffers: list[bytearray] | None
    seq: int = -1
    ack: int = -1
    stale: int = 0
    lease: Any = None

    def packets(self, dst: int) -> list[Packet]:
        """Decode into :class:`Packet` objects addressed to ``dst``."""
        assert self.meta is not None
        seqs, hs, payloads = pickle.loads(self.meta, buffers=self.buffers)
        src = self.src
        return [
            Packet(src=src, dst=dst, payload=payload, h=h, seq=seq)
            for seq, h, payload in zip(seqs, hs, payloads)
        ]


def encode_object(obj: Any) -> tuple[bytes, list[memoryview]]:
    """The one way an object crosses a process boundary — packets, run
    dispatch and results, on both fabrics: ``(meta, buffers)``.

    ``meta`` is a protocol-5 pickle of ``obj``; contiguous buffers of
    :data:`_INBAND_MAX` bytes or more stay out of it and come back as
    raw memoryviews over their exporters (no intermediate copy).
    ``pickle.loads(meta, buffers=...)`` is the inverse.
    """
    pbufs: list[pickle.PickleBuffer] = []

    def split(pb: pickle.PickleBuffer) -> bool:
        if memoryview(pb).nbytes < _INBAND_MAX:
            return True  # in-band
        pbufs.append(pb)
        return False

    meta = pickle.dumps(obj, protocol=5, buffer_callback=split)
    buffers = []
    for pb in pbufs:
        try:
            buffers.append(pb.raw())
        except BufferError:  # non-contiguous exporter: fall back to a copy
            buffers.append(memoryview(memoryview(pb).tobytes()))
    return meta, buffers


def encode_packets(packets: Sequence[Packet]
                   ) -> tuple[bytes, list[memoryview]]:
    """Combine one per-destination bucket into (meta, out-of-band
    buffers): :func:`encode_object` of ``(seqs, hs, payloads)``."""
    return encode_object(([p.seq for p in packets], [p.h for p in packets],
                          [p.payload for p in packets]))


def decode_packets(meta: bytes, buffers: list[bytearray] | None,
                   src: int, dst: int) -> list[Packet]:
    """Inverse of :func:`encode_packets` (writable buffers => writable arrays)."""
    return Frame(TAG_PKT, 0, 0, src, meta, buffers).packets(dst)
