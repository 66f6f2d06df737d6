"""Batched zero-copy boundary frames — the codec both fabrics share.

The paper's central claim about superstep discipline is that it lets the
library "combine messages and schedule the total exchange" (Section 1).
This module is that combining layer: each per-destination bucket of
packets crosses the process boundary as **one frame**, and so does
everything else that crosses one — a run's ``(program, args, kwargs,
sync)``, a rank's outcome — all through :func:`encode_object`:

* the *meta* blob: one protocol-5 pickle of the packets' ``seq``/``h``
  arrays and payloads.  Contiguous buffers of :data:`_INBAND_MAX` bytes
  or more leave it as out-of-band buffers; smaller ones stay in it (for
  a 528-byte ghost row a shared-memory round trip costs more than the
  copy it saves), and a small array is pickled as its dtype code, shape
  and bytes rather than through NumPy's reduce;
* the out-of-band *buffers*, as raw memoryviews over their exporters.

Every link of either fabric is a byte stream of
:mod:`~repro.backends.tcp_wire` frames.  On the pipe fabric a frame's
out-of-band buffers go into **one leased region** of the sender's
shared-memory segment pool (:mod:`repro.backends.shm`), named in the
frame's lease, and the receiver unpickles over views of the shared
pages: one copy end to end.  On sockets, and on pipes when no region can
be had (``REPRO_ZEROCOPY=off``, or ``/dev/shm`` refusing a segment), the
buffers follow the header in the stream.  ``seq`` and ``h`` ride the
meta byte-for-byte, so ledgers are identical on every backend.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

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
#: stay in the pickle stream: a ghost row then rides its frame's meta
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
    the buffers or None)``.
    """

    tag: int
    run_id: int
    step: int
    src: int
    meta: bytes | None
    buffers: list[bytearray] | None
    seq: int = -1
    ack: int = -1
    lease: Any = None

    def packets(self, dst: int) -> list[Packet]:
        """Decode into :class:`Packet` objects addressed to ``dst``; an
        empty bucket has no ``meta`` at all."""
        if not self.meta:
            return []
        seqs, hs, payloads = pickle.loads(self.meta, buffers=self.buffers)
        src = self.src
        return [
            Packet(src=src, dst=dst, payload=payload, h=h, seq=seq)
            for seq, h, payload in zip(seqs, hs, payloads)
        ]


#: The builtin numeric dtypes the small-array reducer pickles as a code.
_CODES = {np.dtype(c): np.dtype(c).str for c in
          "?" + np.typecodes["AllInteger"] + np.typecodes["AllFloat"]}


def _array(code: str, shape: tuple, data: bytearray) -> np.ndarray:
    """A small array :func:`encode_object` pickled by value: writable,
    over its own bytes."""
    a = np.frombuffer(data, code)
    return a if a.shape == shape else a.reshape(shape)


def _reduce_array(a: np.ndarray) -> tuple:
    """Pickle a small writable array as its dtype code, shape and raw
    bytes — NumPy's own reduce pickles the dtype object, which costs
    more than the bytes of a ghost row.  Every other array (a non-numeric
    dtype, a strided or read-only one, or one large enough to leave the
    stream) takes NumPy's reduce."""
    dtype = a.dtype
    if a.nbytes < _INBAND_MAX and dtype.isbuiltin == 1:
        code, flags = _CODES.get(dtype), a.flags
        if code is not None and flags.c_contiguous and flags.writeable:
            return _array, (code, a.shape, bytearray(a))
    return a.__reduce_ex__(5)


class _Pickler(pickle.Pickler):
    #: Looked up by exact type: an ndarray subclass keeps its own reduce.
    dispatch_table = {np.ndarray: _reduce_array}


def encode_object(obj: Any) -> tuple[bytes, list[memoryview]]:
    """The one way an object crosses a process boundary — packets, run
    dispatch and results, on both fabrics: ``(meta, buffers)``.

    ``meta`` is a protocol-5 pickle of ``obj``; contiguous buffers of
    :data:`_INBAND_MAX` bytes or more stay out of it and come back as
    raw memoryviews over their exporters (no intermediate copy).
    ``pickle.loads(meta, buffers=...)`` is the inverse.  One pickler
    per call: executor threads encode concurrently.
    """
    pbufs: list[pickle.PickleBuffer] = []

    def split(pb: pickle.PickleBuffer) -> bool:
        if memoryview(pb).nbytes < _INBAND_MAX:
            return True  # in-band
        pbufs.append(pb)
        return False

    out = io.BytesIO()
    _Pickler(out, protocol=5, buffer_callback=split).dump(obj)
    meta = out.getvalue()
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
    buffers): :func:`encode_object` of ``(seqs, hs, payloads)``, and no
    meta at all for an empty bucket."""
    if not packets:
        return b"", []
    return encode_object(([p.seq for p in packets], [p.h for p in packets],
                          [p.payload for p in packets]))


def decode_packets(meta: bytes, buffers: list[bytearray] | None,
                   src: int, dst: int) -> list[Packet]:
    """Inverse of :func:`encode_packets` (writable buffers => writable arrays)."""
    return Frame(TAG_PKT, 0, 0, src, meta, buffers).packets(dst)
