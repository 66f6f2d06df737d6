"""Batched zero-copy boundary frames for the process backend.

The paper's central claim about superstep discipline is that it lets the
library "combine messages and schedule the total exchange" (Section 1).
This module is that combining layer for the process backend: instead of
pickling a Python ``list[Packet]`` per peer — one reduce call and one
payload copy per packet — each per-destination bucket crosses the process
boundary as **one frame**:

* a small pickled *header* ``(tag, run_id, step, src, mode, buffer
  lengths, slab offset, meta, more, extra)`` — one pipe message per
  frame; ``extra`` carries the zero-copy plane's lease entries and
  piggybacked lease releases (``None`` for purely small frames);
* the *meta* blob riding the header: the packets' ``seq``/``h`` arrays
  plus their payloads, serialized once with pickle protocol 5 so that
  large contiguous buffers (NumPy halos, Cannon blocks, essential trees)
  are split out as out-of-band buffers instead of being copied into the
  pickle stream.  *Small* buffers — under :data:`_INBAND_MAX` (half of
  ``PIPE_BUF``) and under the zero-copy threshold — stay in the stream:
  for a 528-byte ghost row the slab round trip below costs more than
  the copy it saves, and in-band the whole frame is one pipe message no
  larger than ``PIPE_BUF``, which the kernel writes atomically;
* the out-of-band *buffers* themselves, which travel through a
  fork-shared anonymous ``mmap`` ring (the *slab*) — sender memcpys each
  buffer into the destination's slab, receiver copies it back out into a
  writable ``bytearray`` and reconstructs the arrays over it with
  ``pickle.loads(meta, buffers=...)``.  Two memcpys total, and no pickle
  stream ever contains the bytes of a buffer of ``_INBAND_MAX`` or more.

Sending is two steps, :meth:`FrameTransport.encode_frame` then
:meth:`FrameTransport.push_frame`, so that a boundary can first offer
every frame to a push that *never waits* and hand only the frames it
refuses to a thread that may block (:mod:`repro.backends.processes`).

Buffers at or above the zero-copy threshold (default 64 KiB, see
:mod:`repro.backends.shm`) skip the slab entirely: the sender memcpys
them into a leased shared-memory segment region and the receiver's
payload is reconstructed directly over the shared pages — one copy end
to end, and the receive-side copy of the slab path disappears.  The
slab/pipe machinery below still moves the (small) remainder of such
frames.

Frames whose buffers total more than **half** the slab capacity fall back
to dedicated pipe messages (``Connection.send_bytes`` straight from the
source memoryview), which is still copy-minimal, just slower than shared
memory.  Half, not all: allocations never straddle the wrap point, so a
frame needs up to ``nbytes`` of wasted padding in the worst case — only
``nbytes <= capacity // 2`` guarantees the ring can always satisfy the
request once the receiver drains.

The slab is a single-consumer ring: 8-byte *logical* head/tail counters
live in the first cache line of the mapping (head advanced only by the
owning receiver, tail only by senders holding the destination's lock, so
each word has exactly one writer; aligned 8-byte loads/stores are atomic
on every platform we fork on).  Because slab regions are allocated under
the same per-destination lock that orders the pipe messages, frames are
consumed in exactly allocation order and the receiver frees by bumping
head past each consumed frame — padding skipped at the wrap point is
reclaimed implicitly.

Everything here is transport: h-unit accounting is carried through
byte-for-byte (``seq`` and ``h`` ride the frame metadata), so ledgers are
identical to the per-packet implementation's.
"""

from __future__ import annotations

import mmap
import pickle
import select
import sys
import time
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .. import faults
from ..core.errors import SynchronizationError
from ..core.packets import Packet
from . import shm

#: Frame tags.  TAG_RELEASE carries zero-copy lease ids back to the
#: segment owner when no boundary frame is owed to piggyback them on.
TAG_PKT, TAG_LEFT, TAG_DEAD, TAG_FENCE, TAG_RELEASE = 0, 1, 2, 3, 4

#: Buffer transport modes.
_MODE_SLAB, _MODE_PIPE = 0, 1

#: Slab buffer alignment (one cache line).
_ALIGN = 64

#: Offset of the data region (head/tail counters live below).
_DATA_OFF = 64

#: Default slab capacity per destination processor.
DEFAULT_SLAB_BYTES = 64 << 20

#: Largest ``Connection.send_bytes`` payload that is still one atomic
#: ``write``: ``PIPE_BUF`` less the 4-byte length prefix it is sent with.
_PIPE_MSG_MAX = select.PIPE_BUF - 4

#: Payload buffers smaller than this (and below the zero-copy threshold)
#: stay in the pickle stream: a ghost row then crosses as one atomic pipe
#: message instead of a slab round trip that saves a copy of a few
#: hundred bytes.  Half of ``PIPE_BUF`` so one such buffer plus the
#: frame's metadata still fits a write the kernel never splits.
_INBAND_MAX = select.PIPE_BUF // 2


def _aligned(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


class _RecvPool:
    """Recycled receive buffers, reclaimed once every consumer drops them.

    Each received out-of-band buffer becomes the backing store of the
    reconstructed payload (e.g. a NumPy array's base), so it cannot be
    reused while the program still holds that payload.  The pool therefore
    keeps a permanent reference to every buffer it hands out and recycles
    one only when its refcount shows no outside holders — repeated
    steady-state exchanges then stop paying the allocator's page-fault
    churn for multi-megabyte buffers (~3x on the receive copy).
    """

    _MAX_BUFS = 64
    _MAX_BYTES = 256 << 20

    __slots__ = ("_bufs", "_bytes")

    def __init__(self) -> None:
        self._bufs: list[bytearray] = []
        self._bytes = 0

    def take(self, nbytes: int) -> bytearray:
        if nbytes:
            for buf in self._bufs:
                # pool list + loop variable + getrefcount argument == 3 on
                # refcounting CPython: nothing else (no memoryview export,
                # no array base) holds the buffer, so its bytes may be
                # overwritten.  ``<=`` (not ``==``) so interpreters where
                # getrefcount reports something larger — free-threaded
                # builds, immortalization — merely disable recycling and
                # fall through to a fresh allocation, never corrupt a
                # buffer a consumer still holds.
                if len(buf) == nbytes and sys.getrefcount(buf) <= 3:
                    return buf
        buf = bytearray(nbytes)
        if nbytes and len(self._bufs) < self._MAX_BUFS \
                and self._bytes + nbytes <= self._MAX_BYTES:
            self._bufs.append(buf)
            self._bytes += nbytes
        return buf


class Slab:
    """Fork-shared single-consumer ring buffer for frame payloads.

    ``reserve``/``write``/``commit`` are the sender side and must be
    called holding the destination's transport lock; ``read_copy``/
    ``free_to`` are the receiver side and need no lock (one consumer per
    slab).  Offsets are *logical* (monotonically increasing); the
    physical position is ``offset % capacity`` and allocations never
    straddle the wrap point.
    """

    def __init__(self, capacity: int = DEFAULT_SLAB_BYTES, *,
                 spin_timeout: float = 120.0):
        if capacity % mmap.PAGESIZE:
            capacity = _aligned(capacity) + mmap.PAGESIZE - (
                _aligned(capacity) % mmap.PAGESIZE or mmap.PAGESIZE)
        self.capacity = capacity
        #: Largest frame alloc() is guaranteed to eventually satisfy:
        #: wrap padding can cost up to another ``nbytes``, so anything
        #: over half the ring may exceed capacity depending on where the
        #: tail sits.  Callers route bigger frames through the pipe path.
        self.max_frame = capacity // 2
        self._spin_timeout = spin_timeout
        self._mm = mmap.mmap(-1, _DATA_OFF + capacity)
        self._view = memoryview(self._mm)
        #: [0] = head (receiver-owned), [1] = tail (sender-owned, locked).
        self._ctrl = self._view[:16].cast("Q")
        self._data = self._view[_DATA_OFF:]

    # -- sender side (destination lock held) -------------------------------

    def reserve(self, nbytes: int,
                block: bool = True) -> tuple[int, int] | None:
        """Find ``nbytes`` contiguous bytes: logical ``(start, end)``.

        The tail does not move until :meth:`commit` — the caller holds
        the destination lock, so nobody else can take the region in
        between.  While the ring lacks room this spin-waits (with
        backoff): the receiver frees space as it drains its pipe, which
        it is guaranteed to be doing whenever senders are pushing
        boundary frames.  With ``block`` false it returns ``None``
        instead of waiting.
        """
        tail = self._ctrl[1]
        room_to_end = self.capacity - (tail % self.capacity)
        pad = 0 if nbytes <= room_to_end else room_to_end
        need = nbytes + pad
        if need > self.capacity:
            # Even a fully drained ring holds at most ``capacity`` bytes,
            # so waiting could never succeed: fail fast instead of
            # spinning out the whole timeout.  push_frame() keeps this
            # unreachable by capping slab frames at ``max_frame``.
            raise ValueError(
                f"frame of {nbytes} bytes (+{pad} wrap padding) can never "
                f"fit the {self.capacity}-byte slab; frames over "
                f"max_frame={self.max_frame} bytes must use the pipe path")
        deadline = None
        spins = 0
        while self._ctrl[0] + self.capacity - tail < need:
            if not block:
                return None
            if deadline is None:
                deadline = time.monotonic() + self._spin_timeout
            elif time.monotonic() > deadline:
                raise SynchronizationError(
                    "timed out waiting for slab space (receiver not "
                    "draining its boundary exchange?)")
            spins += 1
            time.sleep(0 if spins < 32 else 0.0001)
        return tail + pad, tail + need

    def commit(self, end: int) -> None:
        """Take the region :meth:`reserve` found (tail := its ``end``)."""
        self._ctrl[1] = end

    def alloc(self, nbytes: int) -> int:
        """:meth:`reserve` + :meth:`commit`; returns the logical offset."""
        start, end = self.reserve(nbytes)
        self.commit(end)
        return start

    def write(self, offset: int, buf: Any) -> None:
        phys = offset % self.capacity
        n = memoryview(buf).nbytes
        self._data[phys:phys + n] = buf

    # -- receiver side ------------------------------------------------------

    def read_copy(self, offset: int, nbytes: int) -> bytearray:
        phys = offset % self.capacity
        return bytearray(self._data[phys:phys + nbytes])

    def read_into(self, offset: int, nbytes: int, out: bytearray) -> None:
        phys = offset % self.capacity
        out[:] = self._data[phys:phys + nbytes]

    # -- either side ---------------------------------------------------------

    def prefault(self, max_bytes: int | None = None) -> None:
        """Touch pages so forked children only take minor faults.

        The mapping is shared anonymous memory: pages first touched here
        are the very pages every worker sees, so prefaulting in the parent
        (before forking a pool) moves the zero-fill cost out of the first
        exchange.  ``max_bytes`` bounds how much of the data region is
        committed up-front; pages beyond it fault lazily the first time a
        frame actually lands there, so small-message workloads never pay
        resident memory for ring capacity they never use.
        """
        view = self._view if max_bytes is None else \
            self._view[:min(len(self._view), _DATA_OFF + max_bytes)]
        pages = len(view[::mmap.PAGESIZE])
        view[::mmap.PAGESIZE] = bytes(pages)

    def free_to(self, offset: int) -> None:
        """Mark everything up to logical ``offset`` consumed."""
        self._ctrl[0] = offset

    def reset(self) -> None:
        """Drop all in-ring data (head := tail).

        Only safe when the fabric is quiescent — e.g. right after a
        pool-heal fence, when any region still "allocated" belongs to a
        frame whose header never made it into a pipe (its sender died
        mid-push) and would otherwise leak ring space forever.
        """
        self._ctrl[0] = self._ctrl[1]

    def close(self) -> None:
        self._ctrl.release()
        self._data.release()
        self._view.release()
        self._mm.close()


@dataclass
class Frame:
    """One received boundary frame, payload still undecoded.

    ``more`` is the completion bit: 0 marks the *final* frame from
    ``src`` for this superstep (nothing more is coming on this link), 1
    means further frames follow.  Boundary frames all carry 0 — there is
    exactly one per link per boundary in every sync mode.

    ``seq``/``ack`` are the TCP wire envelope's link-sequencing fields
    (see :mod:`repro.backends.tcp_wire`): ``seq`` is this frame's
    per-link sequence number, ``ack`` the sender's cumulative receive
    position on the reverse direction.  Pipe-fabric frames never set
    them; ``-1`` means "unsequenced".

    ``stale`` is set by ``recv`` when a zero-copy lease in the frame
    predates a reset of its sender's segment pool: the bytes may alias a
    newer lease, so a channel that matches the frame to its current run
    must fail loudly instead of delivering it.
    """

    tag: int
    run_id: int
    step: int
    src: int
    meta: bytes | None
    buffers: list[bytearray] | None
    more: int = 0
    seq: int = -1
    ack: int = -1
    stale: int = 0

    def packets(self, dst: int) -> list[Packet]:
        """Decode into :class:`Packet` objects addressed to ``dst``."""
        assert self.meta is not None
        seqs, hs, payloads = pickle.loads(self.meta, buffers=self.buffers)
        src = self.src
        return [
            Packet(src=src, dst=dst, payload=payload, h=h, seq=seq)
            for seq, h, payload in zip(seqs, hs, payloads)
        ]


def encode_packets(packets: Sequence[Packet],
                   inband: int = _INBAND_MAX) -> tuple[bytes, list[memoryview]]:
    """Combine one per-destination bucket into (meta, out-of-band buffers).

    ``meta`` is a protocol-5 pickle of ``(seqs, hs, payloads)``; large
    contiguous payload buffers are extracted out-of-band and returned as
    raw memoryviews (no intermediate copy).  Buffers under ``inband``
    bytes stay inside ``meta`` (a fabric lowers it to its zero-copy
    threshold when that is smaller, so every leasable buffer surfaces).
    """
    pbufs: list[pickle.PickleBuffer] = []

    def split(pb: pickle.PickleBuffer) -> bool:
        if memoryview(pb).nbytes < inband:
            return True  # in-band
        pbufs.append(pb)
        return False

    meta = pickle.dumps(
        ([p.seq for p in packets], [p.h for p in packets],
         [p.payload for p in packets]),
        protocol=5, buffer_callback=split,
    )
    buffers = []
    for pb in pbufs:
        try:
            buffers.append(pb.raw())
        except BufferError:  # non-contiguous exporter: fall back to a copy
            buffers.append(memoryview(memoryview(pb).tobytes()))
    return meta, buffers


def decode_packets(meta: bytes, buffers: list[bytearray] | None,
                   src: int, dst: int) -> list[Packet]:
    """Inverse of :func:`encode_packets` (writable buffers => writable arrays)."""
    return Frame(TAG_PKT, 0, 0, src, meta, buffers).packets(dst)


class FrameTransport:
    """All-to-all frame fabric: per-pid pipe + writer lock + shared slab.

    Created by the parent before forking; every worker inherits the whole
    fabric and uses ``recv_conns[pid]``/``slabs[pid]`` as its inbound side
    and ``send(dst, ...)`` (lock-protected) for outbound frames.
    """

    def __init__(self, nprocs: int, ctx, *,
                 slab_bytes: int = DEFAULT_SLAB_BYTES,
                 spin_timeout: float = 120.0):
        self.nprocs = nprocs
        self._recv_conns = []
        self._send_conns = []
        self._locks = [ctx.Lock() for _ in range(nprocs)]
        self._slabs = [
            Slab(slab_bytes, spin_timeout=spin_timeout) if slab_bytes else None
            for _ in range(nprocs)
        ]
        #: Per-destination receive-buffer recycler (used post-fork, so each
        #: worker only ever touches its own pid's pool).
        self._pools = [_RecvPool() for _ in range(nprocs)]
        #: Fork-shared heartbeat counters, one 8-byte slot per worker,
        #: bumped by its owner at every superstep boundary.  Single writer
        #: per slot; aligned 8-byte stores are atomic on every platform we
        #: fork on.  Supervisors read them to tell "slow but alive" from
        #: "dead" and "deadlocked".
        self._hb_mm = mmap.mmap(-1, max(8 * nprocs, mmap.PAGESIZE))
        self._hb = memoryview(self._hb_mm).cast("Q")
        #: One ``POLLOUT`` poller per pipe write end, for the
        #: non-blocking push (pollers hold fd numbers only: fork-safe).
        self._pollers = []
        for _ in range(nprocs):
            r, w = ctx.Pipe(duplex=False)
            self._recv_conns.append(r)
            self._send_conns.append(w)
            self._pollers.append(select.poll())
            self._pollers[-1].register(w.fileno(), select.POLLOUT)
        # -- zero-copy data plane (repro.backends.shm) ----------------------
        # Env knobs are read here, in the parent, before forking, so every
        # worker of one fabric agrees on them.
        self._zc_enabled = shm.zerocopy_enabled()
        self._zc_threshold = shm.zerocopy_threshold()
        self._inband = min(_INBAND_MAX, self._zc_threshold)
        self._zc_token = shm.fabric_token()
        #: Fork-shared per-src count of segments ever created: all the
        #: parent needs to sweep a (possibly SIGKILLed) worker's segments
        #: by deterministic name.  Single writer per slot (the owner);
        #: slot ``nprocs`` is the parent's own dispatch arena, which a
        #: full sweep takes with the workers' segments.
        self._segc_mm = mmap.mmap(-1, max(8 * (nprocs + 1), mmap.PAGESIZE))
        self._segc = memoryview(self._segc_mm).cast("Q")
        #: Fork-shared zerocopy telemetry: slot ``2*src`` counts buffers
        #: that took a segment lease, ``2*src + 1`` buffers big enough
        #: but routed through slab/pipe (REPRO_ZEROCOPY=off).  Surfaced
        #: by ``BspPool.health()``.
        self._zc_mm = mmap.mmap(-1, max(16 * nprocs, mmap.PAGESIZE))
        self._zc = memoryview(self._zc_mm).cast("Q")
        #: Post-fork, lazily built, per-process state: each worker only
        #: ever touches its own pid's slot.  Slot ``nprocs`` is the
        #: parent's dispatch arena.
        self._seg_pools: list[shm.SegmentPool | None] = [None] * (nprocs + 1)
        self._seg_maps: list[shm.SegmentMap | None] = [None] * nprocs
        self._lease_tables: list[shm.LeaseTable | None] = [None] * nprocs
        #: Per-src broadcast dedup: ``((run_id, step), {data_ptr: (pin,
        #: name, offset, nbytes, lease_id)})``.  A payload sent to p-1
        #: peers is copied into its segment once; the other p-2 frames
        #: carry aliased leases over the same bytes.  The pinned buffer
        #: keeps the exporting array's memory alive, so a data pointer
        #: cannot be recycled while its cache entry exists.
        self._dedup: list[Any] = [None] * nprocs

    # -- zero-copy data plane ------------------------------------------------

    def _seg_pool(self, src: int) -> shm.SegmentPool:
        pool = self._seg_pools[src]
        if pool is None:
            pool = self._seg_pools[src] = shm.SegmentPool(
                self._zc_token, src, self._segc
            )
        return pool

    def _lease_table(self, pid: int) -> shm.LeaseTable:
        table = self._lease_tables[pid]
        if table is None:
            table = self._lease_tables[pid] = shm.LeaseTable()
        return table

    def _seg_map(self, pid: int) -> shm.SegmentMap:
        seg_map = self._seg_maps[pid]
        if seg_map is None:
            seg_map = self._seg_maps[pid] = shm.SegmentMap()
        return seg_map

    def collect_releases(self, pid: int, *,
                         discard: bool = False) -> dict[int, list[int]]:
        """Reap ``pid``'s no-longer-referenced inbound leases, per src.

        Called at each superstep boundary; the ids ride back to their
        segment owners on this boundary's outgoing frames.  ``discard``
        (TORN_LEASE fault) drops them instead — the owner's pool must
        then grow, never corrupt, and teardown's sweep still reclaims
        the segments.
        """
        table = self._lease_tables[pid]
        if table is None:
            return {}
        freed = table.collect_free()
        return {} if discard else freed

    def leak_segment(self, pid: int) -> None:
        """LEAK_SEGMENT fault hook: create a segment only the sweep can
        reclaim."""
        self._seg_pool(pid).leak()

    def reset_segments(self, pid: int) -> None:
        """Fence ``pid``'s zero-copy state: rewind the pool (generation
        bump) and forget inbound leases of the dead run."""
        pool = self._seg_pools[pid]
        if pool is not None:
            pool.reset()
        table = self._lease_tables[pid]
        if table is not None:
            table.clear()

    def zerocopy_stats(self) -> tuple[int, int]:
        """Fabric-wide (lease hits, threshold-crossing fallbacks)."""
        hits = sum(self._zc[2 * pid] for pid in range(self.nprocs))
        fallbacks = sum(self._zc[2 * pid + 1] for pid in range(self.nprocs))
        return int(hits), int(fallbacks)

    def segment_counts(self) -> dict[int, int]:
        """Segments each worker ever created (the parent's arena apart)."""
        return {pid: int(self._segc[pid]) for pid in range(self.nprocs)}

    def sweep_segments(self, pids: Sequence[int] | None = None) -> int:
        """Unlink segments created by ``pids`` (default: everyone).

        Parent-side only: on full teardown/rebuild every name goes; on a
        partial heal only the dead workers' — survivors' pools stay
        live.  Unlinking never invalidates a live mapping, so receivers
        still holding views into a dead sender's segment are unaffected.
        """
        pids = range(self.nprocs + 1) if pids is None else pids
        counts = {pid: int(self._segc[pid]) for pid in pids}
        return shm.sweep_segments(self._zc_token, counts)

    # -- run dispatch --------------------------------------------------------

    def encode_dispatch(self, obj: Any) -> tuple[bytes, tuple]:
        """Encode one run's ``(program, args, kwargs)`` once, for all ranks.

        Parent side.  Returns ``(head, refs)``: a protocol-5 pickle plus
        one ``(segment, offset, length)`` ref per out-of-band buffer.
        Buffers at or above the zero-copy threshold are copied once into
        the parent's arena (src slot ``nprocs`` of the segment plane) and
        every worker rebuilds them in place; smaller ones stay in
        ``head``.  The arena is rewound here, so a dispatched buffer is
        valid until the next dispatch on this fabric — runs are
        serialized and results are pickled before a run completes, so
        nothing that leaves a worker aliases it.
        """
        arena = self._seg_pool(self.nprocs) if self._zc_enabled else None
        if arena is not None:
            arena.reset()
        refs = []

        def place(pb: pickle.PickleBuffer) -> bool:
            mv = pb.raw()
            if arena is None or mv.nbytes < self._zc_threshold:
                return True  # in-band: rides ``head``
            try:
                _, name, offset, region = arena.lease(0, mv.nbytes)
            except OSError:  # /dev/shm full: this buffer rides ``head`` too
                return True
            region[:] = mv
            refs.append((name, offset, mv.nbytes))
            return False

        head = pickle.dumps(obj, protocol=5, buffer_callback=place)
        return head, tuple(refs)

    def decode_dispatch(self, pid: int, head: bytes, refs: tuple) -> Any:
        """Worker-side inverse of :meth:`encode_dispatch`: arena buffers
        come back as read-only views over the shared pages (every rank
        sees one object, as on the threads backend and the simulator)."""
        seg_map = self._seg_map(pid)
        buffers = []
        for name, offset, nbytes in refs:
            region = seg_map.region(name, offset, nbytes)
            region.flags.writeable = False
            buffers.append(region)
        return pickle.loads(head, buffers=buffers)

    # -- supervision ---------------------------------------------------------

    def beat(self, pid: int) -> None:
        """Advance ``pid``'s heartbeat (called by the owning worker only)."""
        self._hb[pid] += 1

    def heartbeat(self, pid: int) -> int:
        """Current heartbeat count of ``pid`` (supervisor side)."""
        return self._hb[pid]

    def heartbeats(self) -> list[int]:
        """Snapshot of every worker's heartbeat counter."""
        return [self._hb[pid] for pid in range(self.nprocs)]

    def locks_free(self, timeout: float = 0.25) -> bool:
        """True when every per-destination writer lock is acquirable.

        A lock that cannot be acquired means some sender — possibly a
        dead one — is wedged mid-frame; partial pool healing is unsafe
        then and the caller must rebuild the whole fabric.
        """
        for lock in self._locks:
            if not lock.acquire(timeout=timeout):
                return False
            lock.release()
        return True

    def reset_slabs(self) -> None:
        """Drop leaked slab regions (safe only on a quiescent fabric)."""
        for slab in self._slabs:
            if slab is not None:
                slab.reset()

    def prefault(self, max_bytes: int | None = None) -> None:
        """Pre-touch slab pages (call in the parent, before forking).

        ``max_bytes`` caps the committed prefix per slab; ``None`` faults
        every page in.
        """
        for slab in self._slabs:
            if slab is not None:
                slab.prefault(max_bytes)

    # -- sending ------------------------------------------------------------

    def send_control(self, dst: int, tag: int, run_id: int, src: int,
                     step: int = -1) -> None:
        header = pickle.dumps(
            (tag, run_id, step, src, _MODE_PIPE, (), 0, None, 0, None))
        with self._locks[dst]:
            self._send_conns[dst].send_bytes(header)

    def send_release(self, dst: int, run_id: int, src: int,
                     lease_ids: Sequence[int]) -> None:
        """Return lease ids to segment owner ``dst`` on a control frame.

        Only used when no boundary frame to ``dst`` is owed: ``dst`` is
        outside this boundary's out-links (``elide`` with a declared
        pattern), or outside this run's ``nprocs`` on a larger pool.
        Every other release piggybacks on the boundary frame for free.
        """
        header = pickle.dumps(
            (TAG_RELEASE, run_id, -1, src, _MODE_PIPE, (), 0, None, 0,
             tuple(lease_ids)))
        with self._locks[dst]:
            self._send_conns[dst].send_bytes(header)

    def send_packets(self, dst: int, run_id: int, step: int, src: int,
                     packets: Sequence[Packet], *, more: int = 0,
                     releases: Sequence[int] = ()) -> None:
        frame = self.encode_frame(dst, run_id, step, src, packets,
                                  more=more, releases=releases)
        if frame is not None:
            self.push_frame(frame)

    def encode_frame(self, dst: int, run_id: int, step: int, src: int,
                     packets: Sequence[Packet], *, more: int = 0,
                     releases: Sequence[int] = ()) -> tuple | None:
        """Serialize one bucket into the frame :meth:`push_frame` takes.

        What must happen once per frame, however many pushes it then
        needs, happens here: the fault hooks (``None``: an injected
        DROP_FRAME swallowed it), the pickle pass, and marking the
        buffers that will lease zero-copy regions.
        """
        # Fault-injection hook: one attribute load + None test per frame
        # (never per packet) when disabled.
        plan = faults._ACTIVE
        if plan is not None:
            if plan.drops_frame(src, step, dst):
                return None
            plan.count_frame(src)
        meta, buffers = encode_packets(packets, self._inband)
        big: Sequence[int] = ()
        if buffers:
            big = [i for i, mv in enumerate(buffers)
                   if mv.nbytes >= self._zc_threshold]
            if big and not self._zc_enabled:
                self._zc[2 * src + 1] += len(big)
                big = ()
        return (dst, run_id, step, src, meta, buffers, big, more,
                tuple(releases))

    def _place(self, frame: tuple, buffers: list, recycled: bool
               ) -> tuple | None:
        """Copy ``buffers`` into ONE leased region of ``src``'s pool.

        Returns the header's ``(generation, name, offset, lease id)``, or
        ``None`` when nothing recycled fits (``recycled``) or no segment
        could be created.  A frame whose buffer list was already placed
        this boundary — a broadcast — aliases that region instead.
        """
        dst, run_id, step, src = frame[:4]
        pool = self._seg_pool(src)
        cache = self._dedup[src]
        if cache is None or cache[0] != (run_id, step):
            cache = self._dedup[src] = ((run_id, step), {})
        key = tuple((id(mv.obj), mv.nbytes) for mv in buffers)
        hit = cache[1].get(key)
        if hit is not None:
            alias = pool.alias(hit[3])
            if alias is not None:  # same bytes, another destination: no copy
                return pool.generation, hit[1], hit[2], alias
        total = sum(shm.aligned(mv.nbytes) for mv in buffers)
        try:
            got = pool.lease(dst, total, recycled=recycled)
        except OSError:  # /dev/shm full
            return None
        if got is None:
            return None
        lease_id, name, offset, region = got
        at = 0
        for mv in buffers:
            region[at:at + mv.nbytes] = mv
            at += shm.aligned(mv.nbytes)
        # The pinned buffers keep their exporters alive, so an ``id``
        # cannot be recycled while its cache entry exists.
        cache[1][key] = (buffers, name, offset, lease_id)
        return pool.generation, name, offset, lease_id

    def push_frame(self, frame: tuple, *, block: bool = True) -> bool:
        """Write one encoded frame to its destination; ``True`` once done.

        With ``block`` false the push completes without waiting for
        anything or changes nothing and returns ``False``.  It goes
        through only if the destination lock is free, the ring has room
        now, the lease is served from recycled bytes, and the whole pipe
        message fits ``PIPE_BUF`` on a pipe reporting ``POLLOUT`` —
        every writer holds the lock, so the kernel takes that write
        whole.
        """
        dst, run_id, step, src, meta, buffers, big, more, rel = frame
        if not block and len(meta) > _PIPE_MSG_MAX:
            return False
        leased = [buffers[i] for i in big]
        if big:
            gone = set(big)
            buffers = [mv for i, mv in enumerate(buffers) if i not in gone]
        lens = tuple(mv.nbytes for mv in buffers)
        total = sum(map(_aligned, lens))
        slab = self._slabs[dst]
        use_slab = slab is not None and 0 < total <= slab.max_frame
        if buffers and not (use_slab or block):
            return False  # buffers as pipe messages of their own
        lock = self._locks[dst]
        lease = None
        if block:
            # Leasing (which may map a segment) and the copy happen
            # before the destination lock: the pool is this sender's own.
            if leased:
                lease = self._place(frame, leased, False)
                if lease is None:  # they stay slab/pipe buffers
                    self._zc[2 * src + 1] += len(leased)
                    buffers = list(frame[5])
                    lens = tuple(mv.nbytes for mv in buffers)
                    total = sum(map(_aligned, lens))
                    use_slab = slab is not None and 0 < total <= slab.max_frame
                    big = ()
            lock.acquire()
        elif not lock.acquire(False):
            return False
        try:
            if not block:
                ready = self._pollers[dst].poll(0)
                if not ready or ready[0][1] != select.POLLOUT:
                    return False
            start = end = 0
            if use_slab:
                spot = slab.reserve(total, block)
                if spot is None:
                    return False
                start, end = spot
            if leased and not block:
                lease = self._place(frame, leased, True)
                if lease is None:
                    return False
            extra = None
            if lease is not None:
                extra = (lease, tuple(big),
                         tuple(mv.nbytes for mv in leased), rel)
            elif rel:
                extra = (None, (), (), rel)
            # The header carries the meta blob too: one pipe message —
            # hence one reader wake-up — per frame without pipe buffers.
            header = pickle.dumps(
                (TAG_PKT, run_id, step, src,
                 _MODE_SLAB if use_slab else _MODE_PIPE, lens, start, meta,
                 more, extra))
            if not block and len(header) > _PIPE_MSG_MAX:
                if lease is not None:  # leave the pool as it was found
                    self._seg_pool(src).release((lease[3],))
                return False
            conn = self._send_conns[dst]
            if use_slab:
                offset = start
                for mv, n in zip(buffers, lens):
                    slab.write(offset, mv)
                    offset += _aligned(n)
                slab.commit(end)
            conn.send_bytes(header)
            if not use_slab:
                for mv in buffers:
                    conn.send_bytes(mv)
        finally:
            lock.release()
        if lease is not None:
            self._zc[2 * src] += len(leased)
        return True

    # -- receiving ----------------------------------------------------------

    def recv(self, pid: int) -> Frame:
        """Block for the next frame addressed to ``pid``.

        Slab regions are copied out and freed *here*, unconditionally, so
        discarding a stale frame (old ``run_id``) cannot leak ring space.
        """
        conn = self._recv_conns[pid]
        (tag, run_id, step, src, mode, lens, start, meta, more,
         extra) = pickle.loads(conn.recv_bytes())
        if tag == TAG_RELEASE:
            # Lease ids coming home: applied at transport level, whatever
            # run they belong to — ids are monotonic and unknown ids are
            # ignored, so a stale release can never free a live region.
            seg_pool = self._seg_pools[pid]
            if seg_pool is not None and extra:
                seg_pool.release(extra)
            return Frame(tag, run_id, step, src, None, None, more)
        if tag != TAG_PKT:
            return Frame(tag, run_id, step, src, None, None, more)
        buffers: list[Any] = []
        pool = self._pools[pid]
        if mode == _MODE_SLAB:
            slab = self._slabs[pid]
            assert slab is not None
            offset = start
            for n in lens:
                buf = pool.take(n)
                slab.read_into(offset, n, buf)
                buffers.append(buf)
                offset += _aligned(n)
            slab.free_to(offset)
        else:
            for n in lens:
                buf = pool.take(n)
                if n:
                    conn.recv_bytes_into(buf)
                else:
                    conn.recv_bytes()  # zero-length message, nothing to copy
                buffers.append(buf)
        stale = 0
        if extra is not None:
            lease, indices, sizes, rel = extra
            if rel:
                seg_pool = self._seg_pools[pid]
                if seg_pool is not None:
                    seg_pool.release(rel)
            if lease is not None:
                # Zero-copy delivery: map the frame's one leased region
                # (attach is cached per segment), register it as one
                # exporter, and splice views of it into the buffer list
                # at the buffers' original indices — the reconstructed
                # payloads are backed by the shared pages themselves.
                generation, name, offset, lease_id = lease
                region = self._seg_map(pid).region(
                    name, offset, sum(map(shm.aligned, sizes)))
                if self._lease_table(pid).register(src, lease_id,
                                                   generation, region):
                    stale = 1
                full: list[Any] = [None] * (len(lens) + len(indices))
                at = 0
                for index, n in zip(indices, sizes):
                    full[index] = region[at:at + n]
                    at += shm.aligned(n)
                small = iter(buffers)
                for j, slot in enumerate(full):
                    if slot is None:
                        full[j] = next(small)
                buffers = full
        return Frame(tag, run_id, step, src, meta, buffers, more,
                     stale=stale)

    def close(self) -> None:
        # Orphan sweep first: whoever closes the fabric (the parent, on
        # teardown/rebuild/KeyboardInterrupt) unlinks every segment any
        # worker ever created — counts survive worker death in the
        # fork-shared counter, so even SIGKILL mid-superstep leaks
        # nothing.  Live mappings elsewhere stay valid; only the names
        # go.
        try:
            self.sweep_segments()
        except (ValueError, OSError):  # pragma: no cover - already closed
            pass
        for seg_pool in self._seg_pools:
            if seg_pool is not None:
                seg_pool.close()
        # Tables before maps: dropping the table's region exporters
        # releases their buffer exports, so the map's segments close
        # cleanly instead of lingering until garbage collection.
        for table in self._lease_tables:
            if table is not None:
                table.clear()
        for seg_map in self._seg_maps:
            if seg_map is not None:
                seg_map.close()
        for conn in (*self._recv_conns, *self._send_conns):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass
        for slab in self._slabs:
            if slab is not None:
                try:
                    slab.close()
                except (BufferError, ValueError):  # pragma: no cover
                    pass
        try:
            self._hb.release()
            self._hb_mm.close()
        except (BufferError, ValueError):  # pragma: no cover
            pass
        try:
            self._segc.release()
            self._segc_mm.close()
            self._zc.release()
            self._zc_mm.close()
        except (BufferError, ValueError):  # pragma: no cover
            pass
