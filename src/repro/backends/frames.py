"""Batched zero-copy boundary frames for the process backend.

The paper's central claim about superstep discipline is that it lets the
library "combine messages and schedule the total exchange" (Section 1).
This module is that combining layer for the process backend: instead of
pickling a Python ``list[Packet]`` per peer — one reduce call and one
payload copy per packet — each per-destination bucket crosses the process
boundary as **one frame**:

* a small pickled *header* ``(tag, run_id, step, src, buffer lengths,
  meta, lease, releases)`` — one pipe message per frame;
  ``releases`` are the lease ids piggybacked home to the destination's
  own segment pool;
* the *meta* blob riding the header: the packets' ``seq``/``h`` arrays
  plus their payloads, serialized once with pickle protocol 5 so that
  contiguous buffers (NumPy halos, Cannon blocks, essential trees) are
  split out as out-of-band buffers instead of being copied into the
  pickle stream.  *Small* buffers — under :data:`_INBAND_MAX` (half of
  ``PIPE_BUF``) — stay in the stream: for a 528-byte ghost row a
  shared-memory round trip costs more than the copy it saves, and
  in-band the whole frame is one pipe message no larger than
  ``PIPE_BUF``, which the kernel writes atomically;
* the out-of-band *buffers* themselves, all of them in **one leased
  region** of the sender's shared-memory segment pool
  (:mod:`repro.backends.shm`) at running 64-byte-aligned offsets: the
  sender memcpys each buffer in, the header names the region
  ``(generation, segment, offset, lease id)``, and the receiver
  reconstructs the payloads with ``pickle.loads(meta, buffers=...)``
  directly over views of the shared pages.  One copy end to end, and no
  pickle stream ever contains the bytes of a buffer of ``_INBAND_MAX``
  or more.

That is the whole data plane: one cut, two planes, no knob — for a run's
arguments and for what a worker reports back (its outcome, a fence ack:
a frame to the parent, endpoint ``nprocs`` of the transport) as for
packets, all through :func:`encode_object`.  The one fallback is for a
region that cannot be had — ``REPRO_ZEROCOPY=off``, or ``/dev/shm``
refusing a segment: the frame's buffers then follow the header as pipe
messages of their own (``Connection.send_bytes`` straight from the
source memoryview), copy-minimal but slower than shared memory.

Sending is two steps, :meth:`FrameTransport.encode_frame` then
:meth:`FrameTransport.push_frame`, so that a boundary can first offer
every frame to a push that *never waits* and hand only the frames it
refuses to a thread that may block (:mod:`repro.backends.processes`).
The push that never waits leases only *recycled* bytes — a region the
receiver released, or room below a segment's high-water mark — so it
maps nothing and touches no new page; in steady state a link alternates
two regions, the paper's two input buffers per processor (Appendix B.1).

Everything here is transport: h-unit accounting is carried through
byte-for-byte (``seq`` and ``h`` ride the frame metadata), so ledgers are
identical to the per-packet implementation's.
"""

from __future__ import annotations

import mmap
import pickle
import select
from dataclasses import dataclass
from typing import Any, Sequence

from ..core.packets import Packet
from . import shm

#: Frame tags.  TAG_LEASES carries zero-copy lease ids back to the
#: segment owner when no boundary frame is owed to piggyback them on
#: (pipe fabric only; not the release round's ``TAG_RELEASE``).
TAG_PKT, TAG_LEFT, TAG_DEAD, TAG_FENCE, TAG_LEASES = 0, 1, 2, 3, 4
#: The release round — "I hold every frame of step s" (only a fabric
#: whose links cannot prove receipt runs it).
TAG_RELEASE = 5
#: A worker -> supervisor outcome or ack, on either fabric.
TAG_RESULT = 8

#: Largest ``Connection.send_bytes`` payload that is still one atomic
#: ``write``: ``PIPE_BUF`` less the 4-byte length prefix it is sent with.
_PIPE_MSG_MAX = select.PIPE_BUF - 4

#: The one cut of the data plane.  Payload buffers smaller than this
#: stay in the pickle stream: a ghost row then crosses as one atomic pipe
#: message instead of a shared-memory round trip that saves a copy of a
#: few hundred bytes.  Half of ``PIPE_BUF`` so one such buffer plus the
#: frame's metadata still fits a write the kernel never splits.
#: Everything else rides a shared-memory lease.
_INBAND_MAX = select.PIPE_BUF // 2


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


class FrameTransport:
    """All-to-all frame fabric: per-endpoint pipe + writer lock and
    segment pool.

    Created by the parent before forking; every worker inherits the whole
    fabric, reads ``recv(pid)`` as its inbound side and pushes outbound
    frames under the destination's lock.  The parent is endpoint
    ``nprocs``: workers :meth:`push_result` to it, and it is the pool
    core's result source (``waitables``, ``poll``, ``heartbeat``).
    """

    def __init__(self, nprocs: int, ctx):
        self.nprocs = nprocs
        self._recv_conns = []
        self._send_conns = []
        self._locks = [ctx.Lock() for _ in range(nprocs + 1)]
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
        for _ in range(nprocs + 1):
            r, w = ctx.Pipe(duplex=False)
            self._recv_conns.append(r)
            self._send_conns.append(w)
            self._pollers.append(select.poll())
            self._pollers[-1].register(w.fileno(), select.POLLOUT)
        # -- zero-copy data plane (repro.backends.shm) ----------------------
        # The escape hatch is read here, in the parent, before forking,
        # so every worker of one fabric agrees on it.
        self._zc_enabled = shm.zerocopy_enabled()
        self._zc_token = shm.fabric_token()
        #: Fork-shared per-src count of segments ever created: all the
        #: parent needs to sweep a (possibly SIGKILLed) worker's segments
        #: by deterministic name.  Single writer per slot (the owner);
        #: slot ``nprocs`` is the parent's own dispatch arena, which a
        #: full sweep takes with the workers' segments.
        self._segc_mm = mmap.mmap(-1, max(8 * (nprocs + 1), mmap.PAGESIZE))
        self._segc = memoryview(self._segc_mm).cast("Q")
        #: Fork-shared zerocopy telemetry: slot ``2*src`` counts buffers
        #: delivered through a segment lease, ``2*src + 1`` out-of-band
        #: buffers sent as pipe messages instead (REPRO_ZEROCOPY=off, or
        #: no segment to be had).  Surfaced by ``BspPool.health()``.
        self._zc_mm = mmap.mmap(-1, max(16 * nprocs, mmap.PAGESIZE))
        self._zc = memoryview(self._zc_mm).cast("Q")
        #: Per-process state (a pool is built post-fork, by its first
        #: lease): each worker only ever touches its own pid's slot.  The
        #: parent's pool is the dispatch arena; its map and table hold the
        #: regions of inbound result frames.
        self._seg_pools: list[shm.SegmentPool | None] = [None] * (nprocs + 1)
        self._seg_maps = [shm.SegmentMap() for _ in range(nprocs + 1)]
        self._lease_tables = [shm.LeaseTable() for _ in range(nprocs + 1)]
        #: Per-src broadcast dedup: ``((run_id, step), {buffer-list key:
        #: (pin, name, offset, lease_id)})``.  A frame whose buffers were
        #: already placed this boundary — the same arrays sent to p-1
        #: peers — is copied into its segment once; the other p-2 frames
        #: carry aliased leases over the same region.
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
        return self._lease_tables[pid]

    def collect_releases(self, pid: int, *,
                         discard: bool = False) -> dict[int, list[int]]:
        """Reap ``pid``'s no-longer-referenced inbound leases, per src.

        Called at each superstep boundary; the ids ride back to their
        segment owners on this boundary's outgoing frames.  ``discard``
        (TORN_LEASE fault) drops them instead — the owner's pool must
        then grow, never corrupt, and teardown's sweep still reclaims
        the segments.
        """
        freed = self._lease_tables[pid].collect_free()
        return {} if discard else freed

    def release(self, pid: int, lease_ids: Sequence[int]) -> None:
        """Lease ids coming home to ``pid``'s pool, whatever run they
        belong to: ids are monotonic and unknown ones ignored, so a stale
        release can never free a live region."""
        pool = self._seg_pools[pid]
        if lease_ids and pool is not None:
            pool.release(lease_ids)

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
        self._lease_tables[pid].clear()

    def zerocopy_stats(self) -> tuple[int, int]:
        """Fabric-wide (buffers leased, buffers sent as pipe messages)."""
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
        """Encode one run's ``(program, args, kwargs, sync)`` once, for
        all ranks: :func:`encode_object`'s pickle and, per out-of-band
        buffer, the ``(segment, offset, length)`` of its one copy in the
        parent's arena (src slot ``nprocs`` of the segment plane) — or
        the bytes themselves when no arena is to be had.  The arena is
        rewound here — under the run lock: the previous run's workers
        were reading it — so a dispatched buffer is valid until the next
        dispatch, and results are encoded before a run completes, so
        nothing that leaves a worker aliases it.
        """
        head, buffers = encode_object(obj)
        arena = self._seg_pool(self.nprocs) if self._zc_enabled else None
        if arena is not None:
            arena.reset()
        refs: list[Any] = []
        for mv in buffers:
            if arena is not None:
                try:
                    _, name, offset, region = arena.lease(0, mv.nbytes)
                except OSError:  # /dev/shm full: as if the plane were off
                    arena = None
            if arena is None:
                refs.append(bytearray(mv))  # rides the control message
                continue
            region[:] = mv
            refs.append((name, offset, mv.nbytes))
        return head, tuple(refs)

    def decode_dispatch(self, pid: int, head: bytes, refs: tuple) -> Any:
        """Worker-side inverse of :meth:`encode_dispatch`: arena buffers
        come back as read-only views over the shared pages (every rank
        sees one object, as on the threads backend and the simulator)."""
        buffers = []
        for ref in refs:
            if isinstance(ref, tuple):
                ref = self._seg_maps[pid].region(*ref)
                ref.flags.writeable = False
            buffers.append(ref)
        return pickle.loads(head, buffers=buffers)

    # -- the parent's end: the pool core's result source ---------------------

    def push_result(self, src: int, meta: bytes,
                    buffers: list[memoryview]) -> None:
        """Worker ``src`` -> parent: :func:`encode_object` of one
        5-tuple for :meth:`poll`, as one frame, written before this
        returns: a boundary frame's data path."""
        self.push_frame(self._frame(self.nprocs, -1, -1, src, meta, buffers))
        # Not a broadcast: do not pin the result in the dedup cache.
        self._dedup[src] = None

    def waitables(self) -> list:
        return [self._recv_conns[self.nprocs]]

    def poll(self) -> list[tuple]:
        """Every result frame that has arrived, decoded.  Each leased
        buffer is copied out, once: a result the caller still holds must
        never alias a region the next fence rewinds or the next run
        leases again.  The lease is then free, and its id goes home with
        the next dispatch.
        """
        conn = self._recv_conns[self.nprocs]
        got = []
        while conn.poll():
            frame = self.recv(self.nprocs)
            got.append(pickle.loads(frame.meta, buffers=[
                buf if isinstance(buf, bytearray) else bytearray(buf)
                for buf in frame.buffers]))
        return got

    # -- supervision ---------------------------------------------------------

    def beat(self, pid: int) -> None:
        """Advance ``pid``'s heartbeat (called by the owning worker only)."""
        self._hb[pid] += 1

    def heartbeat(self, pid: int) -> int:
        """Current heartbeat count of ``pid`` (supervisor side)."""
        return self._hb[pid]

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

    # -- sending ------------------------------------------------------------

    def send_control(self, dst: int, tag: int, run_id: int, src: int,
                     step: int = -1, releases: Sequence[int] = ()) -> None:
        header = pickle.dumps(
            (tag, run_id, step, src, (), None, None, tuple(releases)))
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
        self.send_control(dst, TAG_LEASES, run_id, src, releases=lease_ids)

    def send_packets(self, dst: int, run_id: int, step: int, src: int,
                     packets: Sequence[Packet], *,
                     releases: Sequence[int] = ()) -> None:
        self.push_frame(self.encode_frame(dst, run_id, step, src, packets,
                                          releases=releases))

    def encode_frame(self, dst: int, run_id: int, step: int, src: int,
                     packets: Sequence[Packet], *,
                     releases: Sequence[int] = ()) -> tuple:
        """Serialize one bucket into the frame :meth:`push_frame` takes.

        What must happen once per frame, however many pushes it then
        needs, happens here: the pickle pass, and deciding whether the
        out-of-band buffers ride a lease or the pipe.
        """
        return self._frame(dst, run_id, step, src, *encode_packets(packets),
                           releases)

    def _frame(self, dst: int, run_id: int, step: int, src: int,
               meta: bytes, buffers: list[memoryview],
               releases: Sequence[int] = ()) -> tuple:
        leased = bool(buffers) and self._zc_enabled
        if buffers and not leased:
            self._zc[2 * src + 1] += len(buffers)
        return (dst, run_id, step, src, meta, buffers, leased,
                tuple(releases))

    def _place(self, frame: tuple, recycled: bool) -> tuple | None:
        """Copy the frame's buffers into ONE leased region of ``src``'s
        pool, at running aligned offsets.

        Returns the header's ``(generation, name, offset, lease id)``, or
        ``None`` when nothing recycled fits (``recycled``) or no segment
        could be created.  A frame whose buffer list was already placed
        this boundary — a broadcast — aliases that region instead.
        """
        dst, run_id, step, src, _, buffers = frame[:6]
        pool = self._seg_pool(src)
        cache = self._dedup[src]
        if cache is None or cache[0] != (run_id, step):
            cache = self._dedup[src] = ((run_id, step), {})
        # Keyed by exporter identity: the pinned buffers keep their
        # exporters alive, so an ``id`` cannot be recycled while its
        # cache entry exists.
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
        cache[1][key] = (buffers, name, offset, lease_id)
        return pool.generation, name, offset, lease_id

    def push_frame(self, frame: tuple, *, block: bool = True) -> bool:
        """Write one encoded frame to its destination; ``True`` once done.

        With ``block`` false the push completes without waiting for
        anything or changes nothing and returns ``False``.  It goes
        through only if the destination lock is free, the pipe reports
        ``POLLOUT``, the frame's region is served from recycled bytes
        (nothing mapped, no new page touched — so leasing ahead of this
        boundary's inbound releases cannot grow the pool), and the whole
        pipe message fits ``PIPE_BUF`` — every writer holds the lock, so
        the kernel takes that write whole.  A blocking push is the only
        place a boundary can create a segment.
        """
        dst, run_id, step, src, meta, buffers, leased, rel = frame
        if not block and (len(meta) > _PIPE_MSG_MAX
                          or (buffers and not leased)):
            return False  # buffers as pipe messages of their own
        lock = self._locks[dst]
        lease = None
        if block:
            # Leasing and the copy happen before the destination lock —
            # the pool belongs to this sender alone.
            if leased:
                lease = self._place(frame, recycled=False)
                if lease is None:  # /dev/shm full: pipe messages instead
                    self._zc[2 * src + 1] += len(buffers)
            lock.acquire()
        elif not lock.acquire(False):
            return False
        try:
            if not block:
                ready = self._pollers[dst].poll(0)
                if not ready or ready[0][1] != select.POLLOUT:
                    return False
                if leased:
                    lease = self._place(frame, recycled=True)
                    if lease is None:
                        return False
            # The header carries the meta blob too: one pipe message —
            # hence one reader wake-up — per frame without pipe buffers.
            header = pickle.dumps(
                (TAG_RESULT if dst == self.nprocs else TAG_PKT, run_id, step,
                 src, tuple(mv.nbytes for mv in buffers), meta, lease, rel))
            if not block and len(header) > _PIPE_MSG_MAX:
                if lease is not None:  # leave the pool as it was found
                    self._seg_pool(src).release((lease[3],))
                return False
            conn = self._send_conns[dst]
            conn.send_bytes(header)
            if lease is None:
                for mv in buffers:
                    conn.send_bytes(mv)
        finally:
            lock.release()
        if lease is not None:
            self._zc[2 * src] += len(buffers)
        return True

    # -- receiving ----------------------------------------------------------

    def recv(self, pid: int) -> Frame:
        """Block for the next frame addressed to ``pid``."""
        conn = self._recv_conns[pid]
        (tag, run_id, step, src, lens, meta, lease,
         rel) = pickle.loads(conn.recv_bytes())
        self.release(pid, rel)
        if meta is None:  # a control frame
            return Frame(tag, run_id, step, src, None, None)
        buffers: list[Any] = []
        stale = 0
        if lease is None:
            for n in lens:
                buf = bytearray(n)
                conn.recv_bytes_into(buf)
                buffers.append(buf)
        else:
            # Zero-copy delivery: map the frame's one leased region
            # (attach is cached per segment), file it as one exporter,
            # and hand out views of it — the reconstructed payloads are
            # backed by the shared pages themselves, and every one of
            # them keeps the region's refcount, the lease's liveness
            # probe, above the table's own.
            generation, name, offset, lease_id = lease
            region = self._seg_maps[pid].region(
                name, offset, sum(map(shm.aligned, lens)))
            stale = int(self._lease_table(pid).register(
                src, lease_id, generation, region))
            at = 0
            for n in lens:
                buffers.append(region[at:at + n])
                at += shm.aligned(n)
        return Frame(tag, run_id, step, src, meta, buffers, stale=stale)

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
            table.clear()
        for seg_map in self._seg_maps:
            seg_map.close()
        for conn in (*self._recv_conns, *self._send_conns):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
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
