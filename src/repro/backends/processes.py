"""Process backend — the MPI version (Appendix B.2), on one host.

One OS process per virtual processor, so compute genuinely runs in
parallel (no GIL).  As in the paper's MPI version, communication happens
*only at superstep boundaries*: during a superstep each processor merely
buckets its outgoing packets per destination; at the boundary it sends
one **combined frame** per peer (possibly empty — the all-to-all itself
is the implicit synchronization, exactly as in B.2) and waits until it
holds the boundary frame of every live peer.  That one round serves
every ``sync`` mode — a pipe loses nothing, so ``strict`` and
``relaxed`` coincide here, and ``elide`` runs it over the links of a
declared pattern (:func:`~repro.backends.exchange.boundary_links`).

B.2's per-pair buffers, taken literally: every ordered pair of ranks has
a pipe of its own, with one writer and one reader, and so has the parent
with each rank — a control pipe down, a result pipe up.  Every pipe is
non-blocking and carries the same stream of frames as a socket of the
TCP mesh (:mod:`~repro.backends.tcp_wire`), driven by the same
:class:`~repro.backends.exchange.StreamLinks` code: a frame goes out as
far as the pipe takes it, the rest queues, and the rank flushes its
queues while it reads — B.3's "receivers actively empty the pipe".  No
write waits for a reader, no lock guards a pipe, no second thread
sends.  Payload buffers of 2 KiB or more ride one leased shared-memory
region per frame (:mod:`~repro.backends.shm`), so a bucket of NumPy
halos crosses the boundary with one memcpy; ``REPRO_ZEROCOPY=off`` puts
them in the stream instead.  Sends go in the
:func:`~repro.backends.exchange.peer_order` of the total-exchange
schedule.

A processor that finishes sends a departure sentinel so peers stop
waiting for it; mismatched superstep counts then surface as a
stats-merge error rather than a hang.

The round itself is :class:`~repro.backends.exchange.LinkChannel`'s, and
everything around the exchange — worker lifecycle, the supervised gather
of one outcome per rank, the failure policy, one-shot vs pooled — is the
fabric-independent :mod:`~repro.backends.pool` core.  This module is the
pipe fabric behind them: :class:`FrameTransport` (the pipes, segment
pools and fork-shared words), :class:`_FrameChannel` (its half of the
round) and :class:`BspPool`, which supplies only

* **build / teardown**: one transport and ``p`` workers forked onto it;
  the parent is the transport's last endpoint, where a worker's outcome
  arrives as a frame like any other;
* **dispatch**: ``(program, args)`` encoded once for all workers, array
  arguments too big for the pickle stream arriving as read-only views of
  one shared-memory copy (valid for the run);
* **the failure policy's verbs**: survivors are woken by an abort on
  their control pipes, and a dead worker is re-forked onto the same
  pipes once both directions of them are drained and every survivor has
  dropped its link to it, so every stream restarts at a frame boundary.
  A failed run needs nothing more: what it left in flight reaches the
  next run and is dropped there by run id.

Deterministic fault injection for all of these paths lives in
:mod:`repro.faults`.
"""

from __future__ import annotations

import mmap
import os
import pickle
import selectors
from typing import Any, Collection, Sequence

from .. import faults
from ..core.packets import Packet
from . import shm
from . import tcp_wire as wire
from .exchange import LinkChannel, StreamLink, StreamLinks
from .frames import (
    TAG_LEASES,
    TAG_PKT,
    TAG_RESULT,
    Frame,
    encode_object,
    encode_packets,
)
from .pool import (
    Abort,
    PoolBackend,
    PoolHealth,  # noqa: F401 - re-exported: the snapshot's public home
    RankLink,
    WorkerPool,
    encode_outcome,
    join_escalating,
    serve_rank,
    write_all,
)


class FrameTransport:
    """The pipe fabric: a non-blocking pipe per ordered pair of
    endpoints, the segment pools, and the fork-shared words.

    Endpoints ``0 .. p-1`` are the ranks and ``p`` is the parent, so
    pipe ``(q, p)`` is rank ``q``'s result pipe and ``(p, q)`` its
    control pipe.  The parent creates all of it before forking; every
    process inherits every pipe and keeps its own
    :class:`~repro.backends.exchange.StreamLink` for each link it uses
    (:meth:`link`), so a stream a failed run left mid-frame resumes in
    the next.  The transport is also the pool core's result source
    (``waitables``, ``poll``, ``heartbeat``).
    """

    def __init__(self, nprocs: int):
        self.nprocs = nprocs
        ends = range(nprocs + 1)
        #: ``(src, dst) -> (read fd, write fd)``, both non-blocking.
        self._pipes: dict[tuple[int, int], tuple[int, int]] = {}
        for src in ends:
            for dst in ends:
                if src != dst:
                    fds = self._pipes[src, dst] = os.pipe()
                    for fd in fds:
                        os.set_blocking(fd, False)
        #: This process's end of each link it uses, by ``(pid, peer)``.
        self._links: dict[tuple[int, int], StreamLink] = {}
        #: Fork-shared heartbeat counters, one 8-byte slot per worker,
        #: bumped by its owner at every superstep boundary.  Single writer
        #: per slot; aligned 8-byte stores are atomic on every platform we
        #: fork on.  Supervisors read them to tell "slow but alive" from
        #: "dead" and "deadlocked".
        self._hb_mm = mmap.mmap(-1, max(8 * nprocs, mmap.PAGESIZE))
        self._hb = memoryview(self._hb_mm).cast("Q")
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
        #: buffers sent in the stream instead (REPRO_ZEROCOPY=off, or
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

    # -- links ---------------------------------------------------------------

    def link(self, pid: int, peer: int) -> StreamLink:
        """``pid``'s end of its link with ``peer``, in this process: the
        queue of pipe ``(pid, peer)`` and the decoder of ``(peer, pid)``."""
        link = self._links.get((pid, peer))
        if link is None:
            link = self._links[pid, peer] = StreamLink()
        return link

    def fds(self, pid: int, peer: int) -> tuple[int, int]:
        """``pid``'s ``(read fd, write fd)`` of its link with ``peer``."""
        return self._pipes[peer, pid][0], self._pipes[pid, peer][1]

    def drop_links(self, pid: int, dead: Collection[int]) -> None:
        """``pid`` forgets its links to ``dead`` — queued bytes and
        decoders — and the zero-copy state it shared with them, and
        nothing else: the leases the dead hold on its pool go home (they
        never would), and its inbound leases from the dead are forgotten
        (a replacement numbers its leases afresh).  A region the parent
        or a survivor still holds is never rewound.  Segments are *not*
        unlinked here: the next run reuses them, and only the parent's
        sweep removes names."""
        for peer in dead:
            self._links.pop((pid, peer), None)
        pool = self._seg_pools[pid]
        if pool is not None:
            pool.release_held_by(dead)
        self._lease_tables[pid].forget(dead)

    def drain(self, dead: Collection[int]) -> None:
        """Empty both directions of every pipe of ``dead``: the parent's
        part of a heal, once nobody writes them any more (a process
        still holds every write end, so an empty pipe raises rather than
        reading end-of-file)."""
        for (src, dst), (rfd, _) in self._pipes.items():
            if src in dead or dst in dead:
                try:
                    while os.read(rfd, 1 << 16):
                        pass
                except BlockingIOError:
                    pass

    # -- frames --------------------------------------------------------------

    def encode(self, dst: int, tag: int, run_id: int, step: int, src: int,
               meta: bytes | None = None, buffers: Sequence[Any] = (),
               releases: Sequence[int] = ()) -> list[Any]:
        """One frame on pipe ``(src, dst)``, as wire chunks.

        ``releases`` — lease ids going home to ``dst`` — ride the header,
        and the out-of-band ``buffers`` one leased region of ``src``'s
        pool, or the stream when no region can be had.
        """
        region = self._place(dst, run_id, step, src, buffers) \
            if buffers and self._zc_enabled else None
        if buffers:
            self._zc[2 * src + (region is None)] += len(buffers)
        if dst == self.nprocs:
            self._dedup[src] = None  # a result: do not pin it
        return wire.encode_frame(
            tag, run_id, step, src, meta, () if region else buffers,
            (tuple(releases), region) if releases or region else None)

    def _place(self, dst: int, run_id: int, step: int, src: int,
               buffers: Sequence[memoryview]) -> tuple | None:
        """Copy a frame's buffers into ONE leased region of ``src``'s
        pool, at running aligned offsets.

        Returns the header's ``(name, offset, lease id, buffer
        lengths)``, or ``None`` when no segment could be created.
        A frame whose buffer list was already placed this boundary — a
        broadcast — aliases that region instead.
        """
        pool = self._seg_pool(src)
        lens = tuple(mv.nbytes for mv in buffers)
        cache = self._dedup[src]
        if cache is None or cache[0] != (run_id, step):
            cache = self._dedup[src] = ((run_id, step), {})
        # Keyed by exporter identity: the pinned buffers keep their
        # exporters alive, so an ``id`` cannot be recycled while its
        # cache entry exists.
        key = tuple((id(mv.obj), mv.nbytes) for mv in buffers)
        hit = cache[1].get(key)
        if hit is not None:
            alias = pool.alias(hit[3], dst)
            if alias is not None:  # same bytes, another destination: no copy
                return hit[1], hit[2], alias, lens
        try:
            lease_id, name, offset, region = pool.lease(
                dst, sum(map(shm.aligned, lens)))
        except OSError:  # /dev/shm full: the stream instead
            return None
        at = 0
        for mv in buffers:
            region[at:at + mv.nbytes] = mv
            at += shm.aligned(mv.nbytes)
        cache[1][key] = (buffers, name, offset, lease_id)
        return name, offset, lease_id, lens

    def open(self, pid: int, frame: Frame) -> Frame:
        """What ``pid`` does with every frame it receives: take the
        piggybacked lease ids home to its pool, and put a leased frame's
        buffers in place — views of the one region, filed in the lease
        table as one exporter that every payload over it keeps
        referenced (the lease's liveness probe)."""
        if frame.lease is None:
            return frame
        releases, region = frame.lease
        self.release(pid, releases)
        if region is not None:
            name, offset, lease_id, lens = region
            mapped = self._seg_maps[pid].region(
                name, offset, sum(map(shm.aligned, lens)))
            self._lease_tables[pid].register(frame.src, lease_id, mapped)
            frame.buffers, at = [], 0
            for n in lens:
                frame.buffers.append(mapped[at:at + n])
                at += shm.aligned(n)
        return frame

    # -- zero-copy data plane ------------------------------------------------

    def _seg_pool(self, src: int) -> shm.SegmentPool:
        pool = self._seg_pools[src]
        if pool is None:
            pool = self._seg_pools[src] = shm.SegmentPool(
                self._zc_token, src, self._segc
            )
        return pool

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

    def zerocopy_stats(self) -> tuple[int, int]:
        """Fabric-wide (buffers leased, buffers sent in the stream)."""
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
                refs.append(bytearray(mv))  # rides the control frame
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

    def waitables(self) -> list:
        return [self._pipes[pid, self.nprocs][0]
                for pid in range(self.nprocs)]

    def poll(self) -> list[tuple]:
        """Every result frame that has arrived, decoded in place: a
        leased buffer comes back as a view of the rank's region, as a
        rank's inbound payloads do.  The lease is the caller's for as
        long as it holds the result — no pool rewinds a held region, a
        heal included — and its id goes home with the first dispatch
        after the caller lets go.
        """
        parent, got = self.nprocs, []
        for pid in range(parent):
            rfd, dec = self._pipes[pid, parent][0], self.link(parent, pid).dec
            while True:
                try:
                    data = os.read(rfd, 1 << 16)
                except BlockingIOError:
                    break
                for frame in dec.feed(data):
                    frame = self.open(parent, frame)
                    got.append(pickle.loads(frame.meta,
                                            buffers=frame.buffers))
        return got

    def beat(self, pid: int) -> None:
        """Advance ``pid``'s heartbeat (called by the owning worker only)."""
        self._hb[pid] += 1

    def heartbeat(self, pid: int) -> int:
        """Current heartbeat count of ``pid`` (supervisor side)."""
        return self._hb[pid]

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
        for fds in self._pipes.values():
            for fd in fds:
                os.close(fd)
        self._pipes.clear()
        try:
            for view, mm in ((self._hb, self._hb_mm),
                             (self._segc, self._segc_mm),
                             (self._zc, self._zc_mm)):
                view.release()
                mm.close()
        except (BufferError, ValueError):  # pragma: no cover
            pass


class _FrameChannel(StreamLinks, LinkChannel):
    """The boundary round over a rank's pipes: the pipe fabric's half of
    :class:`~repro.backends.exchange.LinkChannel`.

    A pipe loses nothing, so every ``sync`` mode is the one round with no
    release round; the modes differ only in their link sets.  The links
    are :class:`~repro.backends.exchange.StreamLinks`, one pipe each way
    per peer — to every rank of the pool, so lease ids can go home to a
    rank that sits this run out.  The rank's control pipe is watched
    too: the parent aborts a run there when a peer died.
    """

    receipted = True

    def __init__(self, pid: int, nprocs: int, transport: FrameTransport,
                 run_id: int, ctrl: "_PipeLink", *, sync: str = "strict"):
        super().__init__(pid, nprocs, sync, run_id)
        self._transport = transport
        self._ctrl = ctrl
        #: This boundary's reaped lease ids, by owner, until a frame to
        #: the owner carries them home.
        self._owed: dict[int, list[int]] = {}
        #: ``(step, chunks)`` of the boundary's empty final.
        self._empty: tuple[int, list] = (-1, [])
        peers = [q for q in range(transport.nprocs) if q != pid]
        self._open_links({q: transport.link(pid, q) for q in peers},
                         {q: transport.fds(pid, q) for q in peers})
        self._watch(ctrl.fileno(), selectors.EVENT_READ, self._read_ctrl)
        transport.beat(pid)  # marks "the run actually started here"

    def _read_ctrl(self) -> None:
        if self._ctrl.aborted(self._run_id):
            raise Abort()

    def _ingest(self, peer: int, frame: Frame) -> None:
        self._file(self._transport.open(self._pid, frame))

    # -- the transport LinkChannel calls ------------------------------------

    def _enter(self, step: int, outbox: list[Packet],
               out_links: Sequence[int]) -> None:
        transport, pid = self._transport, self._pid
        # Heartbeat: one bump per superstep boundary makes "slow but
        # alive" visible to the supervisor; a flat counter past the stall
        # window is what distinguishes a deadlock from a long superstep.
        transport.beat(pid)
        # Fault-injection hook — one attribute load + None test when off.
        plan = faults._ACTIVE
        if plan is not None:
            plan.at_boundary(pid, step, self._nprocs, outbox)
        # Zero-copy lease upkeep: reap inbound leases whose payloads the
        # program dropped; their ids ride home piggybacked on this
        # boundary's frames.  TORN_LEASE discards them — the owner's
        # pool must grow, never alias.
        self._owed = transport.collect_releases(
            pid, discard=plan is not None and plan.tears_lease(pid, step))
        if plan is not None and plan.leaks_segment(pid, step):
            transport.leak_segment(pid)
        # An owner we owe no frame this boundary — outside the declared
        # out-links under elide, departed, or outside this run's nprocs
        # on a larger pool — gets its ids on a frame of their own.
        for owner in [q for q in self._owed if q not in out_links]:
            self._enqueue(owner, transport.encode(
                owner, TAG_LEASES, self._run_id, -1, pid,
                releases=self._owed.pop(owner)))

    def _send(self, peer: int, step: int, bucket: Sequence[Packet],
              volatile: bool) -> None:
        releases = self._owed.pop(peer, ())
        if bucket or releases:
            chunks = self._transport.encode(
                peer, TAG_PKT, self._run_id, step, self._pid,
                *encode_packets(bucket), releases)
        else:
            # Identical for every empty link of a boundary: encoded once.
            if self._empty[0] != step:
                self._empty = (step, self._transport.encode(
                    peer, TAG_PKT, self._run_id, step, self._pid,
                    *encode_packets(())))
            chunks = self._empty[1]
        self._enqueue(peer, chunks)

    def _signal(self, peer: int, tag: int, step: int) -> None:
        self._enqueue(peer, wire.encode_frame(tag, self._run_id, step,
                                              self._pid))

    def _pump(self) -> None:
        if self._ctrl.pending:  # an abort that came in with the run
            self._read_ctrl()
        self._select(None)

    def _settle(self, released: Collection[int]) -> None:
        """Pass only once every live link's queue is in its pipe: a
        frame still queued is not delivered, and its buffers may alias
        program arrays (the stream fallback)."""
        link = self._link
        while any(link[q].out for q in self._peers if q not in self._departed):
            self._pump()

    def _announce(self, tag: int, peers: Sequence[int]) -> None:
        """Signal ``tag`` to each of ``peers`` still in the run, then
        flush: they wait for it."""
        peers = [q for q in peers if q not in self._departed]
        for peer in peers:
            self._signal(peer, tag, 0)
        while self._unsent(q for q in peers if q not in self._departed):
            self._pump()

    def close(self) -> None:
        self._sel.close()  # the link state stays, for the next run


class _PipeLink(RankLink):
    """A rank's control link on the pipe fabric: its control pipe in,
    its result pipe out; lease ids go home as each frame is handled."""

    def __init__(self, pid: int, transport: FrameTransport):
        super().__init__(pid, *transport.fds(pid, transport.nprocs))
        self._transport = transport

    def channel(self, run_id: int, nprocs: int, sync: str) -> _FrameChannel:
        return _FrameChannel(self._rank, nprocs, self._transport, run_id,
                             self, sync=sync)

    def _open(self, frame: Frame) -> Frame:
        return self._transport.open(self._rank, frame)

    def _decode(self, frame: Frame) -> Any:
        return self._transport.decode_dispatch(self._rank,
                                               *wire.frame_object(frame))

    def _remesh(self, frame: Frame) -> None:
        self._transport.drop_links(self._rank, wire.frame_object(frame))

    def report(self, outcome: tuple) -> None:
        transport = self._transport
        write_all(self._wfd, transport.encode(
            transport.nprocs, TAG_RESULT, outcome[1], -1, self._rank,
            *encode_outcome(outcome)))


def _rank_main(pid: int, transport: FrameTransport,
               first: tuple | None) -> None:
    ctrl = _PipeLink(pid, transport)
    serve_rank(ctrl, ctrl.channel, pid, (Abort,), first)


class BspPool(WorkerPool):
    """A persistent set of ``p`` forked BSP workers on the pipe/shm fabric.

    A failed run (:class:`VirtualProcessorError`) costs nothing: what it
    left in the pipes is dropped by run id in the next run.  A crash
    re-forks only the dead workers (:meth:`_replace`); a deadlock
    rebuilds everything.

    Memory footprint: nothing is mapped or committed up-front.  A
    worker creates a 16 MiB segment per destination the first time a
    frame to it carries an out-of-band buffer, only the pages frames
    actually fill become resident, and released regions are reused
    before new ones are touched — a link in steady state keeps two
    regions of its frame size.
    """

    _oneshot = "ProcessBackend()"

    def __init__(self, nprocs: int, *, join_timeout: float = 120.0,
                 max_restarts: int = 5):
        super().__init__(nprocs, join_timeout, max_restarts)
        self._build()

    # -- lifecycle ----------------------------------------------------------

    def _build(self) -> None:
        self._transport = self._source = FrameTransport(self._capacity)
        self._procs = [self._fork(pid) for pid in range(self._capacity)]

    def _fork(self, pid: int) -> Any:
        proc = self._ctx.Process(
            target=_rank_main, args=(pid, self._transport, self._first),
            name=f"bsp-pool-{pid}", daemon=True)
        proc.start()
        return proc

    def _ctrl_fd(self, pid: int) -> int:
        return self._transport.fds(self._capacity, pid)[1]

    def _tell(self, pids: Sequence[int], tag: int, run_id: int = 0,
              meta: bytes | None = None) -> None:
        """One small control frame to each of ``pids``: a write the
        kernel takes whole, or — when a control pipe is full, its rank
        reading no more — none."""
        frame = b"".join(wire.encode_frame(tag, run_id, 0, -1, meta))
        for pid in pids:
            try:
                os.write(self._ctrl_fd(pid), frame)
            except BlockingIOError:
                pass

    def _teardown(self, *, graceful: bool) -> None:
        self._tell(range(self._capacity), wire.TAG_CLOSE)
        # join → terminate → kill, each stage reaped: a close() racing an
        # in-flight (or failed) run must never leave zombie children.
        join_escalating(self._procs, grace=5.0 if graceful else 0.5)
        self._transport.close()

    def _fabric_health(self) -> dict[str, Any]:
        zc_hits = zc_fallbacks = 0
        if not self._closed:
            try:
                zc_hits, zc_fallbacks = self._transport.zerocopy_stats()
            except (ValueError, OSError):  # pragma: no cover - closing race
                pass
        return {"zerocopy_hits": zc_hits, "zerocopy_fallbacks": zc_fallbacks}

    # -- the failure policy's verbs ----------------------------------------

    def _wake(self, dead: Sequence[int]) -> bool:
        """Abort the run on every survivor: its channel watches its
        control pipe, so one waiting on a frame the dead will never send
        unwinds (``Abort``) at once."""
        self._tell([q for q in range(self._capacity) if q not in dead],
                   wire.TAG_ABORT, self._run_id)
        return True

    def _replace(self, dead: Sequence[int], generation: int) -> bool:
        """Re-fork the dead workers onto their pipes.

        One invariant makes that safe: no replacement is forked until
        every survivor has dropped its link to the dead — queued bytes,
        decoder, and the leases the dead will never return — and both
        directions of the dead's pipes are drained.  The dead write
        nothing more, so an empty pipe stays empty, and every stream
        restarts at a frame boundary.
        """
        survivors = [q for q in range(self._capacity) if q not in dead]
        self._tell(survivors, wire.TAG_REMESH, generation,
                   pickle.dumps(list(dead)))
        if not self._await_acks("remeshed", generation, survivors):
            return False
        transport = self._transport
        transport.drop_links(self._capacity, dead)
        transport.drain(dead)
        # The victims' segments have no owner left to reuse them; their
        # replacements continue the name numbering from the fork-shared
        # counter, so sweeping the dead generation now cannot collide.
        # Survivors still holding views into these segments are safe —
        # unlink removes the name, not live mappings.
        transport.sweep_segments(dead)
        for pid in dead:
            self._procs[pid] = self._fork(pid)
        return True

    def _rebuild(self) -> None:
        self._teardown(graceful=False)
        self._build()

    # -- dispatch -----------------------------------------------------------

    def _encode(self, spec: tuple) -> tuple:
        return self._transport.encode_dispatch(spec)

    def _dispatch(self, run_id: int, nprocs: int, payload: tuple) -> None:
        transport, parent = self._transport, self._capacity
        run = wire.encode_frame(wire.TAG_RUN, run_id, nprocs, -1,
                                *encode_object(payload))
        # The leases of the results the caller has let go of go home
        # here, to ranks sitting this run out too.
        owed = transport.collect_releases(parent)
        for pid in range(parent):
            if pid in owed:
                write_all(self._ctrl_fd(pid), transport.encode(
                    pid, TAG_LEASES, run_id, -1, parent, releases=owed[pid]))
            if pid < nprocs:
                write_all(self._ctrl_fd(pid), run)


class ProcessBackend(PoolBackend):
    """One process per virtual processor; boundary all-to-all frame exchange."""

    name = "processes"
    _pool_type = BspPool

    def __init__(self, *, join_timeout: float = 120.0,
                 pool: BspPool | None = None):
        super().__init__(pool, join_timeout=join_timeout)

    @classmethod
    def pool(cls, nprocs: int, *, join_timeout: float = 120.0,
             max_restarts: int = 5) -> "ProcessBackend":
        """A backend bound to its own persistent :class:`BspPool`.

        Usable as a context manager::

            with ProcessBackend.pool(8) as backend:
                for config in sweep:
                    backend.run(program, 8, args=config)

        The pool's workers are forked once and reused by every ``run()``;
        exiting the ``with`` block shuts them down.

        ``max_restarts`` bounds the pool's fault-recovery budget (crashes
        and deadlocks each consume one unit); once spent, runs raise
        :class:`~repro.core.errors.PoolExhaustedError`.
        """
        backend = cls(
            join_timeout=join_timeout,
            pool=BspPool(nprocs, join_timeout=join_timeout,
                         max_restarts=max_restarts))
        backend._owns_pool = True
        return backend
