"""TCP socket backend — the paper's PC-LAN platform (Appendix B.3).

One OS process per virtual processor, connected in a full TCP mesh, so
the same Green BSP programs that run on the shared-memory and process
backends run across *separate machines*.  Communication still happens
only at superstep boundaries: each rank buckets its outgoing packets per
destination during the superstep and, at the boundary, ships **one
combined frame per peer** using the exact pickle-5 out-of-band layout of
:mod:`~repro.backends.frames` — so ``seq``/``h`` accounting (and hence
every ledger) is bit-identical to the other backends.

``bspSynch`` is the one boundary round of
:class:`~repro.backends.exchange.LinkChannel`, which this module only
supplies a transport for: in
:func:`~repro.backends.exchange.peer_order` (B.3's pairing discipline)
every rank sends each out-link exactly one frame — its combined bucket,
or an empty final — and passes once every live in-link's frame is in
hand: the all-to-all is the barrier, as in B.2, so a boundary costs one
frame per live link, data-bearing or not.  Per-link TCP FIFO bounds
run-ahead to one superstep (early frames are stashed by step), and the
link journal snapshots every frame's payload bytes, so a frame that
must be replayed is the frame that was sent, whatever the program did
to its arrays since.

``strict`` and ``relaxed`` are that one round; ``sync="elide"`` uses a
declared :class:`~repro.bsplib.CommPattern` to skip undeclared links
entirely, and a checkpoint cut uses every link in every mode.  All
modes deliver bit-identical results and ledgers, and in every mode a
dropped frame (DROP_FRAME fault injection) stalls its receiver forever,
which supervision reports as a
:class:`~repro.core.errors.DeadlockError`.

All sockets are non-blocking and serviced by one
:mod:`selectors`-based event loop per rank, so serialization, sends, and
receives overlap — the loop *is* Appendix B.3's "receivers actively
empty the pipe" discipline, which is what makes two peers pushing large
boundary frames at each other deadlock-free.

Supervision is the fabric-independent :mod:`~repro.backends.pool` core;
this fabric's *result source* is the control plane: every rank keeps a
control connection to its supervisor carrying a heartbeat frame per
boundary and the final outcome, so a SIGKILLed rank surfaces as
:class:`~repro.core.errors.WorkerCrashError` within milliseconds and
flat heartbeats at the deadline become a
:class:`~repro.core.errors.DeadlockError`.  Mesh sockets carry
``SO_KEEPALIVE`` so a vanished *machine* (no FIN, no RST) eventually
dies too.  Peer-death propagates in-band: EOF from a peer that never
sent its departure sentinel aborts the survivor's exchange.

The transport is *survivable* (DESIGN "Failure-mode matrix").  Every
mesh frame carries a sequenced, CRC-protected envelope; each link keeps
a retransmit journal of unacked frames, so a CRC-damaged frame is
NACKed and resent surgically, while structural stream damage, a dropped
connection, or an injected RST resets just that link: the pair's higher
rank re-dials the lower rank's still-bound listener (session epoch =
launch token folded with the mesh generation) and replays the journal
from the peer's receive cursor.  Ledgers and results stay bit-identical
through all of it.  A *dead rank* is healed one level up: the mesh
supervisor aborts the run on the survivors, forks a replacement, and
the survivors link to it at the next generation (``TAG_REMESH``), so a
checkpointed run resumes on the healed mesh without tearing down the
surviving processes or their links.  None of it has an off-switch.

Behind the pool core, :class:`TcpMesh` supplies only

* **build / teardown**: fork ``p`` ranks on localhost, each on a
  listener the parent binds — so every address is known up front, there
  is no port race and no rendezvous — which dial the supervisor's
  control listener and link into a full mesh.
* **dispatch**: one ``TAG_RUN`` control frame per rank carrying
  ``(program, args, kwargs, sync)``, encoded once: array arguments
  follow the header as chunks and appear in no pickle stream.
* **the failure policy's verbs**: survivors are woken with
  ``TAG_ABORT`` over their control sockets; a dead rank is replaced by a
  fork that the survivors link to at the next mesh generation
  (``TAG_REMESH``); and a failed run is followed by a rebuild.

:class:`TcpSpmdBackend` is the multi-host entry: one already-launched
rank per machine (``python -m repro.harness launch-tcp --rank r ...``);
every invocation runs the same program on the shared
:func:`~repro.backends.pool.run_rank` and all-gathers outcomes at the
end, and runs follow each other on one mesh as on a pool.  After a lost
peer, ``remesh()`` re-admits the surviving ranks (and a relaunched
replacement) at the next generation.
"""

from __future__ import annotations

import itertools
import os
import pickle
import select
import selectors
import socket
import struct
import time
from typing import Any, Sequence

from .. import faults
from ..core.errors import (
    BspConfigError,
    PacketError,
    RemeshError,
    SynchronizationError,
    WorkerCrashError,
)
from ..core.packets import Packet
from .base import Backend, BackendRun, Program, check_sync
from .exchange import LinkChannel, StreamLinks
from .frames import TAG_DEAD, TAG_LEFT, TAG_PKT, Frame, encode_object
from .pool import (
    Abort,
    PoolBackend,
    PoolHealth,
    RankLink,
    WorkerPool,
    encode_outcome,
    finish_run,
    join_escalating,
    run_rank,
    serve_rank,
    worker_table,
    write_all,
)
from . import tcp_wire as wire
from .tcp_launch import (
    LinkState,
    MeshFabric,
    bind_listener,
    close_quietly,
    connect_retry,
    link_fabric,
    relink_accept,
    relink_dial,
    rendezvous_fabric,
    tune_mesh_socket,
)

_TOKEN_COUNTER = itertools.count(1)

#: NACK-driven resends of one sequence number before the channel gives
#: up on surgical repair and resets the whole link (journal replay).
_MAX_RETRANSMITS = 4

#: Longest a rank whose data traffic proves liveness goes without a
#: control-socket heartbeat.  Well under the supervisor's
#: flat-heartbeat stall window (>= 1 s), which keeps deadlock triage valid.
_HEARTBEAT_S = 0.25

#: How long a dropped link may take to come back — the dialer's re-dial
#: budget, the acceptor's wait for that dial — before the peer is lost.
_RECONNECT_S = 5.0

#: How long a closing channel waits for its peers' EOF after its own.
_LINGER_S = 2.0


def _next_token() -> int:
    """A launch token no stale mesh on this host will guess."""
    return (os.getpid() << 20) ^ next(_TOKEN_COUNTER)


class _PeerLost(BaseException):
    """A mesh peer's stream ended without a departure sentinel."""

    def __init__(self, peer: int):
        super().__init__(f"peer {peer} connection lost mid-run")
        self.peer = peer


# ---------------------------------------------------------------------------
# Rank side: the mesh channel (event loop + link repair)
# ---------------------------------------------------------------------------


class _MeshChannel(StreamLinks, LinkChannel):
    """The boundary round over a socket mesh (one rank's view): the socket
    fabric's half of :class:`~repro.backends.exchange.LinkChannel`.

    An empty bucket goes out as an empty final — it *is* the "no data"
    announcement; per-link TCP FIFO bounds run-ahead to one superstep;
    every mode runs the one round.  The links are
    :class:`~repro.backends.exchange.StreamLinks`, one socket each; what
    this class adds is a sequenced and journaled send path and link
    repair.

    ``fabric`` is what a mesh that outlives the run hands in: the link
    state that continues across runs, and the means to re-dial a
    dropped link.  With a ``fabric`` the channel heals links, watches
    ``ctrl`` for supervisor aborts, and leaves the sockets open at
    :meth:`close`; without one (a pool of one run) a lost link aborts
    the run and :meth:`close` closes the sockets.
    """

    def __init__(self, rank: int, nprocs: int,
                 socks: dict[int, socket.socket], run_id: int,
                 ctrl: "_CtrlLink | None", *, sync: str = "strict",
                 fabric: MeshFabric | None = None):
        super().__init__(rank, nprocs, sync, run_id)
        self._socks = dict(socks)
        self._ctrl = ctrl
        self._fabric = fabric
        #: Heartbeat piggybacking state (relaxed/elide): inbound data
        #: frames since the last control beat, and when that beat was.
        self._data_beats = 0
        self._last_beat = time.monotonic()
        self._hb_sent = (0, 0)
        #: Peers whose reconnect we are passively awaiting (they dial
        #: us, per the pair rule) -> monotonic deadline.
        self._waiting: dict[int, float] = {}
        self._gathering = False
        self._results: dict[int, Any] = {}
        #: ``(step, chunks)`` of the boundary's empty final.
        self._empty: tuple[int, list] = (-1, [])
        #: ``id(exporter) -> (view, bytes)``: this boundary's journal
        #: copies, one per buffer however many peers it goes to.
        self._copies: dict[int, tuple[memoryview, bytes]] = {}
        for sock in self._socks.values():
            sock.setblocking(False)
        links = fabric.links if fabric is not None else {
            peer: LinkState() for peer in self._socks}
        self._open_links(
            links,
            {peer: (sock.fileno(),) * 2 for peer, sock in self._socks.items()})
        #: Frames of this run that the last run's channel read from a
        #: faster peer, filed one per :meth:`_pump`: inside the run.
        self._held: list[Frame] = []
        for link in links.values():
            self._held += link.held
            link.held = []
        self._ctrl_watched = False
        if fabric is not None:
            # Inbound relink dials arrive on the fabric's own listener.
            fabric.listener.setblocking(False)
            self._watch(fabric.listener.fileno(), selectors.EVENT_READ,
                        self._accept_relinks)
            if ctrl is not None:
                # Watch the control socket inside the mesh event loop so
                # a supervisor TAG_ABORT interrupts a rank stalled
                # mid-barrier (its peers are dead; no in-band frame is
                # coming).
                self._watch(ctrl.fileno(), selectors.EVENT_READ,
                            self._read_ctrl)
                self._ctrl_watched = True
        if ctrl is not None:
            ctrl.beat(-1)  # marks "the run actually started here"

    # -- plumbing ------------------------------------------------------------

    def _post(self, peer: int, chunks: Sequence[Any], *,
              corrupt: bool = False, dup: bool = False) -> None:
        """Sequence, journal, and transmit one encoded frame to ``peer``.

        The frame gets the link's next sequence number (plus a
        piggybacked cumulative ack) via :func:`wire.reenvelope` and a
        journal entry retained until the peer acks past it.  The journal
        snapshots the payload bytes: the chunks may alias live program
        arrays that mutate before any ack arrives.  A buffer is copied
        once per boundary, so every peer it goes to journals the same
        bytes (the view in ``_copies`` keeps its exporter's id unique).
        ``corrupt``/``dup`` are fault-injection knobs: the journal always
        keeps the clean single copy, so recovery repairs the damage.
        """
        link = self._link[peer]
        seq = link.tx_seq
        link.tx_seq += 1
        out = wire.reenvelope(chunks, seq, link.rx_next)
        copies = self._copies
        entry = []
        for c in out:
            if not isinstance(c, bytes):
                held = copies.get(id(c.obj))
                if held is None:
                    held = copies[id(c.obj)] = (c, bytes(c))
                c = held[1]
            entry.append(c)
        link.journal[seq] = entry
        if corrupt:
            trailer = bytes(out[-1])
            out = out[:-1] + [bytes((trailer[0] ^ 0xFF,)) + trailer[1:]]
        self._enqueue(peer, out)
        if dup:
            self._enqueue(peer, out)

    def _drop_sock(self, peer: int) -> None:
        """Discard ``peer``'s socket and unsent bytes (the journal replays
        them), keeping the rest of the link state."""
        self._forget(peer)
        sock = self._socks.pop(peer, None)
        if sock is not None:
            close_quietly(sock)

    def _close_peer(self, peer: int) -> None:
        self._eof.add(peer)
        self._waiting.pop(peer, None)
        self._drop_sock(peer)

    def _link_down(self, peer: int) -> None:
        """A peer's connection died: heal it or abort the run.

        With a fabric, the link is re-established under the rendezvous
        pair rule — the higher rank of the pair re-dials the lower's
        still-bound listener; the lower waits for the dial (serviced by
        ``_pump`` via the listener registration), with a deadline.
        Everything unacked replays from the journal.
        """
        if peer in self._departed or peer in self._eof:
            self._close_peer(peer)
            return
        fabric = self._fabric
        if fabric is None:
            self._close_peer(peer)
            raise _PeerLost(peer)
        self._drop_sock(peer)
        link = self._link[peer]
        if fabric.dials(peer):
            deadline = time.monotonic() + _RECONNECT_S
            while True:
                try:
                    sock, peer_rx = relink_dial(fabric, peer, link.rx_next,
                                                deadline, self._dial_pause)
                    break
                except (SynchronizationError, OSError):
                    if time.monotonic() >= deadline:
                        self._close_peer(peer)
                        raise _PeerLost(peer)
            self._resume_link(peer, sock, peer_rx)
        else:
            self._waiting[peer] = time.monotonic() + _RECONNECT_S

    def _resume_link(self, peer: int, sock: socket.socket,
                     peer_rx: int) -> None:
        """Splice a fresh connection into the link, replaying the journal."""
        link = self._link[peer]
        if any(s not in link.journal for s in range(peer_rx, link.tx_seq)):
            # The peer claims not to hold a frame it already acked (only
            # a peer that lies about its cursor can): the entry is gone
            # and the link cannot be made whole.
            close_quietly(sock)
            self._close_peer(peer)
            raise _PeerLost(peer)
        sock.setblocking(False)
        self._waiting.pop(peer, None)
        self._eof.discard(peer)
        self._socks[peer] = sock
        self._fds[peer] = (sock.fileno(),) * 2
        self._fabric.socks[peer] = sock
        link.out.clear()
        link.dec = wire.FrameDecoder()  # mid-frame debris died with the sock
        link.attempts.clear()
        link.reconnects += 1
        self._update_mask(peer)
        for s in range(peer_rx, link.tx_seq):
            self._enqueue(peer, wire.reenvelope(link.journal[s], s,
                                                link.rx_next))

    def _accept_relinks(self) -> None:
        """Service inbound reconnect dials on the fabric listener."""
        fabric = self._fabric
        while True:
            try:
                sock, _ = fabric.listener.accept()
            except (BlockingIOError, InterruptedError, OSError):
                return
            got = relink_accept(fabric, sock,
                                lambda p: self._link[p].rx_next)
            if got is None:
                continue
            peer, peer_rx = got
            if not (0 <= peer < self._nprocs and peer != self._pid
                    and peer in self._link) or peer in self._departed:
                close_quietly(sock)
                continue
            if peer in self._socks:  # stale half-open socket superseded
                self._drop_sock(peer)
            self._resume_link(peer, sock, peer_rx)

    def _dial_pause(self, seconds: float) -> None:
        """One re-dial backoff step, spent watching the control socket:
        a dead peer's survivors must not hold the heal up by it."""
        if not self._ctrl_watched:
            time.sleep(seconds)
        elif select.select([self._ctrl], [], [], seconds)[0]:
            self._read_ctrl()  # raises Abort on supervisor abort

    def _read_ctrl(self) -> None:
        """Drain the watched control socket; supervisor aborts raise."""
        aborted = self._ctrl.aborted(self._run_id)
        if aborted is None:  # supervisor hung up
            self._watch(self._ctrl.fileno(), 0, None)
            self._ctrl_watched = False
        elif aborted:
            raise Abort()

    def _inject_reset(self, peer: int) -> None:
        """Fault injection: abort the TCP connection (RST, not FIN)."""
        sock = self._socks.get(peer)
        if sock is not None:
            try:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                struct.pack("ii", 1, 0))
            except OSError:
                pass
        self._link_down(peer)

    def _pump(self, timeout: float = 0.05) -> None:
        if self._held:
            self._file(self._held.pop(0))  # a TAG_DEAD raises, in the run
            return
        if self._waiting:
            now = time.monotonic()
            for peer, deadline in list(self._waiting.items()):
                if now > deadline:
                    self._close_peer(peer)
                    raise _PeerLost(peer)
        if self._fabric is None and not any(self._mask.values()):
            return  # nothing registered: select would only sleep
        self._select(timeout)

    def _link_damaged(self, peer: int, exc: PacketError) -> None:
        """Structural stream damage: the framing itself cannot be
        trusted, so surgical NACK repair is impossible — reset the
        connection and replay the journal."""
        if self._fabric is not None and peer not in self._departed:
            self._link_down(peer)
            return
        raise exc

    def _ingest(self, peer: int, frame: Frame) -> None:
        """Link-level filter: NACK/dup/reorder handling before dispatch."""
        link = self._link[peer]
        if frame.tag == wire.TAG_CORRUPT:
            # CRC mismatch, framing intact: ask for exactly that frame.
            if frame.seq < 0:
                self._link_down(peer)  # unsequenced: cannot NACK
                return
            self._enqueue(peer, wire.encode_frame(
                wire.TAG_NACK, self._run_id, frame.seq, self._pid))
            return
        if frame.tag == wire.TAG_NACK:
            self._retransmit(peer, frame.step)
            return
        if frame.seq >= 0:
            if frame.ack > link.peer_ack:
                for s in range(link.peer_ack, frame.ack):
                    link.journal.pop(s, None)
                    link.attempts.pop(s, None)
                link.peer_ack = frame.ack
            if frame.seq < link.rx_next:
                return  # retransmit overlap or injected duplicate
            if frame.seq > link.rx_next:
                link.stash[frame.seq] = frame  # reorder (post-NACK) gap
                return
            link.rx_next += 1
            self._file(frame)
            while link.rx_next in link.stash:
                nxt = link.stash.pop(link.rx_next)
                link.rx_next += 1
                self._file(nxt)
            return
        self._file(frame)

    def _retransmit(self, peer: int, seq: int) -> None:
        """Resend journal entry ``seq`` in answer to a peer NACK."""
        link = self._link[peer]
        n = link.attempts.get(seq, 0) + 1
        link.attempts[seq] = n
        entry = link.journal.get(seq)
        if entry is None or n > _MAX_RETRANSMITS:
            # Either the damage outlived the retry budget or the peer
            # NACKed a frame it already acked (the entry is gone):
            # escalate to a full link reset.
            self._link_down(peer)
            return
        link.retransmits += 1
        self._enqueue(peer, wire.reenvelope(entry, seq, link.rx_next))

    def _file(self, frame: Frame) -> None:
        """The round's filing, plus what only sockets carry: the SPMD
        outcomes (a peer's ``TAG_DEAD`` precedes its outcome there), a
        faster SPMD peer's next run (held on its link for the next
        channel), and the data frames that prove liveness to
        :meth:`_beat`."""
        if frame.run_id > self._run_id:
            self._link[frame.src].held.append(frame)
            return
        tag = frame.tag
        if tag == wire.TAG_RESULT:
            if frame.run_id == self._run_id:
                self._results[frame.src] = wire.frame_object(frame)
        elif tag != TAG_DEAD or not self._gathering:
            if tag == TAG_PKT:
                self._data_beats += 1
            super()._file(frame)

    # -- the transport LinkChannel calls ------------------------------------

    def _beat(self, step: int) -> None:
        """Heartbeat, piggybacked on data traffic.

        Inbound data frames prove the fabric is moving, so a busy rank
        may skip the control-socket beat — but never for longer than
        :data:`_HEARTBEAT_S`.  A deadlocked rank stops reaching
        boundaries, stops beating either way, and still goes flat.

        Beats also piggyback this rank's cumulative (retransmits,
        reconnects) counters whenever they changed, so the supervisor's
        ``health()`` sees link-level repair activity live.
        """
        if self._ctrl is None:
            return
        now = time.monotonic()
        busy = self._data_beats > 0
        self._data_beats = 0
        if busy and now - self._last_beat < _HEARTBEAT_S:
            return
        self._last_beat = now
        self._ctrl.beat(step, self._counters())

    def _counters(self) -> bytes | None:
        """This rank's (retransmits, reconnects), pickled for a beat, if
        they changed since a beat last carried them."""
        links = self._link.values()
        totals = (sum(link.retransmits for link in links),
                  sum(link.reconnects for link in links))
        if totals == self._hb_sent:
            return None
        self._hb_sent = totals
        return pickle.dumps(totals)

    def _enter(self, step: int, outbox: list[Packet],
               out_links: Sequence[int]) -> None:
        self._beat(step)
        # Fault-injection hook — one attribute load + None test when off.
        plan = faults._ACTIVE
        if plan is not None:
            plan.at_boundary(self._pid, step, self._nprocs, outbox)
            if plan.has_network_faults():
                for peer in plan.reset_peers(
                        self._pid, step,
                        [q for q in self._peers if q in self._socks]):
                    self._inject_reset(peer)

    def _send(self, peer: int, step: int, bucket: Sequence[Packet]) -> None:
        """Post one boundary frame; the chunks alias live program arrays
        until :meth:`_settle` (the journal holds a copy)."""
        plan = faults._ACTIVE
        corrupt = dup = False
        if plan is not None:
            delay = plan.slow_link(self._pid, step, peer)
            if delay:
                time.sleep(delay)
            corrupt = plan.corrupts_frame(self._pid, step, peer)
            dup = plan.duplicates_frame(self._pid, step, peer)
        if bucket:
            chunks = wire.encode_packet_frame(self._run_id, step, self._pid,
                                              bucket)
        else:
            # Identical for every empty link of a boundary: encoded once
            # (_post's reenvelope re-addresses it per peer).
            if self._empty[0] != step:
                self._empty = (step, wire.encode_packet_frame(
                    self._run_id, step, self._pid, ()))
            chunks = self._empty[1]
        self._post(peer, chunks, corrupt=corrupt, dup=dup)

    def _signal(self, peer: int, tag: int, step: int) -> None:
        self._post(peer, wire.encode_frame(tag, self._run_id, step,
                                           self._pid))

    def _settle(self) -> None:
        """Pass only once the outbound queues are drained — payload
        memoryviews reference live program arrays, so returning earlier
        would let the program mutate bytes still queued on a socket."""
        while self._unsent():
            self._pump()
        self._copies.clear()

    def _announce(self, tag: int, peers: Sequence[int]) -> None:
        """Post one ``tag`` sentinel to every live link of ``peers``, then
        flush.  A departed peer is not skipped: in SPMD mode it still
        pumps this link through the result all-gather, and must see our
        LEFT before our EOF; only an already-dead link is."""
        self._post_all(peers, wire.encode_frame(tag, self._run_id, 0,
                                                self._pid),
                       30.0 if tag == TAG_LEFT else 5.0)

    def _post_all(self, peers: Sequence[int], chunks: list,
                  timeout: float) -> None:
        """Post one frame on every live link of ``peers``, then flush."""
        for peer in peers:
            if peer in self._eof:
                continue
            try:
                self._post(peer, chunks)
            except _PeerLost:
                continue  # as in _drain: the other peers still need theirs
        self._copies.clear()
        self._drain(timeout)

    def _drain(self, timeout: float) -> None:
        """Best-effort flush of every outbound queue."""
        deadline = time.monotonic() + timeout
        while self._unsent() and time.monotonic() < deadline:
            try:
                self._pump()
            except Abort:
                break  # the run is over either way
            except _PeerLost:
                # That link's queue died with it (_close_peer popped it);
                # the other peers still need their frames — a departing
                # rank that stops flushing LEFTs here turns one lost link
                # into a cascade of peers seeing EOF with no LEFT.
                continue

    # -- SPMD result all-gather ---------------------------------------------

    def broadcast_result(self, outcome: tuple) -> None:
        meta, buffers = encode_outcome(outcome)
        # This rank's own entry is what its peers will decode.
        self._results[self._pid] = pickle.loads(meta, buffers=buffers)
        self._post_all(self._peers, wire.encode_frame(
            wire.TAG_RESULT, self._run_id, 0, self._pid, meta, buffers), 30.0)

    def gather_results(self, timeout: float) -> list[tuple]:
        """Every rank's ``(tag, a, b)`` outcome, by rank.  A closed link
        brings no outcome, so the gather raises as soon as every missing
        rank's link is closed, or once ``timeout`` passes."""
        self._gathering = True  # a peer's TAG_DEAD precedes its outcome
        deadline = time.monotonic() + timeout
        while missing := [q for q in self._peers if q not in self._results]:
            if set(missing) <= self._eof:
                raise SynchronizationError(
                    f"links to ranks {missing} closed before their outcomes")
            if time.monotonic() > deadline:
                raise SynchronizationError(
                    f"timed out gathering outcomes from ranks {missing}")
            self._pump(0.1)
        return [(oc[0], oc[3], oc[4])
                for oc in map(self._results.get, range(self._nprocs))]

    def close(self) -> None:
        """End the run on this channel; without a fabric (a pool of one
        run) that also closes the sockets."""
        # Final counter flush: beats are throttled while data traffic
        # proves liveness, so a short run can finish with repair counters
        # the supervisor never saw.  One unconditional beat here closes
        # that gap.
        meta = None if self._ctrl is None else self._counters()
        if meta is not None:
            self._ctrl.beat(-1, meta)
        if self._fabric is None:
            self._linger()
            for sock in self._socks.values():
                close_quietly(sock)
        self._sel.close()  # forgets every registration with it

    def _linger(self) -> None:
        """Say EOF on every link, then read each one to its peer's EOF.

        ``close()`` on a socket with unread inbound — a slower peer's
        LEFT, crossing ours — makes the kernel answer RST instead of
        FIN, and the RST can reach that peer before it has read our
        LEFT: it then reports a finished run as aborted.  So half-close,
        keep pumping (which files the late LEFTs) until every peer has
        said EOF too, and give up on those that take :data:`_LINGER_S`.
        """
        for sock in self._socks.values():
            try:
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass
        deadline = time.monotonic() + _LINGER_S
        while any(self._mask.values()) and time.monotonic() < deadline:
            try:
                self._pump()
            except (Abort, _PeerLost, PacketError):
                continue  # the run is over; keep reading the links out


# ---------------------------------------------------------------------------
# Rank side: control link + process entry
# ---------------------------------------------------------------------------


class _CtrlLink(RankLink):
    """A rank's control connection to its supervisor — its
    :func:`~repro.backends.pool.serve_rank` link — and the mesh fabric
    the rank's runs use, which a remesh replaces."""

    def __init__(self, sock: socket.socket, rank: int):
        # The link reads and writes the fd, and waits with no deadline.
        os.set_blocking(sock.fileno(), False)
        super().__init__(rank, sock.fileno(), sock.fileno())
        self._sock = sock
        self.fabric: MeshFabric | None = None

    def _decode(self, frame: Frame) -> Any:
        return wire.frame_object(frame)

    def _remesh(self, frame: Frame) -> None:
        link_fabric(self.fabric, *wire.frame_object(frame))

    def beat(self, step: int, meta: bytes | None = None) -> None:
        try:
            write_all(self._wfd, wire.encode_frame(
                wire.TAG_HB, 0, step, self._rank, meta))
        except OSError:  # supervisor gone; the run is ending anyway
            pass

    def report(self, outcome: tuple) -> None:
        # The stream guarantees this frame precedes our EOF, so the
        # supervisor's "EOF before result" test is exactly "crashed".
        write_all(self._wfd, wire.encode_frame(
            wire.TAG_RESULT, outcome[1], 0, self._rank,
            *encode_outcome(outcome)))

    def close(self) -> None:
        close_quietly(self._sock)


def _connect_ctrl(parent_addr: tuple[str, int], rank: int) -> _CtrlLink:
    # Retried with backoff+jitter: a freshly forked rank can dial before
    # the supervisor's accept loop is servicing the listener backlog.
    sock = connect_retry(parent_addr, time.monotonic() + 30.0,
                         what="supervisor control listener")
    write_all(sock.fileno(), wire.encode_frame(wire.TAG_HELLO, 0, 0, rank))
    return _CtrlLink(sock, rank)


def _start_rank(rank: int, capacity: int, parent_addr: tuple[str, int],
                listener: socket.socket, token: int, generation: int,
                table: dict, forked: Sequence[int],
                first: tuple | None) -> None:
    """A mesh rank's process: dial the supervisor, link to every other
    rank on the ``listener`` it inherits (:func:`link_fabric`), then
    :func:`~repro.backends.pool.serve_rank`."""
    ctrl = _connect_ctrl(parent_addr, rank)
    ctrl.fabric = link_fabric(
        MeshFabric(rank, capacity, {}, listener, {}, table[0], token),
        generation, table, forked)
    ctrl.report(("remeshed", generation, rank, None, None))  # joined

    def make_channel(run_id: int, nprocs: int, sync: str) -> _MeshChannel:
        # Link state (decoder, sequence numbers, journal) lives in the
        # fabric and persists across runs; leftover frames of a failed
        # run are dropped by run_id.  A pool of one run hands the
        # channel no fabric: it has no supervisor abort path, so waiting
        # out a reconnect window on a *dead* peer would only delay the
        # teardown.
        fabric = ctrl.fabric
        socks = {q: sock for q, sock in fabric.socks.items() if q < nprocs}
        return _MeshChannel(rank, nprocs, socks, run_id, ctrl, sync=sync,
                            fabric=None if first else fabric)

    serve_rank(ctrl, make_channel, rank, (Abort, _PeerLost), first)
    ctrl.fabric.close()
    ctrl.close()


# ---------------------------------------------------------------------------
# Supervisor side: control-plane links and supervised collection
# ---------------------------------------------------------------------------


class _Link:
    """Supervisor's view of one rank's control connection."""

    __slots__ = ("sock", "dec", "eof", "rank")

    def __init__(self, sock: socket.socket):
        # NODELAY above all: a TAG_RUN written under Nagle waits out the
        # rank's delayed ACK (~40 ms per pooled run).
        tune_mesh_socket(sock)
        self.sock = sock
        self.dec = wire.FrameDecoder()
        self.eof = False
        self.rank: int | None = None  # known once TAG_HELLO arrives

    def close(self) -> None:
        close_quietly(self.sock)


class _CtrlPlane:
    """The supervisor's end of every rank's control connection — and the
    pool core's *result source* over them.

    Ranks dial ``listener`` and introduce themselves (``TAG_HELLO``),
    then stream one ``TAG_HB`` per boundary (some carrying the rank's
    link-repair counters) and their outcomes (``TAG_RESULT``).  Frames
    are filed whenever they are read and handed out by the next
    :meth:`poll`.
    """

    def __init__(self, listener: socket.socket, capacity: int):
        self.listener = listener
        self._capacity = capacity
        self.links: dict[int, _Link] = {}
        #: Accepted connections that have not said hello yet.
        self.anon: list[_Link] = []
        #: Per-rank (retransmits, reconnects) piggybacked on heartbeats.
        self.stats: dict[int, tuple] = {}
        self._beats = [0] * capacity
        self._inbox: list[tuple] = []

    def _read(self) -> None:
        """Adopt every rank dialing in, then file everything currently
        readable on any link."""
        while True:
            try:
                sock, _ = self.listener.accept()
            except (BlockingIOError, socket.timeout, OSError):
                break
            self.anon.append(_Link(sock))
        for link in self.anon + list(self.links.values()):
            while not link.eof:
                try:
                    data = link.sock.recv(1 << 16, socket.MSG_DONTWAIT)
                except (BlockingIOError, InterruptedError):
                    break
                except OSError:
                    data = b""
                if not data:
                    link.eof = True
                    break
                for frame in link.dec.feed(data):
                    self._handle(link, frame)
        self.anon = [link for link in self.anon if not link.eof]

    def _handle(self, link: _Link, frame: Frame) -> None:
        if frame.tag == wire.TAG_HELLO:
            rank = frame.src
            if isinstance(rank, int) and 0 <= rank < self._capacity:
                link.rank = rank
                self.links[rank] = link
                if link in self.anon:
                    self.anon.remove(link)
        elif link.rank is None:
            pass  # a stranger on the listener: unheard until it hangs up
        elif frame.tag == wire.TAG_HB:
            self._beats[link.rank] += 1
            if frame.meta is not None:
                try:
                    self.stats[link.rank] = pickle.loads(frame.meta)
                except Exception:
                    pass  # malformed piggyback: the beat still counts
        elif frame.tag == wire.TAG_RESULT:
            self._inbox.append(wire.frame_object(frame))

    def close(self) -> None:
        for link in list(self.links.values()) + self.anon:
            link.close()
        self.links, self.anon = {}, []
        close_quietly(self.listener)

    # -- result source --------------------------------------------------------

    def waitables(self) -> list:
        """The listener and every live link: a build or heal reacts the
        moment a rank dials in or speaks (MTTR is the product there)."""
        return [self.listener] + [link.sock for link in
                                  self.anon + list(self.links.values())
                                  if not link.eof]

    def poll(self) -> list[tuple]:
        self._read()
        got, self._inbox = self._inbox, []
        return got

    def heartbeat(self, pid: int) -> int:
        return self._beats[pid]


# ---------------------------------------------------------------------------
# The backends
# ---------------------------------------------------------------------------


class TcpMesh(WorkerPool):
    """A persistent local TCP mesh: ``p`` rank processes alive across runs.

    Rendezvous + full-mesh connect cost tens of milliseconds, so a
    harness sweep keeps the ranks and ships ``(program, args)`` per run
    by pickle (module-level callables only).

    A rank *crash* is healed in place: only the dead ranks are re-forked,
    and only the links to them are made anew at the next mesh
    generation — every link between survivors, and every survivor
    process, carries on.  A checkpointed ``bsp_run(..., retries=...)``
    thus resumes on the same mesh without paying a build (DESIGN
    "Supervision and failure modes" has the measured heal against a
    rebuild).  After any other failed run the mesh is rebuilt: only the
    ranks know which of their links the run left down.
    """

    _noun = "mesh"
    _oneshot = "TcpBackend()"

    def __init__(self, nprocs: int, *, host: str = "127.0.0.1",
                 join_timeout: float = 120.0, max_restarts: int = 5):
        super().__init__(nprocs, join_timeout, max_restarts)
        self._host = host
        #: Folded link-repair totals of ranks that no longer exist (the
        #: live ranks' are in the control plane's ``stats``).
        self._stats_base = (0, 0)
        self._token = 0
        self._parent_addr: tuple[str, int] | None = None
        #: Every rank's listener address (bound here, inherited by the rank).
        self._table: dict[int, tuple[str, int]] = {}
        self._build()

    # -- lifecycle ----------------------------------------------------------

    def _fork(self, rank: int, generation: int, forked: Sequence[int]) -> Any:
        """Fork ``rank`` on a listener bound here, to link to every other
        rank at ``generation`` (``forked``: the ranks new with it).  Forks
        go in rank order, each with only its own listener open: a rank
        dials the lower ones, whose addresses it is handed."""
        listener = bind_listener(self._host)
        self._table[rank] = listener.getsockname()
        try:
            proc = self._ctx.Process(
                target=_start_rank,
                args=(rank, self._capacity, self._parent_addr, listener,
                      self._token, generation, dict(self._table), forked,
                      self._first),
                name=f"bsp-tcp-pool-{rank}",
                daemon=True,
            )
            proc.start()
        finally:
            listener.close()  # the rank inherited it
        return proc

    def _build(self) -> None:
        self._token = _next_token()
        # The parent listener stays bound for the life of the mesh:
        # replacement ranks forked by a heal dial it to register.
        parent_listener = bind_listener(self._host)
        self._parent_addr = parent_listener.getsockname()
        parent_listener.setblocking(False)
        self._source = _CtrlPlane(parent_listener, self._capacity)
        ranks = range(self._capacity)
        self._procs = [self._fork(rank, 0, ranks) for rank in ranks]
        # A pool of one run goes straight to the gather, which adopts the
        # ranks as they dial in; a persistent mesh dispatches over every
        # rank's control link, so it waits until all have joined.
        if self._first is not None or \
                self._await_acks("remeshed", 0, range(self._capacity)):
            return
        dead = self._dead()
        detail = worker_table(self._procs, [None] * self._capacity,
                              self._source,
                              [time.monotonic()] * self._capacity)
        self._teardown(graceful=False)
        if dead:
            proc = self._procs[dead[0]]
            raise WorkerCrashError(dead[0], proc.exitcode, os_pid=proc.pid,
                                   detail=detail)
        raise SynchronizationError(
            f"tcp mesh build timed out before every rank joined ({detail})")

    def _teardown(self, *, graceful: bool) -> None:
        plane = self._source
        for link in plane.links.values():
            try:
                write_all(link.sock.fileno(), wire.encode_frame(
                    wire.TAG_CLOSE, 0, 0, -1))
            except OSError:
                pass
        join_escalating(self._procs, grace=5.0 if graceful else 0.5)
        plane.close()

    def _fold_stats(self, ranks: Sequence[int] | None = None) -> None:
        """Fold (a subset of) per-rank link counters into the base.

        Called before a rank process is replaced or the mesh is rebuilt,
        so ``health()`` totals survive the process that produced them.
        """
        stats = self._source.stats
        base_rt, base_rc = self._stats_base
        for rank in list(stats) if ranks is None else ranks:
            rt, rc = stats.pop(rank, (0, 0))
            base_rt += rt
            base_rc += rc
        self._stats_base = (base_rt, base_rc)

    def _fabric_health(self) -> dict[str, Any]:
        # ``retransmits``/``reconnects`` aggregate the link-repair
        # counters every rank piggybacks on its heartbeats.
        base_rt, base_rc = self._stats_base
        stats = self._source.stats.values()
        return {"retransmits": base_rt + sum(v[0] for v in stats),
                "reconnects": base_rc + sum(v[1] for v in stats)}

    # -- dispatch -----------------------------------------------------------

    _encode = staticmethod(encode_object)

    def _dispatch(self, run_id: int, nprocs: int, payload: tuple) -> None:
        # Framed once: the chunks are read-only, every rank gets the same.
        chunks = wire.encode_frame(wire.TAG_RUN, run_id, nprocs, -1, *payload)
        for rank in range(nprocs):
            write_all(self._source.links[rank].sock.fileno(), chunks)

    # -- the failure policy's verbs ----------------------------------------

    def _wake(self, dead: Sequence[int]) -> bool:
        """Abort the run on every survivor: their channels watch the
        control socket, so a rank stalled mid-barrier on a dead peer
        wakes promptly."""
        links = self._source.links
        abort = wire.encode_frame(wire.TAG_ABORT, self._run_id, 0, -1)
        for rank in list(links):
            if rank in dead:
                links.pop(rank).close()
                continue
            try:
                write_all(links[rank].sock.fileno(), abort)
            except OSError:
                return False
        return True

    def _replace(self, dead: Sequence[int], generation: int) -> bool:
        """Fork the dead ranks at ``generation``, have the survivors link
        to them (``TAG_REMESH``), and wait for every rank — survivor and
        replacement — to ack it."""
        if len(dead) >= self._capacity:
            return False
        self._fold_stats(dead)
        for rank in sorted(dead):
            self._procs[rank] = self._fork(rank, generation, dead)
        remesh = wire.encode_frame(
            wire.TAG_REMESH, generation, 0, -1,
            *encode_object((generation, self._table, dead)))
        for link in self._source.links.values():
            try:
                write_all(link.sock.fileno(), remesh)
            except OSError:
                return False
        return self._await_acks("remeshed", generation, range(self._capacity))

    def _resync(self, nprocs: int) -> None:
        self._rebuild()  # a link the run left down is known to its ranks only

    def _rebuild(self) -> None:
        self._fold_stats()
        self._teardown(graceful=False)
        self._build()


class TcpBackend(PoolBackend):
    """One process per virtual processor over a real TCP mesh (B.3)."""

    name = "tcp"
    _pool_type = TcpMesh

    def __init__(self, *, join_timeout: float = 120.0,
                 host: str = "127.0.0.1", mesh: TcpMesh | None = None):
        super().__init__(mesh, join_timeout=join_timeout, host=host)

    @property
    def _mesh(self) -> TcpMesh | None:
        return self._pool

    @classmethod
    def pool(cls, nprocs: int, *, host: str = "127.0.0.1",
             join_timeout: float = 120.0,
             max_restarts: int = 5) -> "TcpBackend":
        """A backend bound to its own persistent :class:`TcpMesh`.

        Usable as a context manager::

            with TcpBackend.pool(4) as backend:
                for config in sweep:
                    backend.run(program, 4, args=config)

        Ranks rendezvous and mesh once; every ``run()`` reuses them.
        Programs are shipped by pickle (module-level callables only).
        ``max_restarts`` bounds the mesh's fault-recovery budget, as
        :meth:`ProcessBackend.pool`'s does.
        """
        backend = cls(mesh=TcpMesh(nprocs, host=host,
                                   join_timeout=join_timeout,
                                   max_restarts=max_restarts))
        backend._owns_pool = True
        return backend


class TcpSpmdBackend(Backend):
    """One *already-launched* rank of a (possibly multi-host) mesh.

    Every participating invocation — one per host, started by
    ``python -m repro.harness launch-tcp --rank r --coordinator h:p`` —
    constructs this backend with its own rank and the shared coordinator
    address, then calls ``bsp_run`` with the *same* program and
    arguments.  Each rank executes its share over the mesh; outcomes are
    all-gathered at the end, so every rank returns the complete
    :class:`BackendRun` (rank 0's invocation typically reports).

    Runs follow each other on one mesh as on a pool: a faster rank's
    next run waits on its links for the slower ranks, and a program
    error leaves the mesh as usable as a pool's.  Supervision is in-band
    only (there is no common parent): a vanished peer surfaces via
    EOF/``SO_KEEPALIVE`` as a :class:`SynchronizationError`, not as an
    attributed :class:`WorkerCrashError`, and so does every later run
    until each rank calls :meth:`remesh`.
    """

    name = "tcp-spmd"

    def __init__(self, rank: int, nprocs: int,
                 coordinator: tuple[str, int], *, token: int = 0,
                 bind_host: str | None = None, timeout: float = 60.0,
                 generation: int = 0):
        Backend.check_nprocs(nprocs)
        self._rank = rank
        self._nprocs = nprocs
        self._timeout = timeout
        self._fabric = rendezvous_fabric(
            rank, nprocs, coordinator, token=token,
            generation=generation, bind_host=bind_host, timeout=timeout)
        self._run_id = 0
        self._last_fault: str | None = None
        self._heal_kinds: list[str] = []

    @property
    def rank(self) -> int:
        return self._rank

    @property
    def generation(self) -> int:
        return self._fabric.generation

    def remesh(self) -> int:
        """Re-admit this rank to the mesh at the next generation.

        Called by *every* participating rank after a lost peer (the
        harness ``launch-tcp --max-heals`` retry loop does this): each
        rank tears its links down and re-rendezvouses under
        ``fold_token(token, generation + 1)``, so survivors and a
        relaunched replacement rank meet in a fresh epoch while stale
        sockets from the old one are refused; rank 0 keeps its
        well-known listener across the epoch (the others re-dial it).
        Returns the new generation; failure raises :class:`RemeshError`
        (relaunch all ranks then).
        """
        fabric = self._fabric
        gen = fabric.generation + 1
        keep = fabric.listener if self._rank == 0 else None
        if keep is not None:
            fabric.listener = None  # not closed with the old epoch
        fabric.close()
        try:
            self._fabric = rendezvous_fabric(
                self._rank, self._nprocs, fabric.coordinator,
                token=fabric.token, generation=gen,
                bind_host=fabric.bind_host, coordinator_listener=keep,
                timeout=self._timeout)
        except BaseException as exc:
            if keep is not None:
                keep.close()
            raise RemeshError(
                f"rank {self._rank}: remesh to generation {gen} failed: "
                f"{exc}") from exc
        self._heal_kinds.append("re-admit")
        return gen

    def health(self) -> PoolHealth:
        """In-band supervision snapshot (no parent: alive == nprocs).

        ``restarts_left`` is 0: a rank never recovers on its own — the
        caller's :meth:`remesh` loop is its budget."""
        links = self._fabric.links.values()
        return PoolHealth(
            generation=self._fabric.generation,
            restarts=0,
            restarts_left=0,
            last_fault=self._last_fault,
            alive=self._nprocs,
            capacity=self._nprocs,
            heal_kinds=tuple(self._heal_kinds),
            retransmits=sum(link.retransmits for link in links),
            reconnects=sum(link.reconnects for link in links),
        )

    def run(
        self,
        program: Program,
        nprocs: int,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        *,
        sync: str = "strict",
    ) -> BackendRun:
        if nprocs != self._nprocs:
            raise BspConfigError(
                f"this mesh has {self._nprocs} ranks; cannot run "
                f"nprocs={nprocs}")
        check_sync(sync)
        if down := self._fabric.down():
            raise SynchronizationError(
                f"links to ranks {down} are down; remesh()")
        self._run_id += 1
        channel = _MeshChannel(
            self._rank, nprocs, self._fabric.socks, self._run_id, None,
            sync=sync, fabric=self._fabric)
        t0 = time.perf_counter()
        try:
            channel.broadcast_result(run_rank(
                channel, self._rank, nprocs, self._run_id, program, args,
                kwargs or {}, (Abort, _PeerLost)))
            outcomes = channel.gather_results(self._timeout)
        except (_PeerLost, SynchronizationError) as exc:
            self._last_fault = f"{type(exc).__name__}: {exc}"
            raise SynchronizationError(f"rank {self._rank}: {exc}") from exc
        finally:
            channel.close()
        return finish_run(outcomes, time.perf_counter() - t0)

    def close(self) -> None:
        self._fabric.close()
