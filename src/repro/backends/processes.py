"""Process backend — the MPI/TCP library versions (Appendices B.2, B.3).

One OS process per virtual processor, so compute genuinely runs in
parallel (no GIL).  As in the paper's MPI version, communication happens
*only at superstep boundaries*: during a superstep each processor merely
buckets its outgoing packets per destination; at the boundary it pushes one
**combined frame** per peer (possibly empty — the all-to-all itself is the
implicit synchronization, exactly as in B.2) and blocks until it has
received the boundary frame of every live peer.  That one round serves
every ``sync`` mode — a pipe write is its own receipt, so ``strict`` and
``relaxed`` coincide here, and ``elide`` runs it over the links of a
declared pattern (:func:`~repro.backends.exchange.boundary_links`).

Frames are the batched zero-copy representation of
:mod:`~repro.backends.frames`: per-bucket ``seq``/``h`` metadata plus
protocol-5 out-of-band payload buffers placed in one leased
shared-memory region per frame, so a bucket of NumPy halos crosses the
boundary with one memcpy instead of a pickle stream per packet.  Sends are issued in the
:func:`~repro.backends.exchange.peer_order` of the precomputed
total-exchange pairing schedule, the TCP version's deadlock-avoidance
discipline (B.3).

Who writes a frame is decided per frame.  The thread that called
``sync()`` offers each one to a push that never waits (destination lock
free, a recycled region for its buffers, one pipe message within
``PIPE_BUF`` on a writable pipe): ocean's ghost rows, every empty frame
and a halo whose link has exchanged one before go out this way, one
``write`` each, and no second thread is ever started.  Whatever that
push refuses — a frame that could fill a pipe, or one whose region
would have to be mapped or touch new pages — is handed, already
encoded, to a per-run sender thread, while the calling thread turns receiver: B.3's
"receivers must actively empty the pipe", kept for exactly the frames
it is about.

Like the thread backend's vanishing barrier, a processor that finishes
sends a departure sentinel so peers stop waiting for it; mismatched
superstep counts then surface as a stats-merge error rather than a hang.

The round itself — which frames, which waits — is
:class:`~repro.backends.exchange.LinkChannel`'s, and everything around
the exchange — worker lifecycle, the supervised gather of one outcome
per rank, crash/deadlock triage, one-shot vs pooled — is the
fabric-independent :mod:`~repro.backends.pool` core.  This module is
the pipe fabric behind them: :class:`_FrameChannel` (the pipe transport
of the round) and :class:`BspPool`, which supplies only

* **build / teardown**: one :class:`~repro.backends.frames.FrameTransport`
  (pipes, segment pools, heartbeat words) and a control queue per
  worker; the parent is the transport's last endpoint, where a worker's
  outcome or fence ack arrives as a frame like any other;
* **dispatch**: ``(program, args)`` encoded once for all workers, array
  arguments too big for the pickle stream arriving as read-only views of
  one shared-memory copy (valid for the run);
* **the failure policy's verbs**: survivors are woken with ``TAG_DEAD``
  sent on the dead workers' behalf; a dead worker is replaced by a
  re-fork onto its inherited pipes; and a failed run is followed by a
  *fence*, which drains in-flight frames behind a barrier and rewinds
  the segment pools, so the next run starts clean.

Deterministic fault injection for all of these paths lives in
:mod:`repro.faults`.
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from typing import Any, Collection, Sequence

from .. import faults
from ..core.errors import PacketError
from ..core.packets import Packet
from .exchange import LinkChannel
from .frames import TAG_DEAD, TAG_FENCE, FrameTransport
from .pool import (
    Abort,
    PoolBackend,
    PoolHealth,  # noqa: F401 - re-exported: the snapshot's public home
    WorkerPool,
    encode_outcome,
    join_escalating,
    serve_rank,
)


class _FrameChannel(LinkChannel):
    """The boundary round over the shared frame transport: the pipe
    fabric's half of :class:`~repro.backends.exchange.LinkChannel`.

    A pipe write is its own receipt, so every ``sync`` mode is the one
    round with no release round; the modes differ only in their link
    sets.  Frames go out through :meth:`_send`: from the calling thread
    when that cannot wait, else from a sender thread that exists only
    once a frame needed it.  A send that fails on that thread (an
    unpicklable payload) ends as it would on the calling one: recorded,
    ``TAG_DEAD`` to every peer, the original exception raised out of
    ``exchange``.
    """

    receipted = True

    def __init__(self, pid: int, nprocs: int, transport: FrameTransport,
                 run_id: int, *, sync: str = "strict"):
        super().__init__(pid, nprocs, sync, run_id)
        self._transport = transport
        transport.beat(pid)  # marks "the run actually started here"
        #: This boundary's reaped lease ids, by owner, until a frame to
        #: the owner carries them home.
        self._owed: dict[int, list[int]] = {}
        # Sender thread for the frames the calling thread could not push
        # without waiting; started by the first such frame, then kept
        # (thread start-up per sync is measurable on small machines).
        # Daemonic: if we abort because a peer died, an in-flight send
        # may be stuck on a frame nobody will ever drain; the thread must
        # not keep the process alive then.
        self._cv = threading.Condition()
        #: Encoded frames the sender thread is to push, oldest first; the
        #: head leaves only once it is written.
        self._queue: deque[tuple] = deque()
        self._stop = False
        self._push_error: list[BaseException] = []
        self._sender: threading.Thread | None = None

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
        # on a larger pool — gets its ids on a dedicated control frame.
        for owner in [q for q in self._owed if q not in out_links]:
            transport.send_release(owner, self._run_id, pid,
                                   self._owed.pop(owner))

    def _send(self, peer: int, step: int, bucket: Sequence[Packet],
              volatile: bool) -> None:
        """Push one frame from the calling thread if that cannot wait,
        else hand it, encoded, to the sender thread.

        Pipe writes block once the pipe is full, so two peers pushing
        large boundary frames at each other would deadlock — the exact
        hazard Appendix B.3 describes ("receivers [must] actively empty
        the pipe").  So the calling thread pushes only what cannot wait
        (for ocean's ghost rows: everything) and then plays the receiver.
        """
        transport = self._transport
        frame = transport.encode_frame(peer, self._run_id, step, self._pid,
                                       bucket,
                                       releases=self._owed.pop(peer, ()))
        if transport.push_frame(frame, block=False):
            return
        if self._sender is None:
            self._sender = threading.Thread(
                target=self._sender_loop, name=f"bsp-send-{self._pid}",
                daemon=True)
            self._sender.start()
        with self._cv:
            self._queue.append(frame)
            self._cv.notify_all()

    def _signal(self, peer: int, tag: int, step: int) -> None:
        self._transport.send_control(peer, tag, self._run_id, self._pid,
                                     step=step)

    def _pump(self) -> None:
        frame = self._transport.recv(self._pid)
        if frame.run_id == self._run_id:
            if frame.stale:
                raise PacketError(
                    f"pid {self._pid}: frame from pid {frame.src} at "
                    f"superstep {frame.step} carries a zero-copy lease "
                    "from a reset segment pool (stale generation)")
            if frame.tag == TAG_DEAD and frame.src == self._pid:
                self._send_wait()  # raises: our own send failed
        self._file(frame)

    def _settle(self, released: Collection[int]) -> None:
        self._send_wait()

    # -- the sender thread --------------------------------------------------

    def _sender_loop(self) -> None:
        transport, queue = self._transport, self._queue
        while True:
            with self._cv:
                while not queue and not self._stop:
                    self._cv.wait()
                if not queue:
                    return
                frame = queue[0]
            try:
                transport.push_frame(frame)
            except BaseException as exc:
                # Fail fast: nobody may block on a frame that will never
                # arrive — every peer, and this worker's own receive loop.
                self._push_error.append(exc)
                try:
                    self.die()
                    transport.send_control(self._pid, TAG_DEAD,
                                           self._run_id, self._pid)
                except BaseException:  # pragma: no cover - transport gone
                    pass
            with self._cv:
                if self._push_error:
                    queue.clear()
                else:
                    queue.popleft()
                self._cv.notify_all()

    def _send_wait(self) -> None:
        """Wait until the sender thread has written every frame handed to
        it, then surface a failed send — this boundary's or an earlier
        one's."""
        if self._queue:
            with self._cv:
                while self._queue:
                    self._cv.wait()
        if self._push_error:
            raise self._push_error[0]

    def close(self) -> None:
        """Ask the sender thread to exit once its queue is written."""
        with self._cv:
            self._stop = True
            self._cv.notify_all()


def _do_fence(pid: int, nprocs: int, fence_id: int,
              transport: FrameTransport) -> None:
    """Drain every in-flight frame behind a one-shot fence barrier.

    Each participant keeps reading its inbound pipe — discarding stale
    frames — until it has seen the fence
    frame of every peer, while pushing its own fence frame to each of
    them.  Universal draining unblocks any sender thread left mid-frame
    by the failed run, so the transport is empty and lock-free when the
    fence completes.
    """
    peers = [q for q in range(nprocs) if q != pid]
    pending = set(peers)

    def drain() -> None:
        while pending:
            frame = transport.recv(pid)
            if frame.tag == TAG_FENCE and frame.step == fence_id:
                pending.discard(frame.src)
            # Anything else is debris from the failed run: drop it.

    drainer = threading.Thread(target=drain, name=f"bsp-fence-{pid}",
                               daemon=True)
    drainer.start()
    for peer in peers:
        transport.send_control(peer, TAG_FENCE, fence_id, pid, step=fence_id)
    drainer.join()
    # The failed run's zero-copy leases die with it: rewind this worker's
    # segment pool (the generation bump makes any of its frames still in
    # flight detectably stale) and forget inbound leases — their release
    # frames were never going to come.  Segments are *not* unlinked here:
    # they are reused by the next run, and only the parent's sweep
    # removes names (teardown, rebuild, heal of dead workers).
    transport.reset_segments(pid)


class _QueueLink:
    """A pipe worker's control link (see
    :func:`~repro.backends.pool.serve_rank`): runs, fences and lease
    releases arrive on its queue; outcomes and fence acks leave as
    result frames on the parent's pipe."""

    def __init__(self, pid: int, transport: FrameTransport, queue: Any):
        self._pid = pid
        self._transport = transport
        self._queue = queue

    def recv(self) -> tuple | None:
        pid, transport = self._pid, self._transport
        while True:
            msg = self._queue.get()
            kind = msg[0]
            if kind == "close":
                return None
            if kind == "fence":
                _, fence_id, nprocs = msg
                _do_fence(pid, nprocs, fence_id, transport)
                self.report(("fenced", fence_id, pid, None, None))
            elif kind == "release":
                transport.release(pid, msg[1])
            elif kind == "run":
                _, run_id, nprocs, head, refs, releases = msg
                transport.release(pid, releases)
                try:
                    return run_id, nprocs, transport.decode_dispatch(
                        pid, head, refs)
                except BaseException:  # noqa: BLE001 - reported upward
                    self.report(("error", run_id, pid,
                                 traceback.format_exc(), None))

    def report(self, outcome: tuple) -> None:
        self._transport.push_result(self._pid, *encode_outcome(outcome))


class BspPool(WorkerPool):
    """A persistent set of ``p`` forked BSP workers on the pipe/shm fabric.

    Pipes can be fenced: a failed run is followed by a fence that drains
    the transport, so the pool survives :class:`VirtualProcessorError`
    without a rebuild, and a crash re-forks only the dead workers while
    every writer lock is free (a worker killed mid-write dies holding
    its destination's, which wedges the pipe: rebuild then).

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
        ctx = self._ctx
        self._transport = self._source = FrameTransport(self._capacity, ctx)
        self._ctrl = [ctx.SimpleQueue() for _ in range(self._capacity)]
        self._procs = [self._fork(pid) for pid in range(self._capacity)]

    def _fork(self, pid: int) -> Any:
        transport = self._transport
        proc = self._ctx.Process(
            target=serve_rank,
            args=(_QueueLink(pid, transport, self._ctrl[pid]),
                  lambda run_id, nprocs, sync: _FrameChannel(
                      pid, nprocs, transport, run_id, sync=sync),
                  pid, (Abort,), self._first),
            name=f"bsp-pool-{pid}",
            daemon=True,
        )
        proc.start()
        return proc

    def _teardown(self, *, graceful: bool) -> None:
        for ctrl in self._ctrl:
            try:
                ctrl.put(("close",))
            except (OSError, ValueError):  # pragma: no cover
                pass
        # join → terminate → kill, each stage reaped: a close() racing an
        # in-flight (or failed) run must never leave zombie children.
        join_escalating(self._procs, grace=5.0 if graceful else 0.5)
        self._transport.close()
        for ctrl in self._ctrl:
            ctrl.close()

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
        """Send TAG_DEAD to every survivor *on behalf of* each dead
        worker, so one blocked on a frame the victim will never push
        unwinds (``Abort``) at once.

        ``False`` when the fabric is wedged: a writer lock held (a
        worker killed mid-``send_packets`` dies holding its
        destination's), or a pipe that cannot take even a control frame
        within the deadline of the helper thread that pushes them.
        """
        transport, dead_set = self._transport, set(dead)
        if not transport.locks_free():
            return False

        def push() -> None:
            try:
                for victim in dead:
                    for peer in range(self._capacity):
                        if peer not in dead_set:
                            transport.send_control(peer, TAG_DEAD,
                                                   self._run_id, victim)
            except (OSError, ValueError):  # pragma: no cover - closing
                pass

        pusher = threading.Thread(target=push, name="bsp-notify-dead",
                                  daemon=True)
        pusher.start()
        pusher.join(timeout=2.0)
        return not pusher.is_alive()

    def _replace(self, dead: Sequence[int], generation: int) -> bool:
        """Re-fork the dead workers onto their inherited pipes, then
        fence.

        The replacements become the new single consumers of the
        victims' pipes; the fence drains all debris and rewinds every
        worker's segment pool, so a region leased by a mid-push death is
        reclaimed with the rest.
        """
        for pid in dead:
            self._procs[pid] = self._fork(pid)
        if not self._fence(self._capacity):
            return False
        # Every pool was rewound or is new: the parent's side of them too.
        self._transport.reset_segments(self._capacity)
        # The victims' segments have no owner left to reuse them; their
        # replacements continue the name numbering from the fork-shared
        # counter, so sweeping the dead generation now cannot collide.
        # Survivors still holding views into these segments are safe —
        # unlink removes the name, not live mappings.
        self._transport.sweep_segments(dead)
        return True

    def _resync(self, nprocs: int) -> None:
        if not self._fence(nprocs):
            self._rebuild()

    def _rebuild(self) -> None:
        self._teardown(graceful=False)
        self._build()

    def _fence(self, nprocs: int) -> bool:
        """Drain transport debris left by a failed run; ``False`` when a
        worker is wedged beyond fencing."""
        if nprocs <= 1:
            return True
        self._run_id += 1
        for pid in range(nprocs):
            self._ctrl[pid].put(("fence", self._run_id, nprocs))
        return self._await_acks("fenced", self._run_id, nprocs,
                                min(self._join_timeout, 30.0))

    # -- dispatch -----------------------------------------------------------

    def _encode(self, spec: tuple) -> tuple:
        return self._transport.encode_dispatch(spec)

    def _dispatch(self, run_id: int, nprocs: int, payload: tuple) -> None:
        # The leases of the results the parent copied out go home here.
        owed = self._transport.collect_releases(self._capacity)
        for pid in range(nprocs):
            self._ctrl[pid].put(("run", run_id, nprocs, *payload,
                                 owed.pop(pid, ())))
        for pid, lease_ids in owed.items():  # ranks sitting this run out
            self._ctrl[pid].put(("release", lease_ids))


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
