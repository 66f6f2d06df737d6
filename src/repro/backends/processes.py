"""Process backend — the MPI/TCP library versions (Appendices B.2, B.3).

One OS process per virtual processor, so compute genuinely runs in
parallel (no GIL).  As in the paper's MPI version, communication happens
*only at superstep boundaries*: during a superstep each processor merely
buckets its outgoing packets per destination; at the boundary it pushes one
**combined frame** per peer (possibly empty — the all-to-all itself is the
implicit synchronization, exactly as in B.2) and blocks until it has
received the boundary frame of every live peer.  Frames are the batched
zero-copy representation of :mod:`~repro.backends.frames`: per-bucket
``seq``/``h`` metadata plus protocol-5 out-of-band payload buffers moved
through a fork-shared slab ring, so a bucket of NumPy halos crosses the
boundary with two memcpys instead of a pickle stream per packet.  Sends
are issued in the :func:`~repro.backends.exchange.peer_order` of the
precomputed total-exchange pairing schedule, the TCP version's
deadlock-avoidance discipline (B.3).

Who writes a frame is decided per frame.  The thread that called
``sync()`` offers each one to a push that never waits (destination lock
free, slab room now, one pipe message within ``PIPE_BUF`` on a writable
pipe): ocean's ghost rows and every empty strict frame go out this way,
one ``write`` each, and no second thread is ever started.  Whatever that
push refuses — a frame that could fill a pipe or the ring, or one whose
large buffers lease zero-copy regions — is handed, already encoded, to a
per-run sender thread, while the calling thread turns receiver: B.3's
"receivers must actively empty the pipe", kept for exactly the frames
it is about.

Like the thread backend's vanishing barrier, a processor that finishes
sends a departure sentinel so peers stop waiting for it; mismatched
superstep counts then surface as a stats-merge error rather than a hang.

Two execution modes share all of the above:

* **one-shot** (plain ``ProcessBackend()``): ``run()`` forks ``p`` fresh
  workers; with fork, programs and arguments need not be picklable, but
  packet *payloads* must be, since they cross process boundaries.
* **pooled** (``ProcessBackend.pool(p)`` or ``ProcessBackend(pool=...)``):
  a persistent :class:`BspPool` keeps the ``p`` forked workers and the
  whole transport fabric alive across runs and ships ``(program, args)``
  per run — amortizing fork+pipe+slab setup across a harness sweep's many
  configurations.  Pooled programs *are* pickled, so they must be
  module-level callables; the payload is encoded once for all workers,
  and array arguments above the zero-copy threshold arrive as read-only
  views of one shared-memory copy (valid for the run).  A failed run
  does not poison the pool: after a :class:`VirtualProcessorError` the
  workers drain in-flight frames behind a fence barrier and the next run
  starts clean; only a deadlock timeout forces a full worker rebuild.

Both modes are **supervised**.  While waiting for results the parent
multiplexes the result queue with every worker's ``Process.sentinel``
(:func:`multiprocessing.connection.wait`), so a worker that dies without
reporting — OOM kill, segfaulting extension, ``os._exit`` — surfaces as a
:class:`WorkerCrashError` naming the victim pid and signal within
milliseconds, not after the full ``join_timeout``.  Per-worker heartbeat
counters in the fork-shared transport (bumped at every superstep
boundary) let the deadline path distinguish a genuinely deadlocked
program (:class:`DeadlockError`) from one that is merely slow, and every
timeout message carries a per-pid liveness/exit-code/heartbeat table.

A pool **self-heals**: on a crash it re-forks only the dead workers
(falling back to a full fabric rebuild when a dead sender wedged a
transport lock), on a deadlock it rebuilds everything, both within a
bounded restart budget with exponential backoff.  ``BspPool.health()``
reports generation, restart count, and the last fault; once the budget is
spent the pool shuts down and raises
:class:`~repro.core.errors.PoolExhaustedError` (which
``ProcessBackend(degrade_to_threads=True)`` converts into a fallback run
on the thread backend).  Deterministic fault injection for all of these
paths lives in :mod:`repro.faults`.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import queue as queue_mod
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Sequence

from .. import faults
from ..core.api import Bsp
from ..core.errors import (
    BspConfigError,
    BspUsageError,
    DeadlockError,
    PacketError,
    PoolExhaustedError,
    SynchronizationError,
    VirtualProcessorError,
    WorkerCrashError,
)
from ..core.packets import Packet, PacketRuns
from .base import (
    Backend,
    BackendRun,
    Program,
    WorkerStatus,
    check_pattern_sends,
    check_sync,
    describe_workers,
)
from .exchange import peer_order
from .frames import (
    DEFAULT_SLAB_BYTES,
    TAG_DEAD,
    TAG_FENCE,
    TAG_LEFT,
    TAG_PKT,
    FrameTransport,
)

#: How much of each slab a persistent pool commits up-front (the rest of
#: the ring faults in lazily as frames actually use it), bounding the
#: pool's baseline resident footprint at nprocs x this, not
#: nprocs x slab_bytes.
_POOL_PREFAULT_BYTES = 4 << 20


class _Abort(BaseException):
    """Unwinds a worker after a peer reported failure."""


class _FrameChannel:
    """Superstep-boundary exchange over the shared frame transport.

    ``sync`` selects the boundary protocol.  **strict** (default): push
    one frame per peer (empty buckets included — the all-to-all is the
    barrier) and block until every live peer's frame arrived.
    **relaxed**: push frames only for non-empty buckets, then pass the
    boundary once every live peer's *epoch word* in the fork-shared
    transport shows it completed this boundary — the pipe ``write()``
    returns before the owner publishes its epoch, so an observed epoch
    guarantees that peer's frames are already drainable; empty
    supersteps cost zero frames.  **elide**: like relaxed, but with a
    declared :class:`~repro.bsplib.CommPattern` the wait covers only
    ``receives_from`` neighbours, making the boundary O(degree).
    Run-ahead is bounded to one superstep in every mode (a peer cannot
    start superstep ``s+1`` before observing this worker's boundary-``s``
    completion), which is what ``_stash`` absorbs.

    In every mode frames go out through :meth:`_push`: from the calling
    thread when that cannot wait, else from a sender thread that exists
    only once a frame needed it.  A failed send (an unpicklable payload)
    ends the same on either thread: recorded, ``TAG_DEAD`` to every
    peer, the original exception raised out of ``exchange``.
    """

    def __init__(self, pid: int, nprocs: int, transport: FrameTransport,
                 run_id: int, *, sync: str = "strict"):
        self._pid = pid
        self._nprocs = nprocs
        self._transport = transport
        self._run_id = run_id
        self._sync = sync
        self._pattern = None
        #: One-shot downgrade to the strict protocol (checkpoint cuts).
        self._fence_strict = False
        #: Sticky: once an injected DROP_FRAME fires, this worker never
        #: publishes an epoch again — a one-time withhold would let the
        #: victim observe a *later* epoch, pass the barrier, and silently
        #: miss the dropped data; freezing turns the loss into the stall
        #: (flat heartbeats → DeadlockError) that a lost message means.
        self._epoch_frozen = False
        self._peers = peer_order(nprocs, pid)
        self._peer_set = frozenset(self._peers)
        self._departed: set[int] = set()
        #: Early arrivals from peers already one superstep ahead.
        self._stash: dict[int, dict[int, list[Packet]]] = {}
        # Sender thread for the frames the calling thread could not push
        # without waiting; started by the first such frame and then fed
        # one request per boundary (thread start-up per sync is
        # measurable on small machines).  Daemonic: if we abort because a
        # peer died, an in-flight send may be stuck on a frame nobody
        # will ever drain; the thread must not keep the process alive
        # then.
        self._cv = threading.Condition()
        #: (step, encoded frames, publish the epoch afterwards?)
        self._req: tuple[int, list[tuple], bool] | None = None
        self._stop = False
        self._push_error: list[BaseException] = []
        self._sender: threading.Thread | None = None

    def declare_pattern(self, pattern) -> None:
        """Bind this processor's :class:`~repro.bsplib.CommPattern`."""
        self._pattern = pattern

    def fence_next_sync(self) -> None:
        """Run the next boundary on the strict protocol (checkpoint cut)."""
        self._fence_strict = True

    # -- sending -------------------------------------------------------------

    def _push(self, step: int, buckets: dict[int, list[Packet]],
              targets: Sequence[int], releases: dict[int, list[int]], *,
              epoch: bool = False) -> None:
        """Put one frame per target on the wire, in schedule order.

        Pipe writes and slab allocations block once full, so two peers
        pushing large boundary frames at each other would deadlock — the
        exact hazard Appendix B.3 describes ("receivers [must] actively
        empty the pipe").  So the calling thread pushes only what cannot
        wait (for ocean's ghost rows: everything) and then plays the
        receiver; frames that could block go, already encoded, to the
        sender thread.  A relaxed boundary (``epoch``) publishes its
        epoch after the last pipe write, whichever thread made it, so an
        observed epoch guarantees the frames are drainable.
        """
        transport, run_id, pid = self._transport, self._run_id, self._pid
        deferred = []
        try:
            for peer in targets:
                frame = transport.encode_frame(
                    peer, run_id, step, pid, buckets.get(peer, ()),
                    releases=releases.get(peer, ()))
                if frame is not None and not transport.push_frame(
                        frame, block=False):
                    deferred.append(frame)
        except BaseException as exc:  # e.g. an unpicklable payload
            self._send_failed(exc)
            raise
        if deferred:
            if self._sender is None:
                self._sender = threading.Thread(
                    target=self._sender_loop, name=f"bsp-send-{pid}",
                    daemon=True)
                self._sender.start()
            with self._cv:
                self._req = (step, deferred, epoch)
                self._cv.notify_all()
        elif epoch:
            self._publish_epoch(step)

    def _publish_epoch(self, step: int) -> None:
        """Relaxed boundary ``step`` is complete here: every owed frame
        is in a pipe (or was dropped by a fault, which freezes us)."""
        plan = faults._ACTIVE
        if plan is not None and plan.drops_any_frame(self._pid, step):
            self._epoch_frozen = True
        if not self._epoch_frozen:
            self._transport.set_epoch(
                self._pid, (self._run_id << 32) | (step + 1), self._nprocs)

    def _send_failed(self, exc: BaseException) -> None:
        """Record a failed send and wake every peer (fail fast: nobody
        may block on a frame that will never arrive)."""
        self._push_error.append(exc)
        try:
            self.die()
        except BaseException:  # pragma: no cover - transport gone
            pass

    def _sender_loop(self) -> None:
        transport = self._transport
        while True:
            with self._cv:
                while self._req is None and not self._stop:
                    self._cv.wait()
                if self._req is None:
                    return
                step, frames, epoch = self._req
            try:
                for frame in frames:
                    transport.push_frame(frame)
            except BaseException as exc:
                self._send_failed(exc)
                try:  # ...and this worker's own receive loop
                    transport.send_control(self._pid, TAG_DEAD,
                                           self._run_id, self._pid)
                except BaseException:  # pragma: no cover - transport gone
                    pass
            else:
                if epoch:
                    self._publish_epoch(step)
            with self._cv:
                self._req = None
                self._cv.notify_all()

    def _send_wait(self) -> None:
        """Wait out the sender thread's current request, then surface a
        failed send — this boundary's or an earlier one's."""
        if self._req is not None:
            with self._cv:
                while self._req is not None:
                    self._cv.wait()
        if self._push_error:
            raise self._push_error[0]

    def close(self) -> None:
        """Ask the sender thread to exit once its current send completes."""
        with self._cv:
            self._stop = True
            self._cv.notify_all()

    # -- exchange ------------------------------------------------------------

    def exchange(self, pid: int, step: int, outbox: list[Packet]) -> PacketRuns:
        # Heartbeat: one bump per superstep boundary makes "slow but
        # alive" visible to the supervisor; a flat counter past the stall
        # window is what distinguishes a deadlock from a long superstep.
        self._transport.beat(self._pid)
        # Fault-injection hook — one attribute load + None test when off.
        plan = faults._ACTIVE
        if plan is not None:
            plan.at_boundary(self._pid, step, self._nprocs, outbox)
        # Zero-copy lease upkeep: reap inbound leases whose payloads the
        # program dropped; their ids ride home piggybacked on this
        # boundary's outgoing frames (strict mode always owes one frame
        # per peer, so releases are free).  TORN_LEASE discards them —
        # the owner's pool must grow, never alias.
        releases = self._transport.collect_releases(
            self._pid,
            discard=plan is not None and plan.tears_lease(self._pid, step))
        if plan is not None and plan.leaks_segment(self._pid, step):
            self._transport.leak_segment(self._pid)
        buckets: dict[int, list[Packet]] = {}
        for pkt in outbox:
            buckets.setdefault(pkt.dst, []).append(pkt)
        if self._pattern is not None:
            check_pattern_sends(self._pid, step, buckets, self._pattern)
        strict = self._sync == "strict" or self._fence_strict
        self._fence_strict = False
        if not strict:
            return self._exchange_relaxed(step, buckets, releases)

        transport = self._transport
        # Releases for owners we owe no frame this boundary (a previous
        # run on this pool used more processors) go on dedicated control
        # frames; everything else piggybacks.
        for owner, ids in releases.items():
            if owner not in self._peer_set:
                transport.send_release(owner, self._run_id, self._pid, ids)
        self._push(step, buckets, self._peers, releases)

        got: dict[int, list[Packet]] = {}
        own = buckets.get(self._pid)
        if own is not None:
            got[self._pid] = own
        got.update(self._stash.pop(step, {}))
        while self._peer_set - self._departed - got.keys():
            self._consume(transport.recv(self._pid), step, got)
        self._send_wait()
        # A strict boundary inside a relaxed/elide run (a checkpoint
        # fence) must keep the epoch invariant — epoch == completed
        # boundaries — so peers' later relaxed waits stay satisfiable.
        if self._sync != "strict" and not self._epoch_frozen:
            transport.set_epoch(self._pid, (self._run_id << 32) | (step + 1),
                                self._nprocs)
        # One frame per source, each a seq-sorted run: the inbox is
        # already in canonical order once concatenated by src.
        return PacketRuns(got.items())

    def _consume(self, frame, step: int,
                 got: dict[int, list[Packet]]) -> None:
        """File one drained frame: deliver, stash, or react to control."""
        if frame.run_id != self._run_id:
            return  # stale frame from an earlier run on this pool
        if frame.tag == TAG_PKT:
            if frame.stale:
                raise PacketError(
                    f"pid {self._pid}: frame from pid {frame.src} at "
                    f"superstep {frame.step} carries a zero-copy lease "
                    "from a reset segment pool (stale generation)")
            pkts = frame.packets(self._pid)
            if frame.step == step:
                got[frame.src] = pkts
            else:
                self._stash.setdefault(frame.step, {})[frame.src] = pkts
        elif frame.tag == TAG_LEFT:
            self._departed.add(frame.src)
        elif frame.tag == TAG_DEAD:
            if frame.src == self._pid:
                self._send_wait()  # raises: our own send failed
            raise _Abort()

    def _exchange_relaxed(self, step: int,
                          buckets: dict[int, list[Packet]],
                          releases: dict[int, list[int]]) -> PacketRuns:
        """Relaxed/elide boundary: frames for data, epochs for the barrier.

        Only non-empty buckets become frames.  This thread drains its own
        pipe non-blockingly (so mutual large pushes cannot deadlock),
        publishes its epoch word once its sends completed, and passes the
        boundary when every awaited peer's epoch shows the same — after
        which one final drain is guaranteed to find every frame owed for
        this superstep, because each peer's pipe writes happen before its
        epoch store.
        """
        transport, pid = self._transport, self._pid
        pattern = self._pattern
        targets = [peer for peer in self._peers if buckets.get(peer)]
        # Releases piggyback on the data frames we owe; owners getting no
        # frame this boundary (empty bucket) get a dedicated control
        # frame.  Lease releases only exist at all after large payloads
        # flowed, so empty-superstep frame budgets are unchanged.
        for owner, ids in releases.items():
            if owner not in targets:
                transport.send_release(owner, self._run_id, pid, ids)
        # Nothing deferred (always so for an empty superstep) means the
        # epoch is published inline and no thread is ever woken — which
        # is what makes an empty superstep cost less than a strict one.
        self._push(step, buckets, targets, releases, epoch=True)
        target = (self._run_id << 32) | (step + 1)

        got: dict[int, list[Packet]] = {}
        own = buckets.get(pid)
        if own is not None:
            got[pid] = own
        got.update(self._stash.pop(step, {}))
        if self._sync == "elide" and pattern is not None:
            waitset = set(pattern.receives_from)
        else:
            waitset = self._peer_set
        while True:
            frame = transport.try_recv(pid)
            while frame is not None:
                self._consume(frame, step, got)
                frame = transport.try_recv(pid)
            # Blocking wait with a bounded timeout: epoch publishes wake
            # us via the shared condition; the timeout keeps us draining
            # our pipe (which is what unsticks a peer's sender — or our
            # own — blocked on a full pipe or slab) and lets us notice
            # TAG_LEFT / TAG_DEAD frames, which do not notify epochs.
            if transport.wait_epochs(waitset, target, self._departed, 0.002):
                break
        # Final full drain: every awaited peer's pipe writes happen
        # before its epoch store, so all frames owed for this superstep
        # are pollable by now.
        frame = transport.try_recv(pid)
        while frame is not None:
            self._consume(frame, step, got)
            frame = transport.try_recv(pid)
        self._send_wait()
        return PacketRuns(got.items())

    def depart(self) -> None:
        plan = faults._ACTIVE
        dropped = False
        for peer in self._peers:
            if plan is not None and plan.drops_depart(self._pid, peer):
                dropped = True
                continue
            self._transport.send_control(peer, TAG_LEFT, self._run_id, self._pid)
        # Relaxed/elide peers wait on our epoch word, not only on frames:
        # publish a max-step sentinel (still below any later run's values)
        # so every future boundary of this run sees us satisfied.  A
        # dropped departure must keep stalling peers — that is the fault
        # being injected — so the sentinel is withheld whenever any
        # TAG_LEFT was dropped, or the epoch is frozen by a dropped frame.
        if self._sync != "strict" and not self._epoch_frozen and not dropped:
            self._transport.set_epoch(
                self._pid, (self._run_id << 32) | 0xFFFFFFFF, notify=True)

    def die(self) -> None:
        for peer in self._peers:
            self._transport.send_control(peer, TAG_DEAD, self._run_id, self._pid)


def _execute(pid: int, nprocs: int, run_id: int, transport: FrameTransport,
             program: Program, args: Sequence[Any],
             kwargs: dict[str, Any],
             sync: str = "strict") -> tuple[str, int, int, Any, Any]:
    """Run one program instance; returns the worker's outcome tuple."""
    transport.beat(pid)  # marks "the run actually started here"
    channel = _FrameChannel(pid, nprocs, transport, run_id, sync=sync)
    bsp = Bsp(pid, nprocs, channel)
    try:
        result = program(bsp, *args, **kwargs)
        ledger = bsp._finish()
        channel.depart()
        return ("ok", run_id, pid, result, ledger)
    except _Abort:
        return ("aborted", run_id, pid, None, None)
    except BaseException:  # noqa: BLE001 - reported to the parent
        channel.die()
        return ("error", run_id, pid, traceback.format_exc(), None)
    finally:
        channel.close()


def _oneshot_worker(pid: int, nprocs: int, program: Program,
                    args: Sequence[Any], kwargs: dict[str, Any],
                    transport: FrameTransport, result_q: Any,
                    sync: str = "strict") -> None:
    result_q.put(_execute(pid, nprocs, 0, transport, program, args, kwargs,
                          sync))
    # mp.Queue.put is asynchronous (feeder thread); exiting before it
    # flushes can silently drop the result and leave the parent to its
    # timeout.  close() + join_thread() forces the flush.
    result_q.close()
    result_q.join_thread()


def _do_fence(pid: int, nprocs: int, fence_id: int,
              transport: FrameTransport) -> None:
    """Drain every in-flight frame behind a one-shot fence barrier.

    Each participant keeps reading its inbound pipe — discarding stale
    frames and freeing their slab regions — until it has seen the fence
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
            # Anything else is debris from the failed run: recv() already
            # freed its slab space; drop it.

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


def _pool_worker(pid: int, transport: FrameTransport, ctrl_q: Any,
                 result_q: Any) -> None:
    """Persistent worker loop: execute runs shipped over the control queue."""
    while True:
        msg = ctrl_q.get()
        kind = msg[0]
        if kind == "close":
            return
        if kind == "fence":
            _, fence_id, nprocs = msg
            _do_fence(pid, nprocs, fence_id, transport)
            result_q.put(("fenced", fence_id, pid, None, None))
        elif kind == "run":
            _, run_id, nprocs, head, refs, sync = msg
            try:
                program, args, kwargs = transport.decode_dispatch(
                    pid, head, refs)
            except BaseException:  # noqa: BLE001 - reported to the parent
                result_q.put(("error", run_id, pid, traceback.format_exc(),
                              None))
                continue
            result_q.put(_execute(pid, nprocs, run_id, transport, program,
                                  args, kwargs, sync))


#: How long a dead worker's in-flight result gets to surface from the
#: queue's feeder pipe before the death is declared a crash.  This bounds
#: crash-detection latency: a dead worker is attributed in about this
#: long, versus the full ``join_timeout`` at the seed revision.  Workers
#: that exited cleanly (code 0) get the longer window — a clean exit
#: flushes its result before exiting, so a missing result there is a
#: protocol anomaly worth a patient drain; a signal death or non-zero
#: exit cannot produce a late result, so only a token window guards
#: against an in-flight pipe write.
_CRASH_GRACE = 0.25
_CRASH_GRACE_ABNORMAL = 0.02


def _worker_statuses(nprocs: int, outcomes: Sequence[Any], procs: Sequence[Any],
                     transport: Any, hb_when: Sequence[float],
                     now: float) -> list[WorkerStatus]:
    statuses = []
    for pid in range(nprocs):
        proc = procs[pid]
        statuses.append(WorkerStatus(
            pid=pid,
            alive=proc.is_alive(),
            os_pid=proc.pid,
            exitcode=proc.exitcode,
            heartbeat=int(transport.heartbeat(pid)) if transport is not None
            else 0,
            last_progress_age=now - hb_when[pid],
            has_result=outcomes[pid] is not None,
        ))
    return statuses


def _timeout_failure(nprocs: int, outcomes: Sequence[Any],
                     procs: Sequence[Any] | None, transport: Any,
                     hb_when: Sequence[float],
                     timeout: float) -> SynchronizationError:
    """Build the right exception for an expired collection deadline.

    Three fates, told apart by liveness and heartbeat progress: a dead
    worker is a :class:`WorkerCrashError` (normally caught earlier via its
    sentinel — this is the backstop), flat heartbeats are a
    :class:`DeadlockError`, and still-advancing heartbeats are a plain
    :class:`SynchronizationError` telling the caller the program is slow,
    not stuck.  Every message carries the per-pid status table.
    """
    now = time.monotonic()
    missing = [pid for pid in range(nprocs) if outcomes[pid] is None]
    if procs is None:
        return SynchronizationError(
            f"timed out after {timeout}s waiting for worker results "
            f"(workers {missing} missing; deadlocked BSP program?); no "
            "liveness information available for this run")
    statuses = _worker_statuses(nprocs, outcomes, procs, transport, hb_when,
                                now)
    detail = describe_workers(statuses)
    dead = [pid for pid in missing if not procs[pid].is_alive()]
    if dead:
        proc = procs[dead[0]]
        proc.join(timeout=1.0)
        return WorkerCrashError(dead[0], proc.exitcode, os_pid=proc.pid,
                                detail=detail)
    stall_window = min(5.0, max(1.0, timeout / 4.0))
    stalled = [pid for pid in missing if now - hb_when[pid] >= stall_window]
    if not stalled:
        return SynchronizationError(
            f"timed out after {timeout}s, but workers {missing} are alive "
            "and still advancing supersteps — slow, not deadlocked; raise "
            f"join_timeout ({detail})")
    return DeadlockError(
        f"timed out after {timeout}s; workers {stalled} are alive but made "
        f"no superstep progress in the last {stall_window:.1f}s — "
        f"deadlocked BSP program? ({detail})", stalled=tuple(stalled))


def _collect_outcomes(result_q: Any, nprocs: int, run_id: int,
                      timeout: float, *, procs: Sequence[Any] | None = None,
                      transport: Any = None,
                      ) -> list[tuple[str, Any, Any] | None]:
    """Gather one outcome per pid against a single wall-clock deadline.

    The deadline covers the whole collection: ``p`` stragglers share one
    budget instead of accumulating ``p`` per-worker timeouts.

    When ``procs`` is given, collection *supervises*: the result queue's
    pipe and every outstanding worker's ``Process.sentinel`` are
    multiplexed through :func:`multiprocessing.connection.wait`, so a
    worker that dies without reporting raises :class:`WorkerCrashError`
    (naming pid, os pid, and signal/exit code) within
    :data:`_CRASH_GRACE` seconds instead of consuming the whole timeout.
    ``transport`` supplies the heartbeat counters used by the deadline
    path to separate deadlock from slowness.
    """
    start = time.monotonic()
    deadline = start + timeout
    outcomes: list[tuple[str, Any, Any] | None] = [None] * nprocs
    got = 0
    hb_seen = [-1] * nprocs
    hb_when = [start] * nprocs

    def note(msg: tuple[str, int, int, Any, Any]) -> None:
        nonlocal got
        tag, rid, pid, a, b = msg
        if rid != run_id or tag == "fenced":
            return  # stray reply from an earlier, already-failed run
        if outcomes[pid] is None:
            got += 1
        outcomes[pid] = (tag, a, b)

    reader = getattr(result_q, "_reader", None)
    supervised = procs is not None and reader is not None

    while got < nprocs:
        now = time.monotonic()
        if transport is not None:
            for pid in range(nprocs):
                hb = transport.heartbeat(pid)
                if hb != hb_seen[pid]:
                    hb_seen[pid], hb_when[pid] = hb, now
        remaining = deadline - now
        if remaining <= 0:
            raise _timeout_failure(nprocs, outcomes, procs, transport,
                                   hb_when, timeout)
        if not supervised:
            try:
                note(result_q.get(timeout=remaining))
            except queue_mod.Empty:
                pass
            continue
        pending = [pid for pid in range(nprocs) if outcomes[pid] is None]
        # Capped at 1s so heartbeat progress keeps being sampled even
        # while nothing is arriving.
        mp_connection.wait(
            [reader] + [procs[pid].sentinel for pid in pending],
            timeout=min(remaining, 1.0))
        while True:
            try:
                note(result_q.get_nowait())
            except queue_mod.Empty:
                break
        crashed = [pid for pid in pending
                   if outcomes[pid] is None and not procs[pid].is_alive()]
        if not crashed:
            continue
        # The victim's result may still be in the queue's feeder pipe (a
        # worker exiting right after reporting): one short grace window
        # before declaring a crash.
        for pid in crashed:
            procs[pid].join(timeout=1.0)  # reap, so exitcode is final
        window = _CRASH_GRACE if any(procs[pid].exitcode == 0
                                     for pid in crashed) \
            else _CRASH_GRACE_ABNORMAL
        grace = time.monotonic() + window
        while any(outcomes[pid] is None for pid in crashed):
            wait_left = grace - time.monotonic()
            if wait_left <= 0:
                break
            try:
                note(result_q.get(timeout=wait_left))
            except queue_mod.Empty:
                break
        lost = [pid for pid in crashed if outcomes[pid] is None]
        if lost:
            proc = procs[lost[0]]
            proc.join(timeout=1.0)
            detail = describe_workers(_worker_statuses(
                nprocs, outcomes, procs, transport, hb_when,
                time.monotonic()))
            raise WorkerCrashError(lost[0], proc.exitcode, os_pid=proc.pid,
                                   detail=detail)
    return outcomes


def _raise_run_failure(outcomes: list[tuple[str, Any, Any] | None]) -> None:
    """Translate non-ok outcomes into the backend's exceptions."""
    for pid, outcome in enumerate(outcomes):
        if outcome is not None and outcome[0] == "error":
            raise VirtualProcessorError(pid, outcome[1])
    missing = [pid for pid, o in enumerate(outcomes) if o is None or o[0] != "ok"]
    if missing:
        raise SynchronizationError(
            f"workers {missing} did not complete (aborted or lost)")


def _broadcast_dead(transport: FrameTransport, nprocs: int,
                    dead: Sequence[int], run_id: int,
                    timeout: float = 5.0) -> bool:
    """Send TAG_DEAD to every peer *on behalf of* each dead worker.

    Survivors blocked in their receive loop waiting for a frame the
    victim will never push unwind immediately (``_Abort``) instead of
    sitting out the join timeout.  Done from a helper thread with a
    deadline: a pipe that cannot accept even a control frame means the
    fabric is wedged and the caller must rebuild rather than heal.
    """
    dead_set = set(dead)

    def push() -> None:
        try:
            for victim in dead:
                for peer in range(nprocs):
                    if peer not in dead_set:
                        transport.send_control(peer, TAG_DEAD, run_id, victim)
        except (OSError, ValueError):  # pragma: no cover - fabric closing
            pass

    pusher = threading.Thread(target=push, name="bsp-notify-dead",
                              daemon=True)
    pusher.start()
    pusher.join(timeout=timeout)
    return not pusher.is_alive()


def _join_escalating(procs: Sequence[Any], *, grace: float) -> None:
    """Join workers with terminate→kill escalation; no zombies survive.

    ``grace`` bounds the initial cooperative join; processes still alive
    are sent SIGTERM, then SIGKILL for any that ignore it, and each stage
    is joined so every child is reaped before returning.
    """
    deadline = time.monotonic() + grace
    for proc in procs:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    stubborn = [proc for proc in procs if proc.is_alive()]
    for proc in stubborn:
        proc.terminate()
    deadline = time.monotonic() + 2.0
    for proc in stubborn:
        proc.join(timeout=max(0.0, deadline - time.monotonic()))
    for proc in stubborn:
        if proc.is_alive():  # pragma: no cover - SIGTERM ignored/blocked
            proc.kill()
            proc.join()


@dataclass(frozen=True)
class PoolHealth:
    """Snapshot of a :class:`BspPool`'s supervision state.

    Attributes
    ----------
    generation:
        Bumped every time the pool recovers from a fault (partial heal or
        full rebuild).  Generation 0 is the original fork set.
    restarts:
        Total worker processes re-forked over the pool's lifetime.
    restarts_left:
        Remaining fault events in the restart budget; when it hits zero
        the next fault shuts the pool down (:class:`PoolExhaustedError`).
        ``-1`` means unbounded — a :class:`~repro.backends.tcp.TcpMesh`
        (which shares this snapshot type) has no restart budget.
    last_fault:
        ``repr``-style description of the most recent fault, or ``None``.
    alive:
        Number of currently live workers.
    capacity:
        Pool size (maximum ``nprocs`` per run).
    heal_kinds:
        How each recovery was performed, oldest first: ``"re-fork"``
        (dead workers replaced in place), ``"rebuild"`` (whole fabric
        torn down and re-forked), ``"re-admit"`` (an SPMD rank rejoined
        through a re-rendezvous epoch).  Link-level reconnects do not
        appear here — they never lose a worker; see ``reconnects``.
    retransmits:
        Frames re-sent from per-link send journals after a CRC NACK
        (TCP mesh only; telemetry for flaky links).
    reconnects:
        Mesh links transparently re-established mid-run after a drop or
        reset (TCP mesh only).  High ``reconnects`` with zero
        ``heal_kinds`` entries means link flaps, not rank deaths.
    zerocopy_hits:
        Payload buffers delivered through shared-memory segment leases
        (no receive-side copy) over the pool's lifetime.
    zerocopy_fallbacks:
        Buffers large enough for the zero-copy path that took the
        slab/pipe path instead (``REPRO_ZEROCOPY=off`` or segment
        creation failure) — nonzero hits with zero fallbacks means the
        data plane is fully engaged.
    quarantines:
        Times the service gateway quarantined the pool's fleet slot
        (failed health probes or a restart storm); filled in by the
        service layer, always 0 on a snapshot taken from the pool itself.
    probes_failed:
        Gateway health probes this pool failed over its lifetime
        (service layer, like ``quarantines``).
    journal_replays:
        Resumed jobs (journal replay after a gateway crash) this pool's
        slot has run (service layer, like ``quarantines``).
    """

    generation: int
    restarts: int
    restarts_left: int
    last_fault: str | None
    alive: int
    capacity: int
    heal_kinds: tuple[str, ...] = ()
    retransmits: int = 0
    reconnects: int = 0
    zerocopy_hits: int = 0
    zerocopy_fallbacks: int = 0
    quarantines: int = 0
    probes_failed: int = 0
    journal_replays: int = 0

    def to_dict(self) -> dict[str, Any]:
        """Plain-data view of this snapshot, safe for ``json.dumps``.

        Service telemetry and CLI ``status`` output ship health over the
        wire; a live snapshot must never be pickled for that, so every
        field here is a JSON scalar or a list of strings.
        """
        return {
            "generation": self.generation,
            "restarts": self.restarts,
            "restarts_left": self.restarts_left,
            "last_fault": self.last_fault,
            "alive": self.alive,
            "capacity": self.capacity,
            "heal_kinds": list(self.heal_kinds),
            "retransmits": self.retransmits,
            "reconnects": self.reconnects,
            "zerocopy_hits": self.zerocopy_hits,
            "zerocopy_fallbacks": self.zerocopy_fallbacks,
            "quarantines": self.quarantines,
            "probes_failed": self.probes_failed,
            "journal_replays": self.journal_replays,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PoolHealth":
        """Inverse of :meth:`to_dict` (used by service clients)."""
        fields = dict(data)
        fields["heal_kinds"] = tuple(fields.get("heal_kinds", ()))
        return cls(**fields)


class BspPool:
    """A persistent set of ``p`` forked BSP workers plus their transport.

    Forking processes and building the pipe/slab fabric costs tens of
    milliseconds; a harness sweep executes dozens of configurations, so
    the pool keeps both alive and dispatches ``(program, args)`` per run.
    Runs may use any ``nprocs <= capacity``.  Each run gets fresh
    :class:`~repro.core.stats.VPLedger` accounting (a new ``Bsp`` context
    per worker), and a failed run is followed by a fence that drains the
    transport, so the pool survives :class:`VirtualProcessorError` without
    a rebuild; only an unresponsive worker (deadlock timeout) triggers
    re-forking.

    Memory footprint: each worker owns a ``slab_bytes`` (default 64 MiB)
    shared ring, so the worst case is ``nprocs x slab_bytes`` of shared
    anonymous memory — but only :data:`_POOL_PREFAULT_BYTES` per slab is
    committed up-front; the rest stays untouched (zero resident pages)
    until frames of that size actually flow.  Tune ``slab_bytes`` down
    for memory-constrained hosts or up for very large halos (frames over
    ``slab_bytes // 2`` automatically take the slower pipe path).
    """

    def __init__(self, nprocs: int, *, join_timeout: float = 120.0,
                 slab_bytes: int = DEFAULT_SLAB_BYTES,
                 max_restarts: int = 5, backoff_base: float = 0.05):
        Backend.check_nprocs(nprocs)
        try:
            self._ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise BspConfigError(
                "the process backend requires a fork-capable platform"
            ) from exc
        self._capacity = nprocs
        self._join_timeout = join_timeout
        self._slab_bytes = slab_bytes
        self._run_id = 0
        self._closed = False
        # Supervision state: a bounded budget of fault events (crash,
        # deadlock, wedged fence), exponential backoff between them, and
        # the health counters surfaced by health().
        self._max_restarts = max_restarts
        self._backoff_base = backoff_base
        self._restarts_left = max_restarts
        self._generation = 0
        self._restarts = 0
        self._last_fault: str | None = None
        self._faults_in_a_row = 0
        self._broken: str | None = None
        self._heal_kinds: list[str] = []
        # One run at a time: the fence/epoch discipline assumes a single
        # in-flight run per fabric, so a second concurrent run() would
        # corrupt it.  Guarded, not serialized — the service scheduler
        # leases one job per pool and anything else is a caller bug.
        self._run_lock = threading.Lock()
        self._build()

    # -- lifecycle ----------------------------------------------------------

    def _build(self) -> None:
        ctx = self._ctx
        self._transport = FrameTransport(
            self._capacity, ctx, slab_bytes=self._slab_bytes,
            spin_timeout=self._join_timeout)
        # Fault the first slab pages in once, here in the parent, so the
        # pool's first small exchanges are as fast as its hundredth.  Only
        # a prefix: committing every page would pin nprocs x slab_bytes of
        # resident memory for the pool's lifetime whether or not any frame
        # ever needs it; the remainder faults lazily on first use.
        self._transport.prefault(_POOL_PREFAULT_BYTES)
        self._ctrl = [ctx.SimpleQueue() for _ in range(self._capacity)]
        self._result = ctx.Queue()
        self._procs = [
            ctx.Process(
                target=_pool_worker,
                args=(pid, self._transport, self._ctrl[pid], self._result),
                name=f"bsp-pool-{pid}",
                daemon=True,
            )
            for pid in range(self._capacity)
        ]
        for proc in self._procs:
            proc.start()

    def _teardown(self, *, graceful: bool) -> None:
        if graceful:
            for ctrl in self._ctrl:
                try:
                    ctrl.put(("close",))
                except (OSError, ValueError):  # pragma: no cover
                    pass
        # join → terminate → kill, each stage reaped: a close() racing an
        # in-flight (or failed) run must never leave zombie children.
        _join_escalating(self._procs, grace=5.0 if graceful else 0.5)
        self._transport.close()
        self._result.close()
        for ctrl in self._ctrl:
            ctrl.close()

    def _rebuild(self) -> None:
        self._teardown(graceful=False)
        self._build()

    def close(self) -> None:
        """Shut the workers down; the pool is unusable afterwards."""
        if not self._closed:
            self._closed = True
            self._teardown(graceful=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def __enter__(self) -> "BspPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def capacity(self) -> int:
        """Maximum ``nprocs`` a run on this pool may use."""
        return self._capacity

    def health(self) -> PoolHealth:
        """Supervision snapshot: generation, restarts, last fault."""
        alive = 0 if self._closed else \
            sum(1 for proc in self._procs if proc.is_alive())
        zc_hits = zc_fallbacks = 0
        if not self._closed:
            try:
                zc_hits, zc_fallbacks = self._transport.zerocopy_stats()
            except (ValueError, OSError):  # pragma: no cover - closing race
                pass
        return PoolHealth(
            generation=self._generation,
            restarts=self._restarts,
            restarts_left=self._restarts_left,
            last_fault=self._last_fault,
            alive=alive,
            capacity=self._capacity,
            heal_kinds=tuple(self._heal_kinds),
            zerocopy_hits=zc_hits,
            zerocopy_fallbacks=zc_fallbacks,
        )

    # -- fault recovery -----------------------------------------------------

    def _recover(self, run_id: int, *, fault: BaseException,
                 crashed: bool) -> None:
        """Restore the pool after ``fault``, within the restart budget.

        A crash tries a *partial* heal (re-fork only the dead workers,
        wake their blocked peers, fence, reset leaked slab space); a
        deadlock — or a crash whose fabric is wedged — rebuilds the whole
        pool.  Each fault event consumes one unit of budget and waits an
        exponentially growing backoff first; an exhausted budget shuts
        the pool down and raises :class:`PoolExhaustedError`.
        """
        self._generation += 1
        self._faults_in_a_row += 1
        self._last_fault = f"{type(fault).__name__}: {fault}"
        if self._restarts_left <= 0:
            self._broken = (
                f"restart budget ({self._max_restarts}) exhausted; last "
                f"fault: {self._last_fault}")
            self._closed = True
            self._teardown(graceful=False)
            raise PoolExhaustedError(
                f"BspPool gave up: {self._broken}") from fault
        self._restarts_left -= 1
        time.sleep(min(self._backoff_base * 2 ** (self._faults_in_a_row - 1),
                       2.0))
        if crashed and self._try_heal(run_id):
            self._heal_kinds.append("re-fork")
        else:
            self._restarts += self._capacity
            self._rebuild()
            self._heal_kinds.append("rebuild")

    def _try_heal(self, run_id: int) -> bool:
        """Re-fork only the dead workers; ``False`` means rebuild instead.

        Partial healing is sound only when the transport fabric is
        recoverable: every writer lock acquirable (a worker killed
        mid-``send_packets`` dies holding its destination's lock, wedging
        the pipe) and the TAG_DEAD wake-up deliverable.  The replacement
        workers become the new single consumers of the victims' inherited
        pipes and slabs; the fence then drains all debris, after which
        any slab region without a delivered header is a leak from a
        mid-push death and is reclaimed by resetting the rings.
        """
        dead = [pid for pid in range(self._capacity)
                if not self._procs[pid].is_alive()]
        if not dead or not self._transport.locks_free():
            return False
        if not _broadcast_dead(self._transport, self._capacity, dead, run_id):
            return False
        for pid in dead:
            self._procs[pid].join(timeout=1.0)
            proc = self._ctx.Process(
                target=_pool_worker,
                args=(pid, self._transport, self._ctrl[pid], self._result),
                name=f"bsp-pool-{pid}",
                daemon=True,
            )
            self._procs[pid] = proc
            proc.start()
        self._restarts += len(dead)
        if self._fence(self._capacity):
            self._transport.reset_slabs()
        # The victims' segments have no owner left to reuse them; their
        # replacements continue the name numbering from the fork-shared
        # counter, so sweeping the dead generation now cannot collide.
        # Survivors still holding views into these segments are safe —
        # unlink removes the name, not live mappings.
        self._transport.sweep_segments(dead)
        return True

    # -- running ------------------------------------------------------------

    def run(self, program: Program, nprocs: int | None = None,
            args: Sequence[Any] = (),
            kwargs: dict[str, Any] | None = None, *,
            sync: str = "strict") -> BackendRun:
        if self._broken is not None:
            raise PoolExhaustedError(f"BspPool gave up: {self._broken}")
        if self._closed:
            raise BspConfigError("BspPool is closed")
        check_sync(sync)
        nprocs = self._capacity if nprocs is None else nprocs
        Backend.check_nprocs(nprocs)
        if nprocs > self._capacity:
            raise BspConfigError(
                f"run of {nprocs} processors on a pool of {self._capacity}")
        if not self._run_lock.acquire(blocking=False):
            raise BspUsageError(
                "BspPool.run() called while another run is in flight on "
                "this pool; a pool executes one job at a time — lease one "
                "pool per concurrent job (repro.service keeps a warm "
                "fleet for exactly this) or create another BspPool")
        try:
            # Encoded under the lock: placing large args rewinds the
            # dispatch arena the in-flight run's workers are reading.
            try:
                head, refs = self._transport.encode_dispatch(
                    (program, args, kwargs or {}))
            except Exception as exc:
                raise BspUsageError(
                    "a persistent pool ships the program by pickle; use a "
                    "module-level function (not a lambda/closure) or a "
                    "fresh ProcessBackend(), whose fork inherits the program"
                ) from exc
            return self._run_locked(nprocs, head, refs, sync)
        finally:
            self._run_lock.release()

    def _run_locked(self, nprocs: int, head: bytes, refs: tuple,
                    sync: str) -> BackendRun:
        self._run_id += 1
        run_id = self._run_id
        t0 = time.perf_counter()
        for pid in range(nprocs):
            self._ctrl[pid].put(("run", run_id, nprocs, head, refs, sync))
        try:
            outcomes = _collect_outcomes(
                self._result, nprocs, run_id, self._join_timeout,
                procs=self._procs[:nprocs], transport=self._transport)
        except WorkerCrashError as exc:
            # A worker died without reporting: heal the pool (re-fork the
            # victims, or rebuild if the fabric is wedged), then surface
            # the crash — the caller decides whether the run is
            # idempotent enough to retry (bsp_run(retries=...)).
            self._recover(run_id, fault=exc, crashed=True)
            raise
        except SynchronizationError as exc:
            # Deadlocked (or unattributably stuck) workers: the only safe
            # reset is a full re-fork.
            self._recover(run_id, fault=exc, crashed=False)
            raise
        except KeyboardInterrupt:
            # An interactive abort must not strand workers mid-barrier:
            # escalate terminate→kill and close the pool.  Checkpoint
            # shards already published by the interrupted run stay on
            # disk, so a checkpointing run remains resumable.
            self._closed = True
            self._last_fault = "KeyboardInterrupt"
            self._teardown(graceful=False)
            raise
        self._faults_in_a_row = 0
        wall = time.perf_counter() - t0
        if any(o is None or o[0] != "ok" for o in outcomes):
            self._fence(nprocs)
            _raise_run_failure(outcomes)
        results = [outcome[1] for outcome in outcomes]  # type: ignore[index]
        ledgers = [outcome[2] for outcome in outcomes]  # type: ignore[index]
        return BackendRun(results=results, ledgers=ledgers, wall_seconds=wall)

    def _fence(self, nprocs: int) -> bool:
        """Drain transport debris left by a failed run.

        Returns ``True`` when every worker acknowledged the fence (the
        fabric is clean), ``False`` when a worker wedged and the pool had
        to be rebuilt instead.
        """
        if nprocs <= 1:
            return True
        self._run_id += 1
        fence_id = self._run_id
        for pid in range(nprocs):
            self._ctrl[pid].put(("fence", fence_id, nprocs))
        deadline = time.monotonic() + min(self._join_timeout, 30.0)
        pending = set(range(nprocs))
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._restarts += self._capacity
                self._rebuild()  # a worker is wedged beyond fencing
                return False
            try:
                tag, fid, pid, _, _ = self._result.get(timeout=remaining)
            except queue_mod.Empty:
                continue
            if tag == "fenced" and fid == fence_id:
                pending.discard(pid)
        return True


class ProcessBackend(Backend):
    """One process per virtual processor; boundary all-to-all frame exchange."""

    name = "processes"

    def __init__(self, *, join_timeout: float = 120.0,
                 pool: BspPool | None = None,
                 slab_bytes: int = DEFAULT_SLAB_BYTES,
                 degrade_to_threads: bool = False):
        self._join_timeout = join_timeout
        self._pool = pool
        self._owns_pool = False
        self._slab_bytes = slab_bytes
        self._degrade_to_threads = degrade_to_threads
        try:
            self._ctx = mp.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platforms
            raise BspConfigError(
                "the process backend requires a fork-capable platform"
            ) from exc

    @classmethod
    def pool(cls, nprocs: int, *, join_timeout: float = 120.0,
             slab_bytes: int = DEFAULT_SLAB_BYTES,
             max_restarts: int = 5,
             degrade_to_threads: bool = False) -> "ProcessBackend":
        """A backend bound to its own persistent :class:`BspPool`.

        Usable as a context manager::

            with ProcessBackend.pool(8) as backend:
                for config in sweep:
                    backend.run(program, 8, args=config)

        The pool's workers are forked once and reused by every ``run()``;
        exiting the ``with`` block shuts them down.

        Each worker owns a ``slab_bytes`` (default 64 MiB) shared ring,
        so worst-case shared memory is ``nprocs x slab_bytes`` — resident
        only as frames actually use it (a few MiB per slab is committed
        up-front).  Pass a smaller ``slab_bytes`` on memory-constrained
        hosts; frames over ``slab_bytes // 2`` fall back to the pipe path.

        ``max_restarts`` bounds the pool's fault-recovery budget (crashes
        and deadlocks each consume one unit); ``degrade_to_threads=True``
        converts the terminal :class:`PoolExhaustedError` into a fallback
        run on the thread backend instead of an exception.
        """
        backend = cls(
            join_timeout=join_timeout,
            pool=BspPool(nprocs, join_timeout=join_timeout,
                         slab_bytes=slab_bytes, max_restarts=max_restarts),
            slab_bytes=slab_bytes,
            degrade_to_threads=degrade_to_threads,
        )
        backend._owns_pool = True
        return backend

    def __enter__(self) -> "ProcessBackend":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the owned pool, if any (no-op for one-shot backends)."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()

    def health(self) -> PoolHealth | None:
        """The bound pool's supervision snapshot; ``None`` when one-shot."""
        return None if self._pool is None else self._pool.health()

    def run(
        self,
        program: Program,
        nprocs: int,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        *,
        sync: str = "strict",
    ) -> BackendRun:
        self.check_nprocs(nprocs)
        check_sync(sync)
        kwargs = kwargs or {}
        if self._pool is not None:
            try:
                return self._pool.run(program, nprocs, args=args,
                                      kwargs=kwargs, sync=sync)
            except PoolExhaustedError:
                if not self._degrade_to_threads:
                    raise
                # Opt-in degradation: the process substrate is too broken
                # to keep restarting, but the program may still complete on
                # threads (same routing, same deterministic delivery order
                # — lower isolation and GIL-bound compute).
                from .threads import ThreadBackend
                return ThreadBackend().run(
                    program, nprocs, args=args, kwargs=kwargs, sync=sync)
        ctx = self._ctx
        transport = FrameTransport(nprocs, ctx, slab_bytes=self._slab_bytes,
                                   spin_timeout=self._join_timeout)
        result_q = ctx.Queue()
        procs = [
            ctx.Process(
                target=_oneshot_worker,
                args=(pid, nprocs, program, args, kwargs, transport, result_q,
                      sync),
                name=f"bsp-{pid}",
                daemon=True,
            )
            for pid in range(nprocs)
        ]
        t0 = time.perf_counter()
        for proc in procs:
            proc.start()
        try:
            outcomes = _collect_outcomes(result_q, nprocs, 0,
                                         self._join_timeout, procs=procs,
                                         transport=transport)
        except WorkerCrashError:
            # Wake survivors blocked on the victim's never-coming frame so
            # the escalating join below reaps them quickly and cleanly.
            dead = [pid for pid in range(nprocs)
                    if not procs[pid].is_alive()
                    and procs[pid].exitcode not in (0, None)]
            if dead:
                _broadcast_dead(transport, nprocs, dead, 0, timeout=2.0)
            raise
        finally:
            # Near-instant after a clean run (workers already exited);
            # after a failure the grace only delays SIGTERM to stuck
            # workers, so keep it short.
            _join_escalating(procs, grace=2.0)
            transport.close()
            result_q.close()
        wall = time.perf_counter() - t0
        _raise_run_failure(outcomes)
        results = [outcome[1] for outcome in outcomes]  # type: ignore[index]
        ledgers = [outcome[2] for outcome in outcomes]  # type: ignore[index]
        return BackendRun(results=results, ledgers=ledgers, wall_seconds=wall)
