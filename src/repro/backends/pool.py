"""One supervised worker pool — everything the pipe and socket fabrics share.

The paper's MPI and TCP library versions (Appendices B.2, B.3) differ
only in the exchange; so do ours.  "Fork ``p`` workers, ship a run,
gather one outcome per rank under supervision, turn the outcomes into a
:class:`~repro.backends.base.BackendRun`" is written here once:

* :func:`serve_rank` — the rank main of both fabrics: take a run off
  the control link (:class:`RankLink`), run it (:func:`run_rank`) on a
  fresh channel and report ``(tag, run_id, pid, result-or-traceback,
  ledger)`` with tag ``ok`` / ``error`` / ``aborted``, until the link
  says close; :func:`encode_outcome` readies an outcome for either
  fabric (a result that cannot be pickled is an ``error``).
* :func:`gather` — the supervised gather.  The parent multiplexes a
  *result source* with every outstanding worker's ``Process.sentinel``,
  so a worker that dies without reporting — OOM kill, segfaulting
  extension, ``os._exit`` — surfaces as a
  :class:`~repro.core.errors.WorkerCrashError` naming the victim and its
  signal within milliseconds, not after the full ``join_timeout``.
  Per-rank heartbeats (bumped at every superstep boundary) let the
  deadline tell a deadlocked program (:class:`DeadlockError`) from a
  slow one, and every timeout message carries the per-pid status table.
  A result source is three methods — ``waitables()``, ``poll()`` and
  ``heartbeat(pid)``; the pipe fabric's is its frame transport (result
  frames on each rank's result pipe, fork-shared heartbeat words), the socket
  fabric's is the control connections' ``TAG_HB``/``TAG_RESULT`` frames,
  and a test's is a fake.
* :func:`finish_run` — outcomes to ``BackendRun`` or the typed error.
* :class:`WorkerPool` — lifecycle and supervision of ``p`` persistent
  workers: ``run()`` validation, the one-run-at-a-time guard, run ids,
  wall timing, fault triage, ``close``/``health``, and the one failure
  policy (restart budget, backoff, heal or rebuild).  A fabric supplies
  only what genuinely differs: how it is built and torn down, how a run
  is dispatched, and four verbs the policy acts through.
* :meth:`WorkerPool.run_once` — a one-shot run is a pool of one run,
  then close: the run reaches the workers as fork-inherited ``Process``
  arguments, so the program need not be picklable.
* :class:`PoolBackend` — the backend over either: bound to a persistent
  pool, or a fresh pool of one run per ``run()``.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import selectors
import threading
import time
import traceback
from contextlib import AbstractContextManager
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Protocol, Sequence

from ..core.api import Bsp
from ..core.errors import (
    BspConfigError,
    BspUsageError,
    DeadlockError,
    PoolExhaustedError,
    SynchronizationError,
    VirtualProcessorError,
    WorkerCrashError,
)
from .base import (
    Backend,
    BackendRun,
    Program,
    WorkerStatus,
    check_sync,
    describe_workers,
)
from .frames import Frame, encode_object
from .tcp_wire import TAG_ABORT, TAG_CLOSE, TAG_REMESH, TAG_RUN, FrameDecoder


class Abort(BaseException):
    """Unwinds a rank after a peer (or the supervisor) reported failure."""


def fork_context() -> Any:
    try:
        return mp.get_context("fork")
    except ValueError as exc:  # pragma: no cover - non-POSIX platforms
        raise BspConfigError(
            "the process and tcp backends require a fork-capable platform"
        ) from exc


def run_rank(channel: Any, pid: int, nprocs: int, run_id: int,
             program: Program, args: Sequence[Any], kwargs: dict[str, Any],
             aborted: tuple[type[BaseException], ...]) -> tuple:
    """Run one program instance on ``channel``; returns the outcome tuple.

    ``aborted`` names the exceptions with which this fabric's channel
    unwinds a rank whose peer failed — not this rank's own error.
    """
    bsp = Bsp(pid, nprocs, channel)
    try:
        result = program(bsp, *args, **kwargs)
        ledger = bsp._finish()
        channel.depart()
        return ("ok", run_id, pid, result, ledger)
    except aborted:
        return ("aborted", run_id, pid, None, None)
    except BaseException:  # noqa: BLE001 - reported to the supervisor
        try:
            channel.die()
        except BaseException:  # pragma: no cover - fabric already gone
            pass
        return ("error", run_id, pid, traceback.format_exc(), None)


def serve_rank(ctrl: Any, make_channel: Any, pid: int,
               aborted: tuple[type[BaseException], ...],
               first: tuple | None = None) -> None:
    """The rank main of both fabrics: run / report, until close.

    ``ctrl.recv()`` returns the next ``(run_id, nprocs, (program, args,
    kwargs, sync))``, or ``None`` at close; whatever else the supervisor
    sends — a heal or remesh, lease ids — the link handles and
    acknowledges itself.  ``ctrl.report(outcome)`` sends an outcome
    back.  ``make_channel(run_id, nprocs, sync)`` is a fresh
    :class:`~repro.backends.exchange.LinkChannel` for one run.  A pool
    of one run hands its run in as ``first``, inherited through fork:
    it is the only one.
    """
    for run_id, nprocs, (program, args, kwargs, sync) in (
            iter(ctrl.recv, None) if first is None else [first]):
        channel = make_channel(run_id, nprocs, sync)
        outcome = run_rank(channel, pid, nprocs, run_id, program, args,
                           kwargs, aborted)
        channel.close()
        ctrl.report(outcome)
        # Nothing of a run may stay alive while the rank waits for the
        # next: its arguments and result can be tens of megabytes.
        del channel, outcome, program, args, kwargs


def wait_for(fd: int, events: int) -> None:
    """Sleep until ``fd`` is ready for ``events`` (selector flags)."""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, events)
        sel.select()


def write_all(fd: int, chunks: Sequence[Any]) -> None:
    """Write one whole frame to a non-blocking stream, waiting while it
    is full: only for a stream whose reader keeps reading (a control
    link, a result pipe)."""
    if len(chunks) == 3:  # no buffers beside the header: one write
        chunks = [b"".join(chunks)]
    for chunk in chunks:
        mv = memoryview(chunk).cast("B")
        while mv:
            try:
                mv = mv[os.write(fd, mv):]
            except BlockingIOError:
                wait_for(fd, selectors.EVENT_WRITE)


class RankLink:
    """A rank's end of its control link — :func:`serve_rank`'s ``ctrl``
    on both fabrics: one non-blocking stream of frames each way (a
    socket, or a pair of pipes).  Runs, heals, close and aborts come in;
    outcomes and acks go out through ``report(outcome)``.

    A fabric supplies ``report``, ``_decode(frame)`` — a ``TAG_RUN``'s
    ``(program, args, kwargs, sync)`` — and ``_remesh(frame)`` — link to
    the replacements of dead ranks; ``_open(frame)`` sees every frame as
    it is handled.
    """

    def __init__(self, rank: int, rfd: int, wfd: int):
        self._rank = rank
        self._rfd = rfd
        self._wfd = wfd
        self._dec = FrameDecoder()
        #: Frames read but not yet handled.
        self.pending: list[Frame] = []

    def fileno(self) -> int:
        return self._rfd

    def _read(self, wait: bool = False) -> bool:
        """Take in what the link holds (with ``wait``, once it holds
        something); ``False`` once the supervisor hung up."""
        if wait:
            wait_for(self._rfd, selectors.EVENT_READ)
        try:
            data = os.read(self._rfd, 1 << 16)
        except (BlockingIOError, InterruptedError):
            return True
        except OSError:
            data = b""
        self.pending += self._dec.feed(data)
        return bool(data)

    def aborted(self, run_id: int) -> bool | None:
        """Whether the supervisor aborted ``run_id``, read without
        waiting (``None``: it hung up); other frames stay for
        :meth:`recv`."""
        if not self._read():
            return None
        return any(frame.tag == TAG_ABORT and frame.run_id == run_id
                   for frame in self.pending)

    def _open(self, frame: Frame) -> Frame:
        return frame

    def recv(self) -> tuple | None:
        """The next ``(run_id, nprocs, (program, args, kwargs, sync))``,
        or ``None`` at close.  A heal is carried out and acknowledged
        here — or reported failed, which ends the rank."""
        while True:
            while not self.pending:
                if not self._read(wait=True):
                    return None
            frame = self._open(self.pending.pop(0))
            if frame.tag == TAG_CLOSE:
                return None
            try:
                if frame.tag == TAG_RUN:
                    return frame.run_id, frame.step, self._decode(frame)
                if frame.tag == TAG_REMESH:
                    self._remesh(frame)
                    self.report(("remeshed", frame.run_id, self._rank,
                                 None, None))
            except BaseException:  # noqa: BLE001 - reported upward
                self.report(("error", frame.run_id, self._rank,
                             traceback.format_exc(), None))
                if frame.tag == TAG_REMESH:
                    return None
            # Anything else, e.g. a stale abort that raced our outcome.


def encode_outcome(outcome: tuple) -> tuple[bytes, list]:
    """One worker -> supervisor 5-tuple through the object codec.  A
    result that cannot be pickled is an error of the rank that returned
    it, reported like any other, on either fabric."""
    try:
        return encode_object(outcome)
    except Exception:  # noqa: BLE001 - reported to the supervisor
        return encode_object(("error", outcome[1], outcome[2],
                              traceback.format_exc(), None))


def finish_run(outcomes: Sequence[tuple | None], wall: float) -> BackendRun:
    """Turn one ``(tag, a, b)`` outcome per pid into the run's result, or
    raise the failed run's typed error."""
    for pid, outcome in enumerate(outcomes):
        if outcome is not None and outcome[0] == "error":
            raise VirtualProcessorError(pid, outcome[1])
    missing = [pid for pid, o in enumerate(outcomes) if o is None or o[0] != "ok"]
    if missing:
        raise SynchronizationError(
            f"workers {missing} did not complete (aborted or lost)")
    return BackendRun(results=[o[1] for o in outcomes],
                      ledgers=[o[2] for o in outcomes], wall_seconds=wall)


# ---------------------------------------------------------------------------
# Supervised gather
# ---------------------------------------------------------------------------


class ResultSource(Protocol):
    """Where a supervisor hears from its workers (see :func:`gather`)."""

    def waitables(self) -> list:
        """What :func:`multiprocessing.connection.wait` should watch."""

    def poll(self) -> Iterable[tuple]:
        """Everything that arrived, without blocking: 5-tuples
        ``(tag, run_id, pid, a, b)``."""

    def heartbeat(self, pid: int) -> int:
        """A word that changes whenever ``pid`` passes a boundary."""


#: How long a dead worker's in-flight result gets to surface from the
#: result source before the death is declared a crash.  This bounds
#: crash-detection latency: a dead worker is attributed in about this
#: long, versus the full ``join_timeout`` at the seed revision.  Workers
#: that exited cleanly (code 0) get the longer window — a clean exit
#: flushes its result before exiting, so a missing result there is a
#: protocol anomaly worth a patient drain; a signal death or non-zero
#: exit cannot produce a late result, so only a token window guards
#: against an in-flight pipe or socket write.
_CRASH_GRACE = 0.25
_CRASH_GRACE_ABNORMAL = 0.02

_OUTCOME_TAGS = ("ok", "error", "aborted")


def worker_table(procs: Sequence[Any], outcomes: Sequence[Any],
                 source: ResultSource, hb_when: Sequence[float]) -> str:
    """The per-pid liveness line every crash and timeout message carries."""
    now = time.monotonic()
    return describe_workers(
        WorkerStatus(pid=pid, alive=proc.is_alive(), os_pid=proc.pid,
                     exitcode=proc.exitcode,
                     heartbeat=int(source.heartbeat(pid)),
                     last_progress_age=now - hb_when[pid],
                     has_result=outcomes[pid] is not None)
        for pid, proc in enumerate(procs))


def _timeout_failure(procs: Sequence[Any], outcomes: Sequence[Any],
                     source: ResultSource, hb_when: Sequence[float],
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
    missing = [pid for pid in range(len(procs)) if outcomes[pid] is None]
    detail = worker_table(procs, outcomes, source, hb_when)
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


def gather(source: ResultSource, procs: Sequence[Any], run_id: int,
           timeout: float) -> list[tuple]:
    """Gather one ``(tag, a, b)`` outcome per pid in ``procs`` against a
    single wall-clock deadline.

    The deadline covers the whole collection: ``p`` stragglers share one
    budget instead of accumulating ``p`` per-worker timeouts.  Collection
    *supervises*: the source and every outstanding worker's
    ``Process.sentinel`` are multiplexed through
    :func:`multiprocessing.connection.wait`, so a worker that dies
    without reporting raises :class:`WorkerCrashError` (naming pid, os
    pid, and signal/exit code) within :data:`_CRASH_GRACE` seconds
    instead of consuming the whole timeout; the expired deadline goes
    through the :func:`_timeout_failure` triage.
    """
    nprocs = len(procs)
    start = time.monotonic()
    deadline = start + timeout
    outcomes: list[tuple | None] = [None] * nprocs
    hb_seen: list[int | None] = [None] * nprocs
    hb_when = [start] * nprocs

    def wait_for(pids: Sequence[int], limit: float) -> None:
        """Sleep until the source has news or one of ``pids`` dies (at
        most ``limit`` seconds), then file whatever arrived."""
        mp_connection.wait(
            source.waitables() + [procs[pid].sentinel for pid in pids],
            timeout=limit)
        for tag, rid, pid, a, b in source.poll():
            # Anything else is a stray: an earlier, already-failed run's
            # reply, a heal ack, an idle rank of a smaller run.
            if rid == run_id and tag in _OUTCOME_TAGS and pid < nprocs:
                outcomes[pid] = (tag, a, b)

    while True:
        pending = [pid for pid in range(nprocs) if outcomes[pid] is None]
        if not pending:
            return outcomes  # type: ignore[return-value]
        now = time.monotonic()
        for pid in range(nprocs):
            hb = source.heartbeat(pid)
            if hb != hb_seen[pid]:
                hb_seen[pid], hb_when[pid] = hb, now
        remaining = deadline - now
        if remaining <= 0:
            raise _timeout_failure(procs, outcomes, source, hb_when, timeout)
        # Capped at 1s so heartbeat progress keeps being sampled even
        # while nothing is arriving.
        wait_for(pending, min(remaining, 1.0))
        crashed = [pid for pid in pending
                   if outcomes[pid] is None and not procs[pid].is_alive()]
        if not crashed:
            continue
        # The victim's result may still be in flight (a worker exiting
        # right after reporting; a pipe or socket keeps buffered bytes
        # readable after death): one short grace window before declaring
        # a crash.
        for pid in crashed:
            procs[pid].join(timeout=1.0)  # reap, so exitcode is final
        window = _CRASH_GRACE if any(procs[pid].exitcode == 0
                                     for pid in crashed) \
            else _CRASH_GRACE_ABNORMAL
        grace = time.monotonic() + window
        while any(outcomes[pid] is None for pid in crashed):
            left = grace - time.monotonic()
            if left <= 0:
                break
            wait_for((), left)
        lost = [pid for pid in crashed if outcomes[pid] is None]
        if lost:
            proc = procs[lost[0]]
            raise WorkerCrashError(
                lost[0], proc.exitcode, os_pid=proc.pid,
                detail=worker_table(procs, outcomes, source, hb_when))


def join_escalating(procs: Sequence[Any], *, grace: float) -> None:
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


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------

#: The backoff before recovering from the second fault in a row; it
#: doubles with every further one, up to :data:`_BACKOFF_MAX_S`.
_BACKOFF_S = 0.05
_BACKOFF_MAX_S = 2.0


@dataclass(frozen=True)
class PoolHealth:
    """Snapshot of a :class:`WorkerPool`'s supervision state.

    Attributes
    ----------
    generation:
        Bumped every time the pool recovers from a fault (partial heal or
        full rebuild).  Generation 0 is the original fork set.
    restarts:
        Worker processes re-forked to recover from faults over the
        pool's lifetime (the clean slate after a failed program is no
        fault, and is not counted).
    restarts_left:
        Remaining fault events in the restart budget; when it hits zero
        the next fault shuts the pool down (:class:`PoolExhaustedError`).
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
        Out-of-band payload buffers sent in the pipe's stream instead
        (``REPRO_ZEROCOPY=off`` or segment creation failure) — nonzero
        hits with zero fallbacks means the data plane is fully engaged.
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
        return {**asdict(self), "heal_kinds": list(self.heal_kinds)}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PoolHealth":
        """Inverse of :meth:`to_dict` (used by service clients)."""
        fields = dict(data)
        fields["heal_kinds"] = tuple(fields.get("heal_kinds", ()))
        return cls(**fields)


class WorkerPool(AbstractContextManager):
    """``p`` forked workers, their fabric, and one supervisor.

    Forking workers and building a fabric costs tens of milliseconds; a
    harness sweep executes dozens of configurations, so a pool keeps
    both alive and dispatches ``(program, args)`` per run.  Runs may use
    any ``nprocs <= capacity``; idle workers sit out.  Each run gets
    fresh :class:`~repro.core.stats.VPLedger` accounting (a new ``Bsp``
    context per worker).

    A fabric subclass provides ``_build`` (fork ``self._procs`` and set
    ``self._source``; honours ``self._first``), ``_teardown``,
    ``_encode`` and ``_dispatch`` (ship one run), ``_fabric_health``,
    and the four verbs the failure policy (:meth:`_recover`) acts
    through:

    * ``_wake(dead) -> bool`` — abort the run on the survivors of
      ``dead`` workers that will never send again; ``False``: a
      survivor could not be told, rebuild;
    * ``_replace(dead, generation) -> bool`` — fork replacements for
      ``dead`` and bring the fabric whole again; ``False``: rebuild;
    * ``_resync(nprocs)`` — clear what a failed run left in the fabric
      (spends no budget; by default nothing: a stream fabric drops a
      failed run's frames by run id in the next);
    * ``_rebuild()`` — tear everything down and build afresh.
    """

    #: How messages name this kind of pool, and its one-shot spelling.
    _noun = "pool"
    _oneshot: str

    #: A pool of one run (:meth:`run_once`) carries that run here, as
    #: :func:`serve_rank`'s ``first``, and its ``_build`` hands it to the
    #: workers as fork-inherited ``Process`` arguments; ``None`` on a
    #: persistent pool.
    _first: tuple[int, int, tuple] | None = None

    _source: ResultSource

    def __init__(self, nprocs: int, join_timeout: float, max_restarts: int):
        Backend.check_nprocs(nprocs)
        self._ctx = fork_context()
        self._capacity = nprocs
        self._join_timeout = join_timeout
        self._run_id = 0
        self._closed = False
        #: Why the pool gave up for good (restart budget spent), if so.
        self._broken: str | None = None
        # Supervision counters surfaced by health().
        self._generation = 0
        self._restarts = 0
        self._max_restarts = self._restarts_left = max_restarts
        self._last_fault: str | None = None
        self._heal_kinds: list[str] = []
        #: Consecutive faulted runs: what the backoff grows with.
        self._faults_in_a_row = 0
        # One run at a time: the run-id/epoch disciplines assume a single
        # in-flight run per fabric, so a second concurrent run() would
        # corrupt it.  Guarded, not serialized — the service scheduler
        # leases one job per pool and anything else is a caller bug.
        self._run_lock = threading.Lock()
        self._procs: list[Any] = []

    # -- lifecycle -----------------------------------------------------------

    def _shutdown(self, *, graceful: bool) -> None:
        if not self._closed:
            self._closed = True
            self._teardown(graceful=graceful)
            # A closed pool holds no fd: each reaped worker's sentinel
            # pipe goes now (``Process.close`` would also forbid asking
            # whether it is alive).
            for proc in self._procs:
                proc._popen.close()

    def close(self) -> None:
        """Shut the workers down; the pool is unusable afterwards."""
        self._shutdown(graceful=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def __exit__(self, *exc: Any) -> None:
        self.close()

    @property
    def capacity(self) -> int:
        """Maximum ``nprocs`` a run on this pool may use."""
        return self._capacity

    def health(self) -> PoolHealth:
        """Supervision snapshot: generation, restarts, last fault, and
        the fabric's own counters."""
        alive = 0 if self._closed else \
            sum(1 for proc in self._procs if proc.is_alive())
        return PoolHealth(
            generation=self._generation,
            restarts=self._restarts,
            restarts_left=self._restarts_left,
            last_fault=self._last_fault,
            alive=alive,
            capacity=self._capacity,
            heal_kinds=tuple(self._heal_kinds),
            **self._fabric_health(),
        )

    def _dead(self) -> list[int]:
        return [pid for pid, proc in enumerate(self._procs)
                if not proc.is_alive()]

    # -- running -------------------------------------------------------------

    def run(self, program: Program, nprocs: int | None = None,
            args: Sequence[Any] = (),
            kwargs: dict[str, Any] | None = None, *,
            sync: str = "strict") -> BackendRun:
        kind = type(self).__name__
        if self._broken is not None:
            raise PoolExhaustedError(f"{kind} gave up: {self._broken}")
        if self._closed:
            raise BspConfigError(f"{kind} is closed")
        check_sync(sync)
        nprocs = self._capacity if nprocs is None else nprocs
        Backend.check_nprocs(nprocs)
        if nprocs > self._capacity:
            raise BspConfigError(
                f"run of {nprocs} processors on a {self._noun} of "
                f"{self._capacity}")
        if not self._run_lock.acquire(blocking=False):
            raise BspUsageError(
                f"{kind}.run() called while another run is in flight on "
                f"this {self._noun}; a {self._noun} executes one job at a "
                f"time — lease one {self._noun} per concurrent job "
                "(repro.service keeps a warm fleet for exactly this) or "
                f"create another {kind}")
        try:
            # Encoded under the lock: a fabric may place large args where
            # the in-flight run's workers are still reading.
            try:
                payload = self._encode((program, args, kwargs or {}, sync))
            except Exception as exc:
                raise BspUsageError(
                    f"a persistent {self._noun} ships the program by "
                    "pickle; use a module-level function (not a "
                    f"lambda/closure) or a fresh {self._oneshot}, whose "
                    "fork inherits the program") from exc
            self._run_id += 1
            t0 = time.perf_counter()
            self._dispatch(self._run_id, nprocs, payload)
            return self._supervise(self._run_id, nprocs, t0)
        finally:
            self._run_lock.release()

    @classmethod
    def run_once(cls, program: Program, nprocs: int, args: Sequence[Any],
                 kwargs: dict[str, Any], sync: str,
                 **options: Any) -> BackendRun:
        """A one-shot run: a pool of one run, then close.

        The pool is built with the run already in its workers' hands, so
        lambdas, closures and unpicklable programs work (only packet
        *payloads* cross process boundaries), and ``wall_seconds``
        includes the fork.  There is no second run to heal or
        budget restarts for: a failure wakes the survivors, raises its
        typed error, and the pool is torn down.
        """
        check_sync(sync)
        pool = cls.__new__(cls)
        pool._first = (0, nprocs, (program, args, kwargs, sync))
        t0 = time.perf_counter()
        pool.__init__(nprocs, **options)
        try:
            run = pool._supervise(pool._run_id, nprocs, t0)
        except BaseException:
            pool._abandon()
            raise
        pool.close()
        return run

    def _supervise(self, run_id: int, nprocs: int, t0: float) -> BackendRun:
        """Gather run ``run_id``'s outcomes and triage what went wrong."""
        try:
            outcomes = gather(self._source, self._procs[:nprocs], run_id,
                              self._join_timeout)
        except SynchronizationError as exc:
            # A worker died without reporting (WorkerCrashError), or the
            # workers are deadlocked or unattributably stuck.  The pool
            # restores itself as it can, then the fault surfaces — the
            # caller decides whether the run is idempotent enough to
            # retry (bsp_run(retries=...)).
            self._last_fault = f"{type(exc).__name__}: {exc}"
            self._faults_in_a_row += 1
            if self._first is None:
                self._recover(exc)
            raise
        except KeyboardInterrupt:
            # An interactive abort must not strand workers mid-barrier or
            # behind wedged sockets: escalate terminate→kill and close
            # the pool.  Checkpoint shards already published by the
            # interrupted run stay on disk, so a checkpointing run
            # remains resumable.
            self._last_fault = "KeyboardInterrupt"
            self._shutdown(graceful=False)
            raise
        self._faults_in_a_row = 0
        wall = time.perf_counter() - t0
        if self._first is None and any(o[0] != "ok" for o in outcomes):
            self._resync(nprocs)
        return finish_run(outcomes, wall)

    # -- the failure policy --------------------------------------------------

    def _recover(self, fault: SynchronizationError) -> None:
        """Restore the pool after ``fault``, within the restart budget.

        Each fault event spends one unit of ``max_restarts``; a second
        fault in a row and every one after it first waits a backoff
        (:data:`_BACKOFF_S`, doubling, at most :data:`_BACKOFF_MAX_S` —
        a single fault has no storm to back off from).  A crash heals:
        the survivors are woken, only the dead workers are replaced, and
        the fabric made whole at the next generation.  A deadlock — or a
        heal that fails — rebuilds everything.  A spent
        budget shuts the pool down and raises
        :class:`PoolExhaustedError`.
        """
        self._generation += 1
        if self._restarts_left <= 0:
            self._broken = (
                f"restart budget ({self._max_restarts}) exhausted; last "
                f"fault: {self._last_fault}")
            self._abandon()
            raise PoolExhaustedError(
                f"{type(self).__name__} gave up: {self._broken}") from fault
        self._restarts_left -= 1
        if self._faults_in_a_row > 1:
            time.sleep(min(_BACKOFF_S * 2 ** (self._faults_in_a_row - 2),
                           _BACKOFF_MAX_S))
        dead = self._dead()
        if isinstance(fault, WorkerCrashError) and dead and self._wake(dead):
            for pid in dead:
                self._procs[pid].join(timeout=1.0)  # reap the corpse
            if self._replace(dead, self._generation):
                self._restarts += len(dead)
                self._heal_kinds.append("re-fork")
                return
        self._restarts += self._capacity
        self._rebuild()
        self._heal_kinds.append("rebuild")

    def _abandon(self) -> None:
        """Shut down after a failure: survivors blocked on a crashed
        worker's never-coming frame are woken, so the escalating join
        reaps them at once."""
        crashed = [pid for pid, proc in enumerate(self._procs)
                   if proc.exitcode not in (0, None)]
        if crashed and not self._closed:
            self._wake(crashed)
        self._shutdown(graceful=False)

    def _resync(self, nprocs: int) -> None:
        """After a failed run: nothing left to clear (see the class
        docstring)."""

    def _await_acks(self, tag: str, ack_id: int, ranks: Sequence[int],
                    timeout: float = 30.0) -> bool:
        """Wait until each of ``ranks`` has sent ``(tag, ack_id, pid,
        …)`` over the result source — a fabric verb's acknowledgement;
        ``False`` once one of them dies or reports an ``error`` for
        ``ack_id``, or ``timeout`` passes (it bounds forks and
        handshakes, not a run: not ``join_timeout``)."""
        procs, pending = [self._procs[r] for r in ranks], set(ranks)
        deadline = time.monotonic() + timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not all(p.is_alive() for p in procs):
                return False
            mp_connection.wait(self._source.waitables()
                               + [p.sentinel for p in procs], remaining)
            for got, got_id, pid, _, _ in self._source.poll():
                if got_id == ack_id and got == "error":
                    return False
                if got_id == ack_id and got == tag:
                    pending.discard(pid)
        return True


class PoolBackend(Backend, AbstractContextManager):
    """A backend over a :class:`WorkerPool` fabric: bound to a persistent
    pool, or — unbound — a fresh pool of one run per ``run()``."""

    #: The fabric's pool class.
    _pool_type: type[WorkerPool]

    def __init__(self, bound: WorkerPool | None, **oneshot_options: Any):
        fork_context()
        self._pool = bound
        self._owns_pool = False
        self._oneshot_options = oneshot_options

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def close(self) -> None:
        """Release the owned pool, if any (no-op for one-shot backends)."""
        if self._owns_pool and self._pool is not None:
            self._pool.close()

    def health(self) -> PoolHealth | None:
        """The bound pool's supervision snapshot; ``None`` when one-shot."""
        return None if self._pool is None else self._pool.health()

    def run(self, program: Program, nprocs: int, args: Sequence[Any] = (),
            kwargs: dict[str, Any] | None = None, *,
            sync: str = "strict") -> BackendRun:
        if self._pool is not None:
            return self._pool.run(program, nprocs, args=args, kwargs=kwargs,
                                   sync=sync)
        return self._pool_type.run_once(program, nprocs, args, kwargs or {},
                                        sync, **self._oneshot_options)
