"""Exception hierarchy for the Green BSP runtime.

All library-raised errors derive from :class:`BspError` so callers can catch
one type.  Backend-internal failures of a single virtual processor are
wrapped in :class:`VirtualProcessorError`, which records the pid and the
original traceback text so a crash inside one of ``p`` threads or processes
surfaces as a single coherent exception in the caller.

Failures of the *substrate* (rather than the program) form their own
sub-taxonomy under :class:`SynchronizationError`, so supervision code can
tell the three timeout-shaped fates apart:

* :class:`WorkerCrashError` — a worker process died without reporting
  (OOM kill, segfaulting extension, ``os._exit``); names the victim pid
  and the signal or exit code.
* :class:`DeadlockError` — workers are alive but stopped advancing
  supersteps (heartbeat counters flat): a genuinely deadlocked program.
* plain :class:`SynchronizationError` — everything else, including
  "alive and still progressing, just slower than the timeout".

:class:`PoolExhaustedError` is terminal: a self-healing pool burned
through its restart budget and shut itself down.
"""

from __future__ import annotations

import signal as _signal


class BspError(Exception):
    """Base class for all Green BSP errors."""


class BspConfigError(BspError, ValueError):
    """Invalid runtime configuration (bad nprocs, unknown backend, ...)."""


class BspUsageError(BspError, RuntimeError):
    """API misuse detected at run time (send after finish, bad pid, ...)."""


class PacketError(BspError, ValueError):
    """Packet encoding/decoding failure (oversized payload, bad header...)."""


class CostModelError(BspError, ValueError):
    """Invalid cost-model query (unknown machine, unsupported nprocs...)."""


class SynchronizationError(BspError, RuntimeError):
    """A superstep barrier could not complete (peer died, timeout...)."""


class WorkerCrashError(SynchronizationError):
    """A backend worker process died without reporting a result.

    Distinct from :class:`VirtualProcessorError` (a Python exception that
    the worker itself caught and reported) and from :class:`DeadlockError`
    (workers alive but stuck): here the OS reaped the process — SIGKILL'd
    by the OOM killer, a segfaulting native extension, an ``os._exit``.

    Attributes
    ----------
    pid:
        The virtual processor (worker slot) that died.
    exitcode:
        ``multiprocessing.Process.exitcode``: negative means killed by
        signal ``-exitcode``; ``None`` means the status was unavailable.
    os_pid:
        The worker's operating-system pid, when known.
    signum / signal_name:
        The killing signal (number and name), or ``None`` for a plain
        non-zero exit.
    detail:
        Optional per-pid liveness table (``describe_workers``) appended to
        the message so recovery-path exceptions show the whole fabric.
    """

    def __init__(self, pid: int, exitcode: int | None,
                 os_pid: int | None = None, detail: str | None = None):
        self.pid = pid
        self.exitcode = exitcode
        self.os_pid = os_pid
        self.detail = detail
        self.signum = -exitcode if exitcode is not None and exitcode < 0 \
            else None
        self.signal_name: str | None = None
        if self.signum is not None:
            try:
                self.signal_name = _signal.Signals(self.signum).name
            except ValueError:  # pragma: no cover - unnamed signal number
                self.signal_name = f"signal {self.signum}"
        if self.signal_name is not None:
            fate = f"killed by {self.signal_name}"
        elif exitcode is None:
            fate = "died (exit status unavailable)"
        else:
            fate = f"exited with code {exitcode}"
        where = f" (os pid {os_pid})" if os_pid is not None else ""
        message = f"worker {pid}{where} {fate} without reporting a result"
        if detail:
            message = f"{message} [{detail}]"
        super().__init__(message)


class DeadlockError(SynchronizationError):
    """Workers are alive but made no superstep progress within the timeout.

    Raised only when per-worker heartbeat counters (bumped at every
    superstep boundary) stayed flat over the stall window — a worker that
    is merely slow keeps beating and gets a plain
    :class:`SynchronizationError` telling the caller to raise the timeout.

    Attributes
    ----------
    stalled:
        The pids that stopped advancing.
    """

    def __init__(self, message: str, *, stalled: tuple[int, ...] = ()):
        self.stalled = tuple(stalled)
        super().__init__(message)


class RemeshError(SynchronizationError):
    """An in-run heal of a mesh failed: the replacement rank never joined,
    the re-rendezvous epoch timed out, or a survivor could not rebuild its
    links.  The mesh is unusable; callers fall back to a full rebuild
    (:class:`~repro.backends.tcp.TcpMesh`) or a relaunch (SPMD)."""


class CheckpointError(BspError, RuntimeError):
    """A checkpoint shard is missing, corrupt, truncated, or inconsistent.

    Raised by :class:`repro.checkpoint.CheckpointStore` loads when the
    stored checksum does not match the payload, the header is malformed,
    or the shard's (step, pid, nprocs) identity disagrees with what the
    resuming run expects.  Recovery code treats such shards as absent:
    ``latest_step`` only ever names steps whose every shard validates, so
    a bad checkpoint falls back to the previous complete one instead of
    silently resuming from garbage.
    """


class AdmissionError(BspError, RuntimeError):
    """A job submission was rejected at the service admission boundary.

    Raised (and reported to clients as a typed ``rejected`` frame) by the
    :mod:`repro.service` scheduler when the bounded admission queue is
    full, a tenant exceeded its ``max_queued`` allowance, or the job names
    a fleet key no warm pool serves.  Admission errors are *load* errors:
    the job was never queued, nothing ran, and an identical resubmission
    later may succeed.
    """


class PoolExhaustedError(BspError, RuntimeError):
    """A self-healing worker pool spent its restart budget and shut down.

    Terminal for the pool: subsequent ``run()`` calls re-raise it.  A
    caller that prefers a degraded run to no run catches it and re-runs
    on ``ThreadBackend()`` (README "Fault tolerance").
    """


class GatewayUnavailableError(BspError, ConnectionError):
    """The service gateway's socket is gone (refused, timed out, reset).

    Raised by :class:`~repro.service.client.ServiceClient` in place of the
    raw :class:`ConnectionRefusedError`/``OSError`` so callers get one
    typed signal for "no gateway is listening there right now" — which,
    with a durable gateway, is usually a *transient* condition: the
    gateway is bouncing and will replay its journal.  Carries the last
    known address so a retry loop (or an operator) knows exactly which
    endpoint went dark.
    """

    def __init__(self, host: str, port: int, cause: str | None = None):
        self.host = host
        self.port = port
        self.cause = cause
        message = f"gateway at {host}:{port} is unavailable"
        if cause:
            message = f"{message} ({cause})"
        super().__init__(message)


class ServiceOverloadError(BspError, RuntimeError):
    """The service shed a submission because no healthy pool can take it.

    Distinct from :class:`AdmissionError` (queue bounds — the service is
    healthy, just full): here every warm pool serving the job's fleet key
    is quarantined (failed health probes, restart storm) and accepting
    the job would mean silent unbounded latency.  ``retry_after`` is the
    gateway's hint, in seconds, for when capacity is expected back —
    quarantined pools recycle in the background.
    """

    def __init__(self, message: str, *, retry_after: float | None = None):
        self.retry_after = retry_after
        if retry_after is not None:
            message = f"{message} (retry after {retry_after:.0f}s)"
        super().__init__(message)


class VirtualProcessorError(BspError, RuntimeError):
    """An exception escaped the program body of one virtual processor.

    Attributes
    ----------
    pid:
        The virtual processor whose program raised.
    original:
        The original exception instance on the simulator; ``None`` on
        every other backend, whose ranks report through the pool core's
        outcome (the formatted traceback only).
    traceback_text:
        Formatted traceback of the original failure.
    """

    def __init__(self, pid: int, traceback_text: str, original: BaseException | None = None):
        self.pid = pid
        self.original = original
        self.traceback_text = traceback_text
        super().__init__(
            f"virtual processor {pid} raised:\n{traceback_text}"
        )
