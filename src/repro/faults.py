"""Deterministic fault injection for the process backend.

The paper's portability claim rests on the runtime surviving real
machines — the TCP version on the PC-LAN had to tolerate slow and flaky
nodes, not just the happy path.  Supervision code is only trustworthy if
its failure paths are *provoked on purpose*: this module provides a
seeded, fully deterministic schedule of faults (:class:`FaultPlan`) that
the process backend consults at well-defined hook points, so every
recovery path in :mod:`repro.backends.processes` is exercised by tests
rather than hoped about (cf. the attributable-failure methodology of the
experimental BSP sorting literature).

Fault kinds
-----------
=============== ==========================================================
``KILL``        SIGKILL to self at a superstep boundary — a crash the OS
                sees and Python never does (OOM killer, ``kill -9``).
``EXIT``        ``os._exit(code)`` — a native extension dying without
                interpreter cleanup (no atexit, no queue flush).
``RAISE``       an ordinary Python exception out of the program body —
                the :class:`~repro.core.errors.VirtualProcessorError`
                path.
``POISON``      append an unpicklable payload to the outbox — fails at
                the boundary, when the frame is encoded on the thread
                that called ``sync()``, after the program thought the
                send succeeded.
``DELAY``       sleep before the boundary — slow but alive, visible as
                advancing heartbeats.
``DROP_FRAME``  silently drop the boundary frame to one peer — a lost
                message: in every sync mode that peer stalls on the
                link, a genuine deadlock.
``DROP_DEPART`` suppress the departure sentinel to one peer — that peer
                waits on the link of a processor that already returned.
=============== ==========================================================

Network-targeted kinds (consulted by the TCP mesh channel at superstep
boundaries; they model a flaky PC-LAN fabric rather than a dying
program, and a resilient transport must absorb all of them without
changing results or ledgers):

================= ========================================================
``CORRUPT_FRAME`` flip a bit in the wire bytes of the boundary frame to
                  one peer — the receiver's CRC must reject it and the
                  link-level NACK/retransmit path must repair it from
                  the send journal.
``DUP_FRAME``     transmit the boundary frame to one peer twice — the
                  receiver must drop the duplicate by sequence number.
``RESET_CONN``    abort the TCP connection to one peer (RST, via
                  SO_LINGER 0) right before the boundary — both ends
                  must reconnect transparently and replay their
                  journals.
``PARTITION``     ``RESET_CONN`` on *every* live link of the rank at
                  once — a switch rebooting under one machine.
``SLOW_LINK``     sleep before sending to one peer — a congested path,
                  visible as latency, never as an error.
================= ========================================================

Zero-copy data-plane kinds (consulted by the process backend's boundary
exchange; they attack the shared-memory segment pool of
:mod:`repro.backends.shm` and must never corrupt a delivery):

================ =========================================================
``LEAK_SEGMENT`` the worker creates a segment at the boundary and forgets
                 it — nothing in the run ever releases or unlinks it, so
                 only the parent's orphan sweep (teardown/rebuild/heal)
                 can reclaim the ``/dev/shm`` entry.
``TORN_LEASE``   the receiver discards the lease releases it collected at
                 the boundary instead of sending them home — the owner's
                 pool must grow (fresh regions) rather than reuse the
                 unreleased ones, and teardown still reclaims everything.
================ =========================================================

Checkpoint-targeted kinds (consulted by
:meth:`repro.checkpoint.CheckpointStore.save_shard` right after a shard
is durably written, i.e. they model storage-level damage, not a failed
write):

======================= ==================================================
``TRUNCATE_CHECKPOINT`` cut the just-written shard to half its bytes — a
                        crash mid-flush / torn write on a non-atomic
                        filesystem.
``CORRUPT_CHECKPOINT``  flip bytes of the just-written shard — silent
                        media corruption that only a checksum catches.
======================= ==================================================

Service-layer kinds (consulted by :mod:`repro.service` — the durable
gateway's journal and the fleet health prober; they model the service's
own failure surfaces, which no worker-local hook can reach):

================= ========================================================
``GATEWAY_CRASH`` SIGKILL the gateway process itself immediately after
                  journal record *step* is durably appended — the
                  "kill -9 the control plane" scenario.  Restarting with
                  the same ``--journal-dir`` must replay every admitted
                  job.
``JOURNAL_TORN``  truncate the just-appended journal record to half its
                  bytes — a torn tail write on a crashing filesystem.
                  Replay must *skip* the damaged record (fallback
                  ladder), never resurrect a half-parsed job.
``POOL_SICK``     make fleet slot *pid*'s health probe number *step*
                  raise — a pool whose supervision state is gone.  The
                  prober must quarantine the slot, drain work to healthy
                  pools, and recycle the sick one in the background.
================= ========================================================

Zero overhead when disabled
---------------------------
The hooks in ``processes.py``/``frames.py`` are a single module-attribute
load and ``None`` test per superstep boundary (never per packet)::

    plan = faults._ACTIVE
    if plan is not None:
        plan.at_boundary(pid, step, nprocs, outbox)

``benchmarks/bench_backend_comm.py`` verifies the disabled-path cost is
unmeasurable against BENCH_comm.json's optimized numbers.

Plans cross the fork boundary by inheritance: install a plan (``install``
or the ``injected`` context manager) **before** creating the backend or
pool, and every forked worker carries it.  Clearing the plan in the
parent afterwards does not reach already-forked pool workers — build the
pool inside the ``injected`` block scoped to the faulty phase, or use
one-shot backends, whose workers fork per run.
"""

from __future__ import annotations

import mmap
import os
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from .core.errors import BspConfigError, BspError
from .core.packets import Packet

#: Fault kinds (see module docstring).
KILL = "kill"
EXIT = "exit"
RAISE = "raise"
POISON = "poison"
DELAY = "delay"
DROP_FRAME = "drop-frame"
DROP_DEPART = "drop-depart"
TRUNCATE_CHECKPOINT = "truncate-checkpoint"
CORRUPT_CHECKPOINT = "corrupt-checkpoint"
CORRUPT_FRAME = "corrupt-frame"
DUP_FRAME = "dup-frame"
RESET_CONN = "reset-conn"
PARTITION = "partition"
SLOW_LINK = "slow-link"
LEAK_SEGMENT = "leak-segment"
TORN_LEASE = "torn-lease"
GATEWAY_CRASH = "gateway-crash"
JOURNAL_TORN = "journal-torn"
POOL_SICK = "pool-sick"

_KINDS = frozenset({KILL, EXIT, RAISE, POISON, DELAY, DROP_FRAME,
                    DROP_DEPART, TRUNCATE_CHECKPOINT, CORRUPT_CHECKPOINT,
                    CORRUPT_FRAME, DUP_FRAME, RESET_CONN, PARTITION,
                    SLOW_LINK, LEAK_SEGMENT, TORN_LEASE,
                    GATEWAY_CRASH, JOURNAL_TORN, POOL_SICK})

#: Kinds that attack the service layer (the durable gateway), not a
#: worker: the gateway process itself, its job journal, or a warm pool's
#: probed health.  See the service-fault section of the module docstring.
SERVICE_KINDS = frozenset({GATEWAY_CRASH, JOURNAL_TORN, POOL_SICK})

#: Kinds that attack the zero-copy shared-memory data plane: they must
#: never corrupt a delivery — only grow the segment pool until the
#: parent's orphan sweep reclaims it.
ZEROCOPY_KINDS = frozenset({LEAK_SEGMENT, TORN_LEASE})

#: Kinds that damage a just-written checkpoint shard.
CHECKPOINT_KINDS = frozenset({TRUNCATE_CHECKPOINT, CORRUPT_CHECKPOINT})

#: Kinds that damage the network fabric, not the program: a resilient
#: transport absorbs them with identical results and ledgers.
NETWORK_KINDS = frozenset({CORRUPT_FRAME, DUP_FRAME, RESET_CONN,
                           PARTITION, SLOW_LINK})

#: Kinds the worker reports itself (program-level failures).
REPORTED_KINDS = frozenset({RAISE, POISON})
#: Kinds that kill the worker outright (crash detection must fire).
CRASH_KINDS = frozenset({KILL, EXIT})


class FaultInjectedError(BspError, RuntimeError):
    """Raised inside a worker by an injected ``RAISE`` fault."""


class _Unpicklable:
    """A payload that deterministically poisons the sender's pickle pass."""

    def __reduce__(self):
        raise RuntimeError("injected pickle failure (FaultPlan POISON)")


class FrameCounter:
    """Fork-shared per-sender counters of wire frames actually pushed.

    One 8-byte slot per sending pid in an anonymous ``mmap``, so counts
    survive the fork boundary and each slot has exactly one writer (the
    owning worker) — aligned 8-byte stores are atomic on every platform
    we fork on, and single-writer slots need no cross-process locking.

    Attach one to a :class:`FaultPlan` (``frame_counter=``) to measure
    how many frames a run put on the wire: backends call
    :meth:`FaultPlan.count_frame` at every point a boundary frame is
    actually sent (after any injected drop).  Used by the
    empty-superstep regression tests to assert the per-mode frame
    budgets of the synchronization layer.
    """

    def __init__(self, nprocs: int):
        if nprocs < 1:
            raise BspConfigError(f"nprocs must be >= 1, got {nprocs}")
        self._nprocs = nprocs
        self._mm = mmap.mmap(-1, max(8 * nprocs, mmap.PAGESIZE))
        self._v = memoryview(self._mm).cast("Q")

    def add(self, src: int, n: int = 1) -> None:
        """Credit ``n`` frames to sender ``src`` (worker side)."""
        self._v[src] += n

    def per_sender(self) -> list[int]:
        """Snapshot of each pid's frame count."""
        return [int(self._v[pid]) for pid in range(self._nprocs)]

    def total(self) -> int:
        """Total frames counted across all senders."""
        return sum(self.per_sender())

    def reset(self) -> None:
        for pid in range(self._nprocs):
            self._v[pid] = 0

    def close(self) -> None:
        try:
            self._v.release()
            self._mm.close()
        except (BufferError, ValueError):  # pragma: no cover
            pass


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: *kind* hits worker *pid* at superstep *step*.

    ``arg`` is kind-specific: the exit code for ``EXIT``, the sleep
    seconds for ``DELAY``, the destination peer for ``DROP_FRAME`` /
    ``DROP_DEPART`` / ``CORRUPT_FRAME`` / ``DUP_FRAME`` / ``RESET_CONN``,
    a ``(peer, seconds)`` pair for ``SLOW_LINK``; unused otherwise
    (``PARTITION`` always hits every link of ``pid``).
    """

    kind: str
    pid: int
    step: int
    arg: object = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise BspConfigError(f"unknown fault kind {self.kind!r}")
        if self.kind in (DROP_FRAME, DROP_DEPART, CORRUPT_FRAME, DUP_FRAME,
                         RESET_CONN) and self.arg is None:
            raise BspConfigError(f"{self.kind} needs arg=<destination pid>")
        if self.kind == SLOW_LINK and (
                not isinstance(self.arg, tuple) or len(self.arg) != 2):
            raise BspConfigError(
                f"{SLOW_LINK} needs arg=(destination pid, seconds)")


class FaultPlan:
    """A deterministic schedule of faults, consulted by backend hooks.

    The plan itself is pure data — identical plans injected into identical
    runs produce identical failures, which is what makes a failed run
    *attributable* and a recovery test repeatable.
    """

    def __init__(self, faults: Sequence[Fault] = (), *,
                 frame_counter: FrameCounter | None = None):
        self.faults = tuple(faults)
        #: Optional fork-shared wire-frame counter (see :class:`FrameCounter`).
        self.frame_counter = frame_counter
        self._boundary: dict[tuple[int, int], Fault] = {}
        self._drops: set[tuple[int, int, int]] = set()
        self._drop_departs: set[tuple[int, int]] = set()
        self._ckpt_tampers: dict[tuple[int, int], str] = {}
        self._corrupts: set[tuple[int, int, int]] = set()
        self._dups: set[tuple[int, int, int]] = set()
        #: (pid, step) -> peer to reset, or None meaning "every link".
        self._resets: dict[tuple[int, int], int | None] = {}
        self._slow: dict[tuple[int, int, int], float] = {}
        self._leaks: set[tuple[int, int]] = set()
        self._tears: set[tuple[int, int]] = set()
        self._gateway_crashes: set[int] = set()
        self._journal_tears: set[int] = set()
        self._sick_probes: set[tuple[int, int]] = set()
        for fault in self.faults:
            if fault.kind == DROP_FRAME:
                self._drops.add((fault.pid, fault.step, int(fault.arg)))
            elif fault.kind == DROP_DEPART:
                self._drop_departs.add((fault.pid, int(fault.arg)))
            elif fault.kind in CHECKPOINT_KINDS:
                self._ckpt_tampers[(fault.pid, fault.step)] = fault.kind
            elif fault.kind == CORRUPT_FRAME:
                self._corrupts.add((fault.pid, fault.step, int(fault.arg)))
            elif fault.kind == DUP_FRAME:
                self._dups.add((fault.pid, fault.step, int(fault.arg)))
            elif fault.kind == RESET_CONN:
                self._resets[(fault.pid, fault.step)] = int(fault.arg)
            elif fault.kind == PARTITION:
                self._resets[(fault.pid, fault.step)] = None
            elif fault.kind == SLOW_LINK:
                peer, seconds = fault.arg
                self._slow[(fault.pid, fault.step, int(peer))] = \
                    float(seconds)
            elif fault.kind == LEAK_SEGMENT:
                self._leaks.add((fault.pid, fault.step))
            elif fault.kind == TORN_LEASE:
                self._tears.add((fault.pid, fault.step))
            elif fault.kind == GATEWAY_CRASH:
                self._gateway_crashes.add(fault.step)
            elif fault.kind == JOURNAL_TORN:
                self._journal_tears.add(fault.step)
            elif fault.kind == POOL_SICK:
                self._sick_probes.add((fault.pid, fault.step))
            else:
                self._boundary[(fault.pid, fault.step)] = fault

    @classmethod
    def random(cls, seed: int, nprocs: int, nsteps: int, *,
               kinds: Sequence[str] = (KILL, EXIT, RAISE, POISON),
               nfaults: int = 1) -> "FaultPlan":
        """A seeded schedule of ``nfaults`` faults over a ``nprocs`` x
        ``nsteps`` run — same seed, same schedule, forever."""
        rng = random.Random(seed)
        faults = []
        for _ in range(nfaults):
            kind = rng.choice(list(kinds))
            pid = rng.randrange(nprocs)
            step = rng.randrange(nsteps)
            arg: object = None
            if kind == EXIT:
                arg = rng.randrange(1, 128)
            elif kind == DELAY:
                arg = rng.uniform(0.05, 0.2)
            elif kind in (DROP_FRAME, DROP_DEPART, CORRUPT_FRAME,
                          DUP_FRAME, RESET_CONN):
                if nprocs < 2:
                    continue
                arg = (pid + rng.randrange(1, nprocs)) % nprocs
            elif kind == SLOW_LINK:
                if nprocs < 2:
                    continue
                arg = ((pid + rng.randrange(1, nprocs)) % nprocs,
                       rng.uniform(0.01, 0.1))
            faults.append(Fault(kind, pid, step, arg))
        return cls(faults)

    # -- worker-side hooks ---------------------------------------------------

    def at_boundary(self, pid: int, step: int, nprocs: int,
                    outbox: list[Packet]) -> None:
        """Called at each superstep boundary, before any frame is pushed."""
        fault = self._boundary.get((pid, step))
        if fault is None:
            return
        if fault.kind == DELAY:
            time.sleep(float(fault.arg) if fault.arg is not None else 0.1)
        elif fault.kind == KILL:
            os.kill(os.getpid(), signal.SIGKILL)
        elif fault.kind == EXIT:
            os._exit(int(fault.arg) if fault.arg is not None else 42)
        elif fault.kind == RAISE:
            raise FaultInjectedError(
                f"injected failure at pid {pid}, superstep {step}")
        elif fault.kind == POISON and nprocs > 1:
            dst = (pid + 1) % nprocs
            outbox.append(Packet(src=pid, dst=dst, payload=_Unpicklable(),
                                 h=1, seq=1 << 20))

    def drops_frame(self, src: int, step: int, dst: int) -> bool:
        return (src, step, dst) in self._drops

    def drops_depart(self, pid: int, peer: int) -> bool:
        return (pid, peer) in self._drop_departs

    # -- zero-copy data-plane hooks (process backend) ------------------------

    def leaks_segment(self, pid: int, step: int) -> bool:
        """True when ``pid`` must leak one orphan segment at ``step``."""
        return (pid, step) in self._leaks

    def tears_lease(self, pid: int, step: int) -> bool:
        """True when ``pid`` must discard its collected lease releases at
        ``step`` (they never reach the owning pool)."""
        return (pid, step) in self._tears

    # -- network-fabric hooks (TCP mesh channel) -----------------------------

    def corrupts_frame(self, src: int, step: int, dst: int) -> bool:
        """True when ``src`` must damage its wire frame to ``dst``."""
        return (src, step, dst) in self._corrupts

    def duplicates_frame(self, src: int, step: int, dst: int) -> bool:
        """True when ``src`` must transmit its frame to ``dst`` twice."""
        return (src, step, dst) in self._dups

    def reset_peers(self, pid: int, step: int,
                    peers: Sequence[int]) -> tuple[int, ...]:
        """The links of ``pid`` to abort (RST) at this boundary.

        ``RESET_CONN`` names one peer; ``PARTITION`` expands to every
        peer in ``peers``.  Empty tuple when nothing is scheduled.
        """
        target = self._resets.get((pid, step), -1)
        if target == -1:
            return ()
        if target is None:
            return tuple(peers)
        return (target,) if target in peers else ()

    def slow_link(self, src: int, step: int, dst: int) -> float:
        """Injected delay in seconds before sending to ``dst`` (0 = none)."""
        return self._slow.get((src, step, dst), 0.0)

    def has_network_faults(self) -> bool:
        """True when any network-fabric fault is scheduled at all."""
        return bool(self._corrupts or self._dups or self._resets
                    or self._slow)

    def count_frame(self, src: int, n: int = 1) -> None:
        """Credit ``n`` wire frames to ``src`` on the attached counter.

        Called by backends at every point a boundary frame is actually
        pushed (after any injected drop); a plan without a counter makes
        this a no-op.
        """
        counter = self.frame_counter
        if counter is not None:
            counter.add(src, n)

    def tampers_checkpoint(self, pid: int, step: int) -> str | None:
        """The checkpoint-damage kind scheduled for (pid, step), if any."""
        return self._ckpt_tampers.get((pid, step))

    # -- service-layer hooks (durable gateway) -------------------------------

    def crashes_gateway(self, seq: int) -> bool:
        """True when the gateway must SIGKILL itself right after journal
        record ``seq`` is durably appended."""
        return seq in self._gateway_crashes

    def tears_journal(self, seq: int) -> bool:
        """True when journal record ``seq`` must be torn (truncated to
        half its bytes) right after its durable append."""
        return seq in self._journal_tears

    def pool_sick(self, slot_index: int, probe_seq: int) -> bool:
        """True when fleet slot ``slot_index``'s health probe number
        ``probe_seq`` must fail (raise)."""
        return (slot_index, probe_seq) in self._sick_probes


#: The installed plan; ``None`` (the default) short-circuits every hook.
_ACTIVE: FaultPlan | None = None


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide; forked workers inherit it."""
    global _ACTIVE
    _ACTIVE = plan


def clear() -> None:
    """Remove the installed plan (already-forked workers keep theirs)."""
    global _ACTIVE
    _ACTIVE = None


def active() -> FaultPlan | None:
    """The currently installed plan, or ``None``."""
    return _ACTIVE


@contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """``with faults.injected(plan): ...`` — install for the block only."""
    install(plan)
    try:
        yield plan
    finally:
        clear()


# -- fleet-level faults (repro.service chaos) --------------------------------
#
# The kinds above fire *inside* a worker, driven by an inherited plan.
# A serving fleet has two further failure surfaces that no worker-local
# hook can reach: a whole pool losing a worker mid-job (the OOM killer
# does not consult fault plans), and one tenant flooding the admission
# queue.  These helpers inject exactly those, from the outside, against
# live pools — used by the service chaos tests and ``bench_service.py``.

def pool_worker_os_pids(pool) -> list[int]:
    """The OS pids of a live :class:`~repro.backends.processes.BspPool`
    or :class:`~repro.backends.tcp.TcpMesh`'s worker processes."""
    return [proc.pid for proc in pool._procs if proc.is_alive()]


def kill_pool_worker(pool, rank: int = 0, sig: int = signal.SIGKILL) -> int:
    """SIGKILL one worker of a live pool/mesh, mid-job, from outside.

    Returns the OS pid that was signalled.  The pool's own supervision
    turns this into a :class:`~repro.core.errors.WorkerCrashError` and a
    self-heal; a service job running on the pool either retries from its
    last checkpoint or fails cleanly — the chaos tests assert both.
    """
    proc = pool._procs[rank]
    if proc.pid is None:  # pragma: no cover - never started
        raise BspConfigError(f"pool worker {rank} has no OS process")
    os.kill(proc.pid, sig)
    return proc.pid


def flood_tenant(submit, count: int) -> tuple[list, list]:
    """Drive one tenant's ``submit`` callable to (past) admission limits.

    ``submit`` is called ``count`` times; returns ``(accepted, rejected)``
    where rejections are the :class:`~repro.core.errors.AdmissionError`
    instances raised.  The service's bounded queue and per-tenant caps
    must convert the flood into typed rejections, not latency for the
    other tenants — which is what the chaos tests assert.
    """
    from .core.errors import AdmissionError
    accepted, rejected = [], []
    for _ in range(count):
        try:
            accepted.append(submit())
        except AdmissionError as exc:
            rejected.append(exc)
    return accepted, rejected
