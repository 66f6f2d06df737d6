"""The per-processor Green BSP programming interface.

A BSP program is a plain Python callable ``program(bsp, *args, **kwargs)``
executed once per virtual processor; ``bsp`` is the :class:`Bsp` context for
that processor.  The API mirrors the three core calls of the paper's
Appendix A —

=====================  =======================================
paper (C)              this library
=====================  =======================================
``bspSendPkt(d, pkt)`` ``bsp.send(d, payload)`` / ``bsp.send_pkt``
``bspGetPkt()``        ``bsp.get_pkt()`` (or ``for pkt in bsp.packets()``)
``bspSynch()``         ``bsp.sync()`` / ``bsp.synch()``
=====================  =======================================

plus the auxiliary calls the paper mentions (process id, processor count,
count of unreceived packets).  Delivery semantics are the paper's: a packet
sent in superstep *i* is available after the sync that ends superstep *i*,
packets may be retrieved in arbitrary order (the runtime's order is
deterministic, but programs must not rely on it), and packets left unread
when the *next* sync completes are dropped.

The context also performs the ledger accounting (work seconds, h-units
sent/received per superstep) that feeds :class:`~repro.core.stats.ProgramStats`
and the cost model.
"""

from __future__ import annotations

import time
from collections import deque
from operator import attrgetter
from typing import Any, Callable, Iterator, Protocol

from .errors import BspUsageError
from .packets import Packet, PacketRuns, delivery_order, h_units
from .stats import VPLedger

_packet_h = attrgetter("h")


class ExchangeChannel(Protocol):
    """What a backend must provide to a :class:`Bsp` context.

    ``exchange`` implements one superstep boundary: it takes the packets the
    processor sent during the superstep that is ending, blocks until all
    peers reach the same boundary, and returns the packets addressed to this
    processor that were sent during that superstep.
    """

    def exchange(
        self, pid: int, step: int, outbox: list[Packet]
    ) -> "list[Packet] | PacketRuns":
        ...  # pragma: no cover - protocol


class Bsp:
    """Green BSP context bound to one virtual processor.

    Created by a backend; user programs only consume it.  Not thread-safe:
    each context belongs to exactly one virtual processor.
    """

    __slots__ = (
        "_pid",
        "_nprocs",
        "_channel",
        "_ledger",
        "_sample",
        "_inbox",
        "_outbox",
        "_step",
        "_seq",
        "_t0",
        "_finished",
        "_clock",
        "_ckpt",
        "_prepare",
    )

    def __init__(
        self,
        pid: int,
        nprocs: int,
        channel: ExchangeChannel,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if not 0 <= pid < nprocs:
            raise BspUsageError(f"pid {pid} out of range for nprocs {nprocs}")
        self._pid = pid
        self._nprocs = nprocs
        self._channel = channel
        self._clock = clock
        self._ledger = VPLedger(pid)
        self._sample = self._ledger.begin_superstep()
        self._inbox: deque[Packet] = deque()
        self._outbox: list[Packet] = []
        self._step = 0
        self._seq = 0
        self._finished = False
        self._ckpt = None
        #: Optional backend hook applied to every outgoing payload at
        #: send time (e.g. the thread backend's by-reference mutation
        #: guard / copy-on-send fallback).  Cached once: the per-send
        #: cost for backends without the hook is a single None test.
        self._prepare = getattr(channel, "prepare_payload", None)
        self._t0 = clock()

    # -- identity ---------------------------------------------------------

    @property
    def pid(self) -> int:
        """This virtual processor's id in ``range(nprocs)``."""
        return self._pid

    @property
    def nprocs(self) -> int:
        """Number of virtual processors in the run."""
        return self._nprocs

    @property
    def superstep(self) -> int:
        """Index of the current superstep (0-based)."""
        return self._step

    # -- sending ----------------------------------------------------------

    def send(self, dst: int, payload: Any, *, h: int | None = None) -> None:
        """Queue ``payload`` for delivery to processor ``dst`` next superstep.

        ``h`` overrides the h-unit charge (16-byte packet count) for the
        message; by default it is derived from the payload's size via
        :func:`repro.core.packets.h_units`.
        """
        self._check_live()
        if not 0 <= dst < self._nprocs:
            raise BspUsageError(
                f"destination {dst} out of range for nprocs {self._nprocs}"
            )
        if self._prepare is not None:
            payload = self._prepare(payload)
        cost = h_units(payload) if h is None else h
        self._outbox.append(Packet(self._pid, dst, payload, cost, self._seq))
        self._seq += 1
        sample = self._sample
        sample.h_sent += cost
        sample.msgs_sent += 1

    def send_pkt(self, dst: int, payload: Any) -> None:
        """Paper-faithful alias of :meth:`send` (``bspSendPkt``)."""
        self.send(dst, payload)

    def broadcast_send(
        self, payload: Any, *, include_self: bool = False, h: int | None = None
    ) -> None:
        """Send ``payload`` to every (other) processor — a convenience for
        one-superstep broadcasts; charged ``(p-1)`` (or ``p``) times ``h``.

        The h-unit charge is computed once for the payload, not once per
        destination.
        """
        cost = h_units(payload) if h is None else h
        for q in range(self._nprocs):
            if include_self or q != self._pid:
                self.send(q, payload, h=cost)

    # -- receiving --------------------------------------------------------

    def get_pkt(self) -> Packet | None:
        """Return the next delivered packet, or ``None`` when drained.

        Mirrors ``bspGetPkt``; only packets sent in the immediately
        preceding superstep are available.
        """
        self._check_live()
        if self._inbox:
            return self._inbox.popleft()
        return None

    def packets(self) -> Iterator[Packet]:
        """Iterate over (and consume) the packets delivered at the last sync."""
        while True:
            pkt = self.get_pkt()
            if pkt is None:
                return
            yield pkt

    def payloads(self) -> Iterator[Any]:
        """Like :meth:`packets` but yields just the payloads."""
        for pkt in self.packets():
            yield pkt.payload

    @property
    def npackets(self) -> int:
        """Number of delivered-but-unread packets (paper's aux call)."""
        return len(self._inbox)

    # -- synchronization ---------------------------------------------------

    def sync(self) -> None:
        """End the current superstep (``bspSynch``).

        Blocks until every virtual processor reaches the same boundary; on
        return, the packets sent to this processor during the superstep
        that just ended are available via :meth:`get_pkt`.  Packets from
        the *previous* superstep still unread are discarded.
        """
        self._check_live()
        sample = self._sample
        sample.work_seconds += self._clock() - self._t0
        outbox, self._outbox = self._outbox, []
        inbound = self._channel.exchange(self._pid, self._step, outbox)
        if isinstance(inbound, PacketRuns):
            # Per-source runs are already seq-sorted; concatenation in src
            # order is the canonical delivery order, in O(n).
            ordered = inbound.merged()
        else:
            ordered = delivery_order(inbound)
        sample.h_recv = sum(map(_packet_h, ordered))
        sample.msgs_recv = len(ordered)
        self._inbox = deque(ordered)
        self._step += 1
        self._seq = 0
        self._sample = self._ledger.begin_superstep()
        self._t0 = self._clock()

    def synch(self) -> None:
        """Paper-faithful alias of :meth:`sync`."""
        self.sync()

    def pattern(self, sends_to, receives_from=None, *,
                validate: bool = True) -> None:
        """Declare this processor's static communication pattern.

        ``sends_to`` is the set of destination pids this processor will
        ever address; ``receives_from`` the set of sources it will ever
        hear from (``None`` means the symmetric closure: it receives
        from exactly the pids it sends to).  Self-sends are always
        local and never need declaring — the own pid is silently dropped
        from both sets.

        Under ``sync="elide"`` a boundary sends one frame to each
        ``sends_to`` peer and waits for one from each ``receives_from``
        peer, nothing else, on every backend; every processor must
        declare a *consistent* view (q appears in p's ``sends_to`` iff
        p appears in q's ``receives_from``) — an inconsistent
        declaration stalls the run like a lost message.
        With ``validate=True`` (the default) a send outside the pattern
        raises :class:`~repro.core.errors.BspUsageError` at the next
        boundary.  Under strict/relaxed sync the declaration only
        enables validation; the protocol is unchanged.
        """
        self._check_live()
        from ..bsplib import CommPattern  # function-level: bsplib imports us

        cp = CommPattern.build(self._pid, self._nprocs, sends_to,
                               receives_from, validate=validate)
        declare = getattr(self._channel, "declare_pattern", None)
        if declare is not None:
            declare(cp)

    # -- instrumentation ----------------------------------------------------

    def charge(self, units: float) -> None:
        """Accumulate abstract work units on the current superstep.

        Purely an instrumentation hook: lets applications report
        host-independent operation counts alongside measured seconds.
        """
        self._sample.charged += units

    def off_clock(self) -> "_OffClock":
        """Context manager excluding a code block from work measurement.

        Used by harness code (input distribution, verification) that runs
        inside the program body but is not part of the algorithm being
        costed — the paper's experiments likewise exclude I/O.
        """
        return _OffClock(self)

    # -- checkpointing (opt-in capture/restore protocol) ---------------------

    def checkpoint(self, capture: Callable[[], Any]) -> bool:
        """Offer a snapshot of this rank at the current superstep boundary.

        Programs call this at the top of their superstep loop — after a
        ``sync()`` (or before the first one) and **before** any ``send()``
        of the new superstep, so the snapshot sits exactly on the
        consistent cut the barrier provides.  ``capture`` must return a
        picklable value holding everything the program needs to restart
        this superstep; it is only invoked when a checkpoint is actually
        due (``checkpoint_every`` spacing), and runs off the work clock.

        Returns ``True`` if a shard was written, ``False`` when the run
        is not checkpointing or no checkpoint is due yet.  On resume,
        :meth:`resume_state` hands back what ``capture`` returned.
        """
        self._check_live()
        agent = self._ckpt
        if agent is None or not agent.due(self._step):
            return False
        if self._outbox:
            raise BspUsageError(
                f"pid {self._pid}: checkpoint() must run at a superstep "
                f"boundary, before any send() of superstep {self._step} "
                f"({len(self._outbox)} packet(s) already queued)"
            )
        with self.off_clock():
            agent.write(self._step, self._pid, self._nprocs, capture(),
                        list(self._inbox), self._ledger.samples[:-1])
        # A checkpoint cut must be a consistent global state: fence the
        # next boundary over every link (no elided one) so no peer runs
        # ahead across the cut.  Checkpoint spacing is deterministic
        # (same ``checkpoint_every`` on every pid), so all ranks fence
        # the same boundary.  No-op for channels without sync modes.
        fence = getattr(self._channel, "fence_next_sync", None)
        if fence is not None:
            fence()
        return True

    def resume_state(self) -> Any:
        """The restored ``capture`` value after a checkpoint resume.

        ``None`` on a fresh (non-resumed) run, and on every call after
        the first — the state is handed out exactly once, so programs
        can write ``restored = bsp.resume_state()`` unconditionally.
        """
        if self._ckpt is None:
            return None
        return self._ckpt.take_state()

    def _attach_checkpoint(self, agent) -> None:
        """Bind a :class:`~repro.checkpoint.WorkerCheckpoint`; when it
        carries a resume snapshot, fast-forward this context to the
        snapshot's boundary: ledger samples for supersteps ``0..step-1``
        restored verbatim, undelivered inbox re-queued, superstep counter
        advanced.  Backend/wrapper internal."""
        if self._step != 0 or self._outbox or len(self._ledger.samples) != 1:
            raise BspUsageError(
                "checkpoint restore must happen before any sync() or send()")
        self._ckpt = agent
        snap = agent.snapshot
        if snap is None:
            return
        self._ledger.samples[:] = list(snap.samples)
        self._sample = self._ledger.begin_superstep()
        self._inbox = deque(snap.inbox)
        self._step = snap.step
        self._seq = 0
        self._t0 = self._clock()

    # -- lifecycle (backend-internal) ---------------------------------------

    def _finish(self) -> VPLedger:
        """Close the ledger at program end.  Called by backends only."""
        if self._finished:
            raise BspUsageError("Bsp context finished twice")
        if self._outbox:
            raise BspUsageError(
                f"pid {self._pid}: program ended with {len(self._outbox)} "
                "unsent packet(s) queued; every send() must be followed by "
                "a sync() before the program returns"
            )
        self._sample.work_seconds += self._clock() - self._t0
        self._finished = True
        return self._ledger

    def _check_live(self) -> None:
        if self._finished:
            raise BspUsageError("Bsp context used after program end")


class _OffClock:
    """Pause work-time measurement for the enclosed block."""

    __slots__ = ("_bsp", "_t")

    def __init__(self, bsp: Bsp):
        self._bsp = bsp
        self._t = 0.0

    def __enter__(self) -> None:
        bsp = self._bsp
        bsp._sample.work_seconds += bsp._clock() - bsp._t0
        return None

    def __exit__(self, *exc: object) -> None:
        bsp = self._bsp
        bsp._t0 = bsp._clock()
        return None
