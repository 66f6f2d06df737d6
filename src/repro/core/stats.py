"""Superstep accounting: the W, H, S quantities of the BSP cost model.

The paper characterizes every program run by three numbers (Section 1):

* ``W`` — the *work depth*: the sum over supersteps of the largest local
  computation time of any processor in that superstep,
* ``H`` — the sum over supersteps of the largest number of (16-byte)
  packets sent **or** received by any processor in that superstep,
* ``S`` — the number of supersteps.

Every backend produces one :class:`VPLedger` per virtual processor with a
per-superstep sample of its local work and traffic; :class:`ProgramStats`
merges the ``p`` ledgers into per-superstep maxima and program totals.  The
tables in Figures 3.2 and C.1–C.6 are printed straight from these objects.

Work is measured two ways at once:

* ``work_seconds`` — wall-clock time the virtual processor spent between
  superstep boundaries, excluding time blocked at the barrier.  On the
  serialized :mod:`~repro.backends.simulator` backend this reproduces the
  paper's "IPC single-processor simulation" method of measuring work depth.
* ``charged`` — an optional abstract operation count accumulated via
  :meth:`repro.core.api.Bsp.charge`, for host-speed-independent analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import starmap
from operator import attrgetter
from typing import Iterable, Sequence

from .errors import BspUsageError


@dataclass
class SuperstepSample:
    """One virtual processor's ledger entry for one superstep."""

    work_seconds: float = 0.0
    charged: float = 0.0
    h_sent: int = 0
    h_recv: int = 0
    msgs_sent: int = 0
    msgs_recv: int = 0


#: A sample's fields in declaration order: one row of a ledger.
_SAMPLE_ROW = attrgetter("work_seconds", "charged", "h_sent", "h_recv",
                         "msgs_sent", "msgs_recv")


def _ledger_from_rows(pid: int, rows: list[tuple]) -> "VPLedger":
    return VPLedger(pid, list(starmap(SuperstepSample, rows)))


@dataclass
class VPLedger:
    """Per-superstep samples recorded by a single virtual processor."""

    pid: int
    samples: list[SuperstepSample] = field(default_factory=list)

    def __reduce__(self):
        # A rank's ledger goes home as one row per superstep, not as one
        # pickled object per sample: a fraction of the bytes and of the
        # time at both ends.
        return _ledger_from_rows, (self.pid,
                                   list(map(_SAMPLE_ROW, self.samples)))

    def begin_superstep(self) -> SuperstepSample:
        sample = SuperstepSample()
        self.samples.append(sample)
        return sample

    @property
    def nsupersteps(self) -> int:
        return len(self.samples)

    @property
    def total_work_seconds(self) -> float:
        return sum(s.work_seconds for s in self.samples)

    @property
    def total_charged(self) -> float:
        return sum(s.charged for s in self.samples)


@dataclass(frozen=True)
class SuperstepStats:
    """Cross-processor maxima/totals for one superstep.

    ``w`` is the superstep's work depth :math:`w_i` (seconds) and ``h`` its
    h-relation size :math:`h_i = \\max_j \\max(\\text{sent}_j,
    \\text{recv}_j)` in 16-byte-packet units, exactly as the paper defines
    them.
    """

    index: int
    w: float
    charged: float
    h: int
    h_sent_max: int
    h_recv_max: int
    #: Like ``h`` but counting *messages* instead of 16-byte packets —
    #: the LogP-style quantity; used by the packet-accounting ablation.
    m: int
    total_work: float
    total_charged: float
    total_msgs: int


@dataclass(frozen=True)
class ProgramStats:
    """Merged accounting for one BSP program run on ``nprocs`` processors."""

    nprocs: int
    supersteps: tuple[SuperstepStats, ...]
    #: Sum over all processors and supersteps of local computation (seconds).
    #: The paper's "Total Work" column; excludes idle and communication time.
    total_work: float
    total_charged: float
    #: Wall-clock of the whole run as seen by the caller (seconds); only
    #: meaningful on concurrent backends.
    wall_seconds: float = 0.0

    @classmethod
    def from_ledgers(
        cls,
        ledgers: Sequence[VPLedger],
        wall_seconds: float = 0.0,
    ) -> "ProgramStats":
        """Merge one ledger per virtual processor into program statistics.

        Raises :class:`BspUsageError` if the processors disagree on the
        number of supersteps — in a correct BSP program the barrier makes
        that impossible, so a mismatch means a program bug (e.g. one branch
        of an ``if pid == 0`` calling ``sync`` and the other not).
        """
        if not ledgers:
            raise BspUsageError("no ledgers to merge")
        counts = {ledger.nsupersteps for ledger in ledgers}
        if len(counts) != 1:
            detail = ", ".join(
                f"pid {ledger.pid}: {ledger.nsupersteps}" for ledger in ledgers
            )
            raise BspUsageError(
                f"processors executed different superstep counts ({detail}); "
                "every virtual processor must call sync() the same number of "
                "times"
            )
        # One transposed pass: per ledger, its samples' fields as columns;
        # per field, one tuple per superstep across the ledgers, in
        # ledger order, so every max and sum sees the values in the
        # order the per-superstep definition does (bit-identical floats).
        cols = [tuple(zip(*map(_SAMPLE_ROW, ledger.samples)))
                for ledger in ledgers]
        if counts.pop() == 0:
            steps: tuple[SuperstepStats, ...] = ()
        else:
            work, charged, sent, recv, msent, mrecv = (
                list(zip(*[col[f] for col in cols])) for f in range(6))
            h_sent, h_recv = list(map(max, sent)), list(map(max, recv))
            steps = tuple(map(
                SuperstepStats, range(len(work)), map(max, work),
                map(max, charged), map(max, h_sent, h_recv), h_sent, h_recv,
                map(max, map(max, msent), map(max, mrecv)),
                map(sum, work), map(sum, charged), map(sum, msent)))
        return cls(
            nprocs=len(ledgers),
            supersteps=steps,
            total_work=sum(sum(col[0]) for col in cols if col),
            total_charged=sum(sum(col[1]) for col in cols if col),
            wall_seconds=wall_seconds,
        )

    # -- the paper's headline quantities ---------------------------------

    @property
    def W(self) -> float:
        """Work depth in seconds: :math:`\\sum_i w_i`."""
        return sum(s.w for s in self.supersteps)

    @property
    def H(self) -> int:
        """Sum of h-relation sizes in 16-byte-packet units."""
        return sum(s.h for s in self.supersteps)

    @property
    def S(self) -> int:
        """Number of supersteps."""
        return len(self.supersteps)

    @property
    def M(self) -> int:
        """Message-count analogue of :attr:`H`: sum over supersteps of the
        largest number of *messages* sent or received by any processor.
        The quantity a LogP-style per-message cost model would use."""
        return sum(s.m for s in self.supersteps)

    @property
    def charged_depth(self) -> float:
        """Abstract-work analogue of :attr:`W` (user ``charge`` units)."""
        return sum(s.charged for s in self.supersteps)

    @property
    def h_series(self) -> tuple[int, ...]:
        """Per-superstep h-relation sizes ``(h_0, ..., h_{S-1})``.

        The deterministic spine of a run: together with :attr:`S` and
        :attr:`H` this is the ledger identity that crash-then-resume
        recovery (``repro.checkpoint``) must reproduce bit-for-bit —
        unlike W, which is wall-clock and varies run to run.
        """
        return tuple(s.h for s in self.supersteps)

    @property
    def m_series(self) -> tuple[int, ...]:
        """Per-superstep message-count maxima (the :attr:`M` analogue of
        :attr:`h_series`); part of the same recovery identity contract."""
        return tuple(s.m for s in self.supersteps)

    def scaled(self, work_scale: float) -> "ProgramStats":
        """Return a copy with all measured work times multiplied.

        Used to transplant work depths measured on this host onto a paper
        machine whose per-operation speed differs (see
        :mod:`repro.core.machines`).
        """
        steps = tuple(
            SuperstepStats(
                index=s.index,
                w=s.w * work_scale,
                charged=s.charged,
                h=s.h,
                h_sent_max=s.h_sent_max,
                h_recv_max=s.h_recv_max,
                m=s.m,
                total_work=s.total_work * work_scale,
                total_charged=s.total_charged,
                total_msgs=s.total_msgs,
            )
            for s in self.supersteps
        )
        return ProgramStats(
            nprocs=self.nprocs,
            supersteps=steps,
            total_work=self.total_work * work_scale,
            total_charged=self.total_charged,
            wall_seconds=self.wall_seconds,
        )

    def trimmed(self, start: int, stop: int | None = None) -> "ProgramStats":
        """Statistics restricted to supersteps ``[start:stop]``.

        Used to discount warm-up iterations (e.g. the N-body driver's
        load-balancing warm-up) from the accounted run, the way the paper
        measures representative iterations of an ongoing simulation.
        Totals are recomputed from the kept supersteps.
        """
        kept = self.supersteps[start:stop]
        if not kept:
            raise BspUsageError("trimmed() would leave no supersteps")
        reindexed = tuple(
            SuperstepStats(
                index=i,
                w=s.w,
                charged=s.charged,
                h=s.h,
                h_sent_max=s.h_sent_max,
                h_recv_max=s.h_recv_max,
                m=s.m,
                total_work=s.total_work,
                total_charged=s.total_charged,
                total_msgs=s.total_msgs,
            )
            for i, s in enumerate(kept)
        )
        return ProgramStats(
            nprocs=self.nprocs,
            supersteps=reindexed,
            total_work=sum(s.total_work for s in kept),
            total_charged=sum(s.total_charged for s in kept),
            wall_seconds=self.wall_seconds,
        )

    def summary(self) -> str:
        """One-line human-readable summary (W in s, H in packets)."""
        return (
            f"p={self.nprocs} S={self.S} W={self.W:.4f}s H={self.H} "
            f"total_work={self.total_work:.4f}s"
        )


def merge_wall_max(stats: Iterable[ProgramStats]) -> float:
    """Max wall-clock across several runs (helper for repeated trials)."""
    return max((s.wall_seconds for s in stats), default=0.0)
