"""Backend protocol and shared routing logic.

A *backend* executes one BSP program on ``p`` virtual processors and
returns each processor's result plus its accounting ledger.  Three backends
ship with the library, mirroring the paper's three library versions:

* :mod:`~repro.backends.simulator` — deterministic serialized execution;
  the paper's "IPC single-processor simulation" used to measure work depth.
* :mod:`~repro.backends.threads` — one OS thread per virtual processor
  over by-reference in-process links (the shared-memory version, B.1).
* :mod:`~repro.backends.processes` — one OS process per virtual processor
  exchanging at superstep boundaries (the MPI/TCP versions, B.2/B.3).

All backends share :func:`route_packets`, so delivery semantics (and the
deterministic delivery order) are identical everywhere; a program debugged
on the simulator behaves bit-for-bit the same on the concurrent backends.
"""

from __future__ import annotations

import signal as _signal
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..core.errors import (
    BspConfigError,
    BspUsageError,
    DeadlockError,
    PoolExhaustedError,
    WorkerCrashError,
)
from ..core.packets import Packet, PacketRuns
from ..core.stats import VPLedger

#: The supervision exception taxonomy, re-exported so backend code (and
#: backend users) can import it from one place alongside the protocol.
__all__ = [
    "Backend",
    "BackendRun",
    "DeadlockError",
    "PoolExhaustedError",
    "Program",
    "SYNC_MODES",
    "WorkerCrashError",
    "WorkerStatus",
    "available_backends",
    "check_pattern_sends",
    "check_sync",
    "describe_workers",
    "get_backend",
    "register_backend",
    "route_packet_runs",
    "route_packets",
]

#: Signature of a user BSP program.
Program = Callable[..., Any]

#: Synchronization modes of the exchange protocol; what each means is
#: :func:`repro.backends.exchange.boundary_links` (DESIGN
#: "Synchronization modes").  The simulator accepts all three and
#: ignores them.
SYNC_MODES = ("strict", "relaxed", "elide")


def check_sync(sync: str) -> str:
    """Validate a synchronization-mode name; returns it unchanged."""
    if sync not in SYNC_MODES:
        raise BspConfigError(
            f"unknown sync mode {sync!r}; expected one of {SYNC_MODES}")
    return sync


def check_pattern_sends(pid: int, step: int, buckets: Iterable[int],
                        pattern: Any) -> None:
    """Raise when a bucketed boundary send leaves the declared pattern.

    ``buckets`` is the set of destination pids the processor is about to
    address this superstep; self-sends are always local and therefore
    always allowed.  Validation is bucket-granular — one check per
    destination per boundary, never per packet — and only runs when the
    declared pattern asked for it (``validate=True``, the default).
    """
    if pattern is None or not pattern.validate:
        return
    allowed = pattern.sends_to
    bad = () if allowed.issuperset(buckets) else sorted(
        d for d in buckets if d != pid and d not in allowed)
    if bad:
        raise BspUsageError(
            f"pid {pid} sent outside its declared communication pattern "
            f"at superstep {step}: destination(s) {bad} are not in "
            f"sends_to={sorted(allowed)}; fix the pattern declaration or "
            "the sends (or declare the pattern with validate=False)")


@dataclass(frozen=True)
class WorkerStatus:
    """Liveness snapshot of one backend worker, for timeout diagnostics.

    Every timeout path is required to name who is alive, who is dead (and
    how), and who stopped making progress — a bare "deadlocked BSP
    program?" is not attributable and therefore not actionable.
    """

    pid: int
    alive: bool
    os_pid: int | None = None
    exitcode: int | None = None
    heartbeat: int = 0
    last_progress_age: float | None = None
    has_result: bool = False

    def describe(self) -> str:
        if self.has_result:
            state = "finished"
        elif self.alive:
            state = f"alive, {self.heartbeat} heartbeat(s)"
            if self.last_progress_age is not None:
                state += f", last progress {self.last_progress_age:.1f}s ago"
        elif self.exitcode is not None and self.exitcode < 0:
            try:
                name = _signal.Signals(-self.exitcode).name
            except ValueError:  # pragma: no cover - unnamed signal
                name = f"signal {-self.exitcode}"
            state = f"dead (killed by {name})"
        else:
            state = f"dead (exit code {self.exitcode})"
        where = f" [os pid {self.os_pid}]" if self.os_pid is not None else ""
        return f"worker {self.pid}{where}: {state}"


def describe_workers(statuses: Iterable[WorkerStatus]) -> str:
    """One-line per-pid liveness summary for timeout/crash messages."""
    return "; ".join(status.describe() for status in statuses)


@dataclass
class BackendRun:
    """Raw output of one backend execution."""

    results: list[Any]
    ledgers: list[VPLedger]
    wall_seconds: float


class Backend(ABC):
    """Executes BSP programs; one instance may be reused across runs."""

    #: Registry name; subclasses set this.
    name: str = ""

    @abstractmethod
    def run(
        self,
        program: Program,
        nprocs: int,
        args: Sequence[Any] = (),
        kwargs: dict[str, Any] | None = None,
        *,
        sync: str = "strict",
    ) -> BackendRun:
        """Run ``program`` on ``nprocs`` virtual processors.

        ``sync`` selects the synchronization mode (:data:`SYNC_MODES`);
        results and (S, H, h) ledgers are identical across modes — only
        the barrier protocol on the wire differs.
        """

    def health(self):
        """Supervision snapshot for backends that supervise workers.

        Returns a :class:`~repro.backends.processes.PoolHealth` (pool
        generation, restarts, heal kinds, per-link retransmit/reconnect
        counters) for pooled/mesh backends, or ``None`` for backends
        with nothing to supervise (simulator, one-shot forks).  Harness
        ``-v`` output and the resilience benchmarks read this uniformly.
        """
        return None

    @staticmethod
    def check_nprocs(nprocs: int) -> None:
        if not isinstance(nprocs, int) or nprocs < 1:
            raise BspConfigError(f"nprocs must be a positive int, got {nprocs!r}")


def route_packets(
    outboxes: Sequence[Sequence[Packet]], nprocs: int
) -> list[list[Packet]]:
    """Route per-sender outboxes into per-receiver inboxes.

    Validates destinations and preserves per-sender order; receivers later
    apply the canonical (src, seq) delivery order themselves (in
    ``Bsp.sync``), so this helper only needs to bucket.
    """
    inboxes: list[list[Packet]] = [[] for _ in range(nprocs)]
    for outbox in outboxes:
        for pkt in outbox:
            if not 0 <= pkt.dst < nprocs:
                raise BspUsageError(
                    f"packet from pid {pkt.src} addressed to {pkt.dst}, "
                    f"outside range({nprocs})"
                )
            inboxes[pkt.dst].append(pkt)
    return inboxes


def route_packet_runs(
    outboxes: Sequence[Sequence[Packet]], nprocs: int
) -> list[PacketRuns]:
    """Route per-sender outboxes into per-receiver :class:`PacketRuns`.

    Like :func:`route_packets`, but preserves the per-source run structure
    so receivers get their inbox pre-ordered: each sender's packets to one
    destination form a seq-sorted run, and :class:`PacketRuns` concatenates
    runs in src order — the canonical delivery order without a sort.
    """
    per_dst: list[list[tuple[int, list[Packet]]]] = [[] for _ in range(nprocs)]
    for outbox in outboxes:
        if not outbox:
            continue
        buckets: dict[int, list[Packet]] = {}
        for pkt in outbox:
            if not 0 <= pkt.dst < nprocs:
                raise BspUsageError(
                    f"packet from pid {pkt.src} addressed to {pkt.dst}, "
                    f"outside range({nprocs})"
                )
            buckets.setdefault(pkt.dst, []).append(pkt)
        src = outbox[0].src
        for dst, run in buckets.items():
            per_dst[dst].append((src, run))
    return [PacketRuns(runs) for runs in per_dst]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, Callable[[], Backend]] = {}


def register_backend(name: str, factory: Callable[[], Backend]) -> None:
    """Register a backend factory under ``name`` (used by plugins/tests)."""
    if not name:
        raise BspConfigError("backend name must be non-empty")
    _REGISTRY[name] = factory


def get_backend(name: str) -> Backend:
    """Instantiate a registered backend by name."""
    # Import the built-ins lazily so ``base`` has no heavy dependencies.
    if not _REGISTRY:
        _register_builtins()
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise BspConfigError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None
    return factory()


def available_backends() -> list[str]:
    if not _REGISTRY:
        _register_builtins()
    return sorted(_REGISTRY)


def _register_builtins() -> None:
    from .processes import ProcessBackend
    from .simulator import SimulatorBackend
    from .tcp import TcpBackend
    from .threads import ThreadBackend

    _REGISTRY.setdefault("simulator", SimulatorBackend)
    _REGISTRY.setdefault("threads", ThreadBackend)
    _REGISTRY.setdefault("processes", ProcessBackend)
    _REGISTRY.setdefault("tcp", TcpBackend)
