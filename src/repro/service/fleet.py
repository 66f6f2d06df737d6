"""Warm pool fleets: pre-forked backends, leased one job at a time.

Forking a :class:`~repro.backends.processes.BspPool` or rendezvousing a
:class:`~repro.backends.tcp.TcpMesh` costs tens to hundreds of
milliseconds — far more than a small job.  The fleet pays that cost once
at startup ("warm") and amortizes it over every job the gateway serves,
exactly as the pooled modes amortize it over a harness sweep.

A fleet is a set of *slots* keyed by ``(backend, nprocs)``.  Each slot
owns one pooled backend instance and runs **one job at a time** (the
pools themselves enforce this: a concurrent ``run()`` raises
``BspUsageError``).  Slot failure handling leans entirely on the layers
below: a worker crash mid-job is healed by the pool or mesh itself
(re-fork / rebuild within one ``max_restarts`` budget on both fabrics),
and only one that declares itself terminal (``PoolExhaustedError``) or
whose backend object broke is **recycled** — torn down and replaced by
a freshly forked one, so the fleet returns to full capacity while the
failed job's error surfaces to its client: TCP slots as process ones.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any

from .. import faults
from ..core.errors import BspConfigError
from .jobs import FLEET_BACKENDS, JobRecord, execute_job


@dataclass(frozen=True)
class FleetSpec:
    """``pools`` warm instances of one ``(backend, nprocs)`` shape."""

    backend: str = "processes"
    nprocs: int = 4
    pools: int = 1
    #: Forwarded to the pool constructor (join_timeout, max_restarts,
    #: ...); must stay picklable/plain.
    options: tuple[tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.backend not in FLEET_BACKENDS:
            raise BspConfigError(
                f"unknown fleet backend {self.backend!r}; "
                f"expected one of {FLEET_BACKENDS}")
        if self.nprocs < 1 or self.pools < 1:
            raise BspConfigError(
                f"fleet spec needs nprocs >= 1 and pools >= 1, got "
                f"p={self.nprocs} pools={self.pools}")

    @property
    def key(self) -> tuple[str, int]:
        return (self.backend, self.nprocs)


def parse_fleet_spec(text: str) -> FleetSpec:
    """Parse the CLI shape ``backend:nprocs[xPools]``, e.g. ``processes:4x2``.

    >>> parse_fleet_spec("processes:4x2")
    FleetSpec(backend='processes', nprocs=4, pools=2, options=())
    >>> parse_fleet_spec("threads:8").key
    ('threads', 8)
    """
    backend, sep, shape = text.partition(":")
    if not sep or not shape:
        raise BspConfigError(
            f"fleet spec {text!r} must look like backend:nprocs[xPools]")
    nprocs, sep, pools = shape.partition("x")
    try:
        return FleetSpec(backend=backend, nprocs=int(nprocs),
                         pools=int(pools) if sep else 1)
    except ValueError:
        raise BspConfigError(
            f"fleet spec {text!r} must look like backend:nprocs[xPools]"
        ) from None


def _build_backend(spec: FleetSpec) -> Any:
    """Fork/rendezvous one warm pooled backend for ``spec``."""
    options = dict(spec.options)
    if spec.backend == "processes":
        from ..backends.processes import ProcessBackend
        return ProcessBackend.pool(spec.nprocs, **options)
    if spec.backend == "tcp":
        from ..backends.tcp import TcpBackend
        return TcpBackend.pool(spec.nprocs, **options)
    # In-process backends: nothing to warm, but the slot discipline (one
    # job at a time per slot) still applies.
    from ..backends.base import get_backend
    return get_backend(spec.backend)


class FleetSlot:
    """One warm pooled backend plus its recycle and health bookkeeping.

    A slot can be **quarantined** by the gateway's health prober: a
    quarantined slot is skipped by the dispatchers (jobs drain to the
    healthy slots serving the same fleet key) while its pool recycles in
    the background, after which the prober lifts the quarantine.  The
    service-level counters (``quarantines``, ``probes_failed``,
    ``journal_replays``) survive recycles — they describe the slot, not
    the pool incarnation behind it.
    """

    def __init__(self, slot_id: str, spec: FleetSpec, index: int = 0):
        self.slot_id = slot_id
        self.spec = spec
        self.key = spec.key
        #: Position in the fleet's slot list; the deterministic handle
        #: fault plans use to target this slot (``POOL_SICK``).
        self.index = index
        self.recycles = 0
        self.jobs_run = 0
        self.busy_job: str | None = None
        self.quarantined = False
        self.quarantines = 0
        self.probes_failed = 0
        self.consecutive_probe_failures = 0
        self.journal_replays = 0
        #: Pool restart count at the last probe (restart-storm detection).
        self.probed_restarts = 0
        self._backend = _build_backend(spec)
        self._lock = threading.Lock()

    def run_job(self, record: JobRecord, *,
                checkpoint_root: str | None = None) -> dict[str, Any]:
        """Execute one job on this slot's backend (blocking)."""
        self.busy_job = record.job_id
        try:
            self.jobs_run += 1
            if record.resume:
                self.journal_replays += 1
            return execute_job(record, self._backend,
                               checkpoint_root=checkpoint_root)
        finally:
            self.busy_job = None

    def probe(self, probe_seq: int = 0) -> dict[str, Any]:
        """One health probe: ``{"healthy": bool, "restarts": int}``.

        Consults the installed fault plan first (``POOL_SICK`` makes this
        probe report sick, deterministically), then the pool's own
        telemetry: a probe fails when the health call itself raises or
        when live workers are below capacity.  In-process backends
        (threads/simulator) have no pool and always probe healthy.
        """
        healthy = True
        restarts = self.probed_restarts
        plan = faults._ACTIVE
        if plan is not None and plan.pool_sick(self.index, probe_seq):
            healthy = False
        else:
            health = getattr(self._backend, "health", None)
            snap = None
            if health is not None:
                try:
                    snap = health()
                except Exception:
                    healthy = False
            if snap is not None:
                restarts = snap.restarts
                if snap.alive < snap.capacity:
                    healthy = False
        if healthy:
            self.consecutive_probe_failures = 0
        else:
            self.probes_failed += 1
            self.consecutive_probe_failures += 1
        burst = max(0, restarts - self.probed_restarts)
        self.probed_restarts = restarts
        return {"healthy": healthy, "restarts": restarts,
                "restart_burst": burst}

    def quarantine(self) -> None:
        """Take the slot out of dispatch until its pool is recycled."""
        if not self.quarantined:
            self.quarantined = True
            self.quarantines += 1

    def unquarantine(self) -> None:
        self.quarantined = False
        self.consecutive_probe_failures = 0

    def recycle(self) -> None:
        """Replace a broken backend with a freshly forked one."""
        with self._lock:
            try:
                close = getattr(self._backend, "close", None)
                if close is not None:
                    close()
            except Exception:  # pragma: no cover - already-broken pool
                pass
            self._backend = _build_backend(self.spec)
            self.recycles += 1

    def close(self) -> None:
        close = getattr(self._backend, "close", None)
        if close is not None:
            close()

    def pool(self) -> Any:
        """The live pool/mesh behind the backend (chaos-test hook)."""
        return (getattr(self._backend, "_pool", None)
                or getattr(self._backend, "_mesh", None))

    def health(self) -> dict[str, Any]:
        """JSON-safe slot telemetry, including the pool's own snapshot.

        The service-level counters are merged into the pool snapshot
        (``quarantines``, ``probes_failed``, ``journal_replays`` — the
        :class:`~repro.backends.processes.PoolHealth` fields the pool
        itself cannot know), so ``status --json`` shows one coherent
        health dict per slot.
        """
        pool_health = None
        health = getattr(self._backend, "health", None)
        if health is not None:
            snap = health()
            pool_health = None if snap is None else snap.to_dict()
        if pool_health is not None:
            pool_health["quarantines"] = self.quarantines
            pool_health["probes_failed"] = self.probes_failed
            pool_health["journal_replays"] = self.journal_replays
        return {
            "slot": self.slot_id,
            "backend": self.spec.backend,
            "nprocs": self.spec.nprocs,
            "busy_job": self.busy_job,
            "jobs_run": self.jobs_run,
            "recycles": self.recycles,
            "quarantined": self.quarantined,
            "quarantines": self.quarantines,
            "probes_failed": self.probes_failed,
            "journal_replays": self.journal_replays,
            "pool": pool_health,
        }


class WarmFleet:
    """Every slot of every :class:`FleetSpec`, keyed for the scheduler."""

    def __init__(self, specs: list[FleetSpec] | tuple[FleetSpec, ...]):
        if not specs:
            raise BspConfigError("a fleet needs at least one FleetSpec")
        self.slots: list[FleetSlot] = []
        by_key: dict[tuple[str, int], int] = {}
        for spec in specs:
            for _ in range(spec.pools):
                index = by_key.get(spec.key, 0)
                by_key[spec.key] = index + 1
                self.slots.append(FleetSlot(
                    f"{spec.backend}-p{spec.nprocs}-{index}", spec,
                    index=len(self.slots)))

    @property
    def keys(self) -> set[tuple[str, int]]:
        return {slot.key for slot in self.slots}

    def healthy_slots(self, key: tuple[str, int]) -> list[FleetSlot]:
        """Un-quarantined slots serving ``key`` (load-shedding check)."""
        return [slot for slot in self.slots
                if slot.key == key and not slot.quarantined]

    def worker_os_pids(self) -> list[int]:
        """OS pids of every forked pool worker across the fleet.

        Journaled as a FLEET record so a restarted gateway can reap the
        orphans a SIGKILLed predecessor left running.  In-process slots
        (threads/simulator) contribute nothing.
        """
        pids: list[int] = []
        for slot in self.slots:
            pool = slot.pool()
            if pool is None:
                continue
            try:
                pids.extend(faults.pool_worker_os_pids(pool))
            except Exception:  # pragma: no cover - mesh without os pids
                continue
        return pids

    def close(self) -> None:
        for slot in self.slots:
            slot.close()

    def health(self) -> list[dict[str, Any]]:
        return [slot.health() for slot in self.slots]
