"""Machine profiles: the (g, L) pairs of the paper's Figure 2.1.

A BSP machine is characterized by its per-packet bandwidth cost ``g`` and
its superstep latency ``L`` (both in microseconds here, as in the paper's
table).  This module ships the three machines the paper measured —

* ``SGI`` — 16-processor SGI Challenge (shared-memory library version),
* ``CENJU`` — 16-processor NEC Cenju (MPI library version),
* ``PC_LAN`` — 8 Pentium PCs on switched 100-Mbit Ethernet (TCP version),

with the exact Figure 2.1 values, plus :func:`calibrate_backend`, which
measures g and L of *our* Python backends using the same two
microbenchmarks the paper used: ``L`` is the time of a superstep in which
each processor sends a single packet, and ``g`` is the per-16-byte-packet
time of a large total-exchange superstep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import CostModelError

#: Microseconds per second, for converting Figure 2.1 units.
US = 1e-6


@dataclass(frozen=True)
class MachineProfile:
    """BSP parameters of one machine, tabulated by processor count.

    Parameters
    ----------
    name:
        Human-readable machine name.
    g_us / L_us:
        Per-packet bandwidth cost and superstep latency in microseconds,
        keyed by processor count (the rows of Figure 2.1).
    work_scale:
        Default local-computation speed relative to the SGI (1.0 = same
        speed).  Applications refine this per workload — the paper's
        estimated Cenju/PC work depths are application-dependent because
        different codes stress FP and memory differently.
    """

    name: str
    g_us: Mapping[int, float]
    L_us: Mapping[int, float]
    work_scale: float = 1.0

    def __post_init__(self) -> None:
        if set(self.g_us) != set(self.L_us):
            raise CostModelError(
                f"{self.name}: g and L tables cover different nprocs"
            )
        if not self.g_us:
            raise CostModelError(f"{self.name}: empty parameter table")

    @property
    def max_procs(self) -> int:
        return max(self.g_us)

    def supports(self, nprocs: int) -> bool:
        return 1 <= nprocs <= self.max_procs

    def g(self, nprocs: int) -> float:
        """Bandwidth cost in *seconds* per 16-byte packet at ``nprocs``."""
        return self._lookup(self.g_us, nprocs) * US

    def L(self, nprocs: int) -> float:
        """Superstep latency in *seconds* at ``nprocs``."""
        return self._lookup(self.L_us, nprocs) * US

    def _lookup(self, table: Mapping[int, float], nprocs: int) -> float:
        if nprocs < 1:
            raise CostModelError(f"nprocs must be >= 1, got {nprocs}")
        if nprocs in table:
            return table[nprocs]
        if nprocs > self.max_procs:
            raise CostModelError(
                f"{self.name} was only measured up to {self.max_procs} "
                f"processors (asked for {nprocs})"
            )
        # Interpolate linearly in log2(p): both g and L grow roughly with
        # the depth of the communication structure, which is logarithmic in
        # p on these machines.
        below = max(k for k in table if k < nprocs)
        above = min(k for k in table if k > nprocs)
        frac = (math.log2(nprocs) - math.log2(below)) / (
            math.log2(above) - math.log2(below)
        )
        return table[below] + frac * (table[above] - table[below])

    def with_work_scale(self, work_scale: float) -> "MachineProfile":
        """Copy of this profile with a different relative CPU speed."""
        return MachineProfile(
            name=self.name,
            g_us=dict(self.g_us),
            L_us=dict(self.L_us),
            work_scale=work_scale,
        )


# --------------------------------------------------------------------------
# Figure 2.1, verbatim (microseconds).
# --------------------------------------------------------------------------

SGI = MachineProfile(
    name="SGI",
    g_us={1: 0.77, 2: 0.82, 4: 0.88, 8: 0.97, 9: 1.0, 16: 0.95},
    L_us={1: 3.0, 2: 16.0, 4: 29.0, 8: 52.0, 9: 57.0, 16: 105.0},
    work_scale=1.0,
)

CENJU = MachineProfile(
    name="Cenju",
    g_us={1: 2.2, 2: 2.2, 4: 2.2, 8: 2.5, 9: 2.7, 16: 3.6},
    L_us={1: 130.0, 2: 260.0, 4: 470.0, 8: 1470.0, 9: 1680.0, 16: 2880.0},
    # MIPS R4400s like the SGI's; per-application scales in the paper's
    # predictions range from 0.75 (nbody) to 1.4 (ocean); 1.0 is the
    # neutral default, refined per app by the benchmark harness.
    work_scale=1.0,
)

PC_LAN = MachineProfile(
    name="PC-LAN",
    g_us={1: 0.92, 2: 3.3, 4: 4.8, 8: 8.6},
    L_us={1: 2.0, 2: 540.0, 4: 1556.0, 8: 3715.0},
    # 166-MHz Pentiums ran most of the paper's codes ~1.3-2.3x faster than
    # the R4400 SGI on one processor; 0.67 matches the nbody/matmult ratio.
    work_scale=0.67,
)

PAPER_MACHINES: dict[str, MachineProfile] = {
    "SGI": SGI,
    "Cenju": CENJU,
    "PC-LAN": PC_LAN,
}


def extrapolated(
    machine: MachineProfile,
    nprocs_new: Sequence[int],
) -> MachineProfile:
    """What-if profile for larger machines (the paper's Section 5).

    Fits ``g(p)`` and ``L(p)`` linearly in ``p`` over the measured rows
    (both grow roughly linearly on all three machines — L is dominated by
    p-leg synchronization, g by endpoint contention) and extends the
    tables to ``nprocs_new``.  Extrapolations never go below the largest
    measured value, and the measured rows are kept verbatim.
    """
    new_points = [p for p in nprocs_new if p > machine.max_procs]
    if not new_points:
        return machine
    import numpy as _np

    ps = _np.array(sorted(machine.g_us), dtype=float)
    g_fit = _np.polyfit(ps, _np.array([machine.g_us[int(p)] for p in ps]), 1)
    l_fit = _np.polyfit(ps, _np.array([machine.L_us[int(p)] for p in ps]), 1)
    g_new = dict(machine.g_us)
    l_new = dict(machine.L_us)
    g_floor = max(machine.g_us.values())
    l_floor = max(machine.L_us.values())
    for p in new_points:
        g_new[p] = max(float(_np.polyval(g_fit, p)), g_floor)
        l_new[p] = max(float(_np.polyval(l_fit, p)), l_floor)
    return MachineProfile(
        name=f"{machine.name}+",
        g_us=g_new,
        L_us=l_new,
        work_scale=machine.work_scale,
    )


#: Runtime-registered profiles (calibrated backends, user machines); looked
#: up by :func:`get_machine` alongside the paper's Figure 2.1 table.
MACHINES: dict[str, MachineProfile] = {}


def register_machine(profile: MachineProfile) -> MachineProfile:
    """Make ``profile`` resolvable by :func:`get_machine` under its name.

    Calibration helpers (e.g. :func:`tcp_localhost_profile`) register what
    they measure so benchmark scripts can refer to machines uniformly by
    name, whether the numbers came from Figure 2.1 or from this host.
    """
    MACHINES[profile.name] = profile
    return profile


def get_machine(name: str) -> MachineProfile:
    """Look up a machine by name (case-insensitive).

    Searches the paper's Figure 2.1 machines first, then anything added
    with :func:`register_machine`.
    """
    for table in (PAPER_MACHINES, MACHINES):
        for key, profile in table.items():
            if key.lower() == name.lower():
                return profile
    known = sorted(set(PAPER_MACHINES) | set(MACHINES))
    raise CostModelError(f"unknown machine {name!r}; known: {known}")


# --------------------------------------------------------------------------
# Calibrating our own backends, the paper's way.
# --------------------------------------------------------------------------


def _latency_program(bsp, rounds: int, declare: bool = False) -> None:
    """Superstep with a single packet per processor: measures L.

    With ``declare=True`` the ring pattern is declared up front, so the
    benchmark exercises ``sync="elide"``'s pruned boundary.
    """
    right = (bsp.pid + 1) % bsp.nprocs
    if declare:
        bsp.pattern({right}, {(bsp.pid - 1) % bsp.nprocs})
    for _ in range(rounds):
        bsp.send(right, 0)
        bsp.sync()
        for _ in bsp.packets():
            pass


def _bandwidth_program(bsp, rounds: int, packets_each: int,
                       declare: bool = False) -> None:
    """Total exchange with a large h-relation: measures g.

    Each processor sends ``packets_each`` 16-byte payloads to every other
    processor, so h = (p-1) * packets_each per superstep.
    """
    payload = b"x" * 16
    others = [q for q in range(bsp.nprocs) if q != bsp.pid]
    if declare:
        bsp.pattern(others)  # complete graph: elide prunes nothing
    for _ in range(rounds):
        for q in others:
            for _ in range(packets_each):
                bsp.send(q, payload)
        bsp.sync()
        for _ in bsp.packets():
            pass


@dataclass(frozen=True)
class CalibrationResult:
    """Measured BSP parameters of one of our backends."""

    backend: str
    nprocs: int
    g_us: float
    L_us: float
    #: Synchronization mode the measurement ran under.  Strict and
    #: relaxed measure one code path on every fabric (a frame per link
    #: per boundary); elide prunes the boundary to the declared links
    #: (the latency program's ring), so its L is the headline number of
    #: the relaxed-synchronization optimisation.
    sync: str = "strict"

    def as_profile(self, name: str | None = None) -> MachineProfile:
        suffix = "" if self.sync == "strict" else f"-{self.sync}"
        return MachineProfile(
            name=name or f"{self.backend}@{self.nprocs}{suffix}",
            g_us={self.nprocs: self.g_us},
            L_us={self.nprocs: self.L_us},
        )


def calibrate_backend(
    backend,
    nprocs: int,
    *,
    latency_rounds: int = 30,
    bandwidth_rounds: int = 5,
    packets_each: int = 400,
    sync: str = "strict",
) -> CalibrationResult:
    """Measure g and L of a repro backend, following Figure 2.1's method.

    ``backend`` is a registry name (``"processes"``, ``"tcp"``, ...) or a
    :class:`~repro.backends.base.Backend` *instance* — pass a pooled
    instance (``TcpBackend.pool(p)``, ``ProcessBackend.pool(p)``) so
    worker startup is paid once instead of inside every measured round.

    ``L`` is the average wall-clock time of a superstep in which each
    processor sends one packet; ``g`` is the average per-packet time of a
    total-exchange superstep with ``(p-1) * packets_each`` packets per
    processor, after the latency share is subtracted.  Both are
    *per-boundary* costs, as the paper defines them: what a run pays once
    however many supersteps it has — shipping the program, starting or
    waking the workers, collecting results — is timed separately (the
    latency program with zero rounds, best of three) and taken out of
    both walls, so neither parameter depends on how a backend or pool
    dispatches a run.

    ``sync`` selects the barrier protocol under measurement (the
    latency microbenchmark is barrier-bound, so its L directly shows
    what relaxed/elide buy).  In ``"elide"`` mode the latency program
    declares its ring pattern, so the measured boundary carries a single
    frame per processor.
    """
    from .runtime import bsp_run  # local import: runtime imports machines

    backend_name = backend if isinstance(backend, str) else (
        getattr(backend, "name", "") or type(backend).__name__)

    def timed(program, p: int, *args) -> float:
        t0 = time.perf_counter()
        bsp_run(program, p, backend=backend, args=args, sync=sync)
        return time.perf_counter() - t0

    declare = sync == "elide"
    latency_wall = timed(_latency_program, nprocs, latency_rounds, declare)
    # After the latency run, so warm-up is never mistaken for dispatch.
    dispatch = min(timed(_latency_program, nprocs, 0, declare)
                   for _ in range(3))
    L_us = max(latency_wall - dispatch, 0.0) / latency_rounds / US

    if nprocs == 1:
        # Degenerate total exchange; g is the per-packet handling cost,
        # measured with self-sends.
        wall = timed(_selfsend_program, 1, bandwidth_rounds, packets_each)
        h = packets_each
    else:
        wall = timed(_bandwidth_program, nprocs, bandwidth_rounds,
                     packets_each, declare)
        h = (nprocs - 1) * packets_each
    per_step = max(wall - dispatch, 0.0) / bandwidth_rounds
    g_us = max(per_step - L_us * US, 0.0) / h / US
    return CalibrationResult(
        backend=backend_name, nprocs=nprocs, g_us=g_us, L_us=L_us, sync=sync)


def _selfsend_program(bsp, rounds: int, packets_each: int) -> None:
    payload = b"x" * 16
    for _ in range(rounds):
        for _ in range(packets_each):
            bsp.send(0, payload)
        bsp.sync()
        for _ in bsp.packets():
            pass


def tcp_localhost_profile(
    nprocs: Sequence[int] = (1, 2, 4),
    *,
    register: bool = True,
    latency_rounds: int = 30,
    bandwidth_rounds: int = 5,
    packets_each: int = 400,
    sync: str = "strict",
) -> MachineProfile:
    """Calibrate the TCP backend over loopback into a machine profile.

    The counterpart of Figure 2.1's PC-LAN row for *this* host: every
    requested processor count is measured through real sockets (one
    persistent mesh, sized to the largest count, reused for every row) and
    assembled into a ``MachineProfile("tcp-localhost")`` usable by the
    prediction harness exactly like the paper's machines.  With
    ``register=True`` (default) the profile also becomes resolvable via
    ``get_machine("tcp-localhost")``.

    ``sync`` selects the barrier protocol; non-strict profiles register
    under ``"tcp-localhost-relaxed"`` / ``"tcp-localhost-elide"`` so
    prediction sweeps can compare the modes by name.
    """
    from ..backends.tcp import TcpBackend  # lazy: backends import core

    counts = sorted(set(int(p) for p in nprocs))
    if not counts or counts[0] < 1:
        raise CostModelError(f"bad nprocs list {nprocs!r}")
    g_table: dict[int, float] = {}
    l_table: dict[int, float] = {}
    with TcpBackend.pool(counts[-1]) as backend:
        for p in counts:
            cal = calibrate_backend(
                backend, p,
                latency_rounds=latency_rounds,
                bandwidth_rounds=bandwidth_rounds,
                packets_each=packets_each,
                sync=sync,
            )
            g_table[p] = cal.g_us
            l_table[p] = cal.L_us
    name = "tcp-localhost" if sync == "strict" else f"tcp-localhost-{sync}"
    profile = MachineProfile(name=name, g_us=g_table, L_us=l_table)
    if register:
        register_machine(profile)
    return profile
