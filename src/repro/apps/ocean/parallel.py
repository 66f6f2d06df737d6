"""Distributed ocean model on the Green BSP library (paper Section 3.1).

The SPLASH code "was basically already in a BSP style", and so is this
conversion: the grid is split into contiguous *row blocks*, every stencil
operation runs locally on a block, and each data dependence on neighbour
rows becomes one ghost-row exchange superstep:

* red-black relaxation — one exchange per colour per sweep;
* residual restriction — one exchange of the residual's ghost rows;
* prolongation — one exchange of the coarse correction's ghost rows;
* the coarsest grid — gathered to processor 0, solved there by the
  ``mg_coarse`` kernel, scattered back (two supersteps);
* convergence tests — one all-reduce superstep per V-cycle;
* the explicit vorticity step — one exchange of ψ and ζ ghosts.

Every processor runs the *same* arithmetic kernels as the sequential
solver (:func:`relax_color_block` etc.), so the distributed iterates match
the sequential ones bit for bit; only the summation order inside the
convergence norm differs.

Row partitions at coarser levels are derived from the fine partition
(coarse row ``I`` lives where fine row ``2I`` lives), which keeps every
restriction/prolongation stencil within one ghost row — no redistribution
supersteps are needed between levels.

The h-relation of a ghost exchange is one 16-byte packet per two doubles
of a grid row — for size 514 that is ≈ 258 packets per superstep,
matching the scale of Figure C.1's H column.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from ... import kernels
from ...collectives import allreduce, gather, scatter
from ...core.api import Bsp
from ...core.runtime import bsp_run
from ...core.stats import ProgramStats
from .model import OceanParams, OceanState, explicit_tendency, wind_forcing
from .multigrid import (
    COARSE_SWEEPS,
    COARSEST,
    NU1,
    NU2,
    apply_reflection,
    check_power_of_two,
    relax_color_block,
)


@dataclass(frozen=True)
class RowPartition:
    """Block partition of global interior rows 1..m over p processors."""

    m: int
    bounds: tuple[int, ...]  # length p+1; proc q owns [bounds[q], bounds[q+1])

    @classmethod
    def block(cls, m: int, nprocs: int) -> "RowPartition":
        if nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {nprocs}")
        bounds = tuple(1 + (q * m) // nprocs for q in range(nprocs + 1))
        return cls(m=m, bounds=bounds)

    @property
    def nprocs(self) -> int:
        return len(self.bounds) - 1

    def range_of(self, pid: int) -> tuple[int, int]:
        return self.bounds[pid], self.bounds[pid + 1]

    def owner(self, row: int) -> int:
        """Owning processor of interior row ``row`` (1-based)."""
        if not 1 <= row <= self.m:
            raise ValueError(f"row {row} outside interior 1..{self.m}")
        for q in range(self.nprocs):
            if self.bounds[q] <= row < self.bounds[q + 1]:
                return q
        raise AssertionError("partition bounds do not cover the interior")

    def coarsen(self) -> "RowPartition":
        """Partition of the next-coarser grid, aligned with this one.

        Coarse row I sits at fine row 2I, so I belongs to the owner of
        fine row 2I: bounds'_q = ceil(bounds_q / 2).
        """
        return RowPartition(
            m=self.m // 2,
            bounds=tuple((b + 1) // 2 for b in self.bounds),
        )


@lru_cache(maxsize=256)
def _ghost_sends(part: RowPartition, pid: int) -> tuple:
    """``(dest, tag, local row)`` of every ghost row ``pid`` serves, in
    send order — derived once per partition, not once per exchange.
    Need-driven: every processor whose ghost row lies in ``pid``'s owned
    range gets it, including processors that own zero rows at this level
    (their prolongation still reads a "ghost" row)."""
    lo, hi = part.range_of(pid)
    sends = []
    for q in range(part.nprocs):
        if q == pid:
            continue
        qlo, qhi = part.range_of(q)
        if lo <= qlo - 1 < hi:  # q's top ghost
            sends.append((q, "gt", qlo - lo))
        if lo <= qhi < hi:      # q's bottom ghost
            sends.append((q, "gb", qhi - lo + 1))
    return tuple(sends)


class LocalBlock:
    """One processor's row block of an (m+2)×(m+2) field, with ghosts.

    ``data[1:k+1]`` are owned global rows lo..hi−1; ``data[0]`` and
    ``data[k+1]`` are the ghost/boundary rows lo−1 and hi.
    """

    __slots__ = ("part", "pid", "lo", "hi", "k", "data", "sends")

    def __init__(self, part: RowPartition, pid: int,
                 data: np.ndarray | None = None):
        self.part = part
        self.pid = pid
        self.lo, self.hi = part.range_of(pid)
        self.k = k = self.hi - self.lo
        self.sends = _ghost_sends(part, pid)
        if data is None:
            data = np.zeros((k + 2, part.m + 2))
        if data.shape != (k + 2, part.m + 2):
            raise ValueError(
                f"block shape {data.shape} != {(k + 2, part.m + 2)}"
            )
        self.data = data

    def owned(self) -> np.ndarray:
        """View of the owned rows (no ghosts)."""
        return self.data[1 : self.k + 1]


def exchange_ghosts(bsp: Bsp, blocks: list[LocalBlock],
                    reflect: bool = True) -> None:
    """One superstep refreshing ghost rows *and* boundary reflections.

    Interior ghost rows come from the neighbouring processors; the four
    domain walls are the local reflection ``ghost = −interior`` (the
    cell-centred Dirichlet condition).  Fields that need ghosts at the
    same point in the algorithm share the superstep, as the SPLASH
    conversion would batch them.  ``reflect=False`` skips the wall
    reflection for blocks that are not Dirichlet fields (e.g. the plasma
    application's electric-field rows, whose ghost ring stays zero).
    """
    for idx, blk in enumerate(blocks):
        for dest, tag, row in blk.sends:
            bsp.send(dest, (tag, idx, blk.data[row].copy()))
    bsp.sync()
    for pkt in bsp.packets():
        tag, idx, row = pkt.payload
        blk = blocks[idx]
        if tag == "gt":  # from the processor above: my top ghost
            blk.data[0] = row
        else:            # "gb": from below, my bottom ghost
            blk.data[blk.k + 1] = row
    if not reflect:
        return
    for blk in blocks:
        if blk.k == 0:
            continue
        if blk.lo == 1:
            blk.data[0] = -blk.data[1]
        if blk.hi == blk.part.m + 1:
            blk.data[blk.k + 1] = -blk.data[blk.k]
        blk.data[:, 0] = -blk.data[:, 1]
        blk.data[:, -1] = -blk.data[:, -2]


def relax_distributed(
    bsp: Bsp,
    u: LocalBlock,
    f: LocalBlock,
    h: float,
    sweeps: int,
) -> None:
    """Red-black sweeps with a ghost exchange before each colour.

    Mirrors the sequential relax (reflect, relax colour, reflect, ...);
    a trailing exchange leaves ghosts current for the next consumer.
    2 supersteps per sweep plus one.
    """
    h2f = (h * h) * f.data
    for _ in range(sweeps):
        for parity in (0, 1):
            exchange_ghosts(bsp, [u])
            if u.k > 0:
                relax_color_block(u.data, h2f, parity, u.lo)
                # Abstract work: half the owned cells, ~6 ops each.  The
                # charged ledger models load on 1996-scale hardware, where
                # the stencil math (not Python call overhead) dominates.
                bsp.charge(3.0 * u.k * u.part.m)
    exchange_ghosts(bsp, [u])


def residual_block(u: LocalBlock, f: LocalBlock, h: float) -> LocalBlock:
    """r = f − ∇²u on owned rows; ghost rows zero until exchanged."""
    r = LocalBlock(u.part, u.pid)
    if u.k:
        invh2 = 1.0 / (h * h)
        a, b = u.data, f.data
        r.data[1:-1, 1:-1] = b[1:-1, 1:-1] - (
            a[:-2, 1:-1] + a[2:, 1:-1] + a[1:-1, :-2] + a[1:-1, 2:]
            - 4.0 * a[1:-1, 1:-1]
        ) * invh2
    return r


def restrict_block(r: LocalBlock, coarse_part: RowPartition,
                   pid: int) -> LocalBlock:
    """2×2 cell-average restriction of a residual block.

    Coarse row I averages fine rows 2I−1 and 2I; row 2I−1 may be the
    (exchanged) top ghost when the fine partition boundary is even.
    Column pairing matches the sequential :func:`~.multigrid.restrict`
    term order exactly.
    """
    rc = LocalBlock(coarse_part, pid)
    if rc.k:
        first = 2 * rc.lo - r.lo  # local index of fine row 2·lo−1
        fine = r.data[first : first + 2 * rc.k, 1:-1]
        rc.data[1:-1, 1:-1] = 0.25 * (
            fine[0::2, 0::2] + fine[0::2, 1::2]
            + fine[1::2, 0::2] + fine[1::2, 1::2]
        )
    return rc


def prolong_block(ec: LocalBlock, fine_part: RowPartition,
                  pid: int) -> np.ndarray:
    """Piecewise-constant prolongation to owned fine rows.

    Fine row ``gi`` copies coarse row ``⌈gi/2⌉`` (a ghost row at the
    lower partition seam, hence the prior coarse ghost exchange); each
    coarse cell fills two fine columns.  Returns an array of shape
    ``(k_fine, m_fine)`` to add to the fine block's owned interior.
    """
    lo, hi = fine_part.range_of(pid)
    parents = (np.arange(lo, hi) + 1) // 2 - ec.lo + 1
    return np.repeat(ec.data[parents, 1:-1], 2, axis=1)


def _coarse_solve(bsp: Bsp, u: LocalBlock, f: LocalBlock, h: float) -> None:
    """Bottom of the V-cycle: agglomerate on processor 0, solve, scatter."""
    part = u.part
    rows = gather(bsp, (u.owned().copy(), f.owned().copy()), root=0)
    pieces = None
    if bsp.pid == 0:
        assert rows is not None
        mu, mf = np.zeros((2, part.m + 2, part.m + 2))
        mu[1:-1] = np.concatenate([ru for ru, _ in rows])
        mf[1:-1] = np.concatenate([rf for _, rf in rows])
        kernels.get("mg_coarse")(mu, mf, h, COARSE_SWEEPS)
        # The agglomerated bottom solve is serial work on processor 0,
        # charged as the COARSE_SWEEPS sweeps it stands for.
        bsp.charge(6.0 * COARSE_SWEEPS * part.m * part.m)
        pieces = [mu[lo:hi].copy()
                  for lo, hi in zip(part.bounds, part.bounds[1:])]
    mine = scatter(bsp, pieces, root=0)
    if u.k:
        u.data[1 : u.k + 1] = mine
    exchange_ghosts(bsp, [u])


def v_cycle_distributed(
    bsp: Bsp,
    parts: list[RowPartition],
    level: int,
    u: LocalBlock,
    f: LocalBlock,
    h: float,
) -> None:
    """One V(NU1, NU2) cycle; ``u``'s ghosts current on entry and exit."""
    part = parts[level]
    if part.m <= COARSEST:
        _coarse_solve(bsp, u, f, h)
        return
    relax_distributed(bsp, u, f, h, NU1)
    r = residual_block(u, f, h)
    bsp.charge(6.0 * u.k * part.m)
    exchange_ghosts(bsp, [r])
    coarse = parts[level + 1]
    rc = restrict_block(r, coarse, bsp.pid)
    bsp.charge(2.0 * rc.k * part.m)
    ec = LocalBlock(coarse, bsp.pid)
    v_cycle_distributed(bsp, parts, level + 1, ec, rc, 2.0 * h)
    # ec ghosts are current (post-smoothing exchanged them); prolong+add.
    if u.k:
        u.owned()[:, 1:-1] += prolong_block(ec, part, bsp.pid)
        bsp.charge(2.0 * u.k * part.m)
    relax_distributed(bsp, u, f, h, NU2)


def _norm_interior(bsp: Bsp, blk: LocalBlock) -> float:
    """Global 2-norm over interior cells (one all-reduce superstep)."""
    local = float((blk.data[1 : blk.k + 1, 1:-1] ** 2).sum()) if blk.k else 0.0
    bsp.charge(2.0 * blk.k * blk.part.m)
    return float(np.sqrt(allreduce(bsp, local, lambda a, b: a + b)))


def solve_poisson_distributed(
    bsp: Bsp,
    parts: list[RowPartition],
    u: LocalBlock,
    f: LocalBlock,
    h: float,
    *,
    tol: float,
    max_cycles: int,
) -> int:
    """Distributed counterpart of :func:`~.multigrid.solve_poisson`.

    Returns the number of V-cycles run.  ``u`` is updated in place and
    its ghosts are current on return.
    """
    exchange_ghosts(bsp, [u])
    fnorm = _norm_interior(bsp, f)
    target = tol * max(fnorm, 1.0)
    cycles = 0
    rnorm = _norm_interior(bsp, residual_block(u, f, h))
    while rnorm > target and cycles < max_cycles:
        v_cycle_distributed(bsp, parts, 0, u, f, h)
        cycles += 1
        rnorm = _norm_interior(bsp, residual_block(u, f, h))
    return cycles


def build_partitions(m: int, nprocs: int) -> list[RowPartition]:
    """The aligned partition hierarchy from fine grid down to COARSEST."""
    parts = [RowPartition.block(m, nprocs)]
    while parts[-1].m > COARSEST:
        parts.append(parts[-1].coarsen())
    return parts


def ocean_program(
    bsp: Bsp,
    size: int,
    steps: int,
    params: OceanParams,
) -> tuple[int, int, np.ndarray, np.ndarray, list[int]]:
    """BSP program: returns (lo, hi, psi rows, zeta rows, cycle counts)."""
    m = size - 2
    h = 1.0 / m
    # The ghost exchanges are nearest-neighbour, but the coarse-grid
    # agglomeration (gather/scatter to processor 0) and the convergence
    # all-reduce touch every pair, so ocean's honest static pattern is
    # the complete graph — ``elide`` degenerates to ``relaxed`` here,
    # and the declaration buys out-of-pattern send validation instead.
    bsp.pattern(range(bsp.nprocs))
    parts = build_partitions(m, bsp.nprocs)
    psi = LocalBlock(parts[0], bsp.pid)
    zeta = LocalBlock(parts[0], bsp.pid)
    with bsp.off_clock():
        forcing_full = wind_forcing(m, params.wind)
    forcing = LocalBlock(
        parts[0], bsp.pid,
        forcing_full[psi.lo - 1 : psi.hi + 1].copy(),
    )
    cycles: list[int] = []
    t0 = 0
    restored = bsp.resume_state()
    if restored is not None:
        # The snapshot carries the evolving fields (ghosts included —
        # they were current at the captured boundary); the forcing and
        # partition hierarchy above are deterministic recomputations.
        t0, psi_data, zeta_data, cycles = restored
        psi.data[:] = psi_data
        zeta.data[:] = zeta_data
        cycles = list(cycles)
    for t in range(t0, steps):
        bsp.checkpoint(lambda: (t, psi.data.copy(), zeta.data.copy(),
                                list(cycles)))
        exchange_ghosts(bsp, [psi, zeta])
        if zeta.k:
            zeta.owned()[:, 1:-1] += params.dt * explicit_tendency(
                psi.data, zeta.data, forcing.data, h, params
            )
            bsp.charge(14.0 * zeta.k * m)
        cycles.append(
            solve_poisson_distributed(
                bsp, parts, psi, zeta, h,
                tol=params.tol, max_cycles=params.max_cycles,
            )
        )
    return psi.lo, psi.hi, psi.owned().copy(), zeta.owned().copy(), cycles


@dataclass(frozen=True)
class OceanRun:
    """Assembled fields plus BSP accounting."""

    state: OceanState
    stats: ProgramStats


def bsp_ocean(
    size: int,
    steps: int,
    nprocs: int,
    *,
    params: OceanParams | None = None,
    backend: str = "simulator",
    checkpoint: Any = None,
    retries: int = 0,
    sync: str = "strict",
) -> OceanRun:
    """Run the distributed ocean model (paper sizes: 66, 130, 258, 514).

    ``checkpoint``/``retries`` are forwarded to
    :func:`~repro.core.runtime.bsp_run`; the program snapshots its fields
    at the top of every time step, so a crashed run resumes from the
    last completed time-step boundary.  ``sync`` selects the
    synchronization mode (``"strict"``/``"relaxed"``/``"elide"``; the
    first two are one round) — ocean's many small ghost-exchange
    supersteps are nearly pure barrier, which is where a cheaper
    boundary pays.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    m = size - 2
    check_power_of_two(m)
    params = params or OceanParams()
    run = bsp_run(
        ocean_program, nprocs, backend=backend, args=(size, steps, params),
        checkpoint=checkpoint, retries=retries, sync=sync,
    )
    psi = np.zeros((m + 2, m + 2))
    zeta = np.zeros((m + 2, m + 2))
    cycles: list[int] = run.results[0][4]
    for lo, hi, psi_rows, zeta_rows, _ in run.results:
        psi[lo:hi] = psi_rows
        zeta[lo:hi] = zeta_rows
    apply_reflection(psi)
    apply_reflection(zeta)
    return OceanRun(
        state=OceanState(psi=psi, zeta=zeta, cycles=cycles),
        stats=run.stats,
    )
