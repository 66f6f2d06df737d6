"""The BSP Barnes–Hut N-body program (paper Section 3.2, Figure C.4).

Per time step the program executes exactly **six supersteps**, the paper's
per-iteration count:

1. *Geometry* — all-gather each processor's current bounding box (bodies
   drift between repartitions, so the advertised boxes are the actual
   extents, keeping the essential-tree guarantee sound).
2. *Essential trees* — each processor builds its local BH tree and sends
   every peer the pruned view sufficient for that peer's box; ``h`` is two
   16-byte packets per (mass, com) record, the quantity the paper
   minimized.
3. *Load report* — after computing forces (local tree + foreign essential
   records) and integrating, all-gather per-processor interaction counts.
4. *Repartition gather* — when the measured imbalance exceeds the
   threshold (the Liu–Bhatt trigger the paper adopts instead of
   repartitioning every step), positions/weights/ids go to processor 0,
   which reruns ORB; otherwise the superstep is an empty barrier.
5. *Assignment scatter* — processor 0 scatters the new owner of each
   body; empty barrier when not repartitioning.
6. *Migration* — bodies move to their new owners; empty barrier when not
   repartitioning.

The six-superstep shape is what makes the program "efficient even on
fairly small problem sizes and high-latency platforms" (Section 3.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ... import kernels
from ...backends.base import Backend
from ...collectives import allgather, barrier, gather, scatter
from ...core.api import Bsp
from ...core.runtime import bsp_run
from ...core.stats import ProgramStats
from .bhtree import (
    DEFAULT_EPS,
    DEFAULT_THETA,
    BHTree,
)
from .bodies import Bodies
from .orb import load_imbalance, orb_partition
from .simulation import DEFAULT_DT, step_bodies

#: Essential record = (mass, com): 32 bytes = two 16-byte packets.
H_RECORD = 2

#: Repartition when max/mean − 1 exceeds this (paper: "only ... if the
#: load imbalance reaches a certain threshold, as suggested in [23]").
DEFAULT_REBALANCE_THRESHOLD = 0.20


def nbody_program(
    bsp: Bsp,
    parts: list[Bodies],
    steps: int,
    theta: float,
    eps: float,
    dt: float,
    leaf_size: int,
    rebalance_threshold: float,
    warmup: int = 0,
) -> Bodies:
    """BSP program: evolves this processor's bodies; returns final locals.

    The first ``warmup`` steps rebalance eagerly (threshold 0) so the
    *measured* steps run with the settled load distribution of an ongoing
    simulation; the driver trims their supersteps from the statistics.
    """
    with bsp.off_clock():
        mine = parts[bsp.pid].subset(np.arange(len(parts[bsp.pid])))
    p = bsp.nprocs
    nrepartitions = 0
    # The selected walk kernel (vectorized by default; the per-body
    # reference traversal under REPRO_KERNELS=reference).
    walk = kernels.get("bh_walk")

    start_index = 0
    restored = bsp.resume_state()
    if restored is not None:
        # Bodies migrate between processors, so the snapshot carries the
        # full local body set (not indices into the initial partition).
        start_index, pos, vel, mass, ident, nrepartitions = restored
        mine = Bodies(pos=pos, vel=vel, mass=mass, ident=ident)

    for step_index in range(start_index, warmup + steps):
        bsp.checkpoint(lambda: (step_index, mine.pos.copy(),
                                mine.vel.copy(), mine.mass.copy(),
                                mine.ident.copy(), nrepartitions))
        threshold = 0.0 if step_index < warmup else rebalance_threshold
        # -- Superstep 1: geometry exchange.
        lo, hi = mine.aabb()
        boxes = allgather(bsp, (lo, hi))

        # -- Superstep 2: essential-tree exchange.
        tree = (
            BHTree(mine.pos, mine.mass, leaf_size=leaf_size)
            if len(mine)
            else None
        )
        # Abstract work: tree construction is n log n inserts.  Charged
        # units model load on hardware where the arithmetic (not Python
        # interpreter overhead) dominates; the harness normalizes them to
        # the paper's measured one-processor seconds.
        if len(mine):
            bsp.charge(len(mine) * max(1.0, np.log2(len(mine))))
        for q in range(p):
            if q == bsp.pid:
                continue
            if tree is None:
                rec_m = np.zeros(0)
                rec_p = np.zeros((0, 3))
            else:
                rec_m, rec_p = tree.essential_records(
                    boxes[q][0], boxes[q][1], theta
                )
            bsp.send(q, (rec_m, rec_p), h=max(1, H_RECORD * len(rec_m)))
            bsp.charge(float(len(rec_m)))
        bsp.sync()
        foreign_m: list[np.ndarray] = []
        foreign_p: list[np.ndarray] = []
        for pkt in bsp.packets():
            rec_m, rec_p = pkt.payload
            if len(rec_m):
                foreign_m.append(rec_m)
                foreign_p.append(rec_p)
        far_m = np.concatenate(foreign_m) if foreign_m else np.zeros(0)
        far_p = np.vstack(foreign_p) if foreign_p else np.zeros((0, 3))
        # Merge the essential records into a tree of their own and
        # traverse it per body — the message-passing analogue of the
        # paper's "local BH tree that contains all the data needed":
        # without it every body would touch every foreign record and the
        # total interaction count (hence work) would grow with p.
        far_tree = (
            BHTree(far_p, far_m, leaf_size=leaf_size) if len(far_m) else None
        )

        # Force evaluation: local tree + merged foreign-record tree.
        n_local = len(mine)
        acc = np.zeros((n_local, 3))
        inter = np.zeros(n_local, dtype=np.int64)
        if tree is not None and n_local:
            a, c = walk(tree, mine.pos, theta, eps,
                        np.arange(n_local, dtype=np.int64))
            acc += a
            inter += c
        if far_tree is not None and n_local:
            a, c = walk(far_tree, mine.pos, theta, eps, None)
            acc += a
            inter += c
        step_bodies(mine, acc, dt)
        # The dominant charge: one unit per body-cell interaction (the
        # quantity the paper's 97%-of-runtime force phase scales with).
        bsp.charge(float(inter.sum()) + len(mine))

        # -- Superstep 3: load report.
        loads = allgather(bsp, float(inter.sum()))
        imbalance = load_imbalance(np.array(loads))
        rebalance = p > 1 and imbalance > threshold

        if rebalance:
            nrepartitions += 1
            # -- Superstep 4: gather geometry + weights at processor 0.
            body_weights = np.maximum(inter, 1).astype(np.float64)
            per_proc = gather(bsp, (mine.pos, body_weights), root=0)
            # -- Superstep 5: scatter new owners, aligned with each
            #    processor's current body order.
            if bsp.pid == 0:
                assert per_proc is not None
                counts = [len(part[1]) for part in per_proc]
                all_pos = np.vstack([part[0] for part in per_proc])
                all_w = np.concatenate([part[1] for part in per_proc])
                owner = orb_partition(all_pos, all_w, p)
                bounds = np.concatenate([[0], np.cumsum(counts)])
                assignments = [
                    owner[bounds[q] : bounds[q + 1]] for q in range(p)
                ]
            else:
                assignments = None
            my_owner = scatter(bsp, assignments, root=0)
            # -- Superstep 6: migrate bodies to their new owners.
            for q in range(p):
                if q == bsp.pid:
                    continue
                moving = np.flatnonzero(my_owner == q)
                if len(moving):
                    sub = mine.subset(moving)
                    bsp.send(
                        q,
                        (sub.pos, sub.vel, sub.mass, sub.ident),
                        h=max(1, 4 * len(moving)),
                    )
            keep = mine.subset(np.flatnonzero(my_owner == bsp.pid))
            bsp.sync()
            arrived = [keep]
            for pkt in bsp.packets():
                pos, vel, mass, ident = pkt.payload
                arrived.append(Bodies(pos=pos, vel=vel, mass=mass, ident=ident))
            mine = Bodies.concatenate(
                [b for b in arrived if len(b)] or [keep]
            )
        else:
            # Keep the six-superstep iteration shape: empty barriers.
            barrier(bsp)
            barrier(bsp)
            barrier(bsp)

    return mine


def interaction_counts(pos: np.ndarray, mass: np.ndarray, theta: float,
                       leaf_size: int, lo: int, hi: int) -> np.ndarray:
    """BH interaction counts of bodies ``[lo, hi)`` in the whole system.

    Each body is counted against the tree of every body, itself skipped.
    Counts are exact integers and each body's is its own walk's, so the
    slices of any split concatenate to the counts of the whole set.
    """
    tree = BHTree(pos, mass, leaf_size=leaf_size)
    return kernels.get("bh_count")(
        tree, pos[lo:hi], theta, np.arange(lo, hi, dtype=np.int64)
    )


def count_program(bsp: Bsp, pos: np.ndarray, mass: np.ndarray,
                  theta: float, leaf_size: int) -> np.ndarray:
    """BSP program: this rank's contiguous slice of the load estimate."""
    n, p = len(mass), bsp.nprocs
    return interaction_counts(pos, mass, theta, leaf_size,
                              bsp.pid * n // p, (bsp.pid + 1) * n // p)


def _estimate_on_ranks(backend: Any) -> bool:
    """Whether the load estimate runs as its own BSP program.

    Only on a warm backend (``health()`` is not ``None``: a pool, or an
    SPMD rank's mesh), whose idle ranks split the count.  Anywhere else
    the extra run costs more than the in-process count (the simulator,
    threads and one-shot forks pay a whole run's startup for it).
    """
    return isinstance(backend, Backend) and backend.health() is not None


@dataclass(frozen=True)
class NBodyRun:
    """Final merged body state plus BSP accounting."""

    bodies: Bodies
    stats: ProgramStats


def bsp_nbody(
    bodies: Bodies,
    nprocs: int,
    steps: int = 1,
    *,
    theta: float = DEFAULT_THETA,
    eps: float = DEFAULT_EPS,
    dt: float = DEFAULT_DT,
    leaf_size: int = 8,
    rebalance_threshold: float = DEFAULT_REBALANCE_THRESHOLD,
    backend: str = "simulator",
    balance: bool = True,
    warmup_steps: int = 0,
    checkpoint: Any = None,
    retries: int = 0,
    sync: str = "strict",
) -> NBodyRun:
    """Evolve ``bodies`` for ``steps`` BH time steps on ``nprocs`` processors.

    The initial distribution is an ORB partition weighted by estimated
    per-body interaction counts (``balance=False`` for uniform weights);
    thereafter the program repartitions itself only when the
    interaction-count imbalance crosses ``rebalance_threshold``.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if warmup_steps < 0:
        raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
    # The paper partitions by the *previous iteration's* load; for a fresh
    # start we estimate per-body interaction counts with one untimed
    # count-only BH pass (the central bodies of a Plummer sphere interact
    # with far more cells than the halo — uniform weights would leave the
    # inner processors ~2x overloaded).  One processor owns everything
    # whatever the weights, so it skips the pass.
    if balance and nprocs > 1 and len(bodies) > 1:
        estimate = (bodies.pos, bodies.mass, theta, leaf_size)
        if _estimate_on_ranks(backend):
            # Stats discarded: the estimate was always untimed.
            counts = np.concatenate(bsp_run(
                count_program, nprocs, backend=backend, args=estimate,
                retries=retries, sync=sync,
            ).results)
        else:
            counts = interaction_counts(*estimate, 0, len(bodies))
        weights = np.maximum(counts.astype(np.float64), 1.0)
    else:
        weights = None
    owner = orb_partition(bodies.pos, weights, nprocs)
    parts = [bodies.subset(np.flatnonzero(owner == q)) for q in range(nprocs)]
    run = bsp_run(
        nbody_program,
        nprocs,
        backend=backend,
        args=(
            parts,
            steps,
            theta,
            eps,
            dt,
            leaf_size,
            rebalance_threshold,
            warmup_steps,
        ),
        checkpoint=checkpoint,
        retries=retries,
        sync=sync,
    )
    merged = Bodies.concatenate([b for b in run.results if len(b)])
    stats = run.stats
    if warmup_steps and steps:
        stats = stats.trimmed(6 * warmup_steps)
    return NBodyRun(bodies=merged.ordered_by_ident(), stats=stats)
