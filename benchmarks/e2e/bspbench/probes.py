"""Layer probes: timed loops over one public function each.

Independent of any workload, run once per ``--trace`` invocation.  Each
row is named after the module it measures; the column "should move" of
the README says which end-to-end metric a change to it ought to show
in.  Probes that run whole operations (the two ocean cells and the two
gateway variants) go through :func:`~.protocol.measure`, so they are
conditioned and drift-corrected exactly like the workload rows beside
which they are read; the micro loops report raw medians.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

from repro import kernels
from repro.apps.nbody import DEFAULT_EPS, DEFAULT_THETA, BHTree, plummer
from repro.backends import frames, shm
from repro.checkpoint import DiskCheckpointStore, Snapshot, encode_snapshot
from repro.core.machines import calibrate_backend
from repro.core.packets import Packet
from repro.service import JobJournal, Scheduler, SchedulerConfig
from repro.service.jobs import JobRecord, JobSpec, noop_program

from . import workloads
from .machine import pin_round_robin
from .protocol import Incarnation, Session, end_to_end, measure

_clock = time.perf_counter

MIB = 1 << 20
#: The ``numpy-large`` shape of ``bench_backend_comm``: 4 MiB arrays.
BULK_STEPS, BULK_ARRAYS, BULK_ELEMENTS = 2, 2, 1 << 19



def _median_seconds(fn: Callable[[], Any], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        t0 = _clock()
        fn()
        samples.append(_clock() - t0)
    return statistics.median(samples)


# -- backends: pools, barriers, bulk transfer --------------------------------

_blocks: dict[tuple[int, int], list[np.ndarray]] = {}


def bulk_program(bsp, steps: int, narrays: int, size: int) -> int:
    """All-to-all of ``narrays`` float64 arrays of ``size`` per peer; the
    arrays are generated in the worker, once (the pool keeps them)."""
    with bsp.off_clock():
        blocks = _blocks.get((narrays, size))
        if blocks is None:
            rng = np.random.default_rng(bsp.pid)
            blocks = _blocks[(narrays, size)] = [
                rng.standard_normal(size) for _ in range(narrays)]
    received = 0
    for _ in range(steps):
        for peer in range(bsp.nprocs):
            if peer != bsp.pid:
                for block in blocks:
                    bsp.send(peer, block)
        bsp.sync()
        received += sum(pkt.payload.nbytes for pkt in bsp.packets())
    return received


@contextmanager
def _pool(session: Session, kind: str, nprocs: int = 2):
    backend = workloads.open_pool(kind, nprocs)
    try:
        pin_round_robin(session.workers(), session.cpus)
        yield backend
    finally:
        backend.close()


def _bulk_mb_s(backend, nprocs: int = 2) -> float:
    args = (BULK_STEPS, BULK_ARRAYS, BULK_ELEMENTS)
    backend.run(bulk_program, nprocs, args=args)  # generates the blocks
    seconds = _median_seconds(
        lambda: backend.run(bulk_program, nprocs, args=args), 3)
    moved = nprocs * (nprocs - 1) * BULK_STEPS * BULK_ARRAYS * BULK_ELEMENTS * 8
    return moved / MIB / seconds


def backend_rows(session: Session, kind: str, syncs: tuple[str, ...],
                 quick: bool) -> dict[str, float]:
    """Start cost, per-run overhead, L and g per sync mode, and bulk
    bandwidth of one pooled backend at p=2."""
    rows: dict[str, float] = {}
    starts = []
    for _ in range(1 if quick else 3):
        t0 = _clock()
        with _pool(session, kind) as backend:
            backend.run(noop_program, 2)
            starts.append(_clock() - t0)
    rows[f"backends.{kind}.pool_start_s"] = statistics.median(starts)
    with _pool(session, kind) as backend:
        backend.run(noop_program, 2)
        # ~0.5 ms a run on pipes, ~50 ms on the mesh: equal time, not
        # equal counts.
        repeats = 5 if quick else 40 if kind == "processes" else 12
        rows[f"backends.{kind}.run_overhead_ms"] = 1e3 * _median_seconds(
            lambda: backend.run(noop_program, 2), repeats)
        for sync in syncs:
            result = calibrate_backend(backend, 2, sync=sync)
            rows[f"backends.{kind}.L_us.{sync}"] = result.L_us
            if sync == "strict":
                rows[f"backends.{kind}.g_us.strict"] = result.g_us
        suffix = ".zerocopy" if kind == "processes" else ""
        rows[f"backends.{kind}.bulk_mb_s{suffix}"] = _bulk_mb_s(backend)
    return rows


def slab_row(session: Session) -> dict[str, float]:
    """The same bulk exchange with the shm plane switched off, so the
    mmap slab ring carries it — the one probe that sets a ``REPRO_*``
    variable, and only around the creation of its own pool."""
    previous = os.environ.get("REPRO_ZEROCOPY")
    os.environ["REPRO_ZEROCOPY"] = "off"
    try:
        with _pool(session, "processes") as backend:
            return {"backends.processes.bulk_mb_s.slab": _bulk_mb_s(backend)}
    finally:
        if previous is None:
            del os.environ["REPRO_ZEROCOPY"]
        else:
            os.environ["REPRO_ZEROCOPY"] = previous


def ocean_cell_rows(session: Session, seed: int,
                    quick: bool) -> dict[str, float]:
    """The two ocean backend x sync cells the workloads do not cover."""
    rows = {}
    for kind, sync in (("processes", "relaxed"), ("tcp", "strict")):
        cell = workloads.Ocean(f"ocean-{kind}-{sync}", kind, sync, M=2)
        cell.prepare(seed)
        passes = measure(session, cell, [False] * (1 if quick else 2),
                         cell.M, 60.0)
        rows[f"backends.{kind}.ocean_run_s.{sync}"] = end_to_end(
            session, 0.0, passes)["values"]["run_s"]
    return rows


# -- backends: frames and shm ------------------------------------------------

def frame_rows() -> dict[str, float]:
    small = [Packet(src=0, dst=1, payload=i, h=1, seq=i) for i in range(1000)]
    meta, buffers = frames.encode_packets(small)
    encode = _median_seconds(lambda: frames.encode_packets(small), 20)
    decode = _median_seconds(
        lambda: frames.decode_packets(meta, buffers, 0, 1), 20)
    blocks = [np.zeros(4 * MIB // 8) for _ in range(2)]
    large = [Packet(src=0, dst=1, payload=b, h=b.size, seq=i)
             for i, b in enumerate(blocks)]
    encode_large = _median_seconds(lambda: frames.encode_packets(large), 20)
    return {
        "backends.frames.encode_us_per_pkt.small": 1e6 * encode / len(small),
        "backends.frames.decode_us_per_pkt.small": 1e6 * decode / len(small),
        "backends.frames.encode_mb_s.large": 8.0 / encode_large,
    }


def _shm_lease_us(conn) -> None:
    token = shm.fabric_token()
    counter = [0]  # the pool records here how many segments it created
    pool = shm.SegmentPool(token, 0, counter)
    try:
        def cycle():
            lease_id, _name, _offset, _view = pool.lease(1, 4 * MIB)
            pool.release([lease_id])
        cycle()  # creates the segment
        conn.send(1e6 * _median_seconds(cycle, 200))
    finally:
        pool.close()
        shm.sweep_segments(token, {0: counter[0]})


def shm_rows() -> dict[str, float]:
    """Lease + release of 4 MiB, in a child: creating a segment starts
    Python's resource-tracker process, which must not outlive the probe
    as a child of the benchmark."""
    ctx = mp.get_context("fork")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_shm_lease_us, args=(child,))
    proc.start()
    child.close()
    try:
        return {"backends.shm.lease_us": parent.recv()}
    finally:
        proc.join()


# -- kernels -----------------------------------------------------------------

def kernel_rows(seed: int, quick: bool) -> dict[str, float]:
    repeats = 1 if quick else 3
    bodies = plummer(4096, seed=seed)
    tree = BHTree(bodies.pos, bodies.mass, leaf_size=8)
    skip = np.arange(len(bodies), dtype=np.int64)
    walk = kernels.get("bh_walk")
    direct = kernels.get("bh_direct")
    half = bodies.subset(np.arange(2048))
    return {
        "kernels.bh_walk_ms": 1e3 * _median_seconds(
            lambda: walk(tree, bodies.pos, DEFAULT_THETA, DEFAULT_EPS, skip),
            repeats),
        "kernels.bh_direct_ms": 1e3 * _median_seconds(
            lambda: direct(half.pos, half.mass, DEFAULT_EPS), repeats),
    }


# -- checkpoint --------------------------------------------------------------

def checkpoint_rows() -> dict[str, float]:
    """One rank's shard of an ocean-66 run at p=2: 32 owned rows plus
    ghosts of psi and zeta."""
    block = np.random.default_rng(0).standard_normal((34, 66))
    blob = encode_snapshot(Snapshot(
        step=0, pid=0, nprocs=2, state=(0, block, block.copy(), [5, 5]),
        inbox=[], samples=[]))
    with tempfile.TemporaryDirectory(prefix="ckpt-") as root:
        store = DiskCheckpointStore(root)
        steps = itertools.count()
        seconds = _median_seconds(
            lambda: store.save_shard("probe", next(steps), 0, 2, blob), 20)
        step_dir = sorted(os.listdir(os.path.join(root, "probe")))[-1]
        shard = os.path.join(root, "probe", step_dir,
                             os.listdir(os.path.join(root, "probe",
                                                     step_dir))[0])
        size = os.path.getsize(shard)
    return {"checkpoint.save_shard_ms": 1e3 * seconds,
            "checkpoint.shard_bytes": size}


# -- service -----------------------------------------------------------------

def journal_rows(quick: bool) -> dict[str, float]:
    rows = {}
    for name, fsync in (("append_ms", True), ("append_nofsync_ms", False)):
        with tempfile.TemporaryDirectory(prefix="journal-probe-") as root:
            journal = JobJournal(root, fsync=fsync)
            try:
                steps = itertools.count()
                rows[f"service.journal.{name}"] = 1e3 * _median_seconds(
                    lambda: journal.append("STEP", "job-000001",
                                           step=next(steps)),
                    20 if quick else 200)
            finally:
                journal.close()
    return rows


def scheduler_rows() -> dict[str, float]:
    scheduler = Scheduler(SchedulerConfig(max_queued=4096))
    spec = JobSpec(app="noop", size="1", nprocs=2)
    numbers = itertools.count()

    def cycle():
        n = next(numbers)
        record = JobRecord(job_id=f"job-{n:06d}", tenant=f"tenant{n % 2}",
                           spec=spec)
        scheduler.submit(record)
        leased = scheduler.next_job(spec.key)
        scheduler.finish(leased, "DONE")

    return {"service.scheduler.cycle_us": 1e6 * _median_seconds(cycle, 500)}


def gateway_rows(session: Session, seed: int,
                 quick: bool) -> tuple[dict[str, float], Incarnation]:
    """One short ``gateway-jobs`` incarnation for the split of a job's
    latency and the journal's cost per job, then one with the journal
    off and one with two pools."""
    jobs = 5 if quick else 60

    def burst(**variant) -> tuple[Incarnation, float]:
        workload = workloads.GatewayJobs(**variant)
        workload.prepare(seed)
        passes = measure(session, workload, [False], jobs, 60.0)
        values = end_to_end(session, 0.0, passes)["values"]
        return passes[0], values["ops_per_s"]

    journalled, _ = burst()
    split = journalled.timed.jobs

    def ms(later: str, earlier: str) -> float:
        return 1e3 * statistics.median(j[later] - j[earlier] for j in split)

    rows = {
        "service.client.submit_ms": ms("submitted_at", "sent"),
        "service.scheduler.queue_wait_ms": ms("started_at", "submitted_at"),
        "service.fleet.run_ms": ms("finished_at", "started_at"),
        "service.gateway.publish_ms": ms("done", "finished_at"),
        "service.journal.records_per_job":
            journalled.extra["records_per_job"],
        "service.journal.bytes_per_job": journalled.extra["bytes_per_job"],
        "service.gateway.jobs_per_s.nojournal": burst(journal=False)[1],
        "service.fleet.jobs_per_s.pools2": burst(pools=2)[1],
    }
    return rows, journalled


def run_all(session: Session, seed: int,
            quick: bool) -> tuple[dict[str, float], Incarnation]:
    """Every probe row, and the journalled gateway incarnation (the
    ``gateway-jobs`` trace pass takes its bookkeeping rows from it)."""
    rows: dict[str, float] = {}
    rows.update(backend_rows(session, "processes",
                             ("strict", "relaxed", "elide"), quick))
    rows.update(backend_rows(session, "tcp", ("strict", "relaxed"), quick))
    rows["backends.threads.L_us.strict"] = calibrate_backend(
        "threads", 2, sync="strict").L_us
    rows.update(slab_row(session))
    rows.update(ocean_cell_rows(session, seed, quick))
    rows.update(frame_rows())
    rows.update(shm_rows())
    rows.update(kernel_rows(seed, quick))
    rows.update(checkpoint_rows())
    rows.update(journal_rows(quick))
    rows.update(scheduler_rows())
    service, journalled = gateway_rows(session, seed, quick)
    rows.update(service)
    return rows, journalled
