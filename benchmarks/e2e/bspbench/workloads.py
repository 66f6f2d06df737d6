"""The five whole-application workloads.

Each workload generates its inputs from the seed, runs its oracle once
(a sequential reference for the result, one simulator run for the
ledger digest), and then hands out *incarnations*: a fresh pool, mesh or
gateway on which a fixed number of checked operations is timed.  The
program under test only ever receives the generated inputs.

``K`` incarnations x ``M`` operations are the counts at the nominal
``run_seconds`` of ``BENCHMARK.json``; they are identical on every
commit.  Why each workload is here is recorded in ``BENCHMARK.json`` and
at length in ``README.md``.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import shutil
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.apps.matmul import cannon_matmul
from repro.apps.nbody import bsp_nbody, plummer, simulate
from repro.apps.ocean import OceanParams, bsp_ocean, ocean_sequential
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend
from repro.core.runtime import bsp_run
from repro.service import (
    FleetSpec,
    GatewayConfig,
    JobJournal,
    SchedulerConfig,
    ServiceClient,
    serve_in_background,
)
from repro.service.jobs import noop_program, stats_payload

from .tracer import OpTrace, TracedBackend

_clock = time.perf_counter

#: The ``pool.health()`` counters the trace reports after a workload.
HEALTH_COUNTERS = ("zerocopy_hits", "zerocopy_fallbacks", "restarts")


def ledger_digest(stats) -> str:
    """The (S, H, h-series, m-series) identity the gateway also returns."""
    return stats_payload(stats, 0.0)["digest"]


@dataclass
class Timed:
    """What one incarnation's timed window produced."""

    durations: list[float] = field(default_factory=list)
    window_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    stats: list[Any] = field(default_factory=list)     # ProgramStats per op
    traces: list[OpTrace] = field(default_factory=list)
    jobs: list[dict[str, float]] = field(default_factory=list)  # gateway only


def open_pool(kind: str, nprocs: int):
    """A pooled ``processes`` backend or ``tcp`` mesh of ``nprocs`` ranks."""
    pool = TcpBackend.pool if kind == "tcp" else ProcessBackend.pool
    return pool(nprocs, join_timeout=60.0)


class AppIncarnation:
    """One fresh pool or mesh, and the app driver called against it."""

    def __init__(self, workload: "AppWorkload", traced: bool):
        self.workload = workload
        self.pool = open_pool(workload.backend, workload.nprocs)
        self.tracer = TracedBackend(self.pool) if traced else None

    def _operation(self, out: Timed) -> None:
        """One driver call, timed; then the oracle check, untimed."""
        w = self.workload
        out.attempted += 1
        t0 = _clock()
        try:
            result, stats = w.call(self.tracer or self.pool)
        except Exception:  # a failed operation is a counted outcome
            traceback.print_exc(file=sys.stderr)
            out.failed += 1
            return
        t1 = _clock()
        runs = self.tracer.take_runs() if self.tracer else []
        if not (w.result_ok(result) and ledger_digest(stats) == w.digest):
            out.failed += 1
            return
        out.durations.append(t1 - t0)
        out.stats.append(stats)
        if self.tracer:
            out.traces.append(OpTrace(t0, t1, runs))

    def warm_up(self) -> bool:
        out = Timed()
        self._operation(out)
        return out.failed == 0

    def timed(self, count: int, deadline: float) -> Timed:
        out = Timed()
        for done in range(count):
            if done >= 2 and _clock() > deadline:
                break
            self._operation(out)
        out.window_s = sum(out.durations)
        return out

    def health(self) -> dict[str, int]:
        snap = self.pool.health()
        return {name: getattr(snap, name) for name in HEALTH_COUNTERS}

    def extra(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        self.pool.close()


def _oracle_child(conn, oracle) -> None:
    conn.send(oracle())


class Workload:
    """Inputs from the seed, then the oracle: a reference result and the
    ledger digest of one simulator run of the same inputs.

    The oracle runs in a forked child.  Its garbage (a whole simulated
    run of the application) would otherwise stay in the parent's heap,
    and ``peak_pss_mb`` would then measure the oracle, differently for
    every seed (57-70 MB on ``nbody-compute``), not the program.
    """

    name = ""
    nprocs = 2
    reference: Any = None
    digest = ""

    def make_inputs(self, seed: int) -> None:
        raise NotImplementedError

    def oracle(self) -> tuple[Any, str]:
        """``(reference result, ledger digest)`` of the current inputs."""
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        self.make_inputs(seed)
        ctx = mp.get_context("fork")
        parent, child = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_oracle_child, args=(child, self.oracle))
        proc.start()
        child.close()
        try:
            self.reference, self.digest = parent.recv()
        finally:
            proc.join()


class AppWorkload(Workload):
    """A paper application on a pooled backend.  Subclasses provide the
    inputs, the oracle, the driver call and the result check."""

    backend = "processes"
    sync = "strict"
    K = 14
    M = 8

    def call(self, backend) -> tuple[Any, Any]:
        """Run the app once; returns ``(result, ProgramStats)``."""
        raise NotImplementedError

    def result_ok(self, result) -> bool:
        raise NotImplementedError

    def open(self, traced: bool = False) -> AppIncarnation:
        return AppIncarnation(self, traced)

    @property
    def trace_subject(self) -> "AppWorkload":
        return self


class Ocean(AppWorkload):
    """``bsp_ocean(66, 2, p=2)``: 489 small supersteps, barrier-bound."""

    SIZE, STEPS = 66, 2

    def __init__(self, name: str, backend: str, sync: str, M: int):
        self.name, self.backend, self.sync, self.M = name, backend, sync, M

    def make_inputs(self, seed: int) -> None:
        # The wind amplitude is the model's input; +-5% leaves the
        # V-cycle counts (so S and H) where the paper size has them.
        wind = 1.0 + 0.05 * np.random.default_rng(seed).uniform(-1.0, 1.0)
        self.params = OceanParams(wind=float(wind))

    def oracle(self):
        simulated = bsp_ocean(self.SIZE, self.STEPS, self.nprocs,
                              params=self.params)
        return (ocean_sequential(self.SIZE, self.STEPS, self.params),
                ledger_digest(simulated.stats))

    def call(self, backend):
        run = bsp_ocean(self.SIZE, self.STEPS, self.nprocs,
                        params=self.params, backend=backend, sync=self.sync)
        return run.state, run.stats

    def result_ok(self, state) -> bool:
        ref = self.reference
        return (np.array_equal(state.psi[1:-1, 1:-1], ref.psi[1:-1, 1:-1])
                and np.array_equal(state.zeta[1:-1, 1:-1],
                                   ref.zeta[1:-1, 1:-1])
                and state.cycles == ref.cycles)


class Matmult(AppWorkload):
    """Cannon n=1152 on the smallest non-trivial square grid, p=4."""

    name = "matmult-bulk"
    nprocs = 4
    N = 1152
    K = 12
    M = 7

    def make_inputs(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.a = rng.standard_normal((self.N, self.N))
        self.b = rng.standard_normal((self.N, self.N))

    def oracle(self):
        simulated = cannon_matmul(self.a, self.b, self.nprocs)
        return self.a @ self.b, ledger_digest(simulated.stats)

    def call(self, backend):
        run = cannon_matmul(self.a, self.b, self.nprocs, backend=backend,
                            sync=self.sync)
        return run.c, run.stats

    def result_ok(self, c) -> bool:
        return bool(np.allclose(c, self.reference))


class NBody(AppWorkload):
    """Barnes-Hut on a 4096-body Plummer sphere: the compute control."""

    name = "nbody-compute"
    N = 4096
    K = 6
    M = 3

    def make_inputs(self, seed: int) -> None:
        self.bodies = plummer(self.N, seed=seed)

    def oracle(self):
        return (simulate(self.bodies, steps=2).bodies,
                ledger_digest(self._run("simulator").stats))

    def _run(self, backend):
        return bsp_nbody(self.bodies, self.nprocs, steps=1, warmup_steps=1,
                         backend=backend, sync=self.sync)

    def call(self, backend):
        run = self._run(backend)
        return run.bodies, run.stats

    def result_ok(self, bodies) -> bool:
        ref = self.reference
        return (np.array_equal(bodies.ident, ref.ident)
                and bool(np.allclose(bodies.pos, ref.pos,
                                     atol=2e-3 * np.abs(ref.pos).max())))


class NoopJob(AppWorkload):
    """The body of a ``gateway-jobs`` job on a bare pool (trace subject)."""

    name = "noop-job"

    def make_inputs(self, seed: int) -> None:
        pass  # the job carries no data

    def oracle(self):
        return None, ledger_digest(bsp_run(noop_program, self.nprocs).stats)

    def call(self, backend):
        run = bsp_run(noop_program, self.nprocs, backend=backend,
                      sync=self.sync)
        return run.results, run.stats

    def result_ok(self, results) -> bool:
        return results == list(range(self.nprocs))


class GatewayIncarnation:
    """One gateway with its journal and pools; closed-loop clients."""

    def __init__(self, workload: "GatewayJobs"):
        self.workload = workload
        self.journal_dir = (tempfile.mkdtemp(prefix="journal-")
                            if workload.journal else None)
        try:
            self.service = serve_in_background(GatewayConfig(
                fleet=(FleetSpec(backend="processes", nprocs=workload.nprocs,
                                 pools=workload.pools),),
                scheduler=SchedulerConfig(max_queued=4096),
                journal_dir=self.journal_dir))
        except BaseException:
            self._remove_journal()
            raise
        self._batch = 0
        self._jobs_done = 0

    def _client_loop(self, tenant: str, count: int, deadline: float,
                     out: Timed, lock: threading.Lock) -> None:
        w = self.workload
        client = ServiceClient(self.service.host, self.service.port,
                               tenant=tenant)
        durations, jobs, failed = [], [], 0
        for index in range(count):
            if index >= 2 and _clock() > deadline:
                break
            sent = time.time()
            t0 = _clock()
            try:
                final = client.submit(
                    app="noop", size="1", nprocs=w.nprocs,
                    backend="processes",
                    key=f"{w.key_prefix}-{self._batch}-{tenant}-{index}")
            except Exception:  # refused or dropped: a counted outcome
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            t1 = _clock()
            done = time.time()
            if (final["state"] != "DONE"
                    or final["result"]["digest"] != w.digest):
                failed += 1
                continue
            durations.append(t1 - t0)
            jobs.append({"sent": sent, "done": done,
                         "submitted_at": final["submitted_at"],
                         "started_at": final["started_at"],
                         "finished_at": final["finished_at"]})
        with lock:
            out.durations += durations
            out.jobs += jobs
            out.attempted += len(durations) + failed
            out.failed += failed
            self._jobs_done += len(durations)

    def _burst(self, count: int, deadline: float) -> Timed:
        out = Timed()
        lock = threading.Lock()
        self._batch += 1
        threads = [threading.Thread(
            target=self._client_loop,
            args=(f"tenant{i}", count, deadline, out, lock))
            for i in range(self.workload.clients)]
        t0 = _clock()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        out.window_s = _clock() - t0
        return out

    def warm_up(self) -> bool:
        return self._burst(1, _clock() + 60.0).failed == 0

    def timed(self, count: int, deadline: float) -> Timed:
        return self._burst(count, deadline)

    def health(self) -> dict[str, int]:
        client = ServiceClient(self.service.host, self.service.port)
        pools = [slot["pool"] for slot in client.health()["fleet"]]
        return {name: sum(pool[name] for pool in pools)
                for name in HEALTH_COUNTERS}

    def extra(self) -> dict[str, float]:
        """Journal records and bytes written per job so far."""
        if self.journal_dir is None or not self._jobs_done:
            return {}
        journal = JobJournal(self.journal_dir)
        records, _damaged = journal.scan()
        per_job = [rec for rec in records if "job_id" in rec]
        return {"records_per_job": len(per_job) / self._jobs_done,
                "bytes_per_job":
                    os.path.getsize(journal.path) / self._jobs_done}

    def _remove_journal(self) -> None:
        if self.journal_dir is not None:
            shutil.rmtree(self.journal_dir, ignore_errors=True)

    def close(self) -> None:
        try:
            self.service.stop()
        finally:
            self._remove_journal()


class GatewayJobs(Workload):
    """Keyed ``noop`` jobs through a journalled gateway, two tenants."""

    name = "gateway-jobs"
    K = 10
    M = 200          # jobs per client and incarnation
    clients = 2      # closed loop; never more than nproc on the 2-vCPU box

    def __init__(self, journal: bool = True, pools: int = 1):
        self.journal, self.pools = journal, pools
        self.key_prefix = "job"

    def make_inputs(self, seed: int) -> None:
        # The jobs carry no data; the seed only names their idempotency
        # keys, so a rerun against a surviving journal could not dedupe.
        self.key_prefix = f"seed{seed}"

    def oracle(self):
        return None, ledger_digest(bsp_run(noop_program, self.nprocs).stats)

    def open(self, traced: bool = False) -> GatewayIncarnation:
        return GatewayIncarnation(self)

    @property
    def trace_subject(self) -> AppWorkload:
        return NoopJob()


def build(name: str):
    """The workload called ``name`` (see :data:`NAMES`)."""
    if name == "ocean-sync":
        return Ocean(name, "processes", "strict", M=8)
    if name == "ocean-sync-tcp":
        return Ocean(name, "tcp", "relaxed", M=8)
    if name == "matmult-bulk":
        return Matmult()
    if name == "nbody-compute":
        return NBody()
    if name == "gateway-jobs":
        return GatewayJobs()
    raise KeyError(name)


NAMES = ("ocean-sync", "ocean-sync-tcp", "matmult-bulk", "nbody-compute",
         "gateway-jobs")
