"""Crash-then-resume identity on the supervised multi-process backends.

The recovery contract (DESIGN "Recovery semantics"): kill a worker at an
arbitrary superstep of a checkpointed run and the healed, resumed run
must produce **bit-identical results and a bit-identical
(S, H, h-series, m-series) ledger** versus the uninterrupted golden run —
resuming from the last barrier must be observationally equivalent to
never having crashed.  Exercised here:

* a crash-at-superstep-k sweep over a checkpointed ring (every k, on the
  process pool; a subset on the TCP mesh);
* the same golden identity for the real applications — ocean, shortest
  paths, N-body — on both pooled backends, killed mid-run;
* damaged checkpoints (truncated / corrupted newest shard) demote to the
  previous complete checkpoint — and to a from-zero restart when nothing
  validates — never a resume from garbage;
* a ``DeadlockError`` under checkpointing is retried after the fabric
  rebuild and resumes past the stalled superstep;
* SIGINT mid-run tears the pool down (no zombies, no temp files) and the
  published checkpoints stay resumable;
* every recovery-path crash message carries the per-worker liveness
  table, on TCP exactly as on pipes.
"""

import multiprocessing as mp
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import CheckpointConfig, DiskCheckpointStore, bsp_run
from repro import faults
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend
from repro.core.errors import DeadlockError, WorkerCrashError

from .conformance import ledger_key, oracle, snapshot

# Module-level programs: pooled runs ship them by pickle.


def counting_ring(bsp, rounds=6, pause=0.0):
    """Checkpointed ring: state is (next round, running total)."""
    total = 0
    start = 0
    restored = bsp.resume_state()
    if restored is not None:
        start, total = restored
    for r in range(start, rounds):
        bsp.checkpoint(lambda: (r, total))
        if pause:
            time.sleep(pause)
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid + 1) * (r + 1))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
    return total


def _pooled(backend_kind, nprocs, plan, **kw):
    """A pooled backend whose *initial* workers inherited ``plan``.

    Replacement workers forked during a heal come up clean, so each
    scheduled fault fires exactly once — which is what makes the retry
    deterministic and the test repeatable.
    """
    cls = {"processes": ProcessBackend, "tcp": TcpBackend}[backend_kind]
    with faults.injected(plan):
        return cls.pool(nprocs, **kw)


def _cfg(tmp_path, run_key, **kw):
    return CheckpointConfig(store=DiskCheckpointStore(tmp_path / "ckpt"),
                            run_key=run_key, **kw)


class TestCrashAtEverySuperstep:
    @pytest.mark.parametrize("kill_step", list(range(6)))
    def test_ring_identity_processes(self, tmp_path, kill_step):
        plan = faults.FaultPlan(
            [faults.Fault(faults.KILL, pid=1, step=kill_step)])
        with _pooled("processes", 2, plan) as backend:
            run = bsp_run(counting_ring, 2, backend=backend, retries=1,
                          checkpoint=_cfg(tmp_path, f"ring-{kill_step}"))
            health = backend.health()
        assert snapshot(run) == oracle(counting_ring, (6,), 2)
        # Satellite: the heal is visible through the supervision surface.
        assert health.generation >= 1
        assert health.restarts >= 1
        assert "WorkerCrashError" in health.last_fault

    @pytest.mark.parametrize("kill_step", [0, 3, 5])
    def test_ring_identity_tcp(self, tmp_path, kill_step):
        plan = faults.FaultPlan(
            [faults.Fault(faults.KILL, pid=1, step=kill_step)])
        with _pooled("tcp", 2, plan) as backend:
            run = bsp_run(counting_ring, 2, backend=backend, retries=1,
                          checkpoint=_cfg(tmp_path, f"tring-{kill_step}"))
            health = backend.health()
        assert snapshot(run) == oracle(counting_ring, (6,), 2)
        assert health.generation >= 1
        assert health.restarts_left == 4  # one heal spent of the default 5
        assert "WorkerCrashError" in health.last_fault

    def test_exhausted_retries_reraise_with_worker_table(self, tmp_path):
        """With no retry budget the crash propagates — and its message
        carries the per-worker liveness table for the post-mortem."""
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=2)])
        with _pooled("processes", 2, plan) as backend:
            with pytest.raises(WorkerCrashError) as err:
                bsp_run(counting_ring, 2, backend=backend,
                        checkpoint=_cfg(tmp_path, "noretry"))
        assert "worker 0" in str(err.value)
        assert "worker 1" in str(err.value)
        assert "os pid" in str(err.value)


class TestApplicationIdentity:
    """Kill a rank mid-run in each real application, on both backends."""

    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    def test_ocean(self, tmp_path, backend_kind):
        from repro.apps.ocean import bsp_ocean
        golden = bsp_ocean(18, 6, 2)
        kill_step = int(golden.stats.S * 0.6)
        plan = faults.FaultPlan(
            [faults.Fault(faults.KILL, pid=1, step=kill_step)])
        with _pooled(backend_kind, 2, plan) as backend:
            run = bsp_ocean(18, 6, 2, backend=backend, retries=1,
                            checkpoint=_cfg(tmp_path, "ocean"))
        assert np.array_equal(golden.state.psi, run.state.psi)
        assert np.array_equal(golden.state.zeta, run.state.zeta)
        assert ledger_key(run.stats) == ledger_key(golden.stats)

    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    def test_sssp(self, tmp_path, backend_kind):
        from repro.apps.nbody.orb import orb_partition
        from repro.apps.sssp import bsp_sssp
        from repro.graphs import geometric_graph
        gg = geometric_graph(60, seed=0)
        owner = orb_partition(gg.points, None, 2)
        golden = bsp_sssp(gg.graph, owner, 2, source=0, work_factor=8)
        kill_step = max(1, int(golden.stats.S * 0.6))
        plan = faults.FaultPlan(
            [faults.Fault(faults.KILL, pid=0, step=kill_step)])
        with _pooled(backend_kind, 2, plan) as backend:
            run = bsp_sssp(gg.graph, owner, 2, source=0, work_factor=8,
                           backend=backend, retries=1,
                           checkpoint=_cfg(tmp_path, "sssp"))
        assert np.array_equal(golden.dist, run.dist)
        assert ledger_key(run.stats) == ledger_key(golden.stats)

    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    def test_nbody(self, tmp_path, backend_kind):
        from repro.apps.nbody import bsp_nbody, plummer
        bodies = plummer(48, seed=1)
        golden = bsp_nbody(bodies, 2, steps=3)
        kill_step = max(1, int(golden.stats.S * 0.6))
        plan = faults.FaultPlan(
            [faults.Fault(faults.EXIT, pid=1, step=kill_step, arg=3)])
        with _pooled(backend_kind, 2, plan) as backend:
            run = bsp_nbody(bodies, 2, steps=3, backend=backend, retries=1,
                            checkpoint=_cfg(tmp_path, "nbody"))
        assert np.array_equal(golden.bodies.pos, run.bodies.pos)
        assert np.array_equal(golden.bodies.vel, run.bodies.vel)
        assert np.array_equal(golden.bodies.ident, run.bodies.ident)
        assert ledger_key(run.stats) == ledger_key(golden.stats)


class TestDamagedCheckpointFallback:
    @pytest.mark.parametrize("kind", sorted(faults.CHECKPOINT_KINDS))
    def test_damaged_newest_falls_back_to_previous(self, tmp_path, kind):
        """The shard written at the kill step is damaged on disk, so the
        retry must resume from the *previous* barrier — and still match."""
        plan = faults.FaultPlan([
            faults.Fault(kind, pid=1, step=3),
            faults.Fault(faults.KILL, pid=1, step=3),
        ])
        cfg = _cfg(tmp_path, "fallback")
        with _pooled("processes", 2, plan) as backend:
            run = bsp_run(counting_ring, 2, backend=backend, retries=1,
                          checkpoint=cfg)
        assert snapshot(run) == oracle(counting_ring, (6,), 2)

    @pytest.mark.parametrize("kind", sorted(faults.CHECKPOINT_KINDS))
    def test_every_shard_damaged_restarts_from_zero(self, tmp_path, kind):
        """When no checkpoint validates the ladder bottoms out at a full
        restart — never a resume from garbage — and identity still holds."""
        tampers = [faults.Fault(kind, pid=pid, step=step)
                   for pid in (0, 1) for step in range(6)]
        plan = faults.FaultPlan(
            tampers + [faults.Fault(faults.KILL, pid=1, step=4)])
        cfg = _cfg(tmp_path, "scorched")
        with _pooled("processes", 2, plan) as backend:
            run = bsp_run(counting_ring, 2, backend=backend, retries=1,
                          checkpoint=cfg)
            # The crashed attempt's shards were all damaged: nothing to
            # resume from, so the retry genuinely restarted at step 0.
            # (The clean replacement worker then re-published valid
            # shards, which is why the store is healthy afterwards.)
        assert snapshot(run) == oracle(counting_ring, (6,), 2)


class TestDeadlockResume:
    def test_deadlock_retried_under_checkpointing(self, tmp_path):
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, pid=0, step=2, arg=1)])
        with _pooled("processes", 2, plan, join_timeout=2.5) as backend:
            run = bsp_run(counting_ring, 2, backend=backend, retries=1,
                          checkpoint=_cfg(tmp_path, "deadlock"))
        assert snapshot(run) == oracle(counting_ring, (6,), 2)

    def test_deadlock_not_retried_without_checkpointing(self):
        """Replaying a deadlocked program from zero would deadlock
        identically, so without a checkpoint the error propagates."""
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, pid=0, step=2, arg=1)])
        with faults.injected(plan):
            backend = ProcessBackend(join_timeout=2.5)
            with pytest.raises(DeadlockError):
                bsp_run(counting_ring, 2, backend=backend, retries=3)


class TestKeyboardInterrupt:
    def test_sigint_tears_down_and_stays_resumable(self, tmp_path):
        cfg = _cfg(tmp_path, "sigint")
        backend = ProcessBackend.pool(2)
        timer = threading.Timer(
            1.0, lambda: os.kill(os.getpid(), signal.SIGINT))
        timer.start()
        try:
            with pytest.raises(KeyboardInterrupt):
                bsp_run(counting_ring, 2, args=(40, 0.05), backend=backend,
                        checkpoint=cfg)
        finally:
            timer.cancel()
            backend.close()
        # Teardown is complete: no zombie workers, no half-written shards.
        assert not [c for c in mp.active_children()
                    if c.name.startswith("bsp-")]
        store = cfg.store
        tmp_files = [name
                     for dirpath, _dirs, names in os.walk(store.root)
                     for name in names if name.startswith(".tmp-")]
        assert tmp_files == []
        # The published checkpoints survived and the run resumes from
        # them to the golden answer on a fresh pool.
        resumed_from = store.latest_step("sigint", 2)
        assert resumed_from is not None and resumed_from >= 1
        with ProcessBackend.pool(2) as fresh:
            run = bsp_run(
                counting_ring, 2, args=(40, 0.0), backend=fresh,
                checkpoint=CheckpointConfig(store=store, run_key="sigint",
                                            resume=True))
        assert snapshot(run) == oracle(counting_ring, (40,), 2)


class TestTcpCrashParity:
    def test_tcp_crash_message_has_worker_table(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=1)])
        with _pooled("tcp", 2, plan) as backend:
            with pytest.raises(WorkerCrashError) as err:
                bsp_run(counting_ring, 2, backend=backend)
        assert err.value.pid == 1
        assert "worker 0" in str(err.value)
        assert "worker 1" in str(err.value)
        assert "os pid" in str(err.value)
