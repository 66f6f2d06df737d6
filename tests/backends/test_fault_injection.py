"""Deterministic fault injection against the supervised process backend.

Every recovery path in :mod:`repro.backends.processes` is provoked on
purpose via :mod:`repro.faults` and asserted on:

* hard crashes (SIGKILL, ``os._exit``) surface as
  :class:`WorkerCrashError` naming pid + signal/exit code, in well under
  a second on a warm pool (the seed revision took the full 120s timeout);
* program-level faults (raise, sender-side pickle poison) stay
  :class:`VirtualProcessorError` and never consume restart budget;
* dropped frames become :class:`DeadlockError` with the stalled pids,
  while slow-but-beating programs get a plain "raise join_timeout"
  :class:`SynchronizationError`;
* a pool heals after every crash and its next clean run reproduces the
  simulator's accounting bit-for-bit (property-tested over seeded plans);
* an exhausted restart budget is terminal (:class:`PoolExhaustedError`)
  unless the backend opts into thread degradation;
* ``close()`` racing an in-flight run — even one ignoring SIGTERM —
  leaves no zombie children.
"""

import os
import signal
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bsp_run
from repro import faults
from repro.backends.pool import _BACKOFF_S
from repro.backends.processes import BspPool, ProcessBackend
from repro.core.errors import (
    DeadlockError,
    PoolExhaustedError,
    SynchronizationError,
    VirtualProcessorError,
    WorkerCrashError,
)
from repro.core.stats import ProgramStats

# Module-level programs: pooled runs ship them by pickle.


def ring_program(bsp, rounds=2):
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.sync()
    return sorted(pkt.payload for pkt in bsp.packets())


def slow_ring_program(bsp, rounds, pause):
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.sync()
        time.sleep(pause)
    return True


def stuck_program(bsp):
    """pid 0 never reaches its first sync: a genuine deadlock."""
    if bsp.pid == 0:
        time.sleep(3600)
    bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
    bsp.sync()
    return True


def stubborn_program(bsp):
    """Ignores SIGTERM and sleeps: only SIGKILL can reap it."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(3600)
    return True


#: More than a pipe holds (64 KiB): a frame this big goes out in part.
OVERFILL = 256 << 10


def killed_mid_frame(bsp, sleep):
    """pid 1 dies with half a frame in flight each way: it SIGKILLs
    itself while its frame to pid 0 — who is asleep — is half written,
    and pid 0 wakes to half-write its own frame to the dead."""
    if bsp.pid == 1:
        threading.Timer(sleep / 2, os.kill,
                        (os.getpid(), signal.SIGKILL)).start()
    else:
        time.sleep(sleep)
    bsp.send(1 - bsp.pid, bytes(OVERFILL))
    bsp.sync()
    return bsp.pid


def _pool_under(plan, nprocs=3, **kw):
    """A pool whose workers inherited ``plan`` but whose parent did not.

    Replacement workers forked during a heal/rebuild therefore come up
    clean — the fault fires exactly once.
    """
    kw.setdefault("join_timeout", 30.0)
    with faults.injected(plan):
        return BspPool(nprocs, **kw)


def _golden(nprocs, rounds=2):
    run = bsp_run(ring_program, nprocs, backend="simulator", args=(rounds,))
    return (
        tuple(tuple(r) for r in run.results),
        run.stats.S,
        run.stats.H,
        tuple(s.h for s in run.stats.supersteps),
        tuple(s.m for s in run.stats.supersteps),
    )


def _snapshot(run):
    stats = getattr(run, "stats", None)
    if stats is None:  # a raw BackendRun from BspPool.run
        stats = ProgramStats.from_ledgers(run.ledgers)
    return (
        tuple(tuple(r) for r in run.results),
        stats.S,
        stats.H,
        tuple(s.h for s in stats.supersteps),
        tuple(s.m for s in stats.supersteps),
    )


class TestCrashDetection:
    def test_sigkill_detected_fast_and_attributed(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=1)])
        with _pool_under(plan) as pool:
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError) as err:
                pool.run(ring_program, 3)
            elapsed = time.monotonic() - t0
            # The sentinel fires on death; only the _CRASH_GRACE drain and
            # the victim's join stand between death and attribution.  The
            # seed revision sat out the full join_timeout (120s default).
            assert elapsed < 1.0 + _BACKOFF_S
            assert err.value.pid == 1
            assert err.value.signal_name == "SIGKILL"
            assert err.value.os_pid is not None
            assert "worker 1" in str(err.value)
            assert "SIGKILL" in str(err.value)

    def test_exit_code_attributed(self):
        plan = faults.FaultPlan(
            [faults.Fault(faults.EXIT, pid=2, step=0, arg=42)])
        with _pool_under(plan) as pool:
            with pytest.raises(WorkerCrashError) as err:
                pool.run(ring_program, 3)
            assert err.value.pid == 2
            assert err.value.exitcode == 42
            assert err.value.signal_name is None
            assert "exited with code 42" in str(err.value)

    def test_oneshot_sigkill_attributed(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=0, step=0)])
        with faults.injected(plan):
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError) as err:
                bsp_run(ring_program, 3, backend="processes")
            elapsed = time.monotonic() - t0
        assert err.value.pid == 0
        assert err.value.signal_name == "SIGKILL"
        assert elapsed < 5.0  # fork + detect; nowhere near join_timeout

    def test_hooks_inert_without_plan(self):
        assert faults.active() is None
        run = bsp_run(ring_program, 3, backend="processes")
        assert _snapshot(run)[0] == _golden(3)[0]


class TestProgramLevelFaults:
    def test_raise_stays_program_failure_and_costs_no_budget(self):
        # Fault at step 3: the 4-round run hits it, the 2-round clean run
        # afterwards never reaches it — same workers, same inherited plan.
        plan = faults.FaultPlan([faults.Fault(faults.RAISE, pid=0, step=3)])
        with _pool_under(plan) as pool:
            with pytest.raises(VirtualProcessorError) as err:
                pool.run(ring_program, 3, args=(4,))
            assert err.value.pid == 0
            assert "injected failure" in err.value.traceback_text
            health = pool.health()
            assert health.restarts == 0 and health.generation == 0
            assert health.restarts_left == pool._max_restarts
            assert _snapshot(pool.run(ring_program, 3)) == _golden(3)

    def test_poison_fails_in_sender_thread(self):
        plan = faults.FaultPlan([faults.Fault(faults.POISON, pid=1, step=0)])
        with faults.injected(plan):
            with pytest.raises(VirtualProcessorError) as err:
                bsp_run(ring_program, 3, backend="processes")
        assert err.value.pid == 1
        assert "injected pickle failure" in err.value.traceback_text


class TestDeadlockVsSlow:
    def test_dropped_frame_is_deadlock_with_stalled_pids(self):
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, pid=0, step=0, arg=1)])
        backend = ProcessBackend(join_timeout=2.5)
        with faults.injected(plan):
            with pytest.raises(DeadlockError) as err:
                backend.run(ring_program, 3)
        assert err.value.stalled  # nobody advances past the lost frame
        # Satellite: every timeout message carries the per-pid liveness
        # table — who is alive, heartbeats, os pids.
        assert "worker 0" in str(err.value)
        assert "os pid" in str(err.value)
        assert "heartbeat" in str(err.value)

    def test_stuck_program_is_deadlock(self):
        backend = ProcessBackend(join_timeout=2.5)
        with pytest.raises(DeadlockError) as err:
            backend.run(stuck_program, 2)
        assert 0 in err.value.stalled

    def test_slow_but_beating_is_not_deadlock(self):
        backend = ProcessBackend(join_timeout=2.5)
        with pytest.raises(SynchronizationError) as err:
            backend.run(slow_ring_program, 2, args=(30, 0.3))
        assert not isinstance(err.value, DeadlockError)
        assert "still advancing" in str(err.value)
        assert "join_timeout" in str(err.value)


class TestSelfHealing:
    def test_heal_then_golden_accounting(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=1)])
        with _pool_under(plan) as pool:
            with pytest.raises(WorkerCrashError):
                pool.run(ring_program, 3)
            t0 = time.monotonic()
            snapshot = _snapshot(pool.run(ring_program, 3))
            heal_plus_run = time.monotonic() - t0
            assert snapshot == _golden(3)
            health = pool.health()
            assert health.generation == 1
            assert health.restarts >= 1
            assert health.alive == 3
            assert "WorkerCrashError" in health.last_fault
            assert heal_plus_run < 30.0

    def test_death_mid_frame_both_ways_heals_by_refork(self, no_leaks):
        """The streams of a dead rank restart at a frame boundary: its
        pipes are drained and the survivor drops its queue and decoder
        for it before the replacement is forked — nothing to rebuild."""
        with BspPool(2, join_timeout=30.0) as pool:
            with pytest.raises(WorkerCrashError) as err:
                pool.run(killed_mid_frame, 2, args=(1.0,))
            assert (err.value.pid, err.value.exitcode) == (1, -signal.SIGKILL)
            assert pool.health().heal_kinds == ("re-fork",)
            assert _snapshot(pool.run(ring_program, 2)) == _golden(2)
            assert pool.health().alive == 2

    def test_repeated_crashes_consume_budget_then_exhaust(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=0, step=0)])
        with _pool_under(plan, max_restarts=0) as pool:
            with pytest.raises(PoolExhaustedError) as err:
                pool.run(ring_program, 3)
            assert "restart budget" in str(err.value)
            # Terminal: the pool stays broken.
            with pytest.raises(PoolExhaustedError):
                pool.run(ring_program, 3)
            assert pool.health().alive == 0

    def test_bsp_run_retries_recovers_crash(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=0)])
        with faults.injected(plan):
            backend = ProcessBackend.pool(3, join_timeout=30.0)
        with backend:
            run = bsp_run(ring_program, 3, backend=backend, retries=1)
            assert _snapshot(run) == _golden(3)

    def test_retries_do_not_mask_program_errors(self):
        plan = faults.FaultPlan([faults.Fault(faults.RAISE, pid=0, step=0)])
        with faults.injected(plan):
            with pytest.raises(VirtualProcessorError):
                bsp_run(ring_program, 2, backend="processes", retries=3)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_any_crash_plan_heals_to_golden(self, seed):
        """Every seeded crash schedule ends in a healed pool whose next
        clean run reproduces the simulator's accounting bit-for-bit."""
        plan = faults.FaultPlan.random(
            seed, nprocs=3, nsteps=2, kinds=(faults.KILL, faults.EXIT))
        assert plan.faults  # the seeded schedule always fires
        with _pool_under(plan, max_restarts=4) as pool:
            with pytest.raises(WorkerCrashError) as err:
                pool.run(ring_program, 3)
            assert err.value.pid == plan.faults[0].pid
            assert _snapshot(pool.run(ring_program, 3)) == _golden(3)
            assert pool.health().alive == 3


class TestNoZombies:
    def test_close_with_inflight_stubborn_run_leaves_no_zombies(
            self, no_leaks):
        pool = BspPool(2, join_timeout=60.0)
        # Dispatch directly so close() races a genuinely in-flight run
        # whose workers ignore SIGTERM.
        pool._run_id += 1
        pool._dispatch(pool._run_id, 2,
                       pool._encode((stubborn_program, (), {}, "strict")))
        time.sleep(0.3)  # let the workers enter the stubborn sleep
        t0 = time.monotonic()
        pool.close()
        elapsed = time.monotonic() - t0
        assert not any(p.is_alive() for p in pool._procs)
        assert elapsed < 30.0  # escalation, not the 60s join_timeout

    def test_failed_oneshot_leaves_no_children(self, no_leaks):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=0, step=0)])
        with faults.injected(plan):
            with pytest.raises(WorkerCrashError):
                bsp_run(ring_program, 3, backend="processes")
