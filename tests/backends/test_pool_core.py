"""The supervised-pool core (repro.backends.pool), written once for both
fabrics.

* The shared gather against a *fake* result source and fake process
  handles — no fork: the crash-grace windows, late results, stray
  replies, and the deadline's deadlock-vs-slow triage.
* One matrix, {processes, tcp} x {one-shot, pooled} x {ok, program
  raises, unpicklable result, SIGKILL at step 0, stuck program}: the
  same typed error on either fabric in either mode, the simulator's results and ledgers in
  the ok cell (a closure in the one-shot column — fork inherits it),
  nothing left behind (``no_leaks``), and in the pooled column a golden
  *next* run on the same pool.  Plus the pooled cell that spends the
  one restart budget both fabrics share: repeated deadlocks end in
  :class:`PoolExhaustedError` on either.
"""

import contextlib
import os
import threading
import time
from types import SimpleNamespace

import pytest

from repro import bsp_run, faults
from repro.backends import pool as pool_mod
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend
from repro.core.errors import (
    DeadlockError,
    PoolExhaustedError,
    SynchronizationError,
    VirtualProcessorError,
    WorkerCrashError,
)

# -- the gather, on fakes -----------------------------------------------------


class FakeProc:
    """A process handle whose death the test decides."""

    def __init__(self, pid):
        self.pid = 4000 + pid
        self.exitcode = None
        self.sentinel, self._alive_end = os.pipe()

    def is_alive(self):
        return self.exitcode is None

    def join(self, timeout=None):
        pass

    def die(self, exitcode):
        self.exitcode = exitcode
        os.close(self._alive_end)  # EOF: the sentinel turns readable

    def close(self):
        os.close(self.sentinel)
        if self.exitcode is None:
            os.close(self._alive_end)


class FakeSource:
    """A result source fed by the test: ``post`` wakes the gather."""

    def __init__(self, always_ready=False):
        self.beats = {}
        self._posted = []
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        self._always_ready = always_ready
        if always_ready:
            os.write(self._wake_w, b"x")

    def post(self, *msgs):
        self._posted.extend(msgs)
        os.write(self._wake_w, b"x")

    def waitables(self):
        return [self._wake_r]

    def poll(self):
        if not self._always_ready:
            with contextlib.suppress(BlockingIOError):
                os.read(self._wake_r, 4096)
        got, self._posted = self._posted, []
        return got

    def heartbeat(self, pid):
        beat = self.beats.get(pid, 0)
        return beat() if callable(beat) else beat

    def close(self):
        os.close(self._wake_r)
        os.close(self._wake_w)


@pytest.fixture
def fakes():
    made = []

    def make(nprocs, **kw):
        source = FakeSource(**kw)
        procs = [FakeProc(pid) for pid in range(nprocs)]
        made.extend([source, *procs])
        return source, procs

    yield make
    for thing in made:
        thing.close()


class TestGather:
    def test_outcomes_in_any_order_strays_ignored(self, fakes):
        source, procs = fakes(2)
        source.post(("ok", 6, 0, "stale run", None),       # earlier run
                    ("fenced", 7, 0, None, None),           # another ack
                    ("remeshed", 7, 1, None, None),         # a heal ack
                    ("ok", 7, 5, "idle rank", None),        # beyond nprocs
                    ("ok", 7, 1, "r1", "l1"),
                    ("aborted", 7, 0, None, None))
        assert pool_mod.gather(source, procs, 7, 5.0) == \
            [("aborted", None, None), ("ok", "r1", "l1")]

    def test_clean_exit_without_result_waits_the_long_grace(self, fakes):
        source, procs = fakes(2)
        source.post(("ok", 1, 0, "r0", None))
        procs[1].die(0)
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError) as err:
            pool_mod.gather(source, procs, 1, 5.0)
        elapsed = time.monotonic() - t0
        assert err.value.pid == 1 and err.value.exitcode == 0
        assert pool_mod._CRASH_GRACE <= elapsed < 1.0
        assert "worker 0" in str(err.value)  # the per-pid table rides along

    def test_signal_death_waits_only_the_token_grace(self, fakes):
        source, procs = fakes(2)
        procs[0].die(-9)
        t0 = time.monotonic()
        with pytest.raises(WorkerCrashError) as err:
            pool_mod.gather(source, procs, 1, 5.0)
        elapsed = time.monotonic() - t0
        assert err.value.pid == 0 and err.value.signal_name == "SIGKILL"
        assert pool_mod._CRASH_GRACE_ABNORMAL <= elapsed < pool_mod._CRASH_GRACE

    def test_late_result_inside_the_window_is_accepted(self, fakes):
        source, procs = fakes(1)
        procs[0].die(0)  # exited right after reporting; result in flight
        late = threading.Timer(pool_mod._CRASH_GRACE / 3, source.post,
                               [("ok", 1, 0, "made it", "ledger")])
        late.start()
        try:
            assert pool_mod.gather(source, procs, 1, 5.0) == \
                [("ok", "made it", "ledger")]
        finally:
            late.join()

    @pytest.fixture
    def fast_clock(self, monkeypatch):
        """The gather's clock, advancing 50 ms per reading; with an
        always-ready source its waits return at once, so a 20 s deadline
        expires in milliseconds."""
        clock = SimpleNamespace(now=0.0)

        def monotonic():
            clock.now += 0.05
            return clock.now

        monkeypatch.setattr(pool_mod, "time", SimpleNamespace(
            monotonic=monotonic, perf_counter=time.perf_counter))

    def test_flat_heartbeats_at_the_deadline_are_a_deadlock(self, fakes,
                                                            fast_clock):
        source, procs = fakes(3, always_ready=True)
        source.post(("ok", 1, 1, "r1", None))
        source.beats = {0: 4, 1: 9, 2: 4}
        with pytest.raises(DeadlockError) as err:
            pool_mod.gather(source, procs, 1, 20.0)
        assert err.value.stalled == (0, 2)

    def test_advancing_heartbeats_at_the_deadline_are_merely_slow(
            self, fakes, fast_clock):
        source, procs = fakes(2, always_ready=True)
        ticks = iter(range(10**9))
        source.beats = {0: lambda: next(ticks), 1: lambda: next(ticks)}
        with pytest.raises(SynchronizationError) as err:
            pool_mod.gather(source, procs, 1, 20.0)
        assert not isinstance(err.value, (DeadlockError, WorkerCrashError))
        assert "slow, not deadlocked" in str(err.value)


# -- the matrix ---------------------------------------------------------------

NPROCS = 3


def ring_program(bsp, rounds=2):
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.sync()
    return sorted(pkt.payload for pkt in bsp.packets())


def raising_program(bsp):
    bsp.sync()
    if bsp.pid == 1:
        raise ValueError("boom")
    bsp.sync()


def unpicklable_result(bsp):
    bsp.sync()
    return UNPICKLABLE if bsp.pid == 1 else bsp.pid


UNPICKLABLE = lambda: None  # noqa: E731 - no importable name to pickle by


def stuck_program(bsp):
    if bsp.pid == 0:
        time.sleep(3600)
    bsp.sync()


def _snapshot(run):
    return (run.results, run.stats.S, run.stats.H,
            [s.h for s in run.stats.supersteps],
            [s.m for s in run.stats.supersteps])


@contextlib.contextmanager
def _backend(fabric, mode, *, plan=None, join_timeout=30.0, **options):
    cls = {"processes": ProcessBackend, "tcp": TcpBackend}[fabric]
    inject = contextlib.nullcontext() if plan is None \
        else faults.injected(plan)
    if mode == "oneshot":
        with inject:  # forks at run(): the plan must still be active then
            yield cls(join_timeout=join_timeout)
    else:
        with inject:  # forks here; healed or rebuilt workers come up clean
            backend = cls.pool(NPROCS, join_timeout=join_timeout, **options)
        with backend:
            yield backend


@pytest.mark.parametrize("mode", ["oneshot", "pooled"])
@pytest.mark.parametrize("fabric", ["processes", "tcp"])
class TestOneCoreTwoFabricsTwoModes:
    @pytest.fixture(autouse=True)
    def _leak_free(self, no_leaks):
        pass

    def _next_run_is_golden(self, backend, mode):
        if mode == "pooled":
            assert _snapshot(bsp_run(ring_program, NPROCS, backend=backend)) \
                == _snapshot(bsp_run(ring_program, NPROCS,
                                     backend="simulator"))
            assert backend.health().alive == NPROCS

    def test_ok(self, fabric, mode):
        golden = _snapshot(bsp_run(ring_program, NPROCS, backend="simulator"))
        program = ring_program
        if mode == "oneshot":
            rounds = 2  # a closure: fork inherits what pickle could not ship

            def program(bsp):
                return ring_program(bsp, rounds)
        with _backend(fabric, mode) as backend:
            for sync in ("strict", "relaxed"):
                assert _snapshot(bsp_run(program, NPROCS, backend=backend,
                                         sync=sync)) == golden

    def test_program_raises(self, fabric, mode):
        with _backend(fabric, mode) as backend:
            with pytest.raises(VirtualProcessorError) as err:
                bsp_run(raising_program, NPROCS, backend=backend)
            assert err.value.pid == 1
            assert "ValueError: boom" in str(err.value)
            self._next_run_is_golden(backend, mode)

    def test_unpicklable_result(self, fabric, mode):
        """The threads backend and the simulator hand such a result
        back; a process fabric cannot, and says so at once: no deadline
        sat out, no worker lost, no restart spent."""
        with _backend(fabric, mode) as backend:
            t0 = time.monotonic()
            with pytest.raises(VirtualProcessorError) as err:
                bsp_run(unpicklable_result, NPROCS, backend=backend)
            assert time.monotonic() - t0 < 2.0
            assert err.value.pid == 1
            assert "PicklingError" in err.value.traceback_text
            if mode == "pooled":
                health = backend.health()
                assert health.restarts == 0 and health.alive == NPROCS
                assert health.restarts_left == 5  # the budget, whole
            self._next_run_is_golden(backend, mode)

    def test_kill_at_step_0(self, fabric, mode):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=0)])
        with _backend(fabric, mode, plan=plan) as backend:
            with pytest.raises(WorkerCrashError) as err:
                bsp_run(ring_program, NPROCS, backend=backend)
            assert err.value.pid == 1
            assert err.value.signal_name == "SIGKILL"
            self._next_run_is_golden(backend, mode)

    def test_stuck_program(self, fabric, mode):
        # 3 s: heartbeats are sampled once a second and the stall window
        # is at least one second, so a shorter deadline sits on the edge
        # between "deadlocked" and "slow".
        with _backend(fabric, mode, join_timeout=3.0) as backend:
            t0 = time.monotonic()
            with pytest.raises(DeadlockError) as err:
                bsp_run(stuck_program, NPROCS, backend=backend)
            assert time.monotonic() - t0 < 15.0
            assert 0 in err.value.stalled
            self._next_run_is_golden(backend, mode)


@pytest.mark.parametrize("fabric", ["processes", "tcp"])
def test_repeated_deadlocks_exhaust_the_restart_budget(fabric, no_leaks):
    """One budget on both fabrics: the first deadlock spends the only
    restart on a rebuild, the second finds the budget spent and gives
    the pool up — a mesh that deadlocks on every run does not rebuild
    forever."""
    with _backend(fabric, "pooled", join_timeout=3.0,
                  max_restarts=1) as backend:
        with pytest.raises(DeadlockError):
            bsp_run(stuck_program, NPROCS, backend=backend)
        with pytest.raises(PoolExhaustedError, match="restart budget"):
            bsp_run(stuck_program, NPROCS, backend=backend)
        health = backend.health()
        assert health.restarts_left == 0
        assert health.alive == 0
