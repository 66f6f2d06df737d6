"""The synchronization modes' contracts beyond equivalence.

The sync layer's promise (DESIGN "Synchronization modes"): ``relaxed``
and ``elide`` change *when a processor may pass the barrier*, never what
the program observes.  That identity — results and ledgers equal to the
simulator's in every mode, on every fabric, for random programs and
the six paper applications — is the conformance matrix
(``test_conformance.py``).  Exercised here:

* the identity on one shared pool per fabric: a ring with deliberate
  empty supersteps (the barrier-bound shape the modes exist to
  accelerate), with and without its pattern declared, and random
  pattern-respecting programs in the run-ahead modes;
* fault handling survives the mode switch: a dropped frame stalls a
  relaxed run into :class:`DeadlockError` (a missing final is
  indistinguishable from a missing message — run-ahead must not paper
  over it), while a slow-but-beating program stays a plain
  :class:`SynchronizationError`;
* crash-mid-superstep recovery under checkpointing reproduces the
  golden run in relaxed mode (the checkpoint cut is a fence over every
  link, so a resumed run restarts from a boundary all ranks share);
* the wire-frame budgets of the one boundary contract, counted by a
  :class:`~repro.faults.FrameCounter` at the actual send sites: one
  frame per link of the boundary's link set on every fabric, threads
  included (every peer; the declared links under elide; none for an
  empty pattern; every peer at a checkpoint fence), data-bearing or
  not;
* an out-of-pattern send under a validating declaration fails loudly at
  the next boundary instead of deadlocking the receiver, and an
  inconsistent declaration stalls the run on both fabrics alike.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SYNC_MODES, bsp_run
from repro import faults
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend
from repro.backends.threads import ThreadBackend
from repro.core.errors import (
    DeadlockError,
    SynchronizationError,
    VirtualProcessorError,
)

from .conformance import NPROCS, oracle, patterned_random, snapshot

# Module-level programs: pooled runs ship them by pickle.


def mixed_ring(bsp, rounds=4):
    """Ring exchange alternating with pure-barrier (empty) supersteps."""
    total = 0
    for r in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid + 1) * (r + 1))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
        bsp.sync()  # empty superstep: nothing but the barrier
    return total


def pattern_ring(bsp, rounds=4):
    """Same ring, but with its static pattern declared for elide mode."""
    p = bsp.nprocs
    bsp.pattern({(bsp.pid + 1) % p}, {(bsp.pid - 1) % p})
    return mixed_ring(bsp, rounds)


def counting_ring(bsp, rounds=6):
    """Checkpointed ring: state is (next round, running total)."""
    total = 0
    start = 0
    restored = bsp.resume_state()
    if restored is not None:
        start, total = restored
    for r in range(start, rounds):
        bsp.checkpoint(lambda: (r, total))
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid + 1) * (r + 1))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
    return total


def slow_ring(bsp, rounds, pause):
    import time
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.sync()
        time.sleep(pause)
    return True


def empty_steps(bsp, rounds=4):
    for _ in range(rounds):
        bsp.sync()
    return bsp.pid


def empty_pattern_steps(bsp, rounds=4):
    bsp.pattern(())  # no neighbors declared: nothing to wait for
    for _ in range(rounds):
        bsp.sync()
    return bsp.pid


def one_packet_ring(bsp, rounds=4):
    """Every boundary carries data on one link per rank, none on the rest."""
    for r in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, r)
        bsp.sync()
    return bsp.pid


def fenced_steps(bsp, rounds=4):
    """Empty supersteps, every boundary a checkpoint fence; the empty
    pattern would let elide skip every link but the fence's."""
    bsp.pattern(())
    for r in range(rounds):
        bsp.checkpoint(lambda: r)
        bsp.sync()
    return bsp.pid


def declared_ring_steps(bsp, rounds=4):
    """Empty supersteps under a declared ring: one live link per rank."""
    p = bsp.nprocs
    bsp.pattern({(bsp.pid + 1) % p}, {(bsp.pid - 1) % p})
    return empty_steps(bsp, rounds)


def inconsistent_pattern(bsp, rounds=2):
    """pid 0 declares it hears from pid 1; pid 1 omits 0 from sends_to."""
    if bsp.pid == 0:
        bsp.pattern({1}, {1})
    elif bsp.pid == 1:
        bsp.pattern((), {0})
    else:
        bsp.pattern(())
    return empty_steps(bsp, rounds)


def out_of_pattern(bsp):
    bsp.pattern({(bsp.pid + 1) % bsp.nprocs})
    bsp.send((bsp.pid + 2) % bsp.nprocs, "stray")
    bsp.sync()
    return True


def _pooled(backend_kind, nprocs, plan, **kw):
    """A pooled backend whose *initial* workers inherited ``plan``."""
    cls = {"processes": ProcessBackend, "tcp": TcpBackend}[backend_kind]
    with faults.injected(plan):
        return cls.pool(nprocs, **kw)


@pytest.fixture(scope="module", params=["processes", "tcp", "threads"])
def mode_pool(request):
    """One shared 4-worker pool per backend for the equivalence sweeps
    (threads has no pool: a plain backend)."""
    if request.param == "threads":
        yield request.param, ThreadBackend()
        return
    cls = {"processes": ProcessBackend, "tcp": TcpBackend}[request.param]
    with cls.pool(4) as backend:
        yield request.param, backend


class TestThreeModeEquivalence:
    def test_mixed_ring_identity(self, mode_pool):
        _, backend = mode_pool
        golden = oracle(mixed_ring)
        for mode in SYNC_MODES:
            run = bsp_run(mixed_ring, 4, backend=backend, sync=mode)
            assert snapshot(run) == golden, mode

    def test_pattern_ring_identity(self, mode_pool):
        """With the pattern declared, elide prunes non-neighbor frames —
        and still reproduces the strict ledger bit-for-bit."""
        _, backend = mode_pool
        golden = oracle(pattern_ring)
        for mode in SYNC_MODES:
            run = bsp_run(pattern_ring, 4, backend=backend, sync=mode)
            assert snapshot(run) == golden, mode

    def test_elide_without_pattern_is_safe(self, mode_pool):
        """No declaration: elide degrades to relaxed (wait on everyone)."""
        _, backend = mode_pool
        golden = oracle(mixed_ring, (3,))
        run = bsp_run(mixed_ring, 4, backend=backend, args=(3,),
                      sync="elide")
        assert snapshot(run) == golden

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_property_random_patterned_programs(self, mode_pool, seed, data):
        """Any pattern-respecting program is mode-invariant, including
        rounds where a declared link happens to stay silent."""
        _, backend = mode_pool
        all_edges = [(s, d) for s in range(NPROCS) for d in range(NPROCS)
                     if s != d]
        edges = tuple(sorted(data.draw(
            st.sets(st.sampled_from(all_edges), min_size=1, max_size=6))))
        rounds = data.draw(st.integers(1, 3))
        args = (edges, rounds, seed, True, False)
        golden = oracle(patterned_random, args)
        for mode in ("relaxed", "elide"):
            run = bsp_run(patterned_random, 4, backend=backend, args=args,
                          sync=mode)
            assert snapshot(run) == golden, (mode, edges, rounds)


class TestRelaxedFaultContracts:
    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    def test_dropped_frame_stalls_into_deadlock(self, backend_kind):
        """In relaxed mode a lost data frame also loses its piggybacked
        final, so the victim never passes the barrier — the supervisor
        must still call it a deadlock, with the stalled pids named."""
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, pid=0, step=0, arg=1)])
        cls = {"processes": ProcessBackend, "tcp": TcpBackend}[backend_kind]
        backend = cls(join_timeout=2.5)
        with faults.injected(plan):
            with pytest.raises(DeadlockError) as err:
                bsp_run(mixed_ring, 3, backend=backend, sync="relaxed")
        assert err.value.stalled
        assert "worker 0" in str(err.value)
        assert "os pid" in str(err.value)
        assert "heartbeat" in str(err.value)

    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    def test_slow_but_beating_is_not_deadlock(self, backend_kind):
        cls = {"processes": ProcessBackend, "tcp": TcpBackend}[backend_kind]
        backend = cls(join_timeout=2.5)
        with pytest.raises(SynchronizationError) as err:
            bsp_run(slow_ring, 2, backend=backend, args=(30, 0.3),
                    sync="relaxed")
        assert not isinstance(err.value, DeadlockError)
        assert "still advancing" in str(err.value)

    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    @pytest.mark.parametrize("kill_step", [0, 3])
    def test_crash_recovery_in_relaxed_mode(self, tmp_path, backend_kind,
                                            kill_step):
        """Kill a worker mid-run under checkpointing: the healed relaxed
        run must reproduce the uninterrupted golden bit-for-bit."""
        from repro import CheckpointConfig, DiskCheckpointStore
        golden = oracle(counting_ring, nprocs=2)
        plan = faults.FaultPlan(
            [faults.Fault(faults.KILL, pid=1, step=kill_step)])
        cfg = CheckpointConfig(
            store=DiskCheckpointStore(tmp_path / "ckpt"),
            run_key=f"relaxed-{backend_kind}-{kill_step}")
        with _pooled(backend_kind, 2, plan) as backend:
            run = bsp_run(counting_ring, 2, backend=backend, retries=1,
                          checkpoint=cfg, sync="relaxed")
            health = backend.health()
        assert snapshot(run) == golden
        assert health.generation >= 1
        assert "WorkerCrashError" in health.last_fault

    def test_out_of_pattern_send_fails_loudly(self):
        """validate=True: a stray send is a program error at the next
        boundary, not a silent deadlock of the undeclared receiver."""
        with pytest.raises(VirtualProcessorError) as err:
            bsp_run(out_of_pattern, 3, backend="processes", sync="elide")
        assert "BspUsageError" in err.value.traceback_text
        assert "declared communication pattern" in err.value.traceback_text


    @pytest.mark.parametrize("backend_kind", ["processes", "tcp"])
    def test_inconsistent_declaration_stalls_on_every_fabric(self,
                                                             backend_kind):
        """``Bsp.pattern``: an inconsistent declaration "stalls the run
        like a lost message" — pid 0 awaits a frame pid 1 never owes it,
        whatever the link is made of; the pool then serves the next run."""
        cls = {"processes": ProcessBackend, "tcp": TcpBackend}[backend_kind]
        golden = oracle(pattern_ring, nprocs=3)
        with cls.pool(3, join_timeout=2.5) as backend:
            with pytest.raises(DeadlockError) as err:
                bsp_run(inconsistent_pattern, 3, backend=backend,
                        sync="elide")
            assert 0 in err.value.stalled
            run = bsp_run(pattern_ring, 3, backend=backend, sync="elide")
        assert snapshot(run) == golden


def _count_frames(backend_kind, sync, program, nprocs=3, rounds=4,
                  **run_kw):
    """Total wire frames a run actually sent, via FrameCounter: a pool
    whose workers inherited the plan, or threads under it."""
    counter = faults.FrameCounter(nprocs)
    plan = faults.FaultPlan([], frame_counter=counter)
    try:
        if backend_kind == "threads":
            with faults.injected(plan):
                bsp_run(program, nprocs, backend="threads",
                        args=(rounds,), sync=sync, **run_kw)
        else:
            with _pooled(backend_kind, nprocs, plan) as backend:
                bsp_run(program, nprocs, backend=backend, args=(rounds,),
                        sync=sync, **run_kw)
        return counter.total()
    finally:
        counter.close()


class TestEmptySuperstepFrameBudgets:
    """Regression: a boundary costs one frame per link of its link set.

    ``rounds`` supersteps at p processors must cost, in boundary frames
    on the wire (p=3, rounds=4 here; "links" = p·(p−1)·rounds):

    ========== ============================ ==========================
    backend    mode                         frames
    ========== ============================ ==========================
    processes  strict / relaxed / elide     links (one per link)
    threads    strict / relaxed / elide     links (one per link)
    tcp        strict / relaxed             links (one final per link)
    tcp        strict, with data            links (the data frame is
                                            the final)
    all three  elide, declared ring         p·rounds (one per declared
                                            link)
    all three  elide, empty pattern         0 (full barrier elision)
    all three  any mode, fenced by a        links (a fence uses every
               checkpoint                   peer, and no release)
    ========== ============================ ==========================
    """

    P, ROUNDS = 3, 4
    LINKS = P * (P - 1) * ROUNDS

    def test_processes_strict_baseline(self):
        assert _count_frames("processes", "strict", empty_steps,
                             self.P, self.ROUNDS) == self.LINKS

    @pytest.mark.parametrize("sync", ["relaxed", "elide"])
    def test_processes_every_mode_one_frame_per_link(self, sync):
        assert _count_frames("processes", sync, empty_steps,
                             self.P, self.ROUNDS) == self.LINKS

    def test_tcp_strict_baseline(self):
        assert _count_frames("tcp", "strict", empty_steps,
                             self.P, self.ROUNDS) == self.LINKS

    def test_tcp_strict_with_data_one_per_link(self):
        """The final *is* the data frame: no second, announcing, frame."""
        assert _count_frames("tcp", "strict", one_packet_ring,
                             self.P, self.ROUNDS) == self.LINKS

    def test_tcp_relaxed_one_final_per_link(self):
        assert _count_frames("tcp", "relaxed", empty_steps,
                             self.P, self.ROUNDS) == self.LINKS

    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_threads_every_mode_one_frame_per_link(self, sync):
        assert _count_frames("threads", sync, empty_steps,
                             self.P, self.ROUNDS) == self.LINKS

    @pytest.mark.parametrize("backend_kind", ["processes", "tcp", "threads"])
    def test_elide_declared_ring_one_frame_per_declared_link(self,
                                                             backend_kind):
        assert _count_frames(backend_kind, "elide", declared_ring_steps,
                             self.P, self.ROUNDS) == self.P * self.ROUNDS

    def test_tcp_elide_empty_pattern_sends_nothing(self):
        assert _count_frames("tcp", "elide", empty_pattern_steps,
                             self.P, self.ROUNDS) == 0

    def test_pipes_elide_empty_pattern_sends_nothing(self):
        assert _count_frames("processes", "elide", empty_pattern_steps,
                             self.P, self.ROUNDS) == 0

    def test_threads_elide_empty_pattern_sends_nothing(self):
        assert _count_frames("threads", "elide", empty_pattern_steps,
                             self.P, self.ROUNDS) == 0

    @pytest.mark.parametrize("sync", SYNC_MODES)
    @pytest.mark.parametrize("backend_kind", ["processes", "tcp", "threads"])
    def test_fenced_boundary_one_frame_per_link(self, tmp_path,
                                                backend_kind, sync):
        from repro import CheckpointConfig, DiskCheckpointStore
        cfg = CheckpointConfig(store=DiskCheckpointStore(tmp_path / "ckpt"),
                               run_key=f"fenced-{backend_kind}-{sync}")
        assert _count_frames(backend_kind, sync, fenced_steps, self.P,
                             self.ROUNDS, checkpoint=cfg) == self.LINKS
