"""Survivable-mesh resilience suite: fuzzing, chaos, heal-in-place.

Three layers of the robustness contract (DESIGN "Failure-mode matrix"):

* **Frame integrity under hostile bytes** — property-based fuzzing of
  :class:`~repro.backends.tcp_wire.FrameDecoder`: any single-byte
  corruption of a CRC-protected frame is either rejected
  (:class:`PacketError`), surfaced as a ``TAG_CORRUPT`` marker (which
  the channel answers with a NACK), or leaves the decoder waiting for
  more bytes.  Never a silently wrong frame, never a hang.
* **Chaos runs** — seeded link resets, frame corruption, duplication,
  partitions, and a mid-run SIGKILL on checkpointed real applications
  (ocean, shortest paths) over the TCP mesh, strict and relaxed: the
  run completes with bit-identical results and (S, H, h-series,
  m-series) ledgers versus the undisturbed golden run, the mesh heals
  in place (generation advances, no full rebuild), and the repair shows
  up in the ``health()`` counters.
* **Plumbing satellites** — rendezvous timeouts name the missing ranks,
  mesh generations fold into distinct wire tokens, ``health()`` exposes
  the link-repair counters, and the mesh's option count is pinned.
"""

import inspect
import socket
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CheckpointConfig, DiskCheckpointStore, PacketError
from repro import faults
from repro.backends import tcp_wire as wire
from repro.backends.frames import TAG_PKT
from repro.backends.processes import BspPool, ProcessBackend
from repro.backends.tcp import TcpBackend, TcpMesh
from repro.backends.tcp_launch import bind_listener, fold_token, rendezvous_fabric
from repro.core.errors import (
    DeadlockError,
    PoolExhaustedError,
    SynchronizationError,
    WorkerCrashError,
)
from repro.core.packets import Packet

# ---------------------------------------------------------------------------
# Module-level programs (pooled runs ship programs by pickle)
# ---------------------------------------------------------------------------


def ring_program(bsp, rounds=2):
    acc = []
    for step in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid, step))
        bsp.sync()
        acc.extend(pkt.payload for pkt in bsp.packets())
    return acc


def link_ends(bsp):
    """Each mesh link of this rank as its (local, remote) port pair: the
    same pair across two runs is the same connection."""
    return {peer: (sock.getsockname()[1], sock.getpeername()[1])
            for peer, sock in bsp._channel._socks.items()}


def _flatten(chunks):
    out = bytearray()
    for chunk in chunks:
        out += bytes(memoryview(chunk))
    return bytes(out)


def _sample_frame(seed: int) -> bytes:
    payload = bytes((seed * 37 + i) % 251 for i in range(48))
    pkts = [Packet(src=0, dst=1, seq=0, payload=payload, h=2),
            Packet(src=0, dst=1, seq=1, payload={"round": seed}, h=1)]
    return _flatten(wire.reenvelope(
        wire.encode_packet_frame(seed % 7, seed % 5, 0, pkts), seed % 11, -1))


_FUZZ = settings(max_examples=60, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestDecoderFuzz:
    """No byte stream may make the decoder hang or emit a wrong frame."""

    @_FUZZ
    @given(seed=st.integers(0, 30), pos=st.integers(0, 200),
           mask=st.integers(1, 255))
    def test_single_byte_flip_never_silently_wrong(self, seed, pos, mask):
        blob = bytearray(_sample_frame(seed))
        blob[pos % len(blob)] ^= mask
        dec = wire.FrameDecoder()
        try:
            frames = dec.feed(bytes(blob))
        except PacketError:
            return  # structural rejection: link-reset territory
        # Whatever survived structurally must have failed its CRC (the
        # corruption marker the channel turns into a NACK) — the decoder
        # may also still be waiting if the flip grew a length field that
        # the envelope checksum happens not to cover for multi-frame
        # streams; what it must never do is hand back a clean frame.
        assert all(f.tag == wire.TAG_CORRUPT for f in frames)

    @_FUZZ
    @given(seed=st.integers(0, 30), data=st.data())
    def test_truncation_waits_then_completes(self, seed, data):
        blob = _sample_frame(seed)
        cut = data.draw(st.integers(1, len(blob) - 1))
        dec = wire.FrameDecoder()
        assert dec.feed(blob[:cut]) == []
        assert dec.mid_frame
        (frame,) = dec.feed(blob[cut:])
        assert frame.tag == TAG_PKT
        assert not dec.mid_frame

    @_FUZZ
    @given(seeds=st.lists(st.integers(0, 30), min_size=1, max_size=4),
           data=st.data())
    def test_random_splits_preserve_frame_sequence(self, seeds, data):
        blob = b"".join(_sample_frame(s) for s in seeds)
        ncuts = data.draw(st.integers(0, 6))
        cuts = sorted(data.draw(st.integers(0, len(blob)))
                      for _ in range(ncuts))
        dec = wire.FrameDecoder()
        frames = []
        prev = 0
        for cut in cuts + [len(blob)]:
            frames.extend(dec.feed(blob[prev:cut]))
            prev = cut
        assert [f.seq for f in frames] == [s % 11 for s in seeds]
        assert [f.step for f in frames] == [s % 5 for s in seeds]

    @_FUZZ
    @given(junk=st.binary(min_size=1, max_size=256))
    def test_garbage_rejected_or_flagged(self, junk):
        dec = wire.FrameDecoder()
        try:
            frames = dec.feed(junk)
        except PacketError:
            return
        assert all(f.tag == wire.TAG_CORRUPT for f in frames)

    @_FUZZ
    @given(seed=st.integers(0, 30))
    def test_duplicate_frames_decode_twice(self, seed):
        # Dup suppression is the channel's job (seq < rx_next is
        # dropped); the decoder must surface both copies faithfully.
        blob = _sample_frame(seed)
        frames = wire.FrameDecoder().feed(blob + blob)
        assert len(frames) == 2
        assert frames[0].seq == frames[1].seq == seed % 11


# ---------------------------------------------------------------------------
# Chaos: seeded network faults + a crash on checkpointed applications
# ---------------------------------------------------------------------------


def _ledger_key(stats):
    return (stats.S, stats.H, stats.h_series, stats.m_series)


def _chaos_plan(kill_step: int) -> faults.FaultPlan:
    """Every network fault kind, spread across ranks, plus one SIGKILL."""
    return faults.FaultPlan([
        faults.Fault(faults.RESET_CONN, pid=0, step=1, arg=1),
        faults.Fault(faults.CORRUPT_FRAME, pid=1, step=2, arg=0),
        faults.Fault(faults.DUP_FRAME, pid=1, step=3, arg=0),
        faults.Fault(faults.PARTITION, pid=0, step=4),
        faults.Fault(faults.SLOW_LINK, pid=1, step=5, arg=(0, 0.05)),
        faults.Fault(faults.KILL, pid=1, step=kill_step),
    ])


def _chaos_pool(nprocs, plan):
    with faults.injected(plan):
        return TcpBackend.pool(nprocs)


def _cfg(tmp_path, run_key):
    return CheckpointConfig(store=DiskCheckpointStore(tmp_path / "ckpt"),
                            run_key=run_key)


class TestChaos:
    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_ocean_identity_under_chaos(self, tmp_path, sync):
        from repro.apps.ocean import bsp_ocean
        golden = bsp_ocean(18, 6, 2)
        kill_step = max(6, int(golden.stats.S * 0.6))
        with _chaos_pool(2, _chaos_plan(kill_step)) as backend:
            run = bsp_ocean(18, 6, 2, backend=backend, retries=1,
                            checkpoint=_cfg(tmp_path, f"chaos-ocean-{sync}"),
                            sync=sync)
            health = backend.health()
        assert np.array_equal(golden.state.psi, run.state.psi)
        assert np.array_equal(golden.state.zeta, run.state.zeta)
        assert _ledger_key(run.stats) == _ledger_key(golden.stats)
        # The crash healed in place: the epoch advanced, the mesh was
        # never rebuilt, and the link-level repairs are all accounted.
        assert health.generation >= 1
        assert "re-fork" in health.heal_kinds
        assert "rebuild" not in health.heal_kinds
        assert health.reconnects >= 1
        assert health.alive == health.capacity == 2

    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_sssp_identity_under_chaos(self, tmp_path, sync):
        from repro.apps.nbody.orb import orb_partition
        from repro.apps.sssp import bsp_sssp
        from repro.graphs import geometric_graph
        gg = geometric_graph(60, seed=0)
        owner = orb_partition(gg.points, None, 2)
        golden = bsp_sssp(gg.graph, owner, 2, source=0, work_factor=8)
        # The last superstep is a boundary-free tail, so keep the kill
        # strictly inside the synchronized prefix.
        kill_step = max(3, min(int(golden.stats.S * 0.6),
                               golden.stats.S - 3))
        with _chaos_pool(2, _chaos_plan(kill_step)) as backend:
            run = bsp_sssp(gg.graph, owner, 2, source=0, work_factor=8,
                           backend=backend, retries=1,
                           checkpoint=_cfg(tmp_path, f"chaos-sp-{sync}"),
                           sync=sync)
            health = backend.health()
        assert np.array_equal(golden.dist, run.dist)
        assert _ledger_key(run.stats) == _ledger_key(golden.stats)
        assert health.generation >= 1
        assert "re-fork" in health.heal_kinds
        assert "rebuild" not in health.heal_kinds

    def test_network_faults_alone_never_dirty_the_mesh(self):
        # Without a crash the repairs are invisible to the epoch: the
        # run completes on generation 0 with zero restarts.
        plan = faults.FaultPlan([
            faults.Fault(faults.RESET_CONN, pid=0, step=0, arg=1),
            faults.Fault(faults.CORRUPT_FRAME, pid=1, step=1, arg=0),
        ])
        with _chaos_pool(2, plan) as backend:
            run = backend.run(ring_program, 2, args=(3,))
            health = backend.health()
        assert run.results == [[(1, 0), (1, 1), (1, 2)],
                               [(0, 0), (0, 1), (0, 2)]]
        assert health.generation == 0
        assert health.restarts == 0
        assert health.heal_kinds == ()
        assert health.reconnects >= 1
        assert health.retransmits >= 1


class TestHealInPlace:
    def test_kill_heals_without_rebuild(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=1)])
        with _chaos_pool(3, plan) as backend:
            with pytest.raises(WorkerCrashError):
                backend.run(ring_program, 3, args=(3,))
            run = backend.run(ring_program, 3, args=(3,))
            health = backend.health()
        assert [sorted(r) for r in run.results]
        assert health.heal_kinds == ("re-fork",)
        assert health.generation == 1
        assert health.restarts == 1
        assert health.alive == 3

    def test_heal_keeps_the_survivors_and_their_links(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=1)])
        with _chaos_pool(4, plan) as backend:
            before = backend.run(link_ends, 4).results
            pids = [proc.pid for proc in backend._mesh._procs]
            with pytest.raises(WorkerCrashError):
                backend.run(ring_program, 4, args=(3,))
            after = backend.run(link_ends, 4).results
            healed = [proc.pid for proc in backend._mesh._procs]
        assert [a == b for a, b in zip(pids, healed)] == [True, False,
                                                          True, True]
        for rank in (0, 2, 3):
            for peer in range(4):
                if peer != rank:
                    kept = after[rank][peer] == before[rank][peer]
                    assert kept == (peer != 1), (rank, peer)

    def test_deadlock_rebuilds(self):
        # Nobody died, so there is nobody to replace: a deadlock is the
        # rebuild branch.  The rebuilt ranks come up without the plan.
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, pid=0, step=0, arg=1)])
        with faults.injected(plan):
            backend = TcpBackend.pool(2, join_timeout=3.0)
        with backend:
            with pytest.raises(DeadlockError):
                backend.run(ring_program, 2)
            backend.run(ring_program, 2)
            health = backend.health()
        assert health.heal_kinds == ("rebuild",)
        assert health.restarts == 2  # whole capacity re-forked

    def test_restart_budget_exhausts(self):
        # Rank 1 dies in run 1 (rank 0 is still blocked at the step-1
        # barrier, so its own later fault stays armed) and the heal
        # spends the only restart; the healed run 2 then loses rank 0
        # with the budget spent, and the mesh gives up.
        plan = faults.FaultPlan([
            faults.Fault(faults.KILL, pid=1, step=1),
            faults.Fault(faults.KILL, pid=0, step=3),
        ])
        with faults.injected(plan):
            backend = TcpBackend.pool(2, max_restarts=1)
        with backend:
            with pytest.raises(WorkerCrashError):
                backend.run(ring_program, 2, args=(5,))
            with pytest.raises(PoolExhaustedError, match="restart budget"):
                backend.run(ring_program, 2, args=(5,))
            health = backend.health()
        assert health.heal_kinds == ("re-fork",)
        assert health.restarts_left == 0 and health.alive == 0


# ---------------------------------------------------------------------------
# Satellites: rendezvous diagnostics, repair counters, option count
# ---------------------------------------------------------------------------


class TestSatellites:
    def test_rendezvous_timeout_names_missing_ranks(self):
        listener = bind_listener("127.0.0.1")
        addr = listener.getsockname()
        with pytest.raises(SynchronizationError, match=r"missing rank\(s\) \[1, 2\]"):
            rendezvous_fabric(0, 3, addr, coordinator_listener=listener,
                              timeout=0.4)

    def test_fold_token_distinct_per_generation(self):
        gens = {fold_token(12345, g) for g in range(16)}
        assert len(gens) == 16
        assert all(0 <= t <= 0x7FFFFFFF for t in gens)

    def test_option_count_is_pinned(self):
        # Every knob doubles what the fault suites must cover: one that
        # comes (back) has to change this test, and so argue its case.
        def options(fn):
            return sorted(p.name for p in
                          inspect.signature(fn).parameters.values()
                          if p.kind is p.KEYWORD_ONLY)
        assert options(TcpMesh) == ["host", "join_timeout", "max_restarts"]
        assert options(TcpBackend) == ["host", "join_timeout", "mesh"]
        assert options(TcpBackend.pool) == ["host", "join_timeout",
                                            "max_restarts"]
        assert options(BspPool) == ["join_timeout", "max_restarts"]
        assert options(ProcessBackend.pool) == ["join_timeout",
                                                "max_restarts"]

    def test_health_exposes_repair_counters(self):
        plan = faults.FaultPlan([
            faults.Fault(faults.CORRUPT_FRAME, pid=0, step=1, arg=1)])
        with _chaos_pool(2, plan) as backend:
            backend.run(ring_program, 2, args=(3,))
            health = backend.health()
        assert health.retransmits >= 1
        assert health.heal_kinds == ()
