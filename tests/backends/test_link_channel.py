"""The one boundary round, over the threads fabric and the two real ones.

Which frames a boundary sends and which it waits for — the data round
and departures — is written once, in
:class:`~repro.backends.exchange.LinkChannel`; a fabric supplies only
its transport.  The threads backend's transport is a queue per rank and
fits in a few dozen lines, which is the claim that the seam is that
narrow.  Over it, without forks or sockets:

* results and (S, H, h-series, m-series) ledgers equal the simulator's
  in every sync mode, and under forced preemption;
* the frame budget of each mode: one frame per link of the boundary's
  link set, and no other frame;
* nothing is sent to a peer that has departed.

Then the pipe fabric's stream links under forced preemption — frames
that fit a pipe written at once, larger ones queued and flushed while
their sender reads — and the departure rule on both real fabrics: a
rank that returns early no longer wedges a peer that keeps sending it
pipe-sized frames.
"""

import sys
import threading
from unittest import mock

import pytest

from repro import SYNC_MODES
from repro.backends import threads
from repro.backends.frames import TAG_LEFT, TAG_PKT
from repro.backends.processes import ProcessBackend, _PipeLink
from repro.backends.tcp import TcpBackend
from repro.core.packets import Packet

from .conformance import oracle, snapshot
from .pipes import Pipes

def _run(program, nprocs, sync, *, args=()):
    """One ``ThreadBackend`` run whose channels record every frame they
    send: the ``BackendRun`` and the frames, as ``(tag, src, dst)``."""
    sent = []

    class Recording(threads._ThreadChannel):
        def _send(self, peer, step, bucket):
            sent.append((TAG_PKT, self._pid, peer))
            super()._send(peer, step, bucket)

        def _signal(self, peer, tag, step):
            sent.append((tag, self._pid, peer))
            super()._signal(peer, tag, step)

    runs = []
    with mock.patch.object(threads, "_ThreadChannel", Recording):
        driver = threading.Thread(target=lambda: runs.append(
            threads.ThreadBackend().run(program, nprocs, args, sync=sync)),
            daemon=True)
        driver.start()
        driver.join(20.0)
    assert not driver.is_alive(), "wedged"
    (run,) = runs
    return run, sent


def ring(bsp, rounds=3):
    """A ring exchange alternating with empty supersteps, pattern
    declared (elide prunes to it; the other modes only validate)."""
    p = bsp.nprocs
    bsp.pattern({(bsp.pid + 1) % p}, {(bsp.pid - 1) % p})
    total = 0
    for r in range(rounds):
        bsp.send((bsp.pid + 1) % p, (bsp.pid + 1) * (r + 1))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
        bsp.sync()
    return total


def all_to_all(bsp, rounds=2):
    seen = []
    for r in range(rounds):
        for q in range(bsp.nprocs):
            bsp.send(q, (bsp.pid, r))
        bsp.sync()
        seen.append(sorted(pkt.payload for pkt in bsp.packets()))
    return seen


def empty_steps(bsp, rounds=4):
    for _ in range(rounds):
        bsp.sync()
    return bsp.pid


def leaves_early(bsp, rounds, size=8):
    """pid 1 returns after one superstep; the others keep sending to it."""
    if bsp.pid == 1:
        bsp.sync()
        return "left"
    for _ in range(rounds):
        bsp.send(1, bytes(size))
        bsp.sync()
    return "stayed"


class TestQueueFabric:
    @pytest.mark.parametrize("sync", SYNC_MODES)
    @pytest.mark.parametrize("program,nprocs", [(ring, 3), (all_to_all, 4)])
    def test_matches_the_simulator(self, program, nprocs, sync):
        run, _ = _run(program, nprocs, sync)
        assert snapshot(run) == oracle(program, nprocs=nprocs)

    @pytest.mark.parametrize("sync", SYNC_MODES)  # elide: no pattern declared
    def test_frame_budget_per_mode(self, sync):
        # p=3, 4 empty boundaries: 3 * 2 links * 4 = 24 frames, and the
        # LEFT each rank sends each peer at its end (6): nothing else.
        _, sent = _run(empty_steps, 3, sync)
        tags = [tag for tag, _, _ in sent]
        assert tags.count(TAG_PKT) == 24
        assert len(tags) - 24 == tags.count(TAG_LEFT) == 6

    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_nothing_is_sent_to_a_departed_peer(self, sync):
        run, sent = _run(leaves_early, 2, sync, args=(6,))
        assert run.results == ["stayed", "left"]
        # pid 0 owes pid 1 its step-0 frame, and at most one more sent
        # before pid 1's LEFT was read; none after that.
        to_leaver = [s for s in sent if s[:3] == (TAG_PKT, 0, 1)]
        assert 1 <= len(to_leaver) <= 2

    @pytest.mark.parametrize("sync", SYNC_MODES)
    def test_matches_the_simulator_under_preemption(self, sync):
        # Four ranks on two cores, a 1 µs switch interval: every put and
        # every take of an inbox is preempted somewhere.  A lost or
        # misfiled item hangs a rank or changes what it received.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run, _ = _run(all_to_all, 4, sync, args=(200,))
        finally:
            sys.setswitchinterval(interval)
        assert snapshot(run)[0] == oracle(all_to_all, (200,), 4)[0]


#: Byte pairs in a frame larger than a pipe (96 KiB).
BIG = 48 << 10


class TestPipeSenderQueue:
    def test_deferred_and_inline_frames_under_preemption(self):
        # Four ranks as threads of one process, every boundary a frame
        # larger than a pipe (96 KiB of bytes in the stream: written in
        # part, the rest queued and flushed while its sender reads) to
        # one peer and a small one, written at once, to the others,
        # rotating; a 1 µs switch interval preempts every rank mid-write
        # and mid-read.  A lost or reordered byte either hangs a rank or
        # changes what it received.
        nprocs, rounds = 4, 200
        transport = Pipes(nprocs)
        channels = [_PipeLink(pid, transport).channel(1, nprocs, "strict")
                    for pid in range(nprocs)]
        got = [[] for _ in range(nprocs)]

        def rank(pid):
            for step in range(rounds):
                big = (pid + step) % nprocs
                outbox = [Packet(src=pid, dst=q, seq=0, h=1,
                                 payload=bytes([pid, step]) * (
                                     BIG if q == big else 1))
                          for q in range(nprocs) if q != pid]
                runs = channels[pid].exchange(pid, step, outbox)
                got[pid].append(sorted(bytes(p.payload)
                                       for p in runs.merged()))
            channels[pid].close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=rank, args=(pid,),
                                        daemon=True)
                       for pid in range(nprocs)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
            transport.close()
        assert not any(thread.is_alive() for thread in threads), "wedged"
        for pid in range(nprocs):
            assert got[pid] == [sorted(
                bytes([q, step]) * (BIG if (q + step) % nprocs == pid
                                    else 1)
                for q in range(nprocs) if q != pid)
                for step in range(rounds)]


class TestEarlyDepartureOnRealFabrics:
    @pytest.mark.parametrize("cls", [ProcessBackend, TcpBackend])
    def test_a_rank_that_returns_early_wedges_nobody(self, cls):
        # 40 supersteps of 8 KiB at pid 1 would fill a pipe nobody reads
        # (bytes ride the stream, whatever the shm plane).
        with cls.pool(2, join_timeout=10.0) as backend:
            run = backend.run(leaves_early, 2, args=(40, 8192))
            assert run.results == ["stayed", "left"]
            assert backend.run(empty_steps, 2).results == [0, 1]
