"""The never-blocking inline push and what still needs the sender thread.

Boundary frames are first offered, on the thread that called ``sync()``,
to ``FrameTransport.push_frame(frame, block=False)``; only the frames it
refuses reach the per-run sender thread.  Exercised here:

* the non-blocking push cannot wait: against a full pipe with a parked
  reader, a destination lock held by another process, an
  over-``PIPE_BUF`` message and a pool with no recycled region it
  returns ``False`` within 50 ms, writes nothing, maps nothing and
  leaves the sender's segment pool as it found it;
* it never grows the pool: a link in steady state alternates two
  regions, and frame sizes that differ every boundary stay within two
  segments a link;
* Appendix B.3 still holds: every rank pushing frames larger than a pipe
  at its peers, mixed with 8-byte frames, for 50 boundaries, strict and
  relaxed, shm plane on and off, equals the simulator;
* small buffers ride in-band without changing what a program receives:
  hypothesis over sizes straddling the in-band cut, 0-d / empty /
  non-contiguous / read-only arrays;
* faults met on the calling thread end as they did on the sender
  thread, and ``count_frame`` ticks once per frame on either path;
* a pooled ocean run never starts a ``bsp-send-*`` thread, a pooled
  Cannon run does.
"""

import fcntl
import multiprocessing as mp
import os
import select
import struct
import termios
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import bsp_run
from repro import faults
from repro.backends import frames, processes
from repro.backends.frames import FrameTransport
from repro.backends.processes import BspPool, ProcessBackend
from repro.core.errors import DeadlockError, VirtualProcessorError
from repro.core.packets import Packet, h_units
from repro.core.stats import ProgramStats
from repro.harness.runner import run_app

pytestmark = pytest.mark.timeout(240)

CTX = mp.get_context("fork")
#: "Returns within 50 ms" — the bound the non-blocking push is held to.
NO_WAIT_S = 0.05


@pytest.fixture(autouse=True)
def _leak_free(no_leaks):
    """Every test in this module leaves no child, segment or socket."""


def _pkt(src, dst, payload, seq=0):
    return Packet(src=src, dst=dst, payload=payload, h=h_units(payload),
                  seq=seq)


def _pipe_bytes(transport, pid):
    """Bytes sitting unread in ``pid``'s inbound pipe (FIONREAD)."""
    raw = fcntl.ioctl(transport._recv_conns[pid].fileno(), termios.FIONREAD,
                      b"\0" * 4)
    return struct.unpack("i", raw)[0]


def _fill_pipe(transport, pid):
    """Fill ``pid``'s inbound pipe to capacity; nobody is reading it."""
    fd = transport._send_conns[pid].fileno()
    os.set_blocking(fd, False)
    try:
        for chunk in (bytes(select.PIPE_BUF), b"\0"):
            try:
                while True:
                    os.write(fd, chunk)
            except BlockingIOError:
                pass
    finally:
        os.set_blocking(fd, True)


def _pool_state(transport, src):
    """Everything a lease could change in ``src``'s segment pool."""
    pool = transport._seg_pools[src]
    if pool is None:  # built (empty, nothing mapped) by the first lease
        return 0, []
    return (pool.outstanding, [
        (seg.name, seg.used, seg.high, seg.outstanding,
         sorted((size, len(spare)) for size, spare in seg.free.items()))
        for segs in pool._pools.values() for seg in segs])


def _refused(transport, frame):
    """A non-blocking push of ``frame`` must refuse, fast, and leave the
    destination's pipe and lock and the sender's pool exactly as they
    were."""
    dst, src = frame[0], frame[3]
    before = (_pipe_bytes(transport, dst), transport.segment_counts(),
              _pool_state(transport, src))
    t0 = time.monotonic()
    pushed = transport.push_frame(frame, block=False)
    elapsed = time.monotonic() - t0
    assert pushed is False
    assert elapsed < NO_WAIT_S
    assert (_pipe_bytes(transport, dst), transport.segment_counts(),
            _pool_state(transport, src)) == before


@pytest.fixture()
def transport():
    t = FrameTransport(2, CTX)
    yield t
    t.close()


def _boundary(transport, step, payloads, inbox, *, block):
    """One p=2 boundary as ``_FrameChannel._round`` runs it, both ranks
    in this process: reap, push (releases piggybacked), receive into
    ``inbox``.  Each rank consumed its previous inbox before it called
    ``sync()``, as ``bsp.packets()`` does.  A frame the non-blocking
    push refuses goes out the way the sender thread would send it;
    returns which frames went inline."""
    pushed = []
    for pid in (0, 1):
        peer = 1 - pid
        inbox[pid] = None
        rel = transport.collect_releases(pid).get(peer, ())
        frame = transport.encode_frame(
            peer, 1, step, pid, [_pkt(pid, peer, payloads[pid])],
            releases=rel)
        pushed.append(transport.push_frame(frame, block=block))
        if not pushed[-1]:
            transport.push_frame(frame)
    for pid in (0, 1):
        inbox[pid] = transport.recv(pid).packets(pid)
    return pushed


def _warm(transport, payload, step=0):
    """One blocking frame 0 -> 1, received, dropped and released: pid
    0's pool now has recycled bytes a non-blocking push could lease."""
    transport.send_packets(1, 1, step, 0, [_pkt(0, 1, payload)])
    transport.recv(1).packets(1)
    for owner, ids in transport.collect_releases(1).items():
        transport._seg_pools[owner].release(ids)


def _touched(transport):
    """Bytes under a high-water mark, and segments, over both pools."""
    segs = [seg for pool in transport._seg_pools[:2]
            for group in pool._pools.values() for seg in group]
    return sum(seg.high for seg in segs), len(segs)


def _hold_lock(lock, held, release):
    with lock:
        held.set()
        release.wait(30.0)


class TestNeverBlocks:
    def test_small_frame_goes_inline_as_one_atomic_message(self, transport):
        ghost = np.arange(66, dtype=np.float64)  # ocean's 528-byte row
        frame = transport.encode_frame(1, 1, 0, 0, [_pkt(0, 1, ghost)])
        *_, buffers, _big, _rel = frame
        assert buffers == []  # in-band: no out-of-band buffer at all
        assert transport.push_frame(frame, block=False) is True
        assert 0 < _pipe_bytes(transport, 1) <= select.PIPE_BUF
        assert transport._seg_pools[0] is None  # no shm round trip
        (got,) = transport.recv(1).packets(1)
        np.testing.assert_array_equal(got.payload, ghost)

    @pytest.mark.parametrize("payload", [
        7, np.arange(66, dtype=np.float64), np.arange(1024, dtype=np.float64)],
        ids=["int", "inband-array", "leased-array"])
    def test_full_pipe_parked_reader(self, transport, payload):
        _warm(transport, payload)  # the pool could serve it: the pipe cannot
        _fill_pipe(transport, 1)
        frame = transport.encode_frame(1, 1, 0, 0, [_pkt(0, 1, payload)])
        _refused(transport, frame)
        assert transport.locks_free(timeout=0.0)

    def test_lock_held_by_another_process(self, transport):
        held, release = CTX.Event(), CTX.Event()
        holder = CTX.Process(target=_hold_lock,
                             args=(transport._locks[1], held, release),
                             daemon=True)
        holder.start()
        try:
            assert held.wait(10.0)
            frame = transport.encode_frame(1, 1, 0, 0, [_pkt(0, 1, 7)])
            _refused(transport, frame)
            assert _pipe_bytes(transport, 1) == 0
        finally:
            release.set()
            holder.join(10.0)
        assert not holder.is_alive()
        assert transport.push_frame(frame, block=False) is True
        assert transport.recv(1).packets(1)[0].payload == 7

    def test_message_over_pipe_buf_is_refused(self, transport):
        # bytes never go out-of-band: the whole blob rides the header.
        frame = transport.encode_frame(
            1, 1, 0, 0, [_pkt(0, 1, bytes(select.PIPE_BUF))])
        _refused(transport, frame)

    def test_pipe_message_buffers_are_refused(self, monkeypatch):
        # With the shm plane off a frame's buffers would be pipe
        # messages of their own, which can fill the pipe.
        monkeypatch.setenv("REPRO_ZEROCOPY", "off")
        transport = FrameTransport(2, CTX)
        try:
            frame = transport.encode_frame(
                1, 1, 0, 0, [_pkt(0, 1, np.zeros(1024))])
            *_, buffers, leased, _rel = frame
            assert buffers and not leased
            _refused(transport, frame)
        finally:
            transport.close()

    def test_fresh_pool_is_refused_and_maps_nothing(self, transport):
        halo = np.arange(1024, dtype=np.float64)  # 8 KiB: out-of-band
        frame = transport.encode_frame(1, 1, 0, 0, [_pkt(0, 1, halo)])
        _refused(transport, frame)
        assert transport.segment_counts() == {0: 0, 1: 0}
        assert transport.zerocopy_stats() == (0, 0)
        # Once a segment exists, only bytes below its high-water mark.
        assert transport.push_frame(frame) is True
        (got,) = transport.recv(1).packets(1)
        again = transport.encode_frame(1, 1, 1, 0, [_pkt(0, 1, halo + 1)])
        _refused(transport, again)  # the one region is still held
        np.testing.assert_array_equal(got.payload, halo)
        assert transport.zerocopy_stats() == (1, 0)

    def test_refusal_after_leasing_returns_the_region(self, transport):
        halo = np.arange(1024, dtype=np.float64)
        transport.send_packets(1, 1, 0, 0, [_pkt(0, 1, halo)])
        pinned = transport.recv(1).packets(1)  # no rewind while it is held
        _warm(transport, halo, step=1)
        (seg,) = transport._seg_pools[0]._pools[1]
        assert [len(spare) for spare in seg.free.values()] == [1]
        # Enough piggybacked releases to push the header past PIPE_BUF,
        # which is known only once the lease is in it.
        frame = transport.encode_frame(1, 1, 2, 0, [_pkt(0, 1, halo)],
                                       releases=range(10**6, 10**6 + 1500))
        assert len(frame[4]) < select.PIPE_BUF
        _refused(transport, frame)
        assert transport.zerocopy_stats() == (2, 0)  # the two that went out
        np.testing.assert_array_equal(pinned[0].payload, halo)

    def test_fault_hooks_fire_once_however_many_pushes(self, transport):
        # The frame hooks belong to the boundary round, once per frame:
        # pid 0's frame is refused inline (over PIPE_BUF) and written by
        # the sender thread — two pushes, one count.
        counter = faults.FrameCounter(2)
        channels = [processes._FrameChannel(pid, 2, transport, 1)
                    for pid in (0, 1)]
        payload = bytes(range(256)) * 32
        got = [None, None]

        def boundary(pid):
            outbox = [_pkt(0, 1, payload)] if pid == 0 else []
            got[pid] = channels[pid].exchange(pid, 0, outbox).merged()
            channels[pid].close()

        try:
            with faults.injected(faults.FaultPlan([], frame_counter=counter)):
                threads = [threading.Thread(target=boundary, args=(pid,))
                           for pid in (0, 1)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(20.0)
            assert not any(thread.is_alive() for thread in threads)
            assert counter.per_sender() == [1, 1]
            assert channels[0]._sender is not None  # the deferred path
            assert got[0] == [] and got[1][0].payload == payload
        finally:
            counter.close()


class TestNeverGrowsThePool:
    """What the inline push may lease is what was leased before."""

    def test_ping_pong_alternates_two_regions_per_link(self, transport):
        halo = np.arange(1024, dtype=np.float64)  # 8 KiB each way
        inbox = [None, None]
        for step in range(2):  # warm-up: the sender thread's part
            _boundary(transport, step, (halo, halo + step), inbox, block=True)
        warm = _touched(transport)
        assert warm == (2 * 2 * halo.nbytes, 2)  # B.1: two buffers a link
        for step in range(2, 1002):
            assert _boundary(transport, step, (halo + step, halo - step),
                             inbox, block=False) == [True, True]
            assert inbox[0][0].payload[0] == -step
            assert inbox[1][0].payload[0] == step
        assert _touched(transport) == warm
        assert transport.zerocopy_stats() == (2 * 1002, 0)

    def test_sizes_that_differ_every_boundary_stay_within_two_segments(
            self, transport):
        # The N-body shape: one essential tree of 11-49 KiB a link, never
        # the same size twice in a row.  4000 boundaries lease ~120 MB a
        # link — many times a segment — through whichever push takes it.
        rng = np.random.default_rng(0)
        inbox = [None, None]
        inline = 0
        for step in range(4000):
            sizes = rng.integers(11 << 10, 49 << 10, size=2) // 8
            trees = tuple(np.full(n, float(step)) for n in sizes)
            inline += sum(_boundary(transport, step, trees, inbox,
                                    block=False))
            assert inbox[0][0].payload[-1] == step
        assert max(transport.segment_counts().values()) <= 2
        assert inline > 4000  # below a high-water mark most pushes go inline


# -- B.3: frames that can fill a pipe still cannot deadlock --------------------

#: Larger than a pipe (64 KiB) whichever way it travels: the bytes blob
#: rides the header, the array is out-of-band and with zero-copy off
#: goes down the pipe as a message of its own.
BLOB = 96 << 10
ARRAY_N = 12_288  # float64: 96 KiB
BOUNDARIES = 50


def heavy_mixed(bsp, boundaries=BOUNDARIES):
    """Every link carries a pipe-filling frame at two boundaries in three
    — both directions at once, the B.3 hazard — and an 8-byte one
    otherwise, so most ranks push both kinds in one superstep."""
    digest = 0
    big = np.arange(ARRAY_N, dtype=np.float64) + bsp.pid
    for step in range(boundaries):
        for q in range(bsp.nprocs):
            if q == bsp.pid:
                continue
            if (step + bsp.pid + q) % 3:
                bsp.send(q, bytes([step % 251]) * BLOB)
                bsp.send(q, big)
            else:
                bsp.send(q, np.int64(step * 7 + bsp.pid))
        bsp.sync()
        for pkt in bsp.packets():
            payload = pkt.payload
            if isinstance(payload, bytes):
                digest += len(payload) + payload[0]
            else:
                digest += int(np.asarray(payload).sum()) % 1_000_003
    return digest


def _ledger_key(stats):
    return (stats.S, stats.H, stats.h_series, stats.m_series)


@pytest.mark.parametrize("zerocopy", ["on", "off"])
@pytest.mark.parametrize("sync", ["strict", "relaxed"])
@pytest.mark.parametrize("nprocs", [2, 3])
def test_mutual_large_pushes_complete(monkeypatch, nprocs, sync, zerocopy):
    monkeypatch.setenv("REPRO_ZEROCOPY", zerocopy)
    golden = bsp_run(heavy_mixed, nprocs)
    with ProcessBackend.pool(nprocs, join_timeout=120.0) as backend:
        run = bsp_run(heavy_mixed, nprocs, backend=backend, sync=sync)
        health = backend.health()
    assert run.results == golden.results
    assert _ledger_key(run.stats) == _ledger_key(golden.stats)
    assert health.restarts == 0
    if zerocopy == "on":
        assert health.zerocopy_hits > 0 and health.zerocopy_fallbacks == 0
    else:
        assert health.zerocopy_hits == 0 and health.zerocopy_fallbacks > 0


# -- in-band small buffers: what the program receives is unchanged -------------

_CUT = frames._INBAND_MAX // 8  # float64 elements at the in-band cut


def _variant(kind, n):
    base = np.arange(n, dtype=np.float64) * 0.5 - 3.0
    if kind == "readonly":
        base.flags.writeable = False
    elif kind == "strided":
        # NumPy pickles a non-contiguous array by value, whatever its
        # size: capped so five of them fit the pipe nobody reads until
        # the (same-thread) send returns.
        base = np.arange(2 * min(n, 1024), dtype=np.float64)[::2]
    elif kind == "fortran":
        base = np.asfortranarray(
            np.arange(2 * n, dtype=np.float64).reshape(2, n))
    elif kind == "int32":
        base = np.arange(n, dtype=np.int32)
    elif kind == "0-d":
        base = np.array(float(n))
    return base


_sizes = st.one_of(st.sampled_from([0, 1, _CUT - 1, _CUT, _CUT + 1]),
                   st.integers(0, 4 * _CUT))


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(st.tuples(
    st.sampled_from(["plain", "readonly", "strided", "fortran", "int32",
                     "0-d"]), _sizes), min_size=1, max_size=5))
def test_roundtrip_straddling_the_cut(specs):
    sent = [_variant(kind, n) for kind, n in specs]
    transport = FrameTransport(2, CTX)
    try:
        transport.send_packets(1, 1, 0, 0, [
            _pkt(0, 1, arr, seq=i) for i, arr in enumerate(sent)])
        got = [np.asarray(p.payload) for p in transport.recv(1).packets(1)]
        for arr, back in zip(sent, got):
            assert back.dtype == arr.dtype and back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()  # bit-equal
            # NumPy pickles only contiguous arrays as buffers; the
            # rest it copies (always writable), on every path.
            if arr.flags.c_contiguous or arr.flags.f_contiguous:
                assert back.flags.writeable == arr.flags.writeable
                if back.flags.writeable and back.size:
                    back.flat[0] = 1  # really writable
        leased = sum(
            1 for arr in sent if arr.nbytes >= frames._INBAND_MAX
            and (arr.flags.c_contiguous or arr.flags.f_contiguous))
        assert transport.zerocopy_stats() == (leased, 0)
        assert len(transport._lease_table(1)) == bool(leased)  # one a frame
        del got, back
    finally:
        transport.close()


# -- faults on the inline path -------------------------------------------------


def ring_program(bsp, rounds=2):
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.sync()
    return sorted(pkt.payload for pkt in bsp.packets())


def small_and_big(bsp, rounds=4):
    """Each boundary: an int to the next rank (inline), a leased array to
    the one after (sender thread until its link has a region to reuse)."""
    big = np.ones(20_000)
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.send((bsp.pid + 2) % bsp.nprocs, big)
        bsp.sync()
    return len(list(bsp.packets()))


def _pool_under(plan, nprocs=3, **kw):
    """A pool whose workers inherited ``plan`` but whose parent did not."""
    kw.setdefault("join_timeout", 30.0)
    with faults.injected(plan):
        return BspPool(nprocs, **kw)


def _snapshot(run):
    stats = ProgramStats.from_ledgers(run.ledgers)
    return [list(r) for r in run.results], _ledger_key(stats)


def _golden(nprocs, rounds):
    run = bsp_run(ring_program, nprocs, args=(rounds,))
    return [list(r) for r in run.results], _ledger_key(run.stats)


class TestFaultsOnTheInlinePath:
    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_poison_raises_from_the_calling_thread(self, sync):
        plan = faults.FaultPlan([faults.Fault(faults.POISON, pid=1, step=3)])
        with _pool_under(plan) as pool:
            t0 = time.monotonic()
            with pytest.raises(VirtualProcessorError) as err:
                pool.run(ring_program, 3, args=(4,), sync=sync)
            assert time.monotonic() - t0 < 10.0  # peers aborted, no timeout
            assert err.value.pid == 1
            assert "injected pickle failure" in err.value.traceback_text
            assert "in _send\n" in err.value.traceback_text
            assert "_sender_loop" not in err.value.traceback_text
            health = pool.health()
            assert health.restarts == 0 and health.generation == 0
            # Fewer rounds never reach the inherited fault: a clean run.
            assert _snapshot(pool.run(ring_program, 3, args=(2,),
                                      sync=sync)) == _golden(3, 2)

    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_dropped_inline_frame_is_still_a_deadlock(self, sync):
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, pid=0, step=0, arg=1)])
        with _pool_under(plan, join_timeout=2.5) as pool:
            with pytest.raises(DeadlockError) as err:
                pool.run(ring_program, 3, sync=sync)
            assert err.value.stalled
            # The rebuilt workers forked from a plan-free parent.
            assert _snapshot(pool.run(ring_program, 3,
                                      sync=sync)) == _golden(3, 2)

    @pytest.mark.parametrize("sync,frames_per_round", [
        ("strict", 6),    # one per link, empty or not
        ("relaxed", 6),   # two non-empty buckets per rank
    ])
    def test_count_frame_ticks_once_inline_or_deferred(self, sync,
                                                       frames_per_round):
        counter = faults.FrameCounter(3)
        try:
            plan = faults.FaultPlan([], frame_counter=counter)
            with _pool_under(plan) as pool:
                run = pool.run(small_and_big, 3, args=(4,), sync=sync)
                assert pool.health().zerocopy_hits == 12  # inline or deferred
            assert run.results == [2, 2, 2]
            assert counter.total() == 4 * frames_per_round
        finally:
            counter.close()


# -- who starts a sender thread ------------------------------------------------


class TestSenderThreadStartedOnlyWhenNeeded:
    @pytest.fixture()
    def sender_starts(self, monkeypatch):
        """Fork-shared count of ``bsp-send-*`` threads each rank started:
        the patched loop is inherited by every worker forked after it."""
        counter = faults.FrameCounter(4)
        original = processes._FrameChannel._sender_loop

        def counted(channel):
            counter.add(channel._pid)
            original(channel)

        monkeypatch.setattr(processes._FrameChannel, "_sender_loop", counted)
        yield counter
        counter.close()

    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_pooled_ocean_never_starts_one(self, sender_starts, sync):
        with ProcessBackend.pool(2, join_timeout=60.0) as backend:
            stats = run_app("ocean", "66", 2, backend=backend, sync=sync)
        assert stats.S > 400
        assert sender_starts.total() == 0

    def test_pooled_cannon_starts_one_per_rank(self, sender_starts):
        with ProcessBackend.pool(4, join_timeout=60.0) as backend:
            run_app("matmult", "288", 4, backend=backend)
            assert backend.health().zerocopy_hits > 0
        assert sender_starts.per_sender() == [1, 1, 1, 1]
