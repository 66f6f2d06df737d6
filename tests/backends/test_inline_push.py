"""A boundary never waits on a peer's read.

Every link of the pipe fabric is a pipe of its own, driven by
:class:`~repro.backends.exchange.StreamLinks`: a frame goes out as far
as its pipe takes it, the rest queues, and the rank flushes its queues
while it waits for inbound frames — the only thing a boundary waits on.
Exercised here:

* a send never waits: against a full pipe with a parked reader it
  returns within 50 ms with the rest queued, and two ranks pushing
  frames larger than a pipe at each other, one of them asleep, finish
  their sends and go back to reading; a small frame is one write;
* the shm plane does not grow: a link in steady state alternates two
  regions, and frame sizes that differ every boundary stay within two
  segments a link;
* Appendix B.3 still holds: every rank pushing frames larger than a pipe
  at its peers, mixed with 8-byte frames, for 50 boundaries, strict and
  relaxed, shm plane on and off, completes on the planes it should (what
  it delivers is the conformance matrix's ``heavy_mixed`` family);
* small buffers ride in-band without changing what a program receives:
  hypothesis over sizes straddling the in-band cut, 0-d / empty /
  non-contiguous / read-only arrays;
* faults met in a boundary end as they should, and ``count_frame``
  ticks once per frame however many writes it takes;
* no rank ever starts a thread.
"""

import fcntl
import os
import pickle
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
from repro.backends import frames, tcp_wire
from repro.backends.frames import TAG_PKT, encode_packets
from repro.backends.processes import BspPool, ProcessBackend, _PipeLink
from repro.core.errors import DeadlockError, VirtualProcessorError
from repro.core.packets import Packet, h_units
from repro.harness.runner import run_app

from .conformance import BLOB, heavy_mixed, oracle, snapshot
from .pipes import Pipes

pytestmark = pytest.mark.timeout(240)

#: "Returns within 50 ms" — the bound a send is held to.
NO_WAIT_S = 0.05


@pytest.fixture(autouse=True)
def _leak_free(no_leaks):
    """Every test in this module leaves no child, segment, socket or
    pipe."""


def _pkt(src, dst, payload, seq=0):
    return Packet(src=src, dst=dst, payload=payload, h=h_units(payload),
                  seq=seq)


def _pipe_bytes(transport, src, dst):
    """Bytes sitting unread in pipe ``(src, dst)`` (FIONREAD)."""
    raw = fcntl.ioctl(transport._pipes[src, dst][0], termios.FIONREAD,
                      b"\0" * 4)
    return struct.unpack("i", raw)[0]


def _channels(transport, nprocs=2):
    return [_PipeLink(pid, transport).channel(1, nprocs, "strict")
            for pid in range(nprocs)]


@pytest.fixture()
def transport():
    t = Pipes(2)
    yield t
    t.close()


def _boundary(transport, step, payloads, inbox):
    """One p=2 boundary as a channel runs it, both ranks in this
    process: reap, send (releases piggybacked), receive into ``inbox``.
    Each rank consumed its previous inbox before it called ``sync()``,
    as ``bsp.packets()`` does."""
    for pid in (0, 1):
        peer = 1 - pid
        inbox[pid] = None
        transport.send_packets(
            peer, 1, step, pid, [_pkt(pid, peer, payloads[pid])],
            releases=transport.collect_releases(pid).get(peer, ()))
    for pid in (0, 1):
        inbox[pid] = transport.recv(pid).packets(pid)


class TestNeverBlocks:
    def test_small_frame_goes_inline_as_one_atomic_message(self, transport):
        ghost = np.arange(66, dtype=np.float64)  # ocean's 528-byte row
        sender, _ = _channels(transport)
        sender._send(1, 0, [_pkt(0, 1, ghost)], False)
        assert not sender._unsent()  # written at once...
        assert 0 < _pipe_bytes(transport, 0, 1) <= select.PIPE_BUF  # whole
        assert transport._seg_pools[0] is None  # no shm round trip
        (got,) = transport.recv(1).packets(1)
        np.testing.assert_array_equal(got.payload, ghost)

    @pytest.mark.parametrize("payload", [
        7, np.arange(66, dtype=np.float64), np.arange(1024, dtype=np.float64)],
        ids=["int", "inband-array", "leased-array"])
    def test_full_pipe_parked_reader(self, transport, payload):
        sender, _ = _channels(transport)
        filler = bytes(BLOB)  # more than the pipe holds
        sender._send(1, 0, [_pkt(0, 1, filler)], False)
        assert sender._unsent([1])  # the pipe is full; nobody reads it
        t0 = time.monotonic()
        sender._send(1, 1, [_pkt(0, 1, payload)], False)
        assert time.monotonic() - t0 < NO_WAIT_S
        got = []
        reader = threading.Thread(target=lambda: got.extend(
            transport.recv(1).packets(1)[0].payload for _ in range(2)))
        reader.start()  # the reader wakes; the sender flushes as it reads
        while sender._unsent():
            sender._select(0.05)
        reader.join(10.0)
        assert not reader.is_alive()
        assert got[0] == filler
        np.testing.assert_array_equal(got[1], payload)

    def test_sender_finishes_its_sends_while_the_peer_sleeps(self, transport):
        # Both frames overfill their pipe; pid 1 sleeps before its
        # boundary.  pid 0's send returns at once and pid 0 is back
        # reading — flushing as it reads — long before pid 1 wakes.
        channels = _channels(transport)
        sends, pumped, woke, got = [], [], [], [None, None]
        send, pump = channels[0]._send, channels[0]._pump

        def timed_send(*args):
            t0 = time.monotonic()
            send(*args)
            sends.append(time.monotonic() - t0)

        def first_pump():
            pumped.append(time.monotonic())
            pump()

        channels[0]._send, channels[0]._pump = timed_send, first_pump
        blobs = [bytes([pid + 1]) * BLOB for pid in (0, 1)]

        def rank(pid):
            if pid == 1:
                time.sleep(0.5)
                woke.append(time.monotonic())
            got[pid] = channels[pid].exchange(
                pid, 0, [_pkt(pid, 1 - pid, blobs[pid])]).merged()

        threads = [threading.Thread(target=rank, args=(pid,))
                   for pid in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(20.0)
        assert not any(thread.is_alive() for thread in threads)
        assert len(sends) == 1 and sends[0] < NO_WAIT_S
        assert pumped[0] < woke[0]
        assert [g[0].payload for g in got] == [blobs[1], blobs[0]]

    def test_fault_hooks_fire_once_however_many_pushes(self, transport):
        # The frame hooks belong to the boundary round, once per frame:
        # pid 0's frame overfills the pipe and goes out in several
        # writes — one count.
        counter = faults.FrameCounter(2)
        channels = _channels(transport)
        payload = bytes(range(256)) * (BLOB // 256)
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
            assert got[0] == [] and got[1][0].payload == payload
        finally:
            counter.close()


class TestNeverGrowsThePool:
    """What a link leases in steady state is what it leased before."""

    def test_ping_pong_alternates_two_regions_per_link(self, transport):
        halo = np.arange(1024, dtype=np.float64)  # 8 KiB each way
        inbox = [None, None]
        regions = [set(), set()]
        for step in range(1000):
            _boundary(transport, step, (halo + step, halo - step), inbox)
            assert inbox[0][0].payload[0] == -step
            assert inbox[1][0].payload[0] == step
            for src in (0, 1):
                regions[src] |= {
                    (region.seg.name, region.offset)
                    for region in transport._seg_pools[src]._leases.values()}
        assert [len(r) for r in regions] == [2, 2]  # B.1: two buffers a link
        assert transport.segment_counts() == {0: 1, 1: 1}
        assert transport.zerocopy_stats() == (2 * 1000, 0)

    def test_sizes_that_differ_every_boundary_stay_within_two_segments(
            self, transport):
        # The N-body shape: one essential tree of 11-49 KiB a link, never
        # the same size twice in a row.  4000 boundaries lease ~120 MB a
        # link — many times a segment.
        rng = np.random.default_rng(0)
        inbox = [None, None]
        for step in range(4000):
            sizes = rng.integers(11 << 10, 49 << 10, size=2) // 8
            trees = tuple(np.full(n, float(step)) for n in sizes)
            _boundary(transport, step, trees, inbox)
            assert inbox[0][0].payload[-1] == step
        assert max(transport.segment_counts().values()) <= 2


# -- B.3: frames that can fill a pipe still cannot deadlock --------------------

@pytest.mark.parametrize("zerocopy", ["on", "off"])
@pytest.mark.parametrize("sync", ["strict", "relaxed"])
@pytest.mark.parametrize("nprocs", [2, 3])
def test_mutual_large_pushes_complete(monkeypatch, nprocs, sync, zerocopy):
    """The pushes finish on the planes they should; what they deliver is
    the conformance matrix's ``heavy_mixed`` family."""
    monkeypatch.setenv("REPRO_ZEROCOPY", zerocopy)
    with ProcessBackend.pool(nprocs, join_timeout=120.0) as backend:
        bsp_run(heavy_mixed, nprocs, backend=backend, sync=sync)
        health = backend.health()
    assert health.restarts == 0
    if zerocopy == "on":
        assert health.zerocopy_hits > 0 and health.zerocopy_fallbacks == 0
    else:
        assert health.zerocopy_hits == 0 and health.zerocopy_fallbacks > 0


# -- in-band small buffers: what the program receives is unchanged -------------

_CUT = frames._INBAND_MAX // 8  # float64 elements at the in-band cut


class _Tagged(np.ndarray):
    """An ndarray subclass: pickled by NumPy's reduce, type and all."""


#: Kinds NumPy pickles by value whatever their size: no lease.
_BY_VALUE = {"datetime64", "object", "subclass"}


def _variant(kind, n):
    """An array of ``kind`` of about ``8 * n`` bytes."""
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
    elif kind == "big-endian":
        base = base.astype(">f8")
    elif kind == "bool":
        base = np.arange(8 * n) % 3 == 0
    elif kind == "complex":
        base = np.arange(n // 2) * (1.5 - 2j)
    elif kind == "datetime64":
        base = np.arange(n).astype("M8[s]")
    elif kind == "structured":
        base = np.zeros(n, dtype=[("a", "<i4"), ("b", "<f4")])
        base["a"], base["b"] = np.arange(n), np.arange(n) * 0.25
    elif kind == "object":
        base = np.array([0.5 * i for i in range(min(n, 512))] + [None],
                        dtype=object)
    elif kind == "subclass":
        base = base.view(_Tagged)
    return base


_sizes = st.one_of(st.sampled_from([0, 1, _CUT - 1, _CUT, _CUT + 1]),
                   st.integers(0, 4 * _CUT))


@settings(max_examples=25, deadline=None)
@given(specs=st.lists(st.tuples(
    st.sampled_from(["plain", "readonly", "strided", "fortran", "int32",
                     "0-d", "big-endian", "bool", "complex", "datetime64",
                     "structured", "object", "subclass"]), _sizes),
    min_size=1, max_size=5))
def test_roundtrip_straddling_the_cut(specs):
    sent = [_variant(kind, n) for kind, n in specs]
    transport = Pipes(2)
    try:
        transport.send_packets(1, 1, 0, 0, [
            _pkt(0, 1, arr, seq=i) for i, arr in enumerate(sent)])
        got = [p.payload for p in transport.recv(1).packets(1)]
        for arr, back in zip(sent, got):
            assert type(back) is type(arr)
            assert back.dtype == arr.dtype and back.shape == arr.shape
            if arr.dtype.hasobject:
                assert back.tolist() == arr.tolist()
            else:
                assert back.tobytes() == arr.tobytes()  # bit-equal
            assert not np.shares_memory(back, arr)
            # NumPy pickles only contiguous arrays as buffers; the
            # rest it copies (always writable), on every path.
            if arr.flags.c_contiguous or arr.flags.f_contiguous:
                assert back.flags.writeable == arr.flags.writeable
                if back.flags.writeable and back.size:
                    back.flat[0] = back.flat[-1]  # really writable
        leased = sum(
            1 for (kind, _), arr in zip(specs, sent)
            if arr.nbytes >= frames._INBAND_MAX and kind not in _BY_VALUE
            and (arr.flags.c_contiguous or arr.flags.f_contiguous))
        assert transport.zerocopy_stats() == (leased, 0)
        assert len(transport._lease_tables[1]) == bool(leased)  # one a frame
        del got, back
    finally:
        transport.close()


def test_empty_bucket_is_a_bare_envelope(monkeypatch):
    """An empty final on a pipe is the envelope and the CRC word alone,
    and it is received without a pickle."""
    transport = Pipes(2)
    try:
        chunks = transport.encode(1, TAG_PKT, 1, 0, 0, *encode_packets(()))
        assert sum(memoryview(c).nbytes for c in chunks) == \
            tcp_wire.ENVELOPE_BYTES + 4

        def loads(*args, **kwargs):
            raise AssertionError("an empty bucket was unpickled")

        transport.send_packets(1, 1, 0, 0, [])
        monkeypatch.setattr(pickle, "loads", loads)
        assert transport.recv(1).packets(1) == []
    finally:
        transport.close()


# -- faults in a boundary -------------------------------------------------------


def ring_program(bsp, rounds=2):
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.sync()
    return sorted(pkt.payload for pkt in bsp.packets())


def small_and_big(bsp, rounds=4):
    """Each boundary: an int to the next rank (in the stream), a leased
    array to the one after."""
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
            health = pool.health()
            assert health.restarts == 0 and health.generation == 0
            # Fewer rounds never reach the inherited fault: a clean run.
            assert snapshot(pool.run(ring_program, 3, args=(2,),
                                     sync=sync)) == \
                oracle(ring_program, (2,), 3)

    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_dropped_inline_frame_is_still_a_deadlock(self, sync):
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, pid=0, step=0, arg=1)])
        with _pool_under(plan, join_timeout=2.5) as pool:
            with pytest.raises(DeadlockError) as err:
                pool.run(ring_program, 3, sync=sync)
            assert err.value.stalled
            # The rebuilt workers forked from a plan-free parent.
            assert snapshot(pool.run(ring_program, 3, sync=sync)) == \
                oracle(ring_program, (2,), 3)

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
                assert pool.health().zerocopy_hits == 12
            assert run.results == [2, 2, 2]
            assert counter.total() == 4 * frames_per_round
        finally:
            counter.close()


# -- no thread -----------------------------------------------------------------


class TestSenderThreadStartedOnlyWhenNeeded:
    @pytest.fixture()
    def thread_starts(self, monkeypatch):
        """Fork-shared count of threads the ranks start: the patched
        ``start`` is inherited by every worker forked after it."""
        counter = faults.FrameCounter(1)
        parent, start = os.getpid(), threading.Thread.start

        def counted(thread):
            if os.getpid() != parent:
                counter.add(0)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        yield counter
        counter.close()

    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_pooled_ocean_never_starts_one(self, thread_starts, sync):
        with ProcessBackend.pool(2, join_timeout=60.0) as backend:
            stats = run_app("ocean", "66", 2, backend=backend, sync=sync)
        assert stats.S > 400
        assert thread_starts.total() == 0
