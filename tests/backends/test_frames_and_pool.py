"""Tests for the batched zero-copy exchange layer and the persistent pool.

Three layers of guarantees:

* the frame combiner is a faithful round-trip (payload kinds, ``h``/``seq``
  metadata, writability of reconstructed arrays);
* :class:`~repro.core.packets.PacketRuns` concatenation produces exactly
  the canonical ``(src, seq)`` order the old global sort did (property
  tested on random permutations);
* a :class:`~repro.backends.processes.BspPool` is reusable across runs —
  fresh ledgers every time, surviving failed runs — and the accounting the
  whole stack produces is bit-identical to the pre-frame implementation
  (golden values recorded from the seed revision).
"""

import hashlib
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.frames import decode_packets, encode_packets
from repro.backends.processes import BspPool, ProcessBackend
from repro.core.errors import BspConfigError, BspUsageError, VirtualProcessorError
from repro.core.packets import Packet, PacketRuns, delivery_order
from repro.harness.runner import run_app

from .pipes import Pipes


def _mk(src, dst, payload, h, seq):
    return Packet(src=src, dst=dst, payload=payload, h=h, seq=seq)


class TestCombinerRoundTrip:
    """encode_packets/decode_packets must be the identity on a bucket."""

    def _roundtrip(self, packets):
        meta, buffers = encode_packets(packets)
        # Cross the "process boundary": materialize the out-of-band
        # buffers into writable bytearrays, as the receiving side does.
        received = [bytearray(mv) for mv in buffers]
        return decode_packets(meta, received, packets[0].src if packets else 0,
                              packets[0].dst if packets else 0)

    def test_numpy_payloads(self):
        arrays = [np.arange(64, dtype=np.float64),
                  np.ones((3, 5), dtype=np.int32),
                  np.zeros(0, dtype=np.float32)]
        packets = [_mk(1, 2, a, h=4, seq=i) for i, a in enumerate(arrays)]
        out = self._roundtrip(packets)
        assert len(out) == len(packets)
        for orig, got in zip(packets, out):
            assert got.src == 1 and got.dst == 2
            assert got.h == orig.h and got.seq == orig.seq
            assert got.payload.dtype == orig.payload.dtype
            assert got.payload.shape == orig.payload.shape
            np.testing.assert_array_equal(got.payload, orig.payload)

    def test_reconstructed_arrays_are_writable(self):
        pkt = _mk(0, 1, np.arange(10, dtype=np.float64), h=1, seq=0)
        out = self._roundtrip([pkt])[0]
        out.payload[3] = -1.0  # must not raise: programs mutate received halos
        assert out.payload[3] == -1.0
        assert pkt.payload[3] == 3.0  # and the sender's array is untouched

    def test_bytes_str_and_mixed(self):
        payloads = [b"raw-bytes", "unicode-é", 12345,
                    {"k": [1, 2.5, None]}, (np.arange(4), "tail")]
        packets = [_mk(2, 0, p, h=1 + i, seq=10 + i)
                   for i, p in enumerate(payloads)]
        out = self._roundtrip(packets)
        assert [p.seq for p in out] == [10, 11, 12, 13, 14]
        assert [p.h for p in out] == [1, 2, 3, 4, 5]
        assert out[0].payload == b"raw-bytes"
        assert out[1].payload == "unicode-é"
        assert out[2].payload == 12345
        assert out[3].payload == {"k": [1, 2.5, None]}
        np.testing.assert_array_equal(out[4].payload[0], np.arange(4))
        assert out[4].payload[1] == "tail"

    def test_empty_bucket(self):
        meta, buffers = encode_packets([])
        assert decode_packets(meta, [bytearray(mv) for mv in buffers], 0, 0) == []

    def test_noncontiguous_array_falls_back_to_copy(self):
        strided = np.arange(100, dtype=np.float64)[::3]
        out = self._roundtrip([_mk(0, 1, strided, h=1, seq=0)])[0]
        np.testing.assert_array_equal(out.payload, strided)


@pytest.fixture()
def transport(monkeypatch):
    monkeypatch.setenv("REPRO_ZEROCOPY", "on")  # whatever the CI row says
    t = Pipes(2)
    yield t
    t.close()


def _exchange(transport, payload):
    """Send one frame 0 -> 1 and receive it: (sent, region, packets).

    ``region`` is the ``(segment name, offset)`` the frame's buffers were
    leased at, read off the receiver's lease table."""
    transport.send_packets(1, 1, 0, 0, [_mk(0, 1, payload, 1, 0)])
    known = set(transport._lease_tables[1]._entries)
    packets = transport.recv(1).packets(1)
    ((_src, lease_id),) = set(transport._lease_tables[1]._entries) - known
    region = transport._seg_pools[0]._leases[lease_id]
    return True, (region.seg.name, region.offset), packets


def _release(transport):
    """What a boundary does: reap dropped inbound leases at pid 1 and
    take their ids home to pid 0's pool."""
    for owner, ids in transport.collect_releases(1).items():
        transport._seg_pools[owner].release(ids)


class TestRecvPool:
    """The receive buffer of a frame is its leased region: it is handed
    out again only once every consumer dropped the payloads over it."""

    def test_busy_buffer_not_recycled(self, transport):
        halo = np.arange(1024, dtype=np.float64)
        _, first, held = _exchange(transport, halo)
        _release(transport)  # nothing to reap: ``held`` is a live consumer
        _, second, got = _exchange(transport, halo + 1)
        assert second != first
        np.testing.assert_array_equal(held[0].payload, halo)  # not overwritten
        del held, got
        _release(transport)
        _, third, got = _exchange(transport, halo)
        assert third in (first, second)

    def test_recycles_after_consumers_drop(self, transport):
        halo = np.arange(1024, dtype=np.float64)
        _, first, got = _exchange(transport, halo)
        del got
        _release(transport)
        # ...and the released region is the one leased next.
        sent, second, got = _exchange(transport, halo * 2)
        assert sent and second == first
        np.testing.assert_array_equal(got[0].payload, halo * 2)

    def test_distinct_sizes_do_not_alias(self, transport):
        _, small, got = _exchange(transport, np.zeros(512))
        _, keep, held = _exchange(transport, np.ones(512))  # pins the segment
        del got
        _release(transport)
        _, big, got = _exchange(transport, np.arange(1024.0))
        assert big not in (small, keep)  # 4 KiB free, 8 KiB asked: a miss
        assert got[0].payload.nbytes == 8192
        np.testing.assert_array_equal(held[0].payload, np.ones(512))


class TestSlabRing:
    """What the ring's suite keeps: the one fallback plane."""

    def test_oversized_frame_takes_pipe_path(self, monkeypatch):
        # With the shm plane off, a frame's buffers follow its header in
        # the stream and still round-trip — from a second thread, because
        # 64 KiB + 512 bytes is more than a pipe holds.
        monkeypatch.setenv("REPRO_ZEROCOPY", "off")
        transport = Pipes(2)
        try:
            payload = np.arange((64 << 10) // 8 + 64, dtype=np.float64)
            pkt = _mk(0, 1, payload, h=7, seq=3)
            sender = threading.Thread(
                target=transport.send_packets, args=(1, 1, 0, 0, [pkt]))
            sender.start()
            frame = transport.recv(1)
            sender.join(10.0)
            assert not sender.is_alive()
            assert transport.segment_counts() == {0: 0, 1: 0}
            assert transport.zerocopy_stats() == (0, 1)
            (got,) = frame.packets(1)
            assert (got.h, got.seq) == (7, 3)
            np.testing.assert_array_equal(got.payload, payload)
        finally:
            transport.close()


class TestDeliveryOrderProperty:
    """PacketRuns concatenation == the old global (src, seq) sort."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_merged_equals_sorted(self, data):
        nsrc = data.draw(st.integers(0, 6))
        runs = []
        flat = []
        srcs = data.draw(st.permutations(list(range(nsrc))))
        for src in srcs:
            length = data.draw(st.integers(0, 8))
            start = data.draw(st.integers(0, 100))
            run = [_mk(src, 0, (src, k), h=1, seq=start + k)
                   for k in range(length)]
            runs.append((src, run))
            flat.extend(run)
        shuffled = data.draw(st.permutations(flat))
        expected = delivery_order(shuffled)
        got = PacketRuns(runs).merged()
        assert [(p.src, p.seq) for p in got] == \
               [(p.src, p.seq) for p in expected]
        assert [p.payload for p in got] == [p.payload for p in expected]

    def test_single_run_is_returned_as_is(self):
        run = [_mk(3, 0, k, h=1, seq=k) for k in range(4)]
        assert PacketRuns([(3, run)]).merged() == run


# ---------------------------------------------------------------------------
# Pool lifecycle (module-level programs: the pool ships them by pickle)
# ---------------------------------------------------------------------------


def ring_program(bsp, shift):
    bsp.send((bsp.pid + shift) % bsp.nprocs, bsp.pid)
    bsp.sync()
    return [p.payload for p in bsp.packets()]


def failing_program(bsp, bad_pid):
    if bsp.pid == bad_pid:
        raise RuntimeError("deliberate failure")
    bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
    bsp.sync()
    return bsp.pid


def numpy_exchange_program(bsp, size, scale):
    for q in range(bsp.nprocs):
        if q != bsp.pid:
            bsp.send(q, np.full(size, float(bsp.pid * scale)))
    bsp.sync()
    return sum(float(p.payload[0]) for p in bsp.packets())


class TestBspPoolReuse:
    def test_many_runs_fresh_ledgers(self):
        with BspPool(3) as pool:
            for shift in (1, 2, 1):
                run = pool.run(ring_program, args=(shift,))
                assert run.results == [[(pid - shift) % 3] for pid in range(3)]
                # Fresh accounting per run: exactly the program's two
                # supersteps (sync + final), never accumulated across runs.
                assert all(ledger.nsupersteps == 2 for ledger in run.ledgers)

    def test_recycled_buffers_do_not_corrupt_payloads(self):
        with BspPool(3) as pool:
            for scale in (1, 10, 100):
                run = pool.run(numpy_exchange_program, args=(1 << 12, scale))
                for pid in range(3):
                    expected = sum(q * scale for q in range(3) if q != pid)
                    assert run.results[pid] == expected

    def test_survives_failed_run(self):
        with BspPool(3) as pool:
            with pytest.raises(VirtualProcessorError) as err:
                pool.run(failing_program, args=(1,))
            assert err.value.pid == 1
            # The same workers must be reusable immediately afterwards.
            run = pool.run(ring_program, args=(1,))
            assert run.results == [[2], [0], [1]]

    def test_smaller_runs_share_the_pool(self):
        with BspPool(4) as pool:
            assert pool.run(ring_program, nprocs=2, args=(1,)).results == \
                [[1], [0]]
            assert len(pool.run(ring_program, nprocs=4, args=(1,)).results) == 4

    def test_oversized_run_rejected(self):
        with BspPool(2) as pool:
            with pytest.raises(BspConfigError):
                pool.run(ring_program, nprocs=3, args=(1,))

    def test_unpicklable_program_message(self):
        with BspPool(2) as pool:
            with pytest.raises(BspUsageError, match="module-level"):
                pool.run(lambda bsp: None)

    def test_closed_pool_rejects_runs(self):
        pool = BspPool(2)
        pool.close()
        with pytest.raises(BspConfigError):
            pool.run(ring_program, args=(1,))

    def test_backend_pool_classmethod(self):
        with ProcessBackend.pool(3) as backend:
            first = backend.run(ring_program, 3, args=(1,))
            second = backend.run(ring_program, 3, args=(2,))
        assert first.results == [[2], [0], [1]]
        assert second.results == [[1], [2], [0]]


# ---------------------------------------------------------------------------
# Golden accounting: bit-identical to the pre-frame (seed) implementation
# ---------------------------------------------------------------------------

#: (S, H, sha256-prefix of the comma-joined per-superstep h series), as
#: measured on the simulator backend at the seed revision (p=4, seed 0).
GOLDEN_SEED_ACCOUNTING = {
    ("ocean", "66"): (489, 15890, "b5882e80f3a2ab0c"),
    ("mst", "2.5k"): (7, 573, "42755087de787f56"),
    ("sp", "2.5k"): (23, 245, "78da159294fa786c"),
    ("msp", "2.5k"): (34, 3243, "5a9c0ce5981e431b"),
    ("nbody", "1k"): (7, 1511, "0faf953a2126eb31"),
    ("matmult", "144"): (3, 10368, "83b281fc68d1317b"),
}


class TestGoldenAccounting:
    """The exchange layer is transport only: W/H/S must never move."""

    @pytest.mark.parametrize("app,size", sorted(GOLDEN_SEED_ACCOUNTING))
    def test_simulator_accounting_unchanged(self, app, size):
        golden_s, golden_h, golden_digest = GOLDEN_SEED_ACCOUNTING[(app, size)]
        stats = run_app(app, size, 4)
        series = ",".join(str(ss.h) for ss in stats.supersteps)
        digest = hashlib.sha256(series.encode()).hexdigest()[:16]
        assert (stats.S, stats.H) == (golden_s, golden_h)
        assert digest == golden_digest

    @pytest.mark.parametrize("app,size", sorted(GOLDEN_SEED_ACCOUNTING))
    def test_tcp_accounting_matches_simulator_golden(self, app, size):
        # Real sockets are still transport only: the combined-frame layout
        # rides the TCP stream byte-for-byte, so the golden ledgers hold.
        golden_s, golden_h, golden_digest = GOLDEN_SEED_ACCOUNTING[(app, size)]
        stats = run_app(app, size, 4, backend="tcp")
        series = ",".join(str(ss.h) for ss in stats.supersteps)
        digest = hashlib.sha256(series.encode()).hexdigest()[:16]
        assert (stats.S, stats.H) == (golden_s, golden_h)
        assert digest == golden_digest
