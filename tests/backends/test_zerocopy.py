"""The zero-copy shared-memory data plane (repro.backends.shm).

The out-of-band payload buffers of a frame travel as one *lease* into
pooled named shared-memory segments: one sender-side memcpy, no
receive-side copy — the array a program reads out of ``bsp.get_pkt()``
is backed by the shared pages themselves.  Exercised here:

* the sender-side :class:`SegmentPool` (bump allocation, free-list
  reuse, rewind on full release, a heal's release by holder)
  and receiver-side :class:`LeaseTable` (refcount liveness probe, a
  heal's forget by source) in isolation;
* transport round-trips: out-of-band buffers lease (hit counter), one
  region and one table entry a frame, small ones stay in-band, releases
  flow back both piggybacked and on dedicated frames;
* pooled end-to-end runs in both modes — ``REPRO_ZEROCOPY=off`` must
  give bit-identical results with the fallback counter ticking instead
  (that results and ledgers equal the simulator's with the plane on and
  off, apps included, is the conformance matrix's);
* hostile-consumer property: mutating a delivered view after the next
  barrier never corrupts later deliveries (leases are never rewound
  while held);
* the lifetime of a large result: a view of the rank's region, valid
  for as long as the caller holds it — across runs, a heal and
  ``close()`` — and the same under ``REPRO_ZEROCOPY=off``;
* leak-freedom under chaos: SIGKILL mid-superstep, an exhausted restart
  budget, and the LEAK_SEGMENT / TORN_LEASE fault hooks all end with
  zero orphaned ``/dev/shm`` entries and no live worker (``no_leaks``);
* the thread backend's by-reference guard: sent arrays freeze until the
  barrier (mutation raises), thaw on delivery, and ``off`` switches to
  copy-on-send value semantics.
"""

import errno
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import bsp_run
from repro import faults
from repro.backends import shm
from repro.backends.processes import BspPool, ProcessBackend
from repro.core.errors import PoolExhaustedError, WorkerCrashError
from repro.core.packets import Packet, h_units

from .pipes import Pipes

# Comfortably above the in-band cut (float64 count): out-of-band.
BIG_N = 20_000
# Comfortably below it.
SMALL_N = 64
# Cannon's 2.65 MB block at n = 1152, p = 4 (the e2e ``matmult-bulk``).
BLOCK_N = 576 * 576

#: Every test in this module leaves /dev/shm and the process table as it
#: found them.
pytestmark = pytest.mark.usefixtures("no_leaks")


# Module-level programs: pooled runs ship them by pickle.


def big_allgather(bsp, n=BIG_N, rounds=2):
    """Every pid sends a seeded big array to every other; returns the
    float sum of everything received (bit-stable across modes)."""
    rng = np.random.default_rng(bsp.pid)
    total = 0.0
    for _ in range(rounds):
        data = rng.standard_normal(n)
        for dst in range(bsp.nprocs):
            if dst != bsp.pid:
                bsp.send(dst, data)
        bsp.sync()
        for pkt in bsp.packets():
            total += float(np.asarray(pkt.payload).sum())
    return total


def big_declared_ring(bsp, n=10 * BIG_N, rounds=12):
    """A declared ring of big arrays: more bytes per link than one
    segment holds, and the lease owner (pid - 1) is never an out-link
    (pid + 1) at p >= 3, so every release rides a dedicated frame."""
    bsp.pattern({(bsp.pid + 1) % bsp.nprocs}, {(bsp.pid - 1) % bsp.nprocs})
    total = 0.0
    for r in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, np.full(n, float(r + bsp.pid)))
        bsp.sync()
        total += sum(float(pkt.payload[0]) for pkt in bsp.packets())
    return total


def big_result(bsp, value, die_pid=-1, n=BLOCK_N):
    """Pass a big array round the ring, then return one: ``value + pid``
    in every element.  Rank ``die_pid`` exits hard while it holds its
    neighbour's lease, so a heal has a survivor's lease to return."""
    bsp.send((bsp.pid + 1) % bsp.nprocs, np.full(n, value))
    bsp.sync()
    if bsp.pid == die_pid:
        os._exit(9)
    bsp.sync()
    return np.full(n, value + bsp.pid)


def leases_out(bsp):
    """How many leases of this rank's pool are out, once two boundaries
    have taken every earlier run's releases home."""
    bsp.sync()
    bsp.sync()
    pool = bsp._channel._transport._seg_pools[bsp.pid]
    return 0 if pool is None else pool.outstanding


def _check_results(results, value):
    for pid, result in enumerate(results):
        assert result.shape == (BLOCK_N,)
        assert result.min() == result.max() == value + pid, (pid, value)


def hostile_consumer(bsp, rounds, n):
    """Verify every delivery, then vandalize the received views in place
    and keep half of them alive across supersteps.  Returns the number
    of mismatched elements ever observed — the property is 0."""
    held = []
    mismatches = 0
    for step in range(rounds):
        for dst in range(bsp.nprocs):
            if dst != bsp.pid:
                bsp.send(dst, np.full(n, step * bsp.nprocs + bsp.pid,
                                      dtype=np.int64))
        bsp.sync()
        for pkt in bsp.packets():
            arr = np.asarray(pkt.payload)
            mismatches += int(np.count_nonzero(
                arr != step * bsp.nprocs + pkt.src))
            arr[:] = -1  # mutate the delivered view after use
            if pkt.src % 2 == 0:
                held.append(arr)  # pin the lease across barriers
    return mismatches


# -- sender-side pool ---------------------------------------------------------


class TestSegmentPool:
    def test_lease_write_release_rewind(self):
        pool = shm.SegmentPool(shm.fabric_token(), 0, segment_bytes=1 << 16)
        try:
            lid1, name1, off1, view1 = pool.lease(1, 1000)
            lid2, name2, off2, view2 = pool.lease(1, 1000)
            assert (lid1, off1) == (1, 0)
            assert name1 == name2  # same per-dst segment, bump-allocated
            assert off2 == 1024    # 64-byte aligned past the first lease
            view1[:] = b"\x11" * 1000
            view2[:] = b"\x22" * 1000
            assert pool.outstanding == 2 and pool.segments == 1
            # Receiver side sees the sender's bytes through the name.
            seg_map = shm.SegmentMap()
            r1 = seg_map.region(name1, off1, 1000)
            r2 = seg_map.region(name2, off2, 1000)
            assert bytes(r1) == b"\x11" * 1000
            assert bytes(r2) == b"\x22" * 1000
            # Partial release does not rewind; full release does.
            pool.release([lid1])
            lid3, _, off3, _ = pool.lease(1, 100)
            assert off3 > 0
            pool.release([lid2, lid3])
            lid4, _, off4, view4 = pool.lease(1, 100)
            assert off4 == 0
            del r1, r2, view1, view2, view4
            seg_map.close()
        finally:
            pool.close()
            shm.sweep_segments(pool._token, {0: pool._created})

    def test_unknown_and_duplicate_releases_ignored(self):
        pool = shm.SegmentPool(shm.fabric_token(), 0)
        try:
            lid, _, _, view = pool.lease(1, 128)
            pool.release([999, lid, lid])  # unknown + duplicate: no-ops
            assert pool.outstanding == 0
            del view
        finally:
            pool.close()
            shm.sweep_segments(pool._token, {0: pool._created})

    def test_oversized_lease_gets_dedicated_segment(self):
        pool = shm.SegmentPool(shm.fabric_token(), 0, segment_bytes=4096)
        try:
            _, name, off, view = pool.lease(1, 1 << 20)
            assert off == 0 and view.nbytes == 1 << 20
            assert pool.segments == 1
        finally:
            del view
            pool.close()
            shm.sweep_segments(pool._token, {0: pool._created})

    def test_reset_returns_every_lease_and_keeps_segments(self):
        pool = shm.SegmentPool(shm.fabric_token(), 0)
        try:
            pool.lease(1, 128)
            assert pool.outstanding == 1
            pool.reset()
            assert pool.outstanding == 0
            # Segments survive a reset (reused, not unlinked) ...
            assert pool.segments == 1
            lid, _, off, view = pool.lease(1, 128)
            assert off == 0
            # ... and lease ids never restart: late releases stay safe.
            assert lid == 2
            del view
        finally:
            pool.close()
            shm.sweep_segments(pool._token, {0: pool._created})

    def test_released_region_is_reused_before_the_bump_pointer(self):
        pool = shm.SegmentPool(shm.fabric_token(), 0)
        try:
            a, name, off_a, _ = pool.lease(1, 8000)
            b, _, off_b, _ = pool.lease(1, 8000)
            pool.release([a])  # b keeps the segment from rewinding
            # 7950 bytes: the same 64-byte class as 8000.
            c, name_c, off_c, view = pool.lease(1, 8000 - 50)
            assert (name_c, off_c) == (name, off_a) and view.nbytes == 7950
            d, _, off_d, _ = pool.lease(1, 4000)  # another size: a miss
            assert off_d > off_b
            del view
        finally:
            pool.close()
            shm.sweep_segments(pool._token, {0: pool._created})

    def test_aliased_region_recycles_after_its_last_holder(self):
        pool = shm.SegmentPool(shm.fabric_token(), 0)
        try:
            pin, _, _, _ = pool.lease(1, 64)  # no rewind while it is held
            a, name, off, _ = pool.lease(1, 4096)
            alias = pool.alias(a, 2)
            pool.release([a])
            _, _, off_new, _ = pool.lease(1, 4096)
            assert off_new != off  # the alias holds it: a fresh region
            assert pool.alias(a, 2) is None  # a released id cannot be aliased
            pool.release([alias])
            _, name2, off2, view = pool.lease(1, 4096)
            assert (name2, off2) == (name, off)
            del view
        finally:
            pool.close()
            shm.sweep_segments(pool._token, {0: pool._created})

    def test_reset_clears_the_free_list(self):
        pool = shm.SegmentPool(shm.fabric_token(), 0)
        try:
            pin, _, _, _ = pool.lease(1, 64)
            a, _, off_a, _ = pool.lease(1, 4096)
            pool.release([a])
            (seg,) = pool._pools[1]
            assert seg.free
            pool.reset()
            assert not seg.free
            assert (seg.used, seg.outstanding) == (0, 0)
            pool.release([pin])  # an id already returned: ignored
            _, _, off, view = pool.lease(1, 4096)
            assert off == 0  # the bump pointer, rewound
            del view
        finally:
            pool.close()
            shm.sweep_segments(pool._token, {0: pool._created})

    def test_release_held_by_returns_only_those_holders_leases(self):
        """A heal: the leases the dead hold go home, an alias of the same
        region held by a survivor keeps it, and nothing else rewinds."""
        pool = shm.SegmentPool(shm.fabric_token(), 0)
        try:
            kept, _, _, _ = pool.lease(3, 4096)       # the parent's
            a, name_a, off_a, _ = pool.lease(1, 4096)
            alias = pool.alias(a, 2)                  # a survivor's
            dead, name, off_dead, _ = pool.lease(1, 8192)
            pool.release_held_by({1})
            assert pool.outstanding == 2  # ``kept`` and ``alias``
            assert pool.alias(a, 2) is None and pool.alias(dead, 2) is None
            # The dead's own region is free again; the aliased one is not.
            assert pool.lease(2, 8192)[1:3] == (name, off_dead)
            assert pool.lease(1, 4096)[1:3] != (name_a, off_a)
            pool.release([kept, alias])
            assert pool.outstanding == 2  # the two just leased
        finally:
            pool.close()
            shm.sweep_segments(pool._token, {0: pool._created})

    def test_deterministic_names_and_sweep(self):
        token = shm.fabric_token()
        pool = shm.SegmentPool(token, 3, segment_bytes=4096)
        pool.lease(0, 128)
        pool.lease(0, 1 << 20)  # second segment
        names = {shm.segment_name(token, 3, 0), shm.segment_name(token, 3, 1)}
        assert names <= set(shm.scan_orphans())
        pool.close()
        assert shm.sweep_segments(token, {3: pool._created}) == 2
        assert not names & set(shm.scan_orphans())
        # Sweeping again is a no-op, not an error.
        assert shm.sweep_segments(token, {3: pool._created}) == 0


class TestLeaseTable:
    def test_refcount_probe_frees_only_dropped_leases(self):
        token = shm.fabric_token()
        pool = shm.SegmentPool(token, 0)
        seg_map = shm.SegmentMap()
        try:
            lid1, name, off1, sv1 = pool.lease(1, 256)
            lid2, _, off2, sv2 = pool.lease(1, 256)
            del sv1, sv2  # sender-side views; the probe is receiver-side
            table = shm.LeaseTable()
            r1 = seg_map.region(name, off1, 256)
            r2 = seg_map.region(name, off2, 256)
            table.register(0, lid1, r1)
            table.register(0, lid2, r2)
            payload = r1[:100]  # a consumer view keeps lid1 alive
            del r1, r2
            assert table.collect_free() == {0: [lid2]}
            assert len(table) == 1
            del payload
            assert table.collect_free() == {0: [lid1]}
            assert len(table) == 0
        finally:
            seg_map.close()
            pool.close()
            shm.sweep_segments(token, {0: pool._created})

    def test_forget_drops_only_the_dead_sources_entries(self):
        """A heal forgets what the dead leased (a replacement numbers
        its leases from one again); a payload over such a region stays
        readable, and the survivors' entries stay in the table."""
        token = shm.fabric_token()
        pool = shm.SegmentPool(token, 0)
        seg_map = shm.SegmentMap()
        try:
            _, name, off, sv = pool.lease(1, 64)
            sv[:] = b"\x07" * 64
            del sv
            table = shm.LeaseTable()
            for src in (0, 1, 2):
                table.register(src, 1, seg_map.region(name, off, 64))
            payload = table._entries[1, 1][:8]
            table.forget({1})
            assert sorted(table._entries) == [(0, 1), (2, 1)]
            assert bytes(payload) == b"\x07" * 8
            assert table.collect_free() == {0: [1], 2: [1]}
            del payload
        finally:
            seg_map.close()
            pool.close()
            shm.sweep_segments(token, {0: pool._created})

    def test_equal_ids_from_two_senders_are_two_leases(self):
        """Lease ids count per sender pool: senders 0 and 2 both hand
        pid 1 their lease 1, and both come home."""
        transport = Pipes(3)
        try:
            for src in (0, 2):
                transport.send_packets(1, 1, 0, src, [
                    _pkt(src, 1, np.full(BIG_N, float(src)))])
            got = [transport.recv(1).packets(1) for _ in range(2)]
            assert sorted(pkts[0].payload[0] for pkts in got) == [0.0, 2.0]
            assert len(transport._lease_tables[1]) == 2
            del got
            assert transport.collect_releases(1) == {0: [1], 2: [1]}
        finally:
            transport.close()


# -- transport round-trips ----------------------------------------------------


def _pkt(src, dst, payload, seq=0):
    return Packet(src=src, dst=dst, payload=payload, h=h_units(payload),
                  seq=seq)


class TestTransportRoundTrip:
    @pytest.fixture()
    def transport(self):
        t = Pipes(2)
        yield t
        t.close()

    def test_big_buffer_leases_small_stays_in_band(self, transport):
        big = np.arange(BIG_N, dtype=np.float64)
        small = np.arange(SMALL_N, dtype=np.float64)
        transport.send_packets(1, 1, 0, 0, [
            _pkt(0, 1, big, seq=0), _pkt(0, 1, small, seq=1)])
        frame = transport.recv(1)
        assert len(frame.buffers) == 1
        got = frame.packets(1)
        np.testing.assert_array_equal(np.asarray(got[0].payload), big)
        np.testing.assert_array_equal(np.asarray(got[1].payload), small)
        assert transport.zerocopy_stats() == (1, 0)
        assert transport.segment_counts() == {0: 1, 1: 0}
        # Proof of sharing: the delivered array is backed by the shared
        # pages — write through the receiver's view, read it back through
        # a fresh mapping of the same region.
        arr = np.asarray(got[0].payload)
        arr[0] = -123.0
        entries = transport._lease_tables[1]._entries
        ((src, _lease_id), region), = entries.items()
        assert src == 0
        assert region[:8].view(np.float64)[0] == -123.0

    def test_sixteen_arrays_are_one_lease_freed_with_the_last_payload(
            self, transport):
        arrays = [np.full(300 + i, float(i)) for i in range(16)]
        transport.send_packets(1, 1, 0, 0, [
            _pkt(0, 1, a, seq=i) for i, a in enumerate(arrays)])
        got = transport.recv(1).packets(1)
        assert transport.zerocopy_stats() == (16, 0)  # counted per buffer
        assert transport._seg_pools[0].outstanding == 1  # leased per frame
        assert len(transport._lease_tables[1]) == 1
        for sent, pkt in zip(arrays, got):
            np.testing.assert_array_equal(pkt.payload, sent)
            assert pkt.payload.ctypes.data % 64 == 0  # aligned in the region
        last = got[7].payload
        del got, pkt
        assert transport.collect_releases(1) == {}  # one payload pins it all
        assert last[0] == 7.0
        del last
        freed = transport.collect_releases(1)
        assert list(freed) == [0] and len(freed[0]) == 1

    def test_releases_piggyback_and_rewind(self, transport):
        big = np.ones(BIG_N)
        transport.send_packets(1, 1, 0, 0, [_pkt(0, 1, big)])
        frame = transport.recv(1)
        frame.packets(1)  # materialize and drop the payloads
        del frame  # the frame's buffer list pins the lease too
        freed = transport.collect_releases(1)
        assert list(freed) == [0] and len(freed[0]) == 1
        pool = transport._seg_pools[0]
        assert pool.outstanding == 1
        # Piggyback on the next (small) data frame back to the owner.
        transport.send_packets(0, 1, 1, 1, [_pkt(1, 0, b"ack")],
                               releases=freed[0])
        transport.recv(0)
        assert pool.outstanding == 0

    def test_dedicated_release_frame(self, transport):
        transport.send_packets(1, 1, 0, 0, [_pkt(0, 1, np.ones(BIG_N))])
        transport.recv(1).packets(1)
        freed = transport.collect_releases(1)
        transport.send_release(0, 1, 1, freed[0])
        frame = transport.recv(0)
        from repro.backends.frames import TAG_LEASES
        assert frame.tag == TAG_LEASES
        assert transport._seg_pools[0].outstanding == 0

    def test_torn_lease_discard_grows_pool_never_corrupts(self, transport):
        transport.send_packets(1, 1, 0, 0, [_pkt(0, 1, np.ones(BIG_N))])
        transport.recv(1).packets(1)
        assert transport.collect_releases(1, discard=True) == {}
        # The lease is gone from the table but never released: the
        # owner's region stays pinned (outstanding), so nothing can
        # overwrite it.  Only the teardown sweep reclaims the segment.
        assert len(transport._lease_tables[1]) == 0
        assert transport._seg_pools[0].outstanding == 1

    def test_broadcast_dedup_places_once_and_aliases(self):
        """The same buffer sent to two peers is copied into its segment
        once; the second frame carries an aliased lease over the same
        bytes, and the segment rewinds only after both release."""
        transport = Pipes(3)
        try:
            block = np.arange(BIG_N, dtype=np.float64)
            transport.send_packets(1, 1, 0, 0, [_pkt(0, 1, block)])
            transport.send_packets(2, 1, 0, 0, [_pkt(0, 2, block)])
            pool = transport._seg_pools[0]
            assert pool.segments == 1  # both frames share one placement
            assert pool.outstanding == 2  # ...but carry distinct leases
            got1 = transport.recv(1).packets(1)
            got2 = transport.recv(2).packets(2)
            np.testing.assert_array_equal(np.asarray(got1[0].payload), block)
            np.testing.assert_array_equal(np.asarray(got2[0].payload), block)
            del got1, got2
            freed1 = transport.collect_releases(1)
            freed2 = transport.collect_releases(2)
            assert len(freed1[0]) == 1 and len(freed2[0]) == 1
            assert freed1[0] != freed2[0]  # distinct lease ids
            pool.release(freed1[0])
            assert pool.outstanding == 1  # a receiver still out: no rewind
            pool.release(freed2[0])
            assert pool.outstanding == 0
            _, _, off, view = pool.lease(1, 64)
            assert off == 0  # rewound only after the last alias came home
            del view
        finally:
            transport.close()

    def test_off_mode_counts_fallbacks(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZEROCOPY", "off")
        transport = Pipes(2)
        try:
            arrays = [np.arange(1000.0) + i for i in range(3)]  # 8 KB each
            transport.send_packets(1, 1, 0, 0, [
                _pkt(0, 1, a, seq=i) for i, a in enumerate(arrays)])
            got = transport.recv(1).packets(1)
            for sent, pkt in zip(arrays, got):
                np.testing.assert_array_equal(pkt.payload, sent)
            assert transport.zerocopy_stats() == (0, 3)  # per buffer
            assert transport.segment_counts() == {0: 0, 1: 0}
            del got, pkt
        finally:
            transport.close()


# -- pooled end-to-end --------------------------------------------------------


class TestPooledEndToEnd:
    def test_zerocopy_on_hits_and_identical_results(self, monkeypatch):
        with BspPool(4, join_timeout=60.0) as pool:
            run_on = pool.run(big_allgather, 4)
            health = pool.health()
        assert health.zerocopy_hits > 0
        assert health.zerocopy_fallbacks == 0
        monkeypatch.setenv("REPRO_ZEROCOPY", "off")
        with BspPool(4, join_timeout=60.0) as pool:
            run_off = pool.run(big_allgather, 4)
            health = pool.health()
        assert health.zerocopy_hits == 0
        assert health.zerocopy_fallbacks > 0
        assert run_on.results == run_off.results  # bit-identical floats

    def test_full_dev_shm_falls_back_to_the_pipe(self, monkeypatch):
        """A segment that cannot be created is a fallback, not a failed
        run: the frame's buffers follow its header down the pipe."""
        def no_space(name, size=0):
            raise OSError(errno.ENOSPC, f"/dev/shm cannot hold {name}")

        golden = bsp_run(big_allgather, 2, backend="simulator")
        monkeypatch.setattr(shm, "open_segment", no_space)
        with BspPool(2, join_timeout=60.0) as pool:  # forks the patch
            run = bsp_run(big_allgather, 2, backend=ProcessBackend(pool=pool))
            health = pool.health()
        assert run.results == golden.results
        assert (run.stats.S, run.stats.H) == (golden.stats.S, golden.stats.H)
        assert [(s.h, s.m) for s in run.stats.supersteps] == \
            [(s.h, s.m) for s in golden.stats.supersteps]
        assert health.zerocopy_fallbacks > 0
        assert health.zerocopy_hits == 0

    def test_small_payloads_never_lease(self):
        with BspPool(2, join_timeout=60.0) as pool:
            pool.run(big_allgather, 2, kwargs={"n": SMALL_N})
            health = pool.health()
        assert health.zerocopy_hits == 0
        assert health.zerocopy_fallbacks == 0

    def test_pool_reuse_reuses_segments(self):
        """Back-to-back runs on one warm pool must not grow /dev/shm —
        released regions are leased again.  Under elide
        with a declared ring the releases come home on dedicated frames
        (no boundary frame is owed to the owner) and each run moves more
        bytes per link than a segment holds: the count still stops at
        the two segments a link alternates between, where lost releases
        would need a third in the second run."""
        for program, nprocs, sync, cap in ((big_allgather, 2, "strict", 1),
                                           (big_declared_ring, 3, "elide", 2)):
            with BspPool(nprocs, join_timeout=60.0) as pool:
                pool.run(program, nprocs, sync=sync)
                pool.run(program, nprocs, sync=sync)
                counts = pool._transport.segment_counts()
                hits = pool.health().zerocopy_hits
            assert max(counts.values()) <= cap, (sync, counts)
            assert hits > 0, sync


class TestHostileConsumerProperty:
    @pytest.fixture()
    def pool(self):
        """One warm pool, shared across a test's hypothesis examples."""
        with BspPool(3, join_timeout=60.0) as pool:
            yield pool

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rounds=st.integers(1, 4), n=st.integers(16, 600))
    def test_mutating_received_views_never_corrupts(self, pool, rounds, n):
        """n*8 bytes straddles the 2 KiB in-band cut both ways, so leased
        and in-band deliveries interleave; mutated + pinned views must
        never bleed into later deliveries."""
        run = pool.run(hostile_consumer, 3, args=(rounds, n))
        assert run.results == [0, 0, 0]

    def test_property_runs_took_the_lease_path(self, pool):
        assert pool.run(hostile_consumer, 3, args=(2, 600)).results == [0] * 3
        hits, _ = pool._transport.zerocopy_stats()
        assert hits > 0


# -- the lifetime of a large result -------------------------------------------


class TestHeldResults:
    """A large result is a view of its rank's leased region: valid for as
    long as the caller holds it, across runs, heals and ``close()``."""

    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_held_results_outlive_two_more_runs_and_stay_writable(
            self, monkeypatch, mode):
        monkeypatch.setenv("REPRO_ZEROCOPY", mode)
        with BspPool(2, join_timeout=60.0) as pool:
            held = pool.run(big_result, 2, args=(1.0,)).results
            for value in (2.0, 3.0):
                _check_results(pool.run(big_result, 2, args=(value,)).results,
                               value)
            _check_results(held, 1.0)
            assert all(result.flags.writeable for result in held)
            for result in held:
                result[:] = -1.0  # the caller's to write: nothing else moves
            _check_results(pool.run(big_result, 2, args=(4.0,)).results, 4.0)
            health = pool.health()
        assert (health.zerocopy_hits > 0) == (mode == "on")
        assert (health.zerocopy_fallbacks > 0) == (mode == "off")

    def test_a_heal_keeps_held_results(self):
        """Rank 1 dies in run 2: run 1's results, which the caller still
        holds, are never rewound under run 3's, and from the first run
        after the heal no survivor's segment count grows."""
        with BspPool(3, join_timeout=30.0) as pool:
            held = pool.run(big_result, 3, args=(1.0,)).results
            with pytest.raises(WorkerCrashError):
                pool.run(big_result, 3, args=(5.0, 1))
            assert pool.health().heal_kinds == ("re-fork",)
            counts = []
            for i in range(4):
                _check_results(pool.run(big_result, 3, args=(7.0 + i,)).results,
                               7.0 + i)
                _check_results(held, 1.0)
                counts.append(pool._transport.segment_counts())
            assert [(c[0], c[2]) for c in counts] == \
                [(counts[0][0], counts[0][2])] * 4

    def test_a_heal_returns_only_the_deads_leases(self):
        """Rank 1 dies holding rank 0's lease: the heal sends it home,
        and the leases the caller's held results pin stay out."""
        with BspPool(3, join_timeout=30.0) as pool:
            held = pool.run(big_result, 3, args=(1.0,)).results
            with pytest.raises(WorkerCrashError):
                pool.run(big_result, 3, args=(5.0, 1))
            assert pool.run(leases_out, 3).results == [1, 0, 1]
            _check_results(held, 1.0)

    def test_a_held_result_outlives_close(self):
        with BspPool(2, join_timeout=60.0) as pool:
            held = pool.run(big_result, 2, args=(1.0,)).results
        _check_results(held, 1.0)  # ``no_leaks``: and no name is left
        held[0][:] = 2.0
        assert held[0].sum() == 2.0 * BLOCK_N


# -- chaos: no leaked segments ------------------------------------------------


def _pool_under(plan, nprocs=3, **kw):
    """A pool whose workers inherited ``plan`` but whose parent did not."""
    kw.setdefault("join_timeout", 30.0)
    with faults.injected(plan):
        return BspPool(nprocs, **kw)


class TestChaosLeaksNothing:
    def test_sigkill_mid_superstep_sweeps_clean(self):
        """The acceptance chaos test: SIGKILL a worker mid-superstep
        while big leases are in flight; heal; the clean rerun is
        correct; close leaves zero orphaned segments (``no_leaks``
        asserts the sweep)."""
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=1)])
        with _pool_under(plan) as pool:
            with pytest.raises(WorkerCrashError):
                pool.run(big_allgather, 3)
            clean = pool.run(big_allgather, 3)
            assert pool.health().alive == 3
        with BspPool(3, join_timeout=30.0) as ref_pool:
            assert clean.results == ref_pool.run(big_allgather, 3).results

    def test_exhausted_budget_unlinks_dead_generation(self):
        """Satellite regression: PoolExhaustedError tears the fabric
        down, and the teardown must unlink every segment of the dead
        generation — immediately, not at close()."""
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=1)])
        pool = _pool_under(plan, max_restarts=0)
        token = pool._transport._zc_token
        try:
            with pytest.raises((PoolExhaustedError, WorkerCrashError)):
                pool.run(big_allgather, 3)
                pool.run(big_allgather, 3)  # pool is exhausted, terminal
            assert not [name for name in shm.scan_orphans() if token in name]
        finally:
            pool.close()

    def test_leak_segment_fault_reclaimed_only_by_sweep(self):
        plan = faults.FaultPlan(
            [faults.Fault(faults.LEAK_SEGMENT, pid=1, step=0)])
        with _pool_under(plan, nprocs=2) as pool:
            run = pool.run(big_allgather, 2)
            # The leaked segment is real: it shows up in pid 1's creation
            # count and in /dev/shm while the pool lives ...
            assert pool._transport.segment_counts()[1] >= 2
            with BspPool(2, join_timeout=30.0) as ref_pool:
                assert run.results == ref_pool.run(big_allgather, 2).results
        # ... and ``no_leaks`` proves close() swept it.

    def test_torn_lease_fault_grows_pool_never_corrupts(self):
        plan = faults.FaultPlan(
            [faults.Fault(faults.TORN_LEASE, pid=1, step=0)])
        with _pool_under(plan, nprocs=2) as pool:
            run = pool.run(big_allgather, 2, kwargs={"rounds": 3})
            with BspPool(2, join_timeout=30.0) as ref_pool:
                ref = ref_pool.run(big_allgather, 2, kwargs={"rounds": 3})
            assert run.results == ref.results


# -- thread backend: by-reference guard ---------------------------------------


def threads_identity(bsp, box):
    if bsp.pid == 0:
        arr = np.arange(1000, dtype=np.float64)
        box["sent"] = arr
        bsp.send(1, arr)
        bsp.sync()
    else:
        bsp.sync()
        box["got"] = bsp.get_pkt().payload
    return True


def threads_guard(bsp, box):
    if bsp.pid == 0:
        arr = np.zeros(8)
        bsp.send(1, arr)
        try:
            arr[0] = 1.0
            box["raised"] = False
        except ValueError:
            box["raised"] = True
        bsp.sync()
        arr[0] = 2.0  # thawed on delivery: this must not raise
        box["thawed"] = True
    else:
        bsp.sync()
        box["got0"] = float(bsp.get_pkt().payload[0])
    return True


def threads_copy_on_send(bsp, box):
    if bsp.pid == 0:
        arr = np.zeros(8)
        bsp.send(1, arr)
        arr[:] = 7.0  # legal under copy-on-send; receiver sees the zeros
        bsp.sync()
    else:
        bsp.sync()
        box["got"] = np.asarray(bsp.get_pkt().payload).copy()
    return True


class TestThreadsByReference:
    def test_delivery_is_the_same_object(self):
        box = {}
        bsp_run(threads_identity, 2, backend="threads", args=(box,))
        assert box["got"] is box["sent"]
        assert box["got"].flags.writeable  # thawed on delivery

    def test_mutation_in_guard_window_raises_then_thaws(self):
        box = {}
        bsp_run(threads_guard, 2, backend="threads", args=(box,))
        assert box["raised"] is True
        assert box["thawed"] is True
        assert box["got0"] == 0.0  # the guarded send arrived intact

    def test_off_mode_is_copy_on_send(self, monkeypatch):
        monkeypatch.setenv("REPRO_ZEROCOPY", "off")
        box = {}
        bsp_run(threads_copy_on_send, 2, backend="threads", args=(box,))
        np.testing.assert_array_equal(box["got"], np.zeros(8))
        box = {}
        bsp_run(threads_guard, 2, backend="threads", args=(box,))
        assert box["raised"] is False  # no freeze in copy-on-send mode
