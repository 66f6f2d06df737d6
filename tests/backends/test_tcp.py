"""The TCP backend: wire protocol, sockets, supervision, calibration.

The wire tests exercise the stream decoder against everything a TCP
byte stream can do to a frame (partial reads, splits inside the length
prefix, several frames per ``recv``, hostile lengths).  The backend
tests run real programs over loopback sockets and assert the paper's
portability claim: same results, same W/H/S ledgers, same failure
taxonomy as every other backend.
"""

import hashlib
import multiprocessing as mp
import pickle
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro import (
    BspConfigError,
    BspUsageError,
    DeadlockError,
    PacketError,
    SynchronizationError,
    VirtualProcessorError,
    WorkerCrashError,
    bsp_run,
    calibrate_backend,
)
from repro import faults
from repro.backends import tcp_wire as wire
from repro.backends.base import get_backend
from repro.backends.frames import TAG_LEFT, TAG_PKT, encode_object
from repro.backends.tcp import (
    TcpBackend,
    TcpMesh,
    TcpSpmdBackend,
    _connect_ctrl,
    _MeshChannel,
    _PeerLost,
)
from repro.backends.tcp_launch import MeshFabric, bind_listener, parse_hostport
from repro.core.packets import Packet


# ---------------------------------------------------------------------------
# Module-level programs (the persistent mesh ships programs by pickle)
# ---------------------------------------------------------------------------


def ring_program(bsp, rounds=2):
    acc = []
    for step in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid, step))
        bsp.sync()
        acc.extend(pkt.payload for pkt in bsp.packets())
    return acc


def crashy_program(bsp):
    if bsp.pid == 1:
        raise RuntimeError("kaboom on 1")
    bsp.send((bsp.pid + 1) % bsp.nprocs, 0)
    bsp.sync()
    return bsp.pid


def slow_end_ring_program(bsp, slow):
    """The ring, with rank ``slow`` late to leave: the others finish
    first and start their next run while it still gathers this one."""
    acc = ring_program(bsp)
    if bsp.pid == slow:
        time.sleep(0.2)
    return acc


def _spmd_main(rank, nprocs, port, q, runs):
    """One forked SPMD rank: ``runs`` — ``(program, args, sync)`` each —
    back to back on one mesh, then ``(rank, rows)`` on ``q``: a run's
    ``(results, S, H)``, or the raised error's name and seconds taken."""
    backend = TcpSpmdBackend(rank, nprocs, ("127.0.0.1", port), token=1234)
    rows = []
    try:
        for program, args, sync in runs:
            t0 = time.monotonic()
            try:
                run = bsp_run(program, nprocs, args=args, backend=backend,
                              sync=sync)
                rows.append((run.results, run.stats.S, run.stats.H))
            except Exception as exc:
                rows.append((type(exc).__name__, time.monotonic() - t0))
        q.put((rank, rows))
    finally:
        backend.close()


def _spmd(runs_of, nprocs=3, timeout=60.0):
    """Fork ``nprocs`` SPMD ranks, rank ``r`` doing ``runs_of[r]``; their
    rows by rank.  The read has a deadline, so a hung mesh fails the
    test instead of stalling it."""
    lsock = socket.socket()
    lsock.bind(("127.0.0.1", 0))
    port = lsock.getsockname()[1]
    lsock.close()
    ctx = mp.get_context("fork")
    q = ctx.Queue()
    procs = [ctx.Process(target=_spmd_main,
                         args=(r, nprocs, port, q, runs_of[r]))
             for r in range(nprocs)]
    for proc in procs:
        proc.start()
    deadline = time.monotonic() + timeout
    try:
        return dict(q.get(timeout=max(0.1, deadline - time.monotonic()))
                    for _ in range(nprocs))
    finally:
        for proc in procs:
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join()


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


def _flatten(chunks):
    out = bytearray()
    for chunk in chunks:
        out += bytes(memoryview(chunk))
    return bytes(out)


def _sample_packets():
    return [
        Packet(src=0, dst=1, seq=0, payload=b"x" * 40, h=3),
        Packet(src=0, dst=1, seq=1, payload={"k": [1, 2]}, h=1),
    ]


class TestFrameDecoder:
    def test_roundtrip_packet_frame(self):
        blob = _flatten(wire.encode_packet_frame(7, 3, 0, _sample_packets()))
        (frame,) = wire.FrameDecoder().feed(blob)
        assert (frame.tag, frame.run_id, frame.step, frame.src) == (
            TAG_PKT, 7, 3, 0)
        got = frame.packets(1)
        assert [(p.src, p.dst, p.seq, p.h) for p in got] == [
            (0, 1, 0, 3), (0, 1, 1, 1)]
        assert bytes(got[0].payload) == b"x" * 40
        assert got[1].payload == {"k": [1, 2]}

    def test_byte_at_a_time(self):
        # Splits everywhere, including inside the 4-byte length prefix.
        blob = _flatten(wire.encode_packet_frame(1, 0, 2, _sample_packets()))
        dec = wire.FrameDecoder()
        frames = []
        for i in range(len(blob)):
            frames.extend(dec.feed(blob[i:i + 1]))
            if i < len(blob) - 1:
                assert frames == []  # nothing completes early
        (frame,) = frames
        assert frame.src == 2
        assert not dec.mid_frame

    def test_several_frames_in_one_chunk(self):
        blob = b"".join(
            _flatten(wire.encode_frame(TAG_LEFT, 1, s, 0))
            for s in range(4))
        frames = wire.FrameDecoder().feed(blob)
        assert [f.step for f in frames] == [0, 1, 2, 3]

    def test_split_straddling_two_frames(self):
        a = _flatten(wire.encode_frame(TAG_LEFT, 1, 0, 0,
                                       pickle.dumps(1)))
        b = _flatten(wire.encode_packet_frame(1, 0, 0, _sample_packets()))
        dec = wire.FrameDecoder()
        cut = len(a) + 3  # mid-prefix of the second frame
        first = dec.feed((a + b)[:cut])
        assert [f.tag for f in first] == [TAG_LEFT]
        assert dec.mid_frame
        second = dec.feed((a + b)[cut:])
        assert [f.tag for f in second] == [TAG_PKT]

    @staticmethod
    def _envelope(version=wire.WIRE_VERSION, flags=wire.FLAG_CRC, *,
                  nbufs=0, meta_len=0, lease_len=0):
        """A consistent v5 envelope (valid crc32 word) with these fields."""
        body = wire._ENV.pack(version, flags, TAG_PKT, 0, -1, -1, 1, 0,
                              nbufs, meta_len, lease_len)
        return body + struct.pack("<I", zlib.crc32(body))

    def test_oversized_header_rejected(self):
        # The lengths array and the lease are what MAX_HEADER_BYTES bounds.
        env = self._envelope(nbufs=wire.MAX_HEADER_BYTES // 8 + 1)
        with pytest.raises(PacketError, match="header"):
            wire.FrameDecoder().feed(env)
        env = self._envelope(lease_len=wire.MAX_HEADER_BYTES + 1)
        with pytest.raises(PacketError, match="header"):
            wire.FrameDecoder().feed(env)

    def test_oversized_frame_rejected(self):
        chunks = wire.encode_frame(TAG_PKT, 0, 0, 0, b"", [b"y" * 64])
        dec = wire.FrameDecoder(max_frame_bytes=16)
        with pytest.raises(PacketError, match="exceeds"):
            dec.feed(_flatten(chunks))
        # meta counts against the frame bound, announced in the envelope.
        with pytest.raises(PacketError, match="exceeds"):
            wire.FrameDecoder(max_frame_bytes=16).feed(
                self._envelope(meta_len=17))

    def test_meta_beyond_the_header_bound_is_delivered(self, monkeypatch):
        # A large in-band payload is meta, which only the frame bound
        # limits — not a corrupt stream.
        monkeypatch.setattr(wire, "MAX_HEADER_BYTES", 1024)
        payload = bytes(range(256)) * 32  # pickled in-band, 8 KiB
        blob = _flatten(wire.encode_packet_frame(1, 0, 0, [
            Packet(src=0, dst=1, seq=0, payload=payload, h=1)]))
        (frame,) = wire.FrameDecoder().feed(blob)
        (pkt,) = frame.packets(1)
        assert pkt.payload == payload

    def test_garbage_header_rejected(self):
        # The header's one pickle is a pipe frame's lease: garbage there,
        # under a valid CRC, is structural damage.
        lease = b"notapkl!"
        blob = (self._envelope(lease_len=len(lease)) + lease
                + struct.pack("<I", zlib.crc32(lease)))
        with pytest.raises(PacketError, match="undecodable"):
            wire.FrameDecoder().feed(blob)

    def test_wrong_version_rejected(self):
        future = self._envelope(wire.WIRE_VERSION + 1)
        with pytest.raises(PacketError, match="version"):
            wire.FrameDecoder().feed(future)

    def test_cleared_crc_flag_rejected(self):
        # There is no unchecked frame to fall back to: structural damage.
        unchecked = self._envelope(flags=0)
        with pytest.raises(PacketError, match="CRC"):
            wire.FrameDecoder().feed(unchecked)

    def test_flipped_envelope_bit_rejected(self):
        good = _flatten(wire.encode_frame(TAG_LEFT, 1, 0, 0))
        bad = bytes([good[0] ^ 0x40]) + good[1:]
        with pytest.raises(PacketError, match="envelope"):
            wire.FrameDecoder().feed(bad)

    def test_every_single_bit_envelope_flip_rejected(self):
        good = _flatten(wire.reenvelope(
            wire.encode_packet_frame(3, 2, 1, _sample_packets()), 5, 4))
        for bit in range(8 * wire.ENVELOPE_BYTES):
            bad = bytearray(good)
            bad[bit // 8] ^= 1 << bit % 8
            with pytest.raises(PacketError, match="envelope"):
                wire.FrameDecoder().feed(bytes(bad))

    def test_empty_final_is_a_bare_envelope(self, monkeypatch):
        blob = _flatten(wire.encode_packet_frame(1, 4, 0, []))
        assert len(blob) == wire.ENVELOPE_BYTES + 4

        def loads(*args, **kwargs):
            raise AssertionError("an empty bucket was unpickled")

        monkeypatch.setattr(pickle, "loads", loads)
        (frame,) = wire.FrameDecoder().feed(blob)
        assert (frame.tag, frame.step, frame.packets(1)) == (TAG_PKT, 4, [])

    def test_corrupt_payload_yields_marker_not_frame(self):
        blob = bytearray(_flatten(wire.reenvelope(
            wire.encode_packet_frame(1, 0, 2, _sample_packets()), 7, -1)))
        blob[-1] ^= 0xFF  # smash the crc trailer
        (frame,) = wire.FrameDecoder().feed(bytes(blob))
        assert frame.tag == wire.TAG_CORRUPT
        assert frame.seq == 7

    def test_object_frame_roundtrip(self):
        obj = ("ok", 3, 1, [b"payload" * 100], None)
        blob = _flatten(wire.encode_frame(
            wire.TAG_RESULT, 3, 0, 1, *encode_object(obj)))
        (frame,) = wire.FrameDecoder().feed(blob)
        assert wire.frame_object(frame) == obj


class TestLaunchHelpers:
    def test_parse_hostport(self):
        assert parse_hostport("pc1:5000", 47710) == ("pc1", 5000)
        assert parse_hostport("pc1", 47710) == ("pc1", 47710)
        with pytest.raises(BspConfigError):
            parse_hostport("pc1:fast", 47710)


# ---------------------------------------------------------------------------
# The mesh channel's send path and teardown, fork-free over a socketpair
# ---------------------------------------------------------------------------


def _in_threads(*bodies):
    """Run every body in its own thread; re-raise whatever one raised
    (``_PeerLost`` and ``Abort`` are BaseExceptions) or a hang."""
    raised = []

    def guarded(body):
        try:
            body()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            raised.append(exc)

    threads = [threading.Thread(target=guarded, args=(body,), daemon=True)
               for body in bodies]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(20.0)
    assert not any(thread.is_alive() for thread in threads), "wedged"
    if raised:
        raise raised[0]


class TestMeshChannelPair:
    """Two ranks of a pool of one run (no fabric: a lost link aborts)."""

    @pytest.fixture
    def pair(self):
        socks = socket.socketpair()
        yield socks
        for sock in socks:
            sock.close()

    #: Far more than a socketpair buffers (~200 KiB): a send must queue.
    BIG = bytes(range(256)) * (16 << 10)

    def test_late_left_survives_the_early_close(self, pair):
        # Rank 0 is done and closing while rank 1 still computes: rank
        # 1's LEFT crosses the close.  Neither side may lose the other's.
        a = _MeshChannel(0, 2, {1: pair[0]}, 1, None)
        b = _MeshChannel(1, 2, {0: pair[1]}, 1, None)

        def early():
            a.depart()
            a.close()

        def late():
            time.sleep(0.3)
            b.depart()
            b.close()

        _in_threads(early, late)
        assert a._departed == {1} and b._departed == {0}

    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_both_sides_post_more_than_the_socket_holds(self, pair, sync):
        channels = [_MeshChannel(0, 2, {1: pair[0]}, 1, None, sync=sync),
                    _MeshChannel(1, 2, {0: pair[1]}, 1, None, sync=sync)]
        got = [None, None]

        def boundary(rank):
            outbox = [Packet(src=rank, dst=1 - rank, seq=0, h=1,
                             payload=self.BIG + bytes((rank,)))]
            got[rank] = channels[rank].exchange(rank, 0, outbox).merged()
            channels[rank].depart()
            channels[rank].close()

        _in_threads(lambda: boundary(0), lambda: boundary(1))
        for rank in (0, 1):
            (pkt,) = got[rank]
            assert bytes(pkt.payload) == self.BIG + bytes((1 - rank,))

    def test_post_behind_a_queued_frame_keeps_link_fifo(self, pair):
        chan = _MeshChannel(0, 2, {1: pair[0]}, 1, None)
        chan._post(1, wire.encode_frame(TAG_PKT, 1, 0, 0, b"", [self.BIG]))
        assert chan._link[1].out, "the socket took it all: nothing was queued"
        chan._post(1, wire.encode_frame(TAG_LEFT, 1, 0, 0))
        pair[1].setblocking(False)
        dec, frames = wire.FrameDecoder(), []
        deadline = time.monotonic() + 20.0
        while len(frames) < 2 and time.monotonic() < deadline:
            chan._pump(0.01)
            try:
                frames.extend(dec.feed(pair[1].recv(1 << 20)))
            except BlockingIOError:
                pass
        assert [(f.seq, f.tag) for f in frames] == [
            (0, TAG_PKT), (1, TAG_LEFT)]
        assert bytes(frames[0].buffers[0]) == self.BIG

    def test_a_run_ended_mid_frame_leaves_its_tail_to_the_next(self, pair):
        # On a mesh that outlives its runs, an aborted run's half-sent
        # frame is finished by the next run's channel, so the stream stays
        # framed (the peer drops the frame by its run id) and a heal can
        # keep the survivors' links.
        listener = bind_listener("127.0.0.1")
        fabric = MeshFabric(0, 2, {1: pair[0]}, listener, {},
                            listener.getsockname(), 0)
        try:
            first = _MeshChannel(0, 2, {1: pair[0]}, 1, None, fabric=fabric)
            first._post(1, wire.encode_frame(TAG_PKT, 1, 0, 0, b"",
                                             [self.BIG]))
            first.close()
            assert fabric.links[1].out, "nothing was left unsent"
            second = _MeshChannel(0, 2, {1: pair[0]}, 2, None, fabric=fabric)
            second._post(1, wire.encode_frame(TAG_LEFT, 2, 0, 0))
            pair[1].setblocking(False)
            dec, frames = wire.FrameDecoder(), []
            deadline = time.monotonic() + 20.0
            while len(frames) < 2 and time.monotonic() < deadline:
                second._pump(0.01)
                try:
                    frames.extend(dec.feed(pair[1].recv(1 << 20)))
                except BlockingIOError:
                    pass
            second.close()
        finally:
            listener.close()
        assert [(f.seq, f.run_id, f.tag) for f in frames] == [
            (0, 1, TAG_PKT), (1, 2, TAG_LEFT)]
        assert bytes(frames[0].buffers[0]) == self.BIG

    @pytest.fixture
    def fabric(self, pair):
        listener = bind_listener("127.0.0.1")
        yield MeshFabric(0, 2, {1: pair[0]}, listener, {},
                         listener.getsockname(), 0)
        listener.close()

    @staticmethod
    def _decode(chunks):
        (frame,) = wire.FrameDecoder().feed(_flatten(chunks))
        return frame

    def _ack_from_peer(self, seq, ack):
        """Peer 1's empty final, sequenced ``seq``, acking below ``ack``."""
        return self._decode(wire.reenvelope(
            wire.encode_packet_frame(1, seq, 1, ()), seq, ack))

    def test_nack_for_an_acked_frame_resets_the_link(self, fabric,
                                                     monkeypatch):
        # The journal keeps every frame until the peer acks past it, so
        # only a peer that NACKs a frame it already acked finds the entry
        # gone: nothing to resend, and the link is reset instead.
        chan = _MeshChannel(0, 2, fabric.socks, 1, None, fabric=fabric)
        resets = []
        monkeypatch.setattr(chan, "_link_down", resets.append)
        link = chan._link[1]
        chan._post(1, wire.encode_packet_frame(1, 0, 0, ()))
        nack = self._decode(wire.encode_frame(wire.TAG_NACK, 1, 0, 1))
        chan._ingest(1, nack)  # still journaled: resent surgically
        assert (link.retransmits, resets) == (1, [])
        chan._ingest(1, self._ack_from_peer(0, 1))
        assert 0 not in link.journal
        chan._ingest(1, nack)
        assert (link.retransmits, resets) == (1, [1])
        chan.close()

    def test_relink_behind_the_journal_loses_the_peer(self, fabric):
        # A relink replays the journal from the peer's receive cursor;
        # a cursor behind an entry the peer already acked cannot be
        # served, so the peer is lost rather than handed a gap.
        chan = _MeshChannel(0, 2, fabric.socks, 1, None, fabric=fabric)
        link = chan._link[1]
        for step in range(2):
            chan._post(1, wire.encode_packet_frame(1, step, 0, ()))
        chan._ingest(1, self._ack_from_peer(0, 1))
        assert sorted(link.journal) == [1]
        fresh, far = socket.socketpair()
        try:
            chan._resume_link(1, fresh, 1)  # from the cursor: replayed
            assert link.reconnects == 1
            stale, stale_far = socket.socketpair()
            with pytest.raises(_PeerLost) as err:
                chan._resume_link(1, stale, 0)
            assert err.value.peer == 1 and 1 in chan._eof
            assert stale.fileno() == -1  # closed, never spliced in
            stale_far.close()
            far.setblocking(False)
            (replayed,) = wire.FrameDecoder().feed(far.recv(1 << 16))
            assert (replayed.seq, replayed.step) == (1, 1)
        finally:
            far.close()
            chan.close()

    def test_a_buffer_sent_to_two_peers_is_journaled_once(self):
        # The journal copies a payload buffer once per boundary and every
        # peer it goes to shares that copy; the next boundary copies the
        # program's array afresh.
        links = [socket.socketpair() for _ in range(2)]
        chan = _MeshChannel(0, 3, {1: links[0][0], 2: links[1][0]}, 1, None)
        block = np.arange(4096, dtype=np.float64)
        copies = []
        try:
            for step in range(2):
                for peer in (1, 2):
                    chan._send(peer, step, [Packet(src=0, dst=peer, seq=0,
                                                   h=1, payload=block)])
                chan._settle()
                # [envelope, header, the block's buffer, crc] per peer
                one, two = (chan._link[q].journal[step][2] for q in (1, 2))
                assert one is two and one == block.tobytes()
                copies.append(one)
                block += 1  # the program moves on; the journal must not
            assert copies[0] == (block - 2).tobytes() != copies[1]
        finally:
            chan.close()
            for sock in (s for pair in links for s in pair):
                sock.close()


# ---------------------------------------------------------------------------
# Backend behaviour over loopback
# ---------------------------------------------------------------------------


class TestTcpBackend:
    @pytest.mark.parametrize("nprocs", [1, 2, 4])
    def test_matches_simulator(self, nprocs):
        sim = bsp_run(ring_program, nprocs, backend="simulator")
        tcp = bsp_run(ring_program, nprocs, backend="tcp")
        assert tcp.results == sim.results
        assert (tcp.stats.S, tcp.stats.H) == (sim.stats.S, sim.stats.H)
        assert [s.h for s in tcp.stats.supersteps] == \
            [s.h for s in sim.stats.supersteps]

    def test_registered_by_name(self):
        assert get_backend("tcp").name == "tcp"

    def test_unknown_backend_lists_available(self):
        with pytest.raises(BspConfigError, match="tcp"):
            get_backend("udp")

    def test_closures_work_oneshot(self):
        # One-shot mode forks, so the program never crosses a pickler.
        captured = 17
        run = bsp_run(lambda bsp: bsp.pid + captured, 2, backend="tcp")
        assert run.results == [17, 18]

    def test_program_error_attributed(self):
        with pytest.raises(VirtualProcessorError) as info:
            bsp_run(crashy_program, 3, backend="tcp")
        assert info.value.pid == 1
        assert "kaboom on 1" in info.value.traceback_text


class TestTcpSupervision:
    def test_sigkill_surfaces_fast(self):
        plan = faults.FaultPlan([faults.Fault(faults.KILL, 1, 1)])
        with faults.injected(plan):
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError) as info:
                bsp_run(ring_program, 3, backend="tcp", args=(3,))
        assert time.monotonic() - t0 < 1.0
        assert info.value.pid == 1
        assert "SIGKILL" in str(info.value)

    def test_dropped_frame_is_deadlock(self):
        backend = TcpBackend(join_timeout=6.0)
        plan = faults.FaultPlan(
            [faults.Fault(faults.DROP_FRAME, 1, 1, 2)])
        with faults.injected(plan):
            with pytest.raises(DeadlockError):
                bsp_run(ring_program, 3, backend=backend, args=(3,))

    def test_injected_raise(self):
        plan = faults.FaultPlan([faults.Fault(faults.RAISE, 2, 1)])
        with faults.injected(plan):
            with pytest.raises(VirtualProcessorError) as info:
                bsp_run(ring_program, 4, backend="tcp", args=(3,))
        assert info.value.pid == 2

    def test_poison_payload_reported_not_hung(self):
        plan = faults.FaultPlan([faults.Fault(faults.POISON, 0, 1)])
        with faults.injected(plan):
            with pytest.raises(VirtualProcessorError) as info:
                bsp_run(ring_program, 3, backend="tcp", args=(3,))
        assert info.value.pid == 0

    def test_delay_completes(self):
        plan = faults.FaultPlan([faults.Fault(faults.DELAY, 1, 1, 0.2)])
        with faults.injected(plan):
            run = bsp_run(ring_program, 3, backend="tcp", args=(2,))
        assert run.results == bsp_run(
            ring_program, 3, backend="simulator", args=(2,)).results


class TestTcpMesh:
    def test_pool_reuse_and_subcapacity(self):
        with TcpBackend.pool(4) as backend:
            first = bsp_run(ring_program, 4, backend=backend)
            second = bsp_run(ring_program, 2, backend=backend)
        sim4 = bsp_run(ring_program, 4, backend="simulator")
        sim2 = bsp_run(ring_program, 2, backend="simulator")
        assert first.results == sim4.results
        assert second.results == sim2.results

    def test_failed_run_rebuilds_mesh(self):
        with TcpBackend.pool(3) as backend:
            with pytest.raises(VirtualProcessorError):
                bsp_run(crashy_program, 3, backend=backend)
            # The byte streams cannot be fenced after a failure; the mesh
            # must rebuild transparently and still produce golden results.
            run = bsp_run(ring_program, 3, backend=backend)
        assert run.results == bsp_run(
            ring_program, 3, backend="simulator").results

    def test_unpicklable_program_rejected_helpfully(self):
        with TcpBackend.pool(2) as backend:
            with pytest.raises(BspUsageError, match="module-level"):
                bsp_run(lambda bsp: bsp.pid, 2, backend=backend)

    def test_capacity_enforced(self):
        with TcpMesh(2) as mesh:
            with pytest.raises(BspConfigError):
                mesh.run(ring_program, nprocs=3)

    def test_idle_rank_waits_for_its_supervisor_without_a_deadline(self):
        # The control dial has a 30 s budget; left on the socket as a
        # timeout it killed every rank of a mesh idle that long before
        # its first run (TimeoutError in the rank loop's recv).
        listener = bind_listener("127.0.0.1")
        try:
            ctrl = _connect_ctrl(listener.getsockname(), 0)
            try:
                assert ctrl._sock.gettimeout() is None
            finally:
                ctrl.close()
        finally:
            listener.close()


class TestTcpSpmd:
    def test_three_rank_all_gather(self):
        rows = _spmd([[(ring_program, (), "strict")]] * 3)
        golden = bsp_run(ring_program, 3, backend="simulator")
        # Every rank gathered the same complete result vector and ledgers.
        for [(results, s, h)] in rows.values():
            assert results == golden.results
            assert (s, h) == (golden.stats.S, golden.stats.H)

    @pytest.mark.parametrize("sync", ["strict", "relaxed", "elide"])
    def test_back_to_back_runs_with_a_slow_rank(self, sync):
        """A fast rank's next run reaches a rank still gathering this
        one: its frames wait on the link for that rank's next run."""
        runs = [(slow_end_ring_program, (n % 3,), sync) for n in range(6)]
        rows = _spmd([runs] * 3)
        golden = bsp_run(slow_end_ring_program, 3, args=(0,),
                         backend="simulator")
        for rank_rows in rows.values():
            assert rank_rows == [(golden.results, golden.stats.S,
                                  golden.stats.H)] * len(runs)

    def test_a_lost_peer_fails_every_later_run(self):
        """Rank 2 leaves after one run.  The survivors' next run raises
        as soon as its link is down — the gather does not wait out the
        60 s timeout for an outcome a closed link cannot bring — and so
        does every run after it, until a remesh."""
        runs = [(ring_program, (), "strict")] * 3
        rows = _spmd([runs, runs, runs[:1]])
        for rank in (0, 1):
            first, lost, after = rows[rank]
            assert first[0] == rows[2][0][0]
            assert lost[0] == after[0] == "SynchronizationError"
            assert lost[1] < 20.0 and after[1] < 1.0

    def test_a_program_error_leaves_the_mesh_usable(self):
        runs = [(crashy_program, (), "strict"), (ring_program, (), "strict")]
        rows = _spmd([runs] * 3)
        golden = bsp_run(ring_program, 3, backend="simulator")
        for failed, ok in rows.values():
            assert failed[0] == "VirtualProcessorError"
            assert ok == (golden.results, golden.stats.S, golden.stats.H)


class TestTcpCalibration:
    def test_calibrate_accepts_instance(self):
        with TcpBackend.pool(2) as backend:
            cal = calibrate_backend(backend, 2, latency_rounds=3,
                                    bandwidth_rounds=1, packets_each=50)
        assert cal.backend == "tcp"
        assert cal.nprocs == 2
        assert cal.L_us > 0 and cal.g_us >= 0
        profile = cal.as_profile("tcp-here")
        assert profile.L(2) == pytest.approx(cal.L_us * 1e-6)

    def test_register_machine_roundtrip(self):
        from repro import MachineProfile, get_machine, register_machine
        from repro.core.machines import MACHINES

        profile = MachineProfile(
            name="unit-test-machine", g_us={2: 1.0}, L_us={2: 10.0})
        register_machine(profile)
        try:
            assert get_machine("Unit-Test-Machine") is profile
        finally:
            MACHINES.pop("unit-test-machine", None)
