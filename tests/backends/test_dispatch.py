"""Run dispatch and results on the data plane (BspPool.run / TcpMesh.run).

A pooled run ships ``(program, args, kwargs)`` to its workers *once*:
one protocol-5 pickle, every buffer too big for the pickle stream (the
in-band cut, 2 KiB) copied once into the parent's arena on the
``repro-zc-*`` segment plane, and each worker rebuilding the arrays as
read-only views over the shared pages.  What a worker returns comes
back the same way — one result frame, its buffers in one region leased
from the worker's pool, copied out once by the parent.  Exercised here:

* value fidelity, both ways, over arbitrary arg tuples (small objects,
  arrays on both sides of the cut, non-contiguous and non-float64
  arrays, one array passed twice), read-only-ness of what rode the
  arena, writability of what came back, and that a twice-passed array
  is placed once;
* the arena is rewound per run and result regions are recycled —
  repeated large dispatches and large results do not grow ``/dev/shm``;
* a result the caller holds owns its memory: bit-intact after the next
  run, after a failed run and after ``close()``;
* ``REPRO_ZEROCOPY=off`` and a full ``/dev/shm`` are the same path with
  the buffers in the pipe's stream: identical results and ledgers;
* unpicklable programs still raise the usage error;
* SIGKILL mid-run with large args, and a rank that dies while encoding
  its result, heal — also after earlier failed runs — and close() sweeps
  every segment;
* the parent never grows a ``resource_tracker`` child;
* TCP: control links are NODELAY (a pooled noop run is sub-20 ms, not a
  delayed-ACK 44 ms) and the run payload is pickled once, in one pass,
  for all ranks.
"""

import os
import statistics
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.apps.matmul.cannon import cannon_matmul
from repro.backends import frames, shm
from repro.backends.processes import BspPool, ProcessBackend
from repro.backends.tcp import TcpBackend, TcpMesh
from repro.core.errors import (
    BspUsageError,
    VirtualProcessorError,
    WorkerCrashError,
)

THRESHOLD = frames._INBAND_MAX
MIB = 1 << 20


@pytest.fixture(autouse=True)
def _leak_free(no_leaks):
    """Every test in this module leaves no child, segment or socket."""


def _children() -> set[int]:
    """Live child processes of this process, from /proc."""
    me = os.getpid()
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # "pid (comm) state ppid ..." — comm may contain spaces.
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.add(int(entry))
    return found


def _arena_leases(pool: BspPool) -> int:
    """Buffers the last dispatch placed in the parent's arena."""
    arena = pool._transport._seg_pools[pool.capacity]
    return arena.outstanding if arena else 0


# Module-level programs: pooled runs ship them by pickle.


def describe_args(bsp, *args, **kwargs):
    """What this rank received — described, in a form that survives the
    trip back whatever the result plane does — and the thing itself."""
    received = [*args, *kwargs.values()]
    out = []
    for arg in received:
        if isinstance(arg, np.ndarray):
            out.append((arg.tobytes(), str(arg.dtype), arg.shape,
                        bool(arg.flags.writeable), id(arg)))
        else:
            out.append(arg)
    return out, received


def checksum_args(bsp, a, b):
    bsp.sync()
    return float(a[0, 0] + b[-1, -1]), a.flags.writeable


def scaled_block(bsp, block, fail=False):
    """A large result that differs per rank and per run."""
    bsp.sync()
    if fail and bsp.pid == 0:
        raise ValueError("boom")
    return block * (bsp.pid + 1)


def exchange_with_big_args(bsp, a):
    """Two supersteps over a large arg, so a KILL at step 1 lands mid-run."""
    total = 0.0
    for _ in range(2):
        bsp.send((bsp.pid + 1) % bsp.nprocs, float(a[bsp.pid]))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
    return total


def noop(bsp, *args):
    bsp.sync()
    return bsp.pid


class CountedReduce:
    """Counts, in the pickling process, how often it is pickled."""

    pickles = 0

    def __reduce__(self):
        type(self).pickles += 1
        return (CountedReduce, ())


class DiesWhenPickled:
    def __reduce__(self):
        os._exit(9)


def big_then_fatal_result(bsp, block, mode):
    """Exchange a large block, then return one — or fail, or die while
    the result is being encoded."""
    bsp.send((bsp.pid + 1) % bsp.nprocs, block)
    bsp.sync()
    got = sum(float(pkt.payload[0]) for pkt in bsp.packets())
    if mode == "raise" and bsp.pid == 0:
        raise ValueError("boom")
    if mode == "die" and bsp.pid == 1:
        return DiesWhenPickled()
    return block + got


# -- value fidelity -----------------------------------------------------------


def _array(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "f8":
        return rng.standard_normal(n)
    if kind == "i4":
        return rng.integers(-1000, 1000, n).astype(np.int32)
    if kind == "u1":
        return rng.integers(0, 255, n).astype(np.uint8)
    if kind == "c16":
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)
    if kind == "strided":  # non-contiguous: every other element
        return rng.standard_normal(2 * n)[::2]
    if kind == "fortran":  # F-contiguous 2-D
        return np.asfortranarray(rng.standard_normal((n // 8 + 1, 8)))
    raise AssertionError(kind)


_small_objects = st.one_of(
    st.integers(-10**9, 10**9), st.text(max_size=20), st.none(),
    st.lists(st.floats(allow_nan=False), max_size=5),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=3))
# At most 16 bytes/element: 8..120 stays below the 2 KiB cut,
# 2100..20000 is above it (u1 below 2048 stays below — also a case).
_arrays = st.builds(
    _array, st.sampled_from(["f8", "i4", "u1", "c16", "strided", "fortran"]),
    st.one_of(st.integers(8, 120), st.integers(2100, 20000)))
_arg_lists = st.lists(st.one_of(_small_objects, _arrays), max_size=5)


def _rides_arena(arg) -> bool:
    return (isinstance(arg, np.ndarray) and arg.nbytes >= THRESHOLD
            and (arg.flags.c_contiguous or arg.flags.f_contiguous))


class TestArgFidelity:
    @pytest.fixture()
    def pool(self):
        with BspPool(2, join_timeout=60.0) as pool:
            yield pool

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(items=_arg_lists, twice=st.data())
    def test_every_rank_receives_the_originals(self, pool, items, twice):
        """Values equal the originals on every rank, and again when
        they come back as the result; what rode the arena is read-only
        (and says so when returned as it is), everything else comes back
        writable; an array passed twice is one object, placed once."""
        args = list(items)
        if args:
            # Pass one of the items a second time, by identity.
            args.append(args[twice.draw(st.integers(0, len(args) - 1))])
        run = pool.run(describe_args, 2, args=tuple(args[:-1]),
                       kwargs={"last": args[-1]} if args else {})
        for got, returned in run.results:
            assert len(got) == len(returned) == len(args)
            for sent, back, result in zip(args, got, returned):
                if not isinstance(sent, np.ndarray):
                    assert back == result == sent
                    continue
                assert (result.dtype, result.shape) == (sent.dtype,
                                                        sent.shape)
                assert result.tobytes() == sent.tobytes()  # bit-equal
                assert result.flags.writeable == back[3]
                raw, dtype, shape, writeable, _ = back
                assert (dtype, shape) == (str(sent.dtype), sent.shape)
                assert np.array_equal(
                    np.frombuffer(raw, dtype=dtype).reshape(shape), sent)
                assert writeable is not _rides_arena(sent)
            for result in returned:  # the parent's own memory
                if isinstance(result, np.ndarray) and result.flags.writeable:
                    result.flat[0] = 1
            if args:
                same = [back[4] if isinstance(back, tuple) else None
                        for sent, back in zip(args, got)
                        if sent is args[-1]]
                assert len(set(same)) == 1  # one object on the worker too
        placed = {id(a) for a in args if _rides_arena(a)}
        assert _arena_leases(pool) == len(placed)


# -- arena lifetime -----------------------------------------------------------


class TestArena:
    def test_repeated_large_dispatch_does_not_grow_shm(self):
        a = np.ones((1024, 1024))  # 8 MiB
        b = np.full((1024, 1024), 2.0)
        with BspPool(2, join_timeout=60.0) as pool:
            assert pool.run(checksum_args, 2, args=(a, b)).results == \
                [(3.0, False)] * 2
            counts = pool._transport.segment_counts()
            names = shm.scan_orphans()
            for i in range(50):
                a[0, 0] = i  # the arena must carry *this* run's bytes
                run = pool.run(checksum_args, 2, args=(a, b))
                assert run.results == [(i + 2.0, False)] * 2
            assert pool._transport.segment_counts() == counts
            assert shm.scan_orphans() == names

    def test_repeated_large_results_do_not_grow_shm(self):
        block = np.ones((576, 576))  # 2.65 MB: Cannon's block at n=1152
        with BspPool(4, join_timeout=60.0) as pool:
            for i in range(8):
                run = pool.run(scaled_block, 4, args=(block + i,))
                for pid, result in enumerate(run.results):
                    assert result[0, 0] == result[-1, -1] == (1 + i) * (pid + 1)
                if i == 1:  # every region a run needs has been leased once
                    counts = pool._transport.segment_counts()
                    names = shm.scan_orphans()
            assert pool._transport.segment_counts() == counts
            assert shm.scan_orphans() == names
            assert pool.health().zerocopy_hits >= 8 * 4

    def test_a_held_result_owns_its_memory(self):
        """Nothing the pool does later — the next run leasing the same
        regions again, a failed run, close()
        unmapping them — reaches a result the caller still holds."""
        block = np.arange(576.0 * 576).reshape(576, 576)
        golden = [(block * (pid + 1)).tobytes() for pid in range(2)]

        def intact():
            return [result.tobytes() for result in held] == golden

        with BspPool(2, join_timeout=60.0) as pool:
            held = pool.run(scaled_block, 2, args=(block,)).results
            assert intact() and all(r.flags.writeable for r in held)
            pool.run(scaled_block, 2, args=(block + 7,))
            assert intact()
            with pytest.raises(VirtualProcessorError):
                pool.run(scaled_block, 2, args=(block + 9, True))
            pool.run(scaled_block, 2, args=(block + 11,))
            assert intact()
        assert intact()

    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_zerocopy_off_is_golden_identical(self, monkeypatch, sync):
        """``REPRO_ZEROCOPY=off``, and a ``/dev/shm`` with no room: the
        arguments, the blocks and the result blocks all take the pipe."""
        def refuse(name, size=0):
            raise OSError(28, "No space left on device")
        rng = np.random.default_rng(7)
        a = rng.standard_normal((192, 192))  # 288 KiB args, 72 KiB blocks
        b = rng.standard_normal((192, 192))
        runs = {}
        for mode in ("on", "off", "full"):
            with monkeypatch.context() as patch:
                if mode == "full":
                    patch.setattr(shm, "open_segment", refuse)
                else:
                    patch.setenv("REPRO_ZEROCOPY", mode)
                with ProcessBackend.pool(4, join_timeout=60.0) as backend:
                    run = cannon_matmul(a, b, 4, backend=backend, sync=sync)
                    placed = _arena_leases(backend._pool)
                    health = backend.health()
            runs[mode] = (run.c.tobytes(), run.stats.S, run.stats.H,
                          list(run.stats.h_series), list(run.stats.m_series))
            assert placed == (2 if mode == "on" else 0)
            assert (health.zerocopy_hits == 0) == (mode != "on")
            assert (health.zerocopy_fallbacks == 0) == (mode == "on")
        assert runs["on"] == runs["off"] == runs["full"]
        assert np.allclose(np.frombuffer(runs["on"][0]).reshape(192, 192),
                           a @ b)

    def test_full_dev_shm_falls_back_in_band(self, monkeypatch):
        """No room for the arena must cost speed, never the run."""
        def refuse(name, size=0):
            raise OSError(28, "No space left on device")
        a = np.ones((256, 256))
        with BspPool(2, join_timeout=30.0) as pool:
            monkeypatch.setattr(shm, "open_segment", refuse)
            run = pool.run(checksum_args, 2, args=(a, a))
            assert run.results == [(2.0, True)] * 2
            assert _arena_leases(pool) == 0

    def test_lambda_program_still_raises_usage_error(self):
        with BspPool(2, join_timeout=30.0) as pool:
            with pytest.raises(BspUsageError, match="module-level"):
                pool.run(lambda bsp: None, 2, args=(np.zeros(THRESHOLD),))
            assert pool.run(noop, 2).results == [0, 1]

    def test_payload_is_pickled_once_for_all_ranks(self):
        CountedReduce.pickles = 0
        with BspPool(4, join_timeout=30.0) as pool:
            pool.run(noop, 4, args=(CountedReduce(),))
        assert CountedReduce.pickles == 1


# -- crash safety -------------------------------------------------------------


class TestCrashSafety:
    def test_kill_mid_run_heals_and_close_sweeps_the_arena(self):
        a = np.arange(2 * MIB, dtype=np.float64)  # 16 MiB
        plan = faults.FaultPlan([faults.Fault(faults.KILL, pid=1, step=1)])
        with faults.injected(plan):
            pool = BspPool(3, join_timeout=30.0)
        with pool:
            with pytest.raises(WorkerCrashError):
                pool.run(exchange_with_big_args, 3, args=(a,))
            # The healed pool (one re-forked worker, which maps the
            # arena afresh) runs the next job on new bytes.
            clean = pool.run(exchange_with_big_args, 3, args=(a + 1.0,))
            assert clean.results == [2 * 3.0, 2 * 1.0, 2 * 2.0]
            assert pool.health().alive == 3
            assert any(f"-{pool.capacity}-" in name
                       for name in shm.scan_orphans())
        assert shm.scan_orphans() == []

    def test_death_while_encoding_the_result_heals_and_sweeps(self):
        """``os._exit`` from inside the result's pickle pass: nothing
        was written, the peers have all reported.  Two failed runs come
        first: the replacement's segment pool counts its generations
        from zero again, which must not make its frames or its results
        look stale to those who saw the old one's."""
        block = np.full(50_000, 3.0)  # 400 KB: frames and results leased
        with BspPool(3, join_timeout=30.0) as pool:
            for _ in range(2):
                with pytest.raises(VirtualProcessorError):
                    pool.run(big_then_fatal_result, 3, args=(block, "raise"))
            t0 = time.monotonic()
            with pytest.raises(WorkerCrashError) as err:
                pool.run(big_then_fatal_result, 3, args=(block, "die"))
            assert time.monotonic() - t0 < 10.0
            assert (err.value.pid, err.value.exitcode) == (1, 9)
            health = pool.health()
            assert health.alive == 3
            assert health.heal_kinds[-1] == "re-fork"
            for i in range(4):
                run = pool.run(big_then_fatal_result, 3,
                               args=(block + i, "ok"))
                for result in run.results:
                    assert result.tobytes() == (block + 2 * i + 3).tobytes()
                if i == 1:
                    counts = pool._transport.segment_counts()
            assert pool._transport.segment_counts() == counts
        assert shm.scan_orphans() == []

    def test_no_child_besides_the_workers(self):
        """``shared_memory.SharedMemory`` in the parent would spawn a
        resource_tracker child that outlives the pool."""
        before = _children()
        with BspPool(2, join_timeout=30.0) as pool:
            pool.run(noop, 2, args=(np.zeros(MIB),))
            workers = {proc.pid for proc in pool._procs}
            assert _children() - before == workers
        assert _children() - before == set()


# -- TCP mesh -----------------------------------------------------------------


class TestTcpDispatch:
    @pytest.mark.parametrize("sync", ["strict", "relaxed"])
    def test_pooled_noop_run_is_not_nagled(self, sync):
        """Control links carry TCP_NODELAY and a frame is one segment:
        a pooled noop run costs well under a delayed ACK (was 44 ms)."""
        with TcpBackend.pool(2) as backend:
            backend.run(noop, 2, sync=sync)
            walls = []
            for _ in range(20):
                t0 = time.perf_counter()
                backend.run(noop, 2, sync=sync)
                walls.append(time.perf_counter() - t0)
        assert statistics.median(walls) < 0.020

    def test_payload_is_pickled_once_for_all_ranks(self, monkeypatch):
        """One pass of one pickler, and the array is in no stream: it
        leaves ``encode_object`` as an out-of-band buffer, which follows
        the ``TAG_RUN`` header as a chunk of its own."""
        encoded = []

        def encode(obj):
            meta, buffers = frames.encode_object(obj)
            encoded.append((meta, [mv.nbytes for mv in buffers]))
            return meta, buffers

        CountedReduce.pickles = 0
        big = np.arange(MIB, dtype=np.float64)
        with TcpBackend.pool(3) as backend:
            monkeypatch.setattr(TcpMesh, "_encode", staticmethod(encode))
            run = backend.run(noop, 3, args=(CountedReduce(), big))
        assert run.results == [0, 1, 2]
        assert CountedReduce.pickles == 1
        ((meta, lens),) = encoded  # one encoding for all three ranks
        assert lens == [big.nbytes] and len(meta) < 1024
