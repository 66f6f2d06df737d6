"""Backend-specific internals: registry, determinism, process fail-fast."""

import pytest

from repro import BspConfigError, bsp_run
from repro.backends.base import available_backends, get_backend, register_backend


class TestRegistry:
    def test_builtins_available(self):
        assert {"simulator", "threads", "processes"} <= set(available_backends())

    def test_unknown_backend(self):
        with pytest.raises(BspConfigError):
            get_backend("gpu")

    def test_register_custom(self):
        from repro.backends.simulator import SimulatorBackend

        register_backend("custom-sim", SimulatorBackend)
        assert "custom-sim" in available_backends()
        run = bsp_run(lambda bsp: bsp.pid, 2, backend="custom-sim")
        assert run.results == [0, 1]

    def test_bad_nprocs(self):
        with pytest.raises(BspConfigError):
            bsp_run(lambda bsp: None, 0)
        with pytest.raises(BspConfigError):
            bsp_run(lambda bsp: None, -3)


class TestSimulatorDeterminism:
    def test_same_run_twice_identical_stats(self):
        def program(bsp):
            for step in range(4):
                for q in range(bsp.nprocs):
                    bsp.send(q, (bsp.pid, step))
                bsp.sync()
                collected = [p.payload for p in bsp.packets()]
            return collected

        r1 = bsp_run(program, 4, backend="simulator")
        r2 = bsp_run(program, 4, backend="simulator")
        assert r1.results == r2.results
        assert r1.stats.H == r2.stats.H
        assert r1.stats.S == r2.stats.S
        assert [s.h for s in r1.stats.supersteps] == [
            s.h for s in r2.stats.supersteps
        ]

    def test_serialized_execution_order(self):
        """VPs run one at a time, in pid order within each superstep."""
        trace = []

        def program(bsp):
            trace.append(("a", bsp.pid))
            bsp.sync()
            trace.append(("b", bsp.pid))

        bsp_run(program, 3, backend="simulator")
        assert trace == [
            ("a", 0), ("a", 1), ("a", 2),
            ("b", 0), ("b", 1), ("b", 2),
        ]


class TestProcessesBackend:
    def test_compute_runs_in_parallel_processes(self):
        """Results must come from distinct processes."""
        import os

        def program(bsp):
            return os.getpid()

        run = bsp_run(program, 3, backend="processes")
        assert len(set(run.results)) == 3

    def test_large_payload_roundtrip(self):
        import numpy as np

        def program(bsp):
            data = np.full(50_000, bsp.pid, dtype=np.int64)
            bsp.send((bsp.pid + 1) % bsp.nprocs, data)
            bsp.sync()
            (pkt,) = list(bsp.packets())
            return int(pkt.payload[0]), len(pkt.payload)

        run = bsp_run(program, 2, backend="processes")
        assert run.results == [(1, 50_000), (0, 50_000)]

    def test_many_supersteps(self):
        def program(bsp):
            acc = 0
            for step in range(30):
                bsp.send((bsp.pid + step) % bsp.nprocs, 1)
                bsp.sync()
                acc += sum(p.payload for p in bsp.packets())
            return acc

        run = bsp_run(program, 4, backend="processes")
        assert sum(run.results) == 4 * 30


class TestProcessesFailFast:
    def test_unpicklable_payload_fails_fast(self):
        """A payload that cannot cross the process boundary must surface
        as an error promptly, not a deadlock-until-timeout."""
        import time

        def program(bsp):
            bsp.send((bsp.pid + 1) % bsp.nprocs, lambda x: x)  # unpicklable
            bsp.sync()

        from repro import BspError

        t0 = time.perf_counter()
        with pytest.raises(BspError):
            bsp_run(program, 2, backend="processes")
        assert time.perf_counter() - t0 < 30
