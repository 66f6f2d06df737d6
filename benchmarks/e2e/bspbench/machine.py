"""Conditioning the box and pricing its drift.

On a small shared VM the same operation runs 20-40% slower from one
minute to the next, for three separate reasons; each gets its own
countermeasure, applied identically on every commit (measured run-to-run
spread of ``ocean-sync`` ``run_s``, ten seeds: 25% with none of them,
12% with the reference job alone, 8% with idle spinners added, 6% with
all three):

* **Idle vCPUs halt**, and waking a halted vCPU goes through the host, so
  every barrier wake-up costs whatever the host is doing at that moment.
  :class:`Spinners` keeps one ``SCHED_IDLE`` busy-loop per CPU: anything
  runnable preempts it at once, but the vCPU never halts (the effect of
  booting with ``idle=poll``).
* **Placement changes with every pool incarnation** (which ranks share a
  CPU, and with whom).  :func:`pin_round_robin` binds the ranks of each
  fresh pool to the CPUs in rank order, as ``mpirun --bind-to core``
  would.
* **The host itself speeds up and slows down** (a busy SMT sibling costs
  a third of a core and is not reported as steal time).
  :class:`RefPair` times a fixed job — a pure-Python loop plus a sort,
  the two kinds of work the library's ranks do — simultaneously on
  ``min(2, nproc)`` CPUs before and after every incarnation; the
  incarnation's timings are scaled by ``ref_nominal_s / measured``.

All helper processes are forked once, before the benchmark starts any
thread or pool, and are excluded from CPU and memory accounting.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import statistics
import time

import numpy as np

#: Size of the two halves of the reference job; fixed for the life of the
#: benchmark (changing either invalidates ``ref_nominal_s``).
LOOP_ITERATIONS = 1_500_000
SORT_ELEMENTS = 4_000_000

#: Repetitions per measurement; the median of them is the measurement,
#: so one preempted repetition does not misprice a whole incarnation.
REPETITIONS = 3


def pin_round_robin(pids, cpus) -> None:
    """Bind every thread of ``pids[i]`` to ``cpus[i % len(cpus)]``."""
    for index, pid in enumerate(pids):
        cpu = {cpus[index % len(cpus)]}
        try:
            for tid in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(tid), cpu)
        except OSError:  # the process ended meanwhile
            continue


def reference_job(data: np.ndarray, scratch: np.ndarray) -> float:
    """Run the fixed job once; returns its wall seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i & 7
    np.copyto(scratch, data)
    scratch.sort()
    return time.perf_counter() - t0


def _ref_worker(conn, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    data = np.random.default_rng(12345).standard_normal(SORT_ELEMENTS)
    scratch = np.empty_like(data)
    reference_job(data, scratch)  # fault the pages in before any request
    while True:
        try:
            if conn.recv() is None:
                return
        except EOFError:
            return
        conn.send(statistics.median(
            reference_job(data, scratch) for _ in range(REPETITIONS)))


class RefPair:
    """Resident reference workers, one per CPU up to two."""

    def __init__(self, cpus) -> None:
        ctx = mp.get_context("fork")
        self._conns = []
        self._procs = []
        for cpu in cpus[:2]:
            parent, child = ctx.Pipe()
            proc = ctx.Process(target=_ref_worker, args=(child, cpu),
                               daemon=True, name="e2e-ref")
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self.samples: list[float] = []

    @property
    def pids(self) -> frozenset[int]:
        return frozenset(proc.pid for proc in self._procs)

    def measure(self) -> float:
        """Run the job in every worker at once; mean of their seconds."""
        for conn in self._conns:
            conn.send(True)
        value = sum(conn.recv() for conn in self._conns) / len(self._conns)
        self.samples.append(value)
        return value

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except OSError:
                pass
            conn.close()
        _reap(self._procs)


def _spin(cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:  # a sandbox that forbids the call: lowest nice instead
        os.nice(19)
    while True:
        pass


class Spinners:
    """One ``SCHED_IDLE`` busy-loop per CPU, so no vCPU ever halts."""

    def __init__(self, cpus) -> None:
        ctx = mp.get_context("fork")
        self._procs = [ctx.Process(target=_spin, args=(cpu,), daemon=True,
                                   name="e2e-spin") for cpu in cpus]
        for proc in self._procs:
            proc.start()

    @property
    def pids(self) -> frozenset[int]:
        return frozenset(proc.pid for proc in self._procs)

    def close(self) -> None:
        for proc in self._procs:
            proc.kill()
        _reap(self._procs)


def _reap(procs) -> None:
    for proc in procs:
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
