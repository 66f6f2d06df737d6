"""Measure crash-detection latency and pool-heal time of the supervisor.

The seed revision noticed a dead worker only when the full ``join_timeout``
(default 120 s) expired; the supervised collection loop multiplexes every
worker's ``Process.sentinel`` with the fabric's result source (on pipes
the parent's own pipe of result frames), so detection should cost one
grace window (~0.25 s), three orders of magnitude less.  This benchmark
puts a number on that claim and on how long a pool takes to heal
(re-fork the victims, fence, rewind the segment pools) after a crash:

* ``detect-pooled``  — SIGKILL a warm pool worker mid-run; time from
  dispatch to :class:`WorkerCrashError`, minus a clean run's wall time.
* ``detect-oneshot`` — same fault on a fresh ``ProcessBackend.run``
  (includes fork cost, so the bound is looser).
* ``heal``           — time for the crashed pool's next clean ``run()``
  (covers re-fork, fence, segment-pool rewind; a single fault waits no
  backoff).
* ``seed_detection_s`` — what the same fault would have cost at the seed
  revision: the configured ``join_timeout``, recorded for the ratio.

Usage::

    PYTHONPATH=src python benchmarks/bench_fault_detection.py --quick
    PYTHONPATH=src python benchmarks/bench_fault_detection.py \
        --label supervised --output BENCH_faults.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

from repro import faults
from repro.backends.processes import BspPool, ProcessBackend
from repro.core.errors import WorkerCrashError

JOIN_TIMEOUT = 120.0  # the seed's only detection mechanism


def ring_program(bsp, rounds=2):
    for _ in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
        bsp.sync()
    return sorted(pkt.payload for pkt in bsp.packets())


def _crash_plan(pid=1, step=1):
    return faults.FaultPlan([faults.Fault(faults.KILL, pid=pid, step=step)])


def bench_pooled(nprocs: int, repeats: int) -> dict:
    detect, heal, clean = [], [], []
    for _ in range(repeats):
        with faults.injected(_crash_plan()):
            pool = BspPool(nprocs, join_timeout=JOIN_TIMEOUT)
        try:
            t0 = time.perf_counter()
            pool.run(ring_program, nprocs)  # workers carry the kill plan
            raise RuntimeError("injected crash did not fire")
        except WorkerCrashError:
            detect.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        pool.run(ring_program, nprocs)  # heals first: re-fork + fence
        heal.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        pool.run(ring_program, nprocs)
        clean.append(time.perf_counter() - t0)
        pool.close()
    med_detect = statistics.median(detect)
    med_clean = statistics.median(clean)
    return {
        "nprocs": nprocs,
        "detection_s": round(med_detect, 4),
        # Detection net of the work a clean run does before the fault step.
        "detection_net_s": round(max(med_detect - med_clean, 0.0), 4),
        "heal_plus_run_s": round(statistics.median(heal), 4),
        "clean_run_s": round(med_clean, 4),
        "seed_detection_s": JOIN_TIMEOUT,
        "speedup_vs_seed_x": round(JOIN_TIMEOUT / med_detect, 1),
    }


def bench_oneshot(nprocs: int, repeats: int) -> dict:
    detect = []
    backend = ProcessBackend(join_timeout=JOIN_TIMEOUT)
    with faults.injected(_crash_plan(pid=0, step=0)):
        for _ in range(repeats):
            t0 = time.perf_counter()
            try:
                backend.run(ring_program, nprocs)
                raise RuntimeError("injected crash did not fire")
            except WorkerCrashError:
                detect.append(time.perf_counter() - t0)
    med = statistics.median(detect)
    return {
        "nprocs": nprocs,
        "detection_s": round(med, 4),  # includes fork + reap of survivors
        "seed_detection_s": JOIN_TIMEOUT,
        "speedup_vs_seed_x": round(JOIN_TIMEOUT / med, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="1 repeat (CI smoke)")
    parser.add_argument("--label", default=None,
                        help="snapshot name in the output JSON")
    parser.add_argument("--output", default=None,
                        help="JSON file to merge this snapshot into")
    args = parser.parse_args(argv)

    repeats = 1 if args.quick else 5
    nprocs = 3
    scenarios = {
        "detect-pooled": bench_pooled(nprocs, repeats),
        "detect-oneshot": bench_oneshot(nprocs, repeats),
    }
    pooled = scenarios["detect-pooled"]
    print(f"detect-pooled   {pooled['detection_s'] * 1e3:8.1f} ms "
          f"(net {pooled['detection_net_s'] * 1e3:.1f} ms; seed took "
          f"{pooled['seed_detection_s']:.0f} s -> "
          f"{pooled['speedup_vs_seed_x']}x)")
    print(f"detect-oneshot  "
          f"{scenarios['detect-oneshot']['detection_s'] * 1e3:8.1f} ms")
    print(f"heal+run        {pooled['heal_plus_run_s'] * 1e3:8.1f} ms "
          f"(clean run {pooled['clean_run_s'] * 1e3:.1f} ms)")

    snapshot = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "scenarios": scenarios,
    }
    if args.output:
        label = args.label or "snapshot"
        try:
            with open(args.output) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = {}
        doc[label] = snapshot
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote snapshot {label!r} to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
