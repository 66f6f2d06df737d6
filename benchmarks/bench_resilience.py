"""Measure what the survivable mesh buys: mean time to repair.

A rank is SIGKILLed in the final quarter of a paced, checkpointed run.
Recovery A (a ``max_heals=0`` mesh — the only option before in-run rank
replacement): tear the whole mesh down, re-fork every rank,
re-rendezvous, resume from the last checkpoint.  Recovery B: heal in
place — re-fork only the dead rank, re-rendezvous the survivors at the
next mesh generation, resume.  ``heal_speedup_x`` is mean time to repair
A over B, with the (identical) crash-detection latency factored out of
both.

What the protection layer *costs* is no longer measured here: it has no
off-switch to time against (DESIGN "Why the socket fabric has no
off-switches" keeps the last reading, 2.32% at 805 MB).

Acceptance floor (enforced, nonzero exit): ``heal_speedup_x >= 2.0``
(``>= 1.3`` under ``--quick``).

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py --quick
    PYTHONPATH=src python benchmarks/bench_resilience.py \
        --label survivable-mesh --output BENCH_resilience.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time

from repro import CheckpointConfig, DiskCheckpointStore, bsp_run
from repro import faults
from repro.backends.tcp import TcpBackend
from repro.core.errors import WorkerCrashError

from bench_recovery import paced_ring

ROUNDS = 24
KILL_STEP = 20


def _ledger_key(stats):
    return (stats.S, stats.H, stats.h_series, stats.m_series)


def _crash_and_resume(nprocs: int, max_heals: int,
                      golden_key) -> tuple[float, float]:
    """One kill-recover-resume cycle; returns (crash_s, resume_s).

    ``crash_s`` is the time for the killed run to surface its
    :class:`WorkerCrashError` — for the healing pool that includes the
    in-place heal (it runs eagerly, before the error propagates); for
    the rebuild pool it is pure detection (the rebuild is lazy).
    ``resume_s`` is the follow-up resumed run: on the healed pool the
    mesh is already live; on the dirty pool it pays teardown + full
    re-fork + re-rendezvous first.
    """
    plan = faults.FaultPlan(
        [faults.Fault(faults.KILL, pid=1, step=KILL_STEP)])
    root = tempfile.mkdtemp(prefix="bench-resilience-")
    store = DiskCheckpointStore(root)
    with faults.injected(plan):
        backend = TcpBackend.pool(nprocs, max_heals=max_heals)
    with backend:
        cfg = CheckpointConfig(store=store, run_key="bench")
        t0 = time.perf_counter()
        try:
            bsp_run(paced_ring, nprocs, args=(ROUNDS, 0.0), backend=backend,
                    checkpoint=cfg)
            raise RuntimeError("injected crash did not fire")
        except WorkerCrashError:
            crash_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        resumed = bsp_run(
            paced_ring, nprocs, args=(ROUNDS, 0.0), backend=backend,
            checkpoint=CheckpointConfig(store=store, run_key="bench",
                                        resume=True))
        resume_s = time.perf_counter() - t0
        health = backend.health()
    expected = "re-fork" if max_heals else "rebuild"
    if expected not in health.heal_kinds:
        raise AssertionError(
            f"expected a {expected!r} heal, got {health.heal_kinds}")
    if (resumed.results, _ledger_key(resumed.stats)) != golden_key:
        raise AssertionError("recovered run diverged from golden")
    return crash_s, resume_s


def bench_mttr(nprocs: int, repeats: int) -> dict:
    golden = bsp_run(paced_ring, nprocs, args=(ROUNDS, 0.0))
    golden_key = (golden.results, _ledger_key(golden.stats))

    heal = [_crash_and_resume(nprocs, 1, golden_key)
            for _ in range(repeats)]
    rebuild = [_crash_and_resume(nprocs, 0, golden_key)
               for _ in range(repeats)]
    heal_crash = min(c for c, _ in heal)
    heal_resume = min(r for _, r in heal)
    detect_s = min(c for c, _ in rebuild)  # rebuild defers all repair
    rebuild_resume = min(r for _, r in rebuild)
    # MTTR = repair machinery + resumed run, detection excluded (it is
    # the same supervisor poll in both strategies).
    heal_mttr = max(heal_crash - detect_s, 0.0) + heal_resume
    rebuild_mttr = rebuild_resume
    return {
        "nprocs": nprocs,
        "rounds": ROUNDS,
        "kill_step": KILL_STEP,
        "detect_s": round(detect_s, 4),
        "heal_and_resume_s": round(heal_mttr, 4),
        "teardown_restart_resume_s": round(rebuild_mttr, 4),
        "heal_speedup_x": round(rebuild_mttr / heal_mttr, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller mesh (CI smoke); relaxed floor")
    parser.add_argument("--label", default=None,
                        help="snapshot name in the output JSON")
    parser.add_argument("--output", default=None,
                        help="JSON file to merge this snapshot into")
    args = parser.parse_args(argv)

    if args.quick:
        mttr = bench_mttr(nprocs=4, repeats=1)
        heal_floor = 1.3
    else:
        mttr = bench_mttr(nprocs=6, repeats=2)
        heal_floor = 2.0

    print(f"mttr        heal+resume {mttr['heal_and_resume_s'] * 1e3:7.1f} ms"
          f"  teardown+restart+resume "
          f"{mttr['teardown_restart_resume_s'] * 1e3:7.1f} ms"
          f"  -> {mttr['heal_speedup_x']}x")

    failed = mttr["heal_speedup_x"] < heal_floor
    if failed:
        print(f"FAIL: heal_speedup_x {mttr['heal_speedup_x']} "
              f"< {heal_floor} floor", file=sys.stderr)

    snapshot = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "heal_floor_x": heal_floor,
        "scenarios": {"mttr": mttr},
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
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
