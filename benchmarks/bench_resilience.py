"""Measure what healing a mesh in place buys: mean time to repair.

A rank is SIGKILLed in the final quarter of a paced, checkpointed run on
a pooled TCP mesh, and the mesh's failure policy repairs it before the
crash surfaces; the checkpointed run then resumes on the repaired mesh.

* Recovery A (rebuild) — what the policy does when the fabric cannot
  heal in place: wake the survivors, tear every rank down, fork and
  rendezvous a fresh mesh.  It is the policy's own rebuild branch (the
  one a deadlock takes), reached here through a mesh whose ``_replace``
  declines.
* Recovery B (heal) — re-fork only the dead rank and link it to the
  survivors, whose processes and mutual links carry on.

MTTR is the repair — the time the policy spends in
``WorkerPool._recover``, timed directly, so crash detection (which comes
before it and is the same for both) is out of both — plus the resumed
run.  The legs run in pairs, alternating which goes first, and every
figure is a median over the pairs (``*_q`` are the quartiles):
``heal_speedup_x`` is A's median MTTR over B's; ``detect_s`` is the rest
of the crash time, for reference.

What the protection layer *costs* is no longer measured here: it has no
off-switch to time against (DESIGN "Why the socket fabric has no
off-switches" keeps the last reading, 2.32% at 805 MB).

Acceptance floor (enforced, nonzero exit): ``heal_speedup_x >= 2.0``
(``>= 1.3`` under ``--quick``).

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py --quick
    PYTHONPATH=src python benchmarks/bench_resilience.py \
        --label partial-heal --output BENCH_resilience.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
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


def _run(nprocs, backend, store, resume=False):
    return bsp_run(paced_ring, nprocs, args=(ROUNDS, 0.0), backend=backend,
                   checkpoint=CheckpointConfig(store=store, run_key="bench",
                                               resume=resume))


def _leg(nprocs: int, golden_key, heal: bool) -> tuple[float, float, float]:
    """One kill-repair-resume cycle; returns (crash_s, repair_s,
    resume_s).  ``crash_s`` is the killed run's time to surface its
    ``WorkerCrashError``; the repair runs inside it."""
    store = DiskCheckpointStore(tempfile.mkdtemp(prefix="bench-resilience-"))
    with faults.injected(faults.FaultPlan(
            [faults.Fault(faults.KILL, pid=1, step=KILL_STEP)])):
        backend = TcpBackend.pool(nprocs)
    mesh, repairs = backend._mesh, []
    recover = mesh._recover

    def timed_recover(fault):
        t0 = time.perf_counter()
        try:
            recover(fault)
        finally:
            repairs.append(time.perf_counter() - t0)

    mesh._recover = timed_recover
    if not heal:
        mesh._replace = lambda dead, generation: False
    with backend:
        t0 = time.perf_counter()
        try:
            _run(nprocs, backend, store)
            raise RuntimeError("injected crash did not fire")
        except WorkerCrashError:
            crash_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        resumed = _run(nprocs, backend, store, resume=True)
        resume_s = time.perf_counter() - t0
        heal_kinds = backend.health().heal_kinds
    if (resumed.results, _ledger_key(resumed.stats)) != golden_key:
        raise AssertionError("recovered run diverged from golden")
    expected = ("re-fork",) if heal else ("rebuild",)
    if heal_kinds != expected:
        raise AssertionError(f"expected {expected}, got {heal_kinds}")
    return crash_s, repairs[0], resume_s


def _quartiles(values: list[float]) -> list[float]:
    return [round(q, 4) for q in statistics.quantiles(values, n=4)]


def bench_mttr(nprocs: int, pairs: int) -> dict:
    golden = bsp_run(paced_ring, nprocs, args=(ROUNDS, 0.0))
    golden_key = (golden.results, _ledger_key(golden.stats))

    legs: dict[bool, list] = {True: [], False: []}
    for i in range(pairs):
        for heal in ((True, False) if i % 2 == 0 else (False, True)):
            legs[heal].append(_leg(nprocs, golden_key, heal))
    # MTTR = repair machinery + resumed run.
    heal_mttr = [r + s for _, r, s in legs[True]]
    rebuild_mttr = [r + s for _, r, s in legs[False]]
    med = statistics.median
    return {
        "nprocs": nprocs,
        "rounds": ROUNDS,
        "kill_step": KILL_STEP,
        "pairs": pairs,
        "detect_s": round(med(c - r for c, r, _ in legs[True] + legs[False]),
                          4),
        "heal_s": round(med(r for _, r, _ in legs[True]), 4),
        "rebuild_s": round(med(r for _, r, _ in legs[False]), 4),
        "heal_and_resume_s": round(med(heal_mttr), 4),
        "heal_and_resume_q": _quartiles(heal_mttr),
        "teardown_restart_resume_s": round(med(rebuild_mttr), 4),
        "teardown_restart_resume_q": _quartiles(rebuild_mttr),
        "heal_speedup_x": round(med(rebuild_mttr) / med(heal_mttr), 2),
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
        mttr = bench_mttr(nprocs=4, pairs=3)
        heal_floor = 1.3
    else:
        mttr = bench_mttr(nprocs=6, pairs=10)
        heal_floor = 2.0

    print(f"repair      heal {mttr['heal_s'] * 1e3:7.1f} ms"
          f"  rebuild {mttr['rebuild_s'] * 1e3:7.1f} ms")
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
