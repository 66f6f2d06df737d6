"""Measure what each synchronization mode costs per superstep boundary.

A boundary is one frame per link of its link set (DESIGN
"Synchronization modes"); the modes differ only in the link set, so
strict and relaxed are one code path on every fabric.  Three
experiments:

* **Empty supersteps** — ``ROUNDS`` pure-barrier supersteps (no sends
  at all: the shape of ocean's tiny ghost-exchange steps and the nbody
  non-rebalance steps, which are almost pure L), strict vs relaxed.
  The effective per-superstep synchronization cost is ``wall / rounds``;
  best-of-``REPEATS`` to shave scheduler noise.  Both modes send one
  empty final per link, on pipes, sockets and in-process queues alike;
  the threads rows are also taken at p = 2 and 4, to show how the
  round's ``p - 1`` frames per rank scale.
* **Declared ring** — one packet per rank around a ring whose pattern
  is declared, under all three modes.  Only ``elide`` uses the
  declaration: its boundary is one frame per rank instead of ``p - 1``,
  which is what the elide cell measures (an undeclared elide run is
  relaxed by definition, and measuring it would measure relaxed twice).
* **Ocean end-to-end** — the full paper application (66-grid, 2 time
  steps), strict vs relaxed wall-clock, reported but not gated.

Every timed configuration is also checked for bit-identical results and
(S, H, h-series, m-series) ledgers against the strict golden — a fast
barrier that changed the answer would be worthless.

Acceptance floors (enforced, nonzero exit):

* pipes and sockets: one *ceiling* on the effective L at p=8 of every
  mode — empty strict, empty relaxed and declared-ring elide — of
  ``1000`` us on pipes (``1300`` under ``--quick``) and ``1200`` us on
  TCP (``1500`` quick).  A ceiling, not a strict/relaxed ratio: the two
  are one code path, so their ratio is a coin flip;
* every fabric, threads included: declared-ring
  ``elide <= 0.8 x strict`` at p=8 (no ceiling applies to threads).

Usage::

    PYTHONPATH=src python benchmarks/bench_barrier.py --quick
    PYTHONPATH=src python benchmarks/bench_barrier.py \
        --label barrier --output BENCH_barrier.json
"""

from __future__ import annotations

import argparse
import contextlib
import json
import platform
import sys
import time

from repro import bsp_run
from repro.apps.ocean import bsp_ocean
from repro.backends.processes import ProcessBackend
from repro.backends.tcp import TcpBackend
from repro.backends.threads import ThreadBackend

NPROCS = 8
ROUNDS = 400
ROUNDS_QUICK = 120
REPEATS = 3
REPEATS_QUICK = 2
MODES = ("strict", "relaxed", "elide")
KINDS = ("processes", "tcp", "threads")

OCEAN_N, OCEAN_STEPS, OCEAN_NPROCS = 66, 2, 4


def barrier_rounds(bsp, rounds):
    """The microbench program: nothing but barriers."""
    for _ in range(rounds):
        bsp.sync()
    return bsp.pid


def declared_ring(bsp, rounds):
    """One packet per rank around a ring whose pattern is declared."""
    right = (bsp.pid + 1) % bsp.nprocs
    bsp.pattern({right}, {(bsp.pid - 1) % bsp.nprocs})
    for _ in range(rounds):
        bsp.send(right, 0)
        bsp.sync()
        for _ in bsp.packets():
            pass
    return bsp.pid


def identity_ring(bsp, rounds=3):
    """A small exchange used to pin mode-equivalence during the bench."""
    total = 0
    for r in range(rounds):
        bsp.send((bsp.pid + 1) % bsp.nprocs, (bsp.pid + 1) * (r + 1))
        bsp.sync()
        total += sum(pkt.payload for pkt in bsp.packets())
        bsp.sync()  # empty superstep
    return total


def _ledger_key(stats):
    return (stats.S, stats.H, stats.h_series, stats.m_series)


def _best_of(fn, repeats):
    return min(fn() for _ in range(repeats))


def _backend(kind: str, nprocs: int):
    """A warm pool of ``kind``; threads have no pool, only a backend."""
    if kind == "threads":
        return contextlib.nullcontext(ThreadBackend())
    return {"processes": ProcessBackend, "tcp": TcpBackend}[kind].pool(nprocs)


def bench_microbench(kind: str, rounds: int, repeats: int,
                     nprocs: int = NPROCS) -> dict:
    golden = bsp_run(identity_ring, nprocs)
    golden_key = (golden.results, _ledger_key(golden.stats))

    row: dict = {"nprocs": nprocs, "rounds": rounds}
    with _backend(kind, nprocs) as backend:

        def per_boundary_us(program, mode):
            def once():
                t0 = time.perf_counter()
                bsp_run(program, nprocs, args=(rounds,), backend=backend,
                        sync=mode)
                return time.perf_counter() - t0

            return round(_best_of(once, repeats) / rounds * 1e6, 1)

        bsp_run(barrier_rounds, nprocs, args=(rounds,),
                backend=backend)  # warm the pool + fabric
        for mode in MODES:
            check = bsp_run(identity_ring, nprocs, backend=backend,
                            sync=mode)
            if (check.results, _ledger_key(check.stats)) != golden_key:
                raise AssertionError(
                    f"{kind}/{mode}: run diverged from the strict golden")
            if mode != "elide":  # undeclared elide *is* relaxed
                row[f"L_{mode}_us"] = per_boundary_us(barrier_rounds, mode)
            row[f"ring_{mode}_us"] = per_boundary_us(declared_ring, mode)
    row["elide_speedup_x"] = round(
        row["ring_strict_us"] / row["ring_elide_us"], 2)
    return row


def bench_ocean(kind: str, repeats: int) -> dict:
    golden = bsp_ocean(OCEAN_N, OCEAN_STEPS, OCEAN_NPROCS)
    row: dict = {"n": OCEAN_N, "steps": OCEAN_STEPS, "nprocs": OCEAN_NPROCS,
                 "supersteps": golden.stats.S}
    with _backend(kind, OCEAN_NPROCS) as backend:
        bsp_ocean(OCEAN_N, OCEAN_STEPS, OCEAN_NPROCS,
                  backend=backend)  # warm
        for mode in ("strict", "relaxed"):
            def timed(mode=mode):
                t0 = time.perf_counter()
                run = bsp_ocean(OCEAN_N, OCEAN_STEPS, OCEAN_NPROCS,
                                backend=backend, sync=mode)
                wall = time.perf_counter() - t0
                if _ledger_key(run.stats) != _ledger_key(golden.stats):
                    raise AssertionError(
                        f"ocean {kind}/{mode}: ledger diverged from golden")
                return wall

            row[f"{mode}_s"] = round(_best_of(timed, repeats), 4)
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds/repeats (CI smoke); lower floors")
    parser.add_argument("--label", default=None,
                        help="snapshot name in the output JSON")
    parser.add_argument("--output", default=None,
                        help="JSON file to merge this snapshot into")
    args = parser.parse_args(argv)

    rounds = ROUNDS_QUICK if args.quick else ROUNDS
    repeats = REPEATS_QUICK if args.quick else REPEATS
    ceilings = ({"processes": 1300.0, "tcp": 1500.0} if args.quick
                else {"processes": 1000.0, "tcp": 1200.0})
    elide_ratio = 0.8

    micro = {kind: bench_microbench(kind, rounds, repeats)
             for kind in KINDS}
    threads_by_p = {str(p): bench_microbench("threads", rounds, repeats, p)
                    for p in (2, 4)}
    threads_by_p[str(NPROCS)] = micro["threads"]
    ocean = {kind: bench_ocean(kind, repeats) for kind in KINDS}

    failed = []
    print(f"effective L per boundary: p={NPROCS}, {rounds} supersteps, "
          f"best of {repeats}")
    for kind, row in micro.items():
        print(f"  {kind:<10} empty: strict {row['L_strict_us']:8.1f} us   "
              f"relaxed {row['L_relaxed_us']:8.1f} us")
        print(f"  {'':<10} declared ring: strict "
              f"{row['ring_strict_us']:8.1f} us   "
              f"relaxed {row['ring_relaxed_us']:8.1f} us   "
              f"elide {row['ring_elide_us']:8.1f} us   "
              f"-> {row['elide_speedup_x']}x elide")
        if row["ring_elide_us"] > elide_ratio * row["ring_strict_us"]:
            failed.append(f"{kind} declared ring (elide "
                          f"{row['ring_elide_us']} us > {elide_ratio} x "
                          f"strict {row['ring_strict_us']} us)")
    for kind, ceiling in ceilings.items():
        for cell in ("L_strict_us", "L_relaxed_us", "ring_elide_us"):
            got = micro[kind][cell]
            if got > ceiling:
                failed.append(f"{kind} microbench {cell} "
                              f"({got} us > {ceiling} us)")
    print("  threads empty by p: " + "   ".join(
        f"p={p} strict {row['L_strict_us']:.1f} / relaxed "
        f"{row['L_relaxed_us']:.1f} us" for p, row in threads_by_p.items()))
    print(f"ocean {OCEAN_N}-grid end-to-end, p={OCEAN_NPROCS}, "
          f"{ocean['tcp']['supersteps']} supersteps")
    for kind, row in ocean.items():
        print(f"  {kind:<10} strict {row['strict_s'] * 1e3:7.1f} ms   "
              f"relaxed {row['relaxed_s'] * 1e3:7.1f} ms")
    if failed:
        print("FAIL: " + "; ".join(failed), file=sys.stderr)

    snapshot = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "ceiling_us": ceilings,
        "elide_ring_ratio": elide_ratio,
        "microbench": micro,
        "threads_by_p": threads_by_p,
        "ocean": ocean,
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
