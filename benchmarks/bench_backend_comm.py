"""Measure backend boundary-exchange throughput and process-pool amortization.

Unlike the ``bench_*`` figure reproductions (which feed the cost model),
this benchmark times the *runtime substrate itself*: how many packets and
payload bytes per second the superstep boundary exchange moves, and how
much fixed overhead one ``run()`` pays on the process backend.  It exists
so communication-layer PRs can show their trajectory: run it once at the
old code (``--label seed``), once at the new (``--label optimized``), and
both snapshots accumulate in ``BENCH_comm.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_backend_comm.py --quick
    PYTHONPATH=src python benchmarks/bench_backend_comm.py \
        --label optimized --output BENCH_comm.json

Scenarios
---------
* ``numpy-large``  — few big float64 arrays per peer (Cannon blocks).
* ``numpy-halo``   — many medium arrays per peer (ocean ghost exchange,
  essential trees): stresses per-packet overhead *and* copy volume.
* ``small-objects``— many tiny int payloads: pure per-packet overhead.
* ``halo-small``   — one 528-byte float64 row per peer per superstep on a
  warm p=2 pool (ocean-66's ghost exchange): microseconds per boundary,
  strict and relaxed — per-frame software overhead, no bandwidth.
* ``one-frame``    — one process, no peer: one ocean ghost-row packet
  (a 528-byte row in a tuple) encoded onto a pipe of the pipe fabric,
  read back, decoded and unpickled — the per-frame software toll of
  the codec alone, in µs of CPU per frame (min of repeats).
* ``halo-ladder``  — the shm plane just above the in-band cut: µs per
  boundary for 1 and 16 float64 arrays per peer of 2 KiB … 64 KiB − 8,
  p ∈ {2, 4}, strict and relaxed, on one warm pool per p (one recycled
  lease per frame, pushed inline; DESIGN "Why two planes" holds the
  table this grid was measured against the slab ring with).
  ``zerocopy_hits`` counts the buffers leased.  Full mode only.
* ``pool``         — per-run fixed cost of a trivial program, fresh
  backend per run vs. one persistent pool (skipped when running against
  a library version without ``ProcessBackend.pool``).
* ``args-large``   — per-run dispatch of two 8 MiB array arguments to a
  warm pool running a no-op body: what shipping ``(program, args)``
  costs, in MB of arguments per second of ``run()`` wall.
* ``results``      — per-run cost of bringing one 2.65 MB float64 array
  home from each rank of a warm p=4 pool (Cannon's block at n=1152,
  the ``matmult-bulk`` result tail): ms/run, MB/s of results, and the
  parent's minor page faults per run (``resource.getrusage``).  A
  result is a view of its rank's leased region, so the parent touches
  no fresh page: the scenario fails the run when the parent takes more
  than :data:`RESULT_FAULTS_MAX` faults per run (a copy-out takes
  ~2.6k).
* ``memcpy-baseline`` — single-process ``np.copyto`` bandwidth over the
  ``numpy-large`` buffer size: the hardware ceiling one payload copy can
  reach on this host.  ``numpy-large`` additionally reports
  ``memcpy_fraction`` — what share of that ceiling the full
  fork-crossing exchange achieves.

CI enforcement: ``--floor SCENARIO=MBPS`` (repeatable) exits non-zero
when a scenario lands below its floor, ``--check-leaks`` exits
non-zero if the run leaves new ``repro-zc-*`` segments in ``/dev/shm``,
the ``results`` scenario exits non-zero on a parent that faults in
its results, and ``one-frame`` exits non-zero above
:data:`ONE_FRAME_US_MAX` µs per frame.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np

from repro import bsp_run
from repro.backends.processes import ProcessBackend

try:
    from repro.backends.tcp import TcpBackend
except ImportError:  # older library versions have no socket backend
    TcpBackend = None

try:
    from repro.backends.shm import scan_orphans
except ImportError:  # older library versions have no zero-copy plane
    scan_orphans = None

# ---------------------------------------------------------------------------
# Programs (module-level: the persistent pool ships them by pickle)
# ---------------------------------------------------------------------------


#: Per-worker block cache, keyed by shape.  Pooled workers persist across
#: repeats, so block generation (~77 ms of RNG for the full shape on this
#: host — a third of the wall it used to pollute) is paid once in the
#: warm-up run; the timed repeats measure the exchange, not the RNG.
_blocks: dict = {}


def exchange_program(bsp, steps: int, narrays: int, size: int) -> int:
    """All-to-all: send ``narrays`` float64 arrays of ``size`` to each peer."""
    with bsp.off_clock():
        blocks = _blocks.get((narrays, size))
        if blocks is None:
            blocks = _blocks[(narrays, size)] = [
                np.random.default_rng(bsp.pid).standard_normal(size)
                for _ in range(narrays)]
    received = 0
    for _ in range(steps):
        for q in range(bsp.nprocs):
            if q != bsp.pid:
                for block in blocks:
                    bsp.send(q, block)
        bsp.sync()
        for pkt in bsp.packets():
            received += pkt.payload.shape[0]
    return received


def small_program(bsp, steps: int, nmsgs: int) -> int:
    """All-to-all of tiny int payloads: per-packet overhead dominates."""
    acc = 0
    for step in range(steps):
        for q in range(bsp.nprocs):
            if q != bsp.pid:
                for k in range(nmsgs):
                    bsp.send(q, step * nmsgs + k)
        bsp.sync()
        for pkt in bsp.packets():
            acc += pkt.payload
    return acc


def noop_program(bsp, a, b) -> int:
    return a.shape[0] + b.shape[0]


def block_program(bsp, n: int):
    """Return one ``n``-float64 array per rank: the result path alone."""
    return np.full(n, float(bsp.pid))


def trivial_program(bsp) -> int:
    bsp.send((bsp.pid + 1) % bsp.nprocs, bsp.pid)
    bsp.sync()
    return sum(p.payload for p in bsp.packets())


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _time_run(backend, program, nprocs, args, **kw) -> float:
    t0 = time.perf_counter()
    backend.run(program, nprocs, args=args, **kw)
    return time.perf_counter() - t0


def bench_exchange(nprocs: int, steps: int, narrays: int, size: int,
                   *, repeats: int, backend_name: str) -> dict:
    """Steady-state throughput of the boundary exchange for one shape.

    Uses the persistent pool when the library has one (a warm-up run
    first), so the number reflects the exchange itself rather than
    worker start-up; per-run fixed cost has its own scenario.  Library
    versions without a pool fork fresh workers per repeat — at these
    step counts that costs them ~1% of wall, not a skew that matters.
    """
    bytes_per_msg = size * 8
    msgs = nprocs * (nprocs - 1) * narrays * steps
    payload_bytes = msgs * bytes_per_msg
    walls = []
    if backend_name == "tcp":
        with TcpBackend.pool(nprocs) as backend:
            backend.run(exchange_program, nprocs,
                        args=(2, narrays, size))  # warm mesh + streams
            for _ in range(repeats):
                walls.append(_time_run(backend, exchange_program, nprocs,
                                       (steps, narrays, size)))
    elif backend_name == "processes":
        if hasattr(ProcessBackend, "pool"):
            with ProcessBackend.pool(nprocs) as backend:
                backend.run(exchange_program, nprocs,
                            args=(2, narrays, size))  # warm workers + pools
                for _ in range(repeats):
                    walls.append(_time_run(backend, exchange_program, nprocs,
                                           (steps, narrays, size)))
        else:
            for _ in range(repeats):
                backend = ProcessBackend()
                walls.append(_time_run(backend, exchange_program, nprocs,
                                       (steps, narrays, size)))
    else:
        for _ in range(repeats):
            t0 = time.perf_counter()
            bsp_run(exchange_program, nprocs, backend=backend_name,
                    args=(steps, narrays, size))
            walls.append(time.perf_counter() - t0)
    wall = min(walls)
    return {
        "nprocs": nprocs, "steps": steps, "narrays": narrays,
        "array_bytes": bytes_per_msg, "messages": msgs,
        "payload_mb": payload_bytes / 1e6,
        "wall_s": round(wall, 4),
        "packets_per_s": round(msgs / wall, 1),
        "mb_per_s": round(payload_bytes / 1e6 / wall, 2),
    }


def bench_small(nprocs: int, steps: int, nmsgs: int, *, repeats: int) -> dict:
    msgs = nprocs * (nprocs - 1) * nmsgs * steps
    walls = []
    for _ in range(repeats):
        backend = ProcessBackend()
        walls.append(_time_run(backend, small_program, nprocs, (steps, nmsgs)))
    wall = min(walls)
    return {
        "nprocs": nprocs, "steps": steps, "messages": msgs,
        "wall_s": round(wall, 4),
        "packets_per_s": round(msgs / wall, 1),
    }


def bench_halo_small(steps: int, *, repeats: int) -> dict:
    """Cost of one boundary that carries a single ghost row each way."""
    nprocs, size = 2, 66  # ocean-66 at p=2: 66 float64 = 528 bytes
    out = {"nprocs": nprocs, "steps": steps, "array_bytes": size * 8}
    with ProcessBackend.pool(nprocs) as backend:
        backend.run(exchange_program, nprocs, args=(2, 1, size))  # warm
        for sync in ("strict", "relaxed"):
            wall = min(_time_run(backend, exchange_program, nprocs,
                                 (steps, 1, size), sync=sync)
                       for _ in range(repeats))
            out[f"{sync}_us_per_boundary"] = round(wall / steps * 1e6, 1)
    return out


#: Most µs of CPU one ``one-frame`` frame may cost, in every mode (CI's
#: ``--quick`` smoke included): twice the 18.8 µs the scenario read once
#: ``Packet`` became a named tuple rebuilt at decode without re-checking
#: (``BENCH_comm.json`` label ``per-superstep``; the parent read 20.6).
#: A return of the codec's fixed per-frame cost fails the run.
ONE_FRAME_US_MAX = 38.0


def bench_one_frame(iters: int, *, repeats: int) -> dict:
    """CPU of one ghost-row frame through the pipe fabric's codec, send
    to decode, in one process."""
    from repro.backends.frames import TAG_PKT, encode_packets
    from repro.backends.processes import FrameTransport
    from repro.core.packets import Packet

    size = 66  # ocean-66's ghost row, as exchange_ghosts sends it
    transport = FrameTransport(2)
    try:
        wfd, rfd = transport.fds(0, 1)[1], transport.fds(1, 0)[0]
        dec = transport.link(1, 0).dec

        def one_pass() -> float:
            t0 = time.process_time()
            for step in range(iters):
                row = np.arange(size, dtype=np.float64)
                chunks = transport.encode(1, TAG_PKT, 1, step, 0,
                                          *encode_packets([Packet(
                                              src=0, dst=1, seq=0, h=size,
                                              payload=("gt", 0, row))]))
                os.writev(wfd, chunks)
                (frame,) = dec.feed(os.read(rfd, 1 << 16))
                (pkt,) = transport.open(1, frame).packets(1)
            return time.process_time() - t0

        one_pass()  # warm
        cpu = min(one_pass() for _ in range(repeats))
    finally:
        transport.close()
    return {"array_bytes": size * 8, "frames": iters,
            "us_per_frame": round(cpu / iters * 1e6, 2)}


#: From the in-band cut up to where a frame no longer fits a pipe.
LADDER_BYTES = (2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, (64 << 10) - 8)


def bench_halo_ladder(steps: int, *, repeats: int) -> list[dict]:
    """One boundary carrying 2-64 KiB arrays; every cell is
    min-of-``repeats`` on one warm pool per p."""
    rows = []
    for nprocs in (2, 4):
        with ProcessBackend.pool(nprocs) as backend:
            for narrays in (1, 16):
                for nbytes in LADDER_BYTES:
                    shape = (narrays, nbytes // 8)
                    backend.run(exchange_program, nprocs,
                                args=(4, *shape))  # warm blocks + regions
                    hits = backend.health().zerocopy_hits
                    row = {"nprocs": nprocs, "narrays": narrays,
                           "array_bytes": nbytes}
                    for sync in ("strict", "relaxed"):
                        wall = min(_time_run(backend, exchange_program,
                                             nprocs, (steps, *shape),
                                             sync=sync)
                                   for _ in range(repeats))
                        row[f"{sync}_us_per_boundary"] = round(
                            wall / steps * 1e6, 1)
                    row["zerocopy_hits"] = \
                        backend.health().zerocopy_hits - hits
                    rows.append(row)
    return rows


def bench_memcpy(array_bytes: int, *, repeats: int) -> dict:
    """Single-process copy bandwidth over one ``numpy-large`` buffer.

    This is the fastest any delivery path could possibly move the
    payload (one memcpy, no pickling, no process boundary) — the number
    the zero-copy data plane is chasing.  Reported in the same payload
    MB/s units as the exchange scenarios.
    """
    src = np.random.default_rng(0).standard_normal(array_bytes // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # pre-fault both buffers
    iters = max(4, min(512, (256 << 20) // array_bytes))
    walls = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(iters):
            np.copyto(dst, src)
        walls.append(time.perf_counter() - t0)
    wall = min(walls)
    return {
        "array_bytes": array_bytes, "iters": iters,
        "wall_s": round(wall, 4),
        "mb_per_s": round(array_bytes * iters / 1e6 / wall, 2),
    }


def bench_pool(nprocs: int, nruns: int) -> dict:
    """Fixed per-run cost: fresh forks each run vs. one persistent pool."""
    fresh = []
    for _ in range(nruns):
        backend = ProcessBackend()
        fresh.append(_time_run(backend, trivial_program, nprocs, ()))
    out = {
        "nprocs": nprocs, "runs": nruns,
        "fresh_ms_per_run": round(1e3 * statistics.median(fresh), 3),
    }
    if hasattr(ProcessBackend, "pool"):
        with ProcessBackend.pool(nprocs) as backend:
            backend.run(trivial_program, nprocs)  # warm the workers
            pooled = [_time_run(backend, trivial_program, nprocs, ())
                      for _ in range(nruns)]
        out["pooled_ms_per_run"] = round(1e3 * statistics.median(pooled), 3)
        out["amortization_x"] = round(
            statistics.median(fresh) / statistics.median(pooled), 2)
    else:
        out["pooled_ms_per_run"] = None
    return out


def bench_args(nprocs: int, narrays: int, array_bytes: int,
               *, nruns: int) -> dict:
    """Per-run cost of dispatching large arguments to a warm pool.

    The body does nothing, so the wall is dispatch + result collection;
    ``mb_per_s`` counts the argument bytes once (however many workers
    read them), which is what a floor on dispatch needs.
    """
    arrays = tuple(np.random.default_rng(i).standard_normal(array_bytes // 8)
                   for i in range(narrays))
    with ProcessBackend.pool(nprocs) as backend:
        backend.run(noop_program, nprocs, args=arrays)  # warm workers + arena
        walls = [_time_run(backend, noop_program, nprocs, arrays)
                 for _ in range(nruns)]
    wall = statistics.median(walls)
    return {
        "nprocs": nprocs, "runs": nruns, "narrays": narrays,
        "array_bytes": array_bytes,
        "ms_per_run": round(1e3 * wall, 3),
        "mb_per_s": round(narrays * array_bytes / 1e6 / wall, 2),
    }


#: Most minor page faults the parent may take per ``results`` run.
RESULT_FAULTS_MAX = 100


def bench_results(nprocs: int, *, nruns: int, n: int = 576 * 576) -> dict:
    """Per-run cost of the result path: each rank of a warm pool
    returns one ``n``-float64 array, and the parent reads an element of
    each and lets the results go before the next run, as Cannon's
    driver does once it has assembled C."""
    with ProcessBackend.pool(nprocs) as backend:
        for _ in range(3):  # warm: workers, and the regions results take
            backend.run(block_program, nprocs, args=(n,))
        faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        walls = []
        for _ in range(nruns):
            t0 = time.perf_counter()
            results = backend.run(block_program, nprocs, args=(n,)).results
            if [float(r[-1]) for r in results] != list(range(nprocs)):
                raise RuntimeError(f"wrong results: {results}")
            del results
            walls.append(time.perf_counter() - t0)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0
    wall = statistics.median(walls)
    return {
        "nprocs": nprocs, "runs": nruns, "array_bytes": n * 8,
        "ms_per_run": round(1e3 * wall, 3),
        "mb_per_s": round(nprocs * n * 8 / 1e6 / wall, 2),
        "parent_minflt_per_run": round(faults / nruns, 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="small sizes, 1 repeat (CI smoke)")
    parser.add_argument("--label", default=None,
                        help="snapshot name in the output JSON")
    parser.add_argument("--output", default=None,
                        help="JSON file to merge this snapshot into")
    parser.add_argument("--floor", action="append", default=[],
                        metavar="SCENARIO=MBPS",
                        help="fail (exit 1) when SCENARIO lands below MBPS "
                             "mb_per_s; repeatable")
    parser.add_argument("--check-leaks", action="store_true",
                        help="fail (exit 1) when the run leaves new "
                             "repro-zc-* segments in /dev/shm")
    args = parser.parse_args(argv)

    leaks_before = set(scan_orphans()) if (
        args.check_leaks and scan_orphans is not None) else set()

    # Two repeats even in quick mode: min() then reports a warm run.  A
    # single repeat measures the first post-warm-up run, which on a
    # shared CI box still pays page-fault and frequency-ramp noise worth
    # 2x and more — useless under a bandwidth floor.
    repeats = 2 if args.quick else 3
    p = 4
    scenarios = {}

    if hasattr(ProcessBackend, "pool"):
        # First: the larger buffers the other scenarios free in this
        # process raise glibc's trim threshold, after which even a
        # copy-out would reuse warm heap pages; Cannon's driver runs in
        # the state this one sees.
        scenarios["results"] = bench_results(p, nruns=6 if args.quick else 20)
        print(f"{'results':14s} "
              f"{scenarios['results']['mb_per_s']:10.1f} MB/s "
              f"({scenarios['results']['ms_per_run']:.1f} ms/run, "
              f"{scenarios['results']['parent_minflt_per_run']:.0f} parent "
              f"faults/run returning {p} x 2.65 MB)")

    if args.quick:
        # numpy-large keeps the full-mode 4 MiB arrays (fewer steps): at
        # 64 KiB the scenario is latency-bound and says nothing about
        # the data plane, which would make a CI bandwidth floor on it
        # meaningless.
        shapes = {"numpy-large": (2, 2, 1 << 19), "numpy-halo": (2, 16, 1 << 11)}
    else:
        shapes = {"numpy-large": (8, 2, 1 << 19), "numpy-halo": (8, 32, 1 << 13)}
    for name, (steps, narrays, size) in shapes.items():
        scenarios[name] = bench_exchange(p, steps, narrays, size,
                                         repeats=repeats,
                                         backend_name="processes")
        print(f"{name:14s} {scenarios[name]['mb_per_s']:10.1f} MB/s "
              f"{scenarios[name]['packets_per_s']:12.0f} pkt/s "
              f"({scenarios[name]['wall_s']:.3f}s wall)")

    memcpy = bench_memcpy(shapes["numpy-large"][2] * 8, repeats=repeats)
    scenarios["memcpy-baseline"] = memcpy
    fraction = scenarios["numpy-large"]["mb_per_s"] / memcpy["mb_per_s"]
    scenarios["numpy-large"]["memcpy_fraction"] = round(fraction, 3)
    print(f"{'memcpy-baseline':14s} {memcpy['mb_per_s']:10.1f} MB/s "
          f"(numpy-large reaches {100 * fraction:.1f}% of the copy ceiling)")

    if TcpBackend is not None:
        steps, narrays, size = (2, 8, 1 << 11) if args.quick \
            else (8, 16, 1 << 13)
        scenarios["tcp-localhost"] = bench_exchange(
            p, steps, narrays, size, repeats=repeats, backend_name="tcp")
        print(f"{'tcp-localhost':14s} "
              f"{scenarios['tcp-localhost']['mb_per_s']:10.1f} MB/s "
              f"{scenarios['tcp-localhost']['packets_per_s']:12.0f} pkt/s "
              f"({scenarios['tcp-localhost']['wall_s']:.3f}s wall)")

    small = (2, 100) if args.quick else (4, 500)
    scenarios["small-objects"] = bench_small(p, *small, repeats=repeats)
    print(f"{'small-objects':14s} {'':10s} "
          f"{scenarios['small-objects']['packets_per_s']:12.0f} pkt/s "
          f"({scenarios['small-objects']['wall_s']:.3f}s wall)")

    if hasattr(ProcessBackend, "pool"):
        scenarios["halo-small"] = bench_halo_small(
            500 if args.quick else 2000, repeats=repeats)
        print(f"{'halo-small':14s} strict "
              f"{scenarios['halo-small']['strict_us_per_boundary']:.1f} "
              f"us/boundary, relaxed "
              f"{scenarios['halo-small']['relaxed_us_per_boundary']:.1f} "
              f"us/boundary (528 B per peer)")

    # Many short passes: the minimum is the pass nothing preempted.
    scenarios["one-frame"] = bench_one_frame(
        1000, repeats=10 if args.quick else 40)
    print(f"{'one-frame':14s} "
          f"{scenarios['one-frame']['us_per_frame']:.1f} us/frame CPU, "
          f"send to decode (528 B row, in-process)")

    if hasattr(ProcessBackend, "pool") and not args.quick:
        scenarios["halo-ladder"] = bench_halo_ladder(200, repeats=5)
        print(f"{'halo-ladder':14s} us/boundary, strict (relaxed)")
        for row in scenarios["halo-ladder"]:
            print(f"  p={row['nprocs']} x{row['narrays']:<2d} "
                  f"{row['array_bytes']:6d} B  "
                  f"{row['strict_us_per_boundary']:7.1f} "
                  f"({row['relaxed_us_per_boundary']:7.1f})")

    scenarios["pool"] = bench_pool(p, nruns=4 if args.quick else 12)
    pooled = scenarios["pool"]["pooled_ms_per_run"]
    print(f"{'pool':14s} fresh {scenarios['pool']['fresh_ms_per_run']:.1f} "
          f"ms/run, pooled "
          f"{'n/a' if pooled is None else f'{pooled:.1f} ms/run'}")

    if hasattr(ProcessBackend, "pool"):
        scenarios["args-large"] = bench_args(
            p, 2, 8 << 20, nruns=6 if args.quick else 20)
        print(f"{'args-large':14s} "
              f"{scenarios['args-large']['mb_per_s']:10.1f} MB/s "
              f"({scenarios['args-large']['ms_per_run']:.1f} ms/run "
              f"dispatching 2 x 8 MiB)")

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

    failed = False
    per_frame = scenarios["one-frame"]["us_per_frame"]
    if per_frame > ONE_FRAME_US_MAX:
        print(f"CEILING FAIL: one-frame costs {per_frame:.1f} us of CPU per "
              f"frame, above {ONE_FRAME_US_MAX}: the codec's fixed cost?")
        failed = True
    faults = scenarios.get("results", {}).get("parent_minflt_per_run")
    if faults is not None and faults > RESULT_FAULTS_MAX:
        print(f"FAULT FAIL: results cost the parent {faults:.0f} minor "
              f"faults per run, above {RESULT_FAULTS_MAX}: a copy-out?")
        failed = True
    for spec in args.floor:
        name, _, mbps = spec.partition("=")
        got = scenarios.get(name, {}).get("mb_per_s")
        if got is None:
            print(f"FLOOR FAIL: scenario {name!r} not measured")
            failed = True
        elif got < float(mbps):
            print(f"FLOOR FAIL: {name} at {got:.1f} MB/s "
                  f"is below the floor of {float(mbps):.1f} MB/s")
            failed = True
        else:
            print(f"floor ok: {name} at {got:.1f} MB/s >= {float(mbps):.1f}")
    if args.check_leaks:
        if scan_orphans is None:
            print("leak check skipped: no zero-copy data plane")
        else:
            leaked = sorted(set(scan_orphans()) - leaks_before)
            if leaked:
                print(f"LEAK FAIL: {len(leaked)} orphaned /dev/shm "
                      f"segment(s): {', '.join(leaked)}")
                failed = True
            else:
                print("leak check ok: no orphaned /dev/shm segments")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
