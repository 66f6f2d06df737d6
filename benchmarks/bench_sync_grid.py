"""Strict against relaxed on the two stream fabrics: wall time and peak PSS.

The grid behind DESIGN "Synchronization modes": {processes, tcp} x
{strict, relaxed} on the ``halo-ladder`` shapes, ``numpy-large``, ocean
66 (2 time steps) and Cannon n = 144 and 1152, at p in {2, 4, 8}
(Cannon needs a square p, so it runs at p = 4 only).  One warm pool per
(fabric, p); every cell alternates the two modes run by run, so a
busy box slows both alike, and reports the median wall time with its
quartiles.  Peak PSS is taken in separate, untimed runs, each on a
fresh pool after one warm run in the same mode, so no other cell's or
mode's retained memory is billed to it: a thread sums the proportional
set size of this process and every descendant
(``/proc/<pid>/smaps_rollup``) every few milliseconds while the run is
in flight, and the cell keeps the largest sum.

Run it against any checkout of the library (``PYTHONPATH`` picks the
one measured)::

    PYTHONPATH=src python benchmarks/bench_sync_grid.py \
        --label grid --output BENCH_sync_grid.json

Where both modes run one round, the two columns coincide within their
spread; where they differ, the JSON says by how much in which cell.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "e2e"))

from bench_backend_comm import LADDER_BYTES, exchange_program  # noqa: E402
from bspbench import procfs  # noqa: E402

from repro.apps.matmul import cannon_matmul  # noqa: E402
from repro.apps.ocean import bsp_ocean  # noqa: E402
from repro.backends.processes import ProcessBackend  # noqa: E402
from repro.backends.tcp import TcpBackend  # noqa: E402

MODES = ("strict", "relaxed")
FABRICS = {"processes": ProcessBackend, "tcp": TcpBackend}
LADDER_STEPS = 40
LARGE_SHAPE = (2, 2, 1 << 19)  # bench_backend_comm's quick numpy-large
RUNS = 7  # timed runs per mode and cell, alternated


def _cells(p: int):
    """``(name, call(backend, sync))`` for every workload at ``p``."""
    for narrays in (1, 16):
        for nbytes in LADDER_BYTES:
            yield (f"halo-ladder {narrays}x{nbytes}",
                   lambda b, s, a=(LADDER_STEPS, narrays, nbytes // 8):
                   b.run(exchange_program, p, args=a, sync=s))
    yield ("numpy-large", lambda b, s: b.run(
        exchange_program, p, args=LARGE_SHAPE, sync=s))
    yield ("ocean 66", lambda b, s: bsp_ocean(66, 2, p, backend=b, sync=s))
    if p == 4:
        for n in (144, 1152):
            rng = np.random.default_rng(n)
            a, c = rng.standard_normal((n, n)), rng.standard_normal((n, n))
            yield (f"cannon {n}", lambda b, s, a=a, c=c:
                   cannon_matmul(a, c, p, backend=b, sync=s))


def _peak_pss(call) -> float:
    """Largest summed PSS of this process tree while ``call()`` runs."""
    root, peak, done = os.getpid(), [0.0], threading.Event()

    def sample():
        while not done.is_set():
            pids = [root, *procfs.descendants(root)]
            peak[0] = max(peak[0], procfs.pss_mb(pids))
            done.wait(0.005)

    sampler = threading.Thread(target=sample)
    sampler.start()
    try:
        call()
    finally:
        done.set()
        sampler.join()
    return peak[0]


def _fresh_peak_pss(fabric: str, p: int, call, mode: str) -> float:
    with FABRICS[fabric].pool(p) as backend:
        call(backend, mode)
        return _peak_pss(lambda: call(backend, mode))


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def measure(fabric: str, p: int) -> list[dict]:
    rows = []
    with FABRICS[fabric].pool(p) as backend:
        for name, call in _cells(p):
            call(backend, "strict")  # warm blocks, regions and streams
            walls: dict[str, list[float]] = {m: [] for m in MODES}
            for _ in range(RUNS):
                for mode in MODES:
                    t0 = time.perf_counter()
                    call(backend, mode)
                    walls[mode].append(time.perf_counter() - t0)
            row = {"fabric": fabric, "nprocs": p, "workload": name}
            for mode in MODES:
                q1, med, q3 = _quartiles(walls[mode])
                row[f"{mode}_ms"] = round(med * 1e3, 2)
                row[f"{mode}_iqr_ms"] = [round(q1 * 1e3, 2),
                                         round(q3 * 1e3, 2)]
            rows.append(row)
    # Sampled once the timing pool is gone: its idle ranks would count.
    for row, (_, call) in zip(rows, _cells(p)):
        for mode in MODES:
            row[f"{mode}_peak_pss_mb"] = round(
                _fresh_peak_pss(fabric, p, call, mode), 1)
        print(f"{fabric:9s} p={p} {row['workload']:24s} "
              f"strict {row['strict_ms']:9.2f} ms "
              f"{row['strict_peak_pss_mb']:7.1f} MB   "
              f"relaxed {row['relaxed_ms']:9.2f} ms "
              f"{row['relaxed_peak_pss_mb']:7.1f} MB", flush=True)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nprocs", type=int, nargs="+", default=[2, 4, 8])
    parser.add_argument("--fabric", nargs="+", default=list(FABRICS))
    parser.add_argument("--label", default="snapshot",
                        help="snapshot name in the output JSON")
    parser.add_argument("--output", default=None,
                        help="JSON file to merge this snapshot into")
    args = parser.parse_args(argv)
    rows = [row for fabric in args.fabric for p in args.nprocs
            for row in measure(fabric, p)]
    if args.output:
        try:
            with open(args.output) as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            doc = {}
        doc[args.label] = {"python": platform.python_version(),
                           "machine": platform.machine(),
                           "runs": RUNS, "rows": rows}
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
