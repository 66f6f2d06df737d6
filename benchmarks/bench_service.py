"""Measure the BSP service: throughput, latency, overhead, scaling.

Four measurements against a live gateway serving warm process pools:

* ``sustained_jobs_per_s`` — trivial p=4 jobs (``noop``: one barrier)
  submitted by two tenants against a 4-pool fleet; the headline is
  completed jobs per wall second, admission to terminal state.
* ``latency_ms`` — p50/p99 of the full client-observed job lifecycle
  (connect, submit, stream to DONE) for serial submissions, and again
  under two concurrent tenants.
* ``gateway_overhead_ms`` — serial p50 latency minus the cost of the
  same program on a bare warm ``BspPool.run()``: what the protocol,
  scheduler, and dispatch layers add per job.
* ``scaling`` — the same submission load against 1-, 2- and 4-pool
  fleets.  On a multi-core host throughput rises with pool count; on a
  single-core box the pools time-share the core, so going from 2 to 4
  pools buys nothing and costs some scheduler churn.  The enforced
  floors are what any box can honestly promise: every multi-pool row
  beats the 1-pool row, and adding pools never *collapses* throughput
  (``thr[k+1] >= 0.75 * thr[k]``).

Acceptance floors (enforced, nonzero exit):

* ``sustained_jobs_per_s >= 50``  (``>= 25`` under ``--quick``);
* ``gateway_overhead_ms  <= 2.49`` (1.5 x the recorded reading, so a
  per-request fixed cost such as the old dial cannot drift back);
* the two scaling floors across the 1/2/4-pool rows as above.

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py --quick
    PYTHONPATH=src python benchmarks/bench_service.py \
        --label service --output BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import threading
import time

from repro.backends.processes import BspPool
from repro.service import (
    FleetSpec,
    GatewayConfig,
    SchedulerConfig,
    ServiceClient,
    serve_in_background,
)
from repro.service.jobs import noop_program

NPROCS = 4
JOB = dict(app="noop", size="1", nprocs=NPROCS, backend="processes")


def percentile(samples: list[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def _config(pools: int) -> GatewayConfig:
    return GatewayConfig(
        fleet=(FleetSpec(backend="processes", nprocs=NPROCS, pools=pools),),
        scheduler=SchedulerConfig(max_queued=4096))


def bench_throughput(pools: int, jobs: int) -> dict:
    """Two tenants flood ``jobs`` trivial jobs; wall time to drain all."""
    with serve_in_background(_config(pools)) as svc:
        clients = [ServiceClient(svc.host, svc.port, tenant=name)
                   for name in ("alice", "bob")]
        handles = []
        t0 = time.perf_counter()
        for index in range(jobs):
            handles.append(
                clients[index % 2].submit(**JOB, wait=False))
        finals = [handle.wait() for handle in handles]
        wall = time.perf_counter() - t0
    states = {final["state"] for final in finals}
    if states != {"DONE"}:
        raise AssertionError(f"throughput jobs not all DONE: {states}")
    return {
        "pools": pools,
        "jobs": jobs,
        "wall_s": round(wall, 4),
        "jobs_per_s": round(jobs / wall, 1),
    }


def bench_latency(pools: int, jobs: int, tenants: int) -> dict:
    """Client-observed submit→DONE lifecycle latency, p50/p99."""
    with serve_in_background(_config(pools)) as svc:
        samples: list[float] = []
        lock = threading.Lock()

        def tenant_loop(name: str) -> None:
            client = ServiceClient(svc.host, svc.port, tenant=name)
            local = []
            for _ in range(jobs):
                t0 = time.perf_counter()
                final = client.submit(**JOB)
                local.append(time.perf_counter() - t0)
                assert final["state"] == "DONE"
            with lock:
                samples.extend(local)

        threads = [threading.Thread(target=tenant_loop, args=(f"t{i}",))
                   for i in range(tenants)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    return {
        "pools": pools,
        "tenants": tenants,
        "jobs": len(samples),
        "p50_ms": round(percentile(samples, 0.50) * 1e3, 2),
        "p99_ms": round(percentile(samples, 0.99) * 1e3, 2),
    }


def bench_bare_pool(jobs: int) -> float:
    """p50 of the same program on a bare warm pool — no service layers."""
    samples = []
    with BspPool(NPROCS) as pool:
        pool.run(noop_program, NPROCS)  # warm the code path
        for _ in range(jobs):
            t0 = time.perf_counter()
            pool.run(noop_program, NPROCS)
            samples.append(time.perf_counter() - t0)
    return percentile(samples, 0.50) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller job counts (CI smoke); relaxed "
                             "throughput floor")
    parser.add_argument("--label", default=None,
                        help="snapshot name in the output JSON")
    parser.add_argument("--output", default=None,
                        help="JSON file to merge this snapshot into")
    args = parser.parse_args(argv)

    flood = 40 if args.quick else 120
    serial = 20 if args.quick else 60
    throughput_floor = 25.0 if args.quick else 50.0
    overhead_ceiling_ms = 2.49  # 1.5 x the BENCH_service.json reading (1.66)
    scaling_ratio_floor = 0.75

    scaling = [bench_throughput(pools, flood) for pools in (1, 2, 4)]
    headline = scaling[-1]
    serial_latency = bench_latency(pools=4, jobs=serial, tenants=1)
    tenant_latency = bench_latency(pools=4, jobs=serial // 2, tenants=2)
    bare_ms = bench_bare_pool(serial)
    overhead_ms = round(serial_latency["p50_ms"] - bare_ms, 2)

    failures = []
    print(f"{'pools':>5}  {'jobs':>5}  {'wall s':>8}  {'jobs/s':>8}")
    for row in scaling:
        print(f"{row['pools']:>5}  {row['jobs']:>5}  "
              f"{row['wall_s']:>8.3f}  {row['jobs_per_s']:>8.1f}")
    for prev, nxt in zip(scaling, scaling[1:]):
        if nxt["jobs_per_s"] < scaling_ratio_floor * prev["jobs_per_s"]:
            failures.append(
                f"throughput collapsed {prev['pools']}→{nxt['pools']} "
                f"pools: {prev['jobs_per_s']} → {nxt['jobs_per_s']} jobs/s")
    for row in scaling[1:]:
        if row["jobs_per_s"] < scaling[0]["jobs_per_s"]:
            failures.append(
                f"{row['pools']} pools ({row['jobs_per_s']} jobs/s) is "
                f"slower than a single pool "
                f"({scaling[0]['jobs_per_s']} jobs/s)")
    if headline["jobs_per_s"] < throughput_floor:
        failures.append(
            f"sustained {headline['jobs_per_s']} jobs/s on 4 pools is "
            f"below the {throughput_floor} floor")

    print(f"serial   p50 {serial_latency['p50_ms']:6.2f} ms  "
          f"p99 {serial_latency['p99_ms']:6.2f} ms")
    print(f"2-tenant p50 {tenant_latency['p50_ms']:6.2f} ms  "
          f"p99 {tenant_latency['p99_ms']:6.2f} ms")
    print(f"bare pool.run p50 {bare_ms:6.2f} ms  "
          f"-> gateway overhead {overhead_ms:+6.2f} ms/job")
    if overhead_ms > overhead_ceiling_ms:
        failures.append(
            f"gateway overhead {overhead_ms} ms/job exceeds the "
            f"{overhead_ceiling_ms} ms ceiling")

    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)

    snapshot = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "quick": args.quick,
        "floors": {
            "sustained_jobs_per_s": throughput_floor,
            "gateway_overhead_ms": overhead_ceiling_ms,
            "scaling_ratio": scaling_ratio_floor,
        },
        "sustained_jobs_per_s": headline["jobs_per_s"],
        "scaling": scaling,
        "latency_serial": serial_latency,
        "latency_two_tenants": tenant_latency,
        "bare_pool_p50_ms": round(bare_ms, 2),
        "gateway_overhead_ms": overhead_ms,
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
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
