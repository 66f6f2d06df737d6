"""Command-line entry point: regenerate any paper table on demand.

Usage::

    python -m repro.harness ocean 130          # one (app, size) sweep
    python -m repro.harness mst                # all runnable sizes
    python -m repro.harness --list             # what can be run

Prints the Appendix-C-style table (ours next to the paper's).  The same
sweeps, with shape assertions, live in ``benchmarks/``.

The TCP launcher (the paper's PC-LAN platform, Appendix B.3)::

    # all ranks on this machine, over real loopback sockets:
    python -m repro.harness launch-tcp --nprocs 4 ocean 66

    # one rank per machine; run once per host with its own --rank:
    python -m repro.harness launch-tcp --nprocs 4 --rank 0 \\
        --coordinator pc0:47710 ocean 66        # on pc0
    python -m repro.harness launch-tcp --nprocs 4 --rank 1 \\
        --coordinator pc0:47710 ocean 66        # on pc1, ... etc.

Every invocation runs the same program (SPMD); rank 0's machine prints
the result.  See README "Running across machines".

Checkpointed, supervised runs (crash recovery, DESIGN "Recovery
semantics")::

    python -m repro.harness run ocean 66 --backend processes \\
        --nprocs 4 --checkpoint-every 1 --checkpoint-dir /tmp/ckpt \\
        --retries 2 -v

    # after a crash that exhausted the retry budget, resume in place:
    python -m repro.harness run ocean 66 --backend processes \\
        --nprocs 4 --checkpoint-every 1 --checkpoint-dir /tmp/ckpt \\
        --retries 2 --resume

Serving BSP jobs (the ``repro.service`` gateway; README "Serving BSP
jobs")::

    python -m repro.harness serve --fleet processes:4x2   # terminal 1
    python -m repro.harness submit ocean 66 --nprocs 4    # terminal 2
    python -m repro.harness status                        # all jobs
    python -m repro.harness cancel j7                     # if still queued
"""

from __future__ import annotations

import argparse
import sys

from .paperdata import ALL_TABLES
from .report import appendix_table, evaluate_app, w_profile_report
from .runner import APP_SIZES, run_app, runnable_sizes


def _launch_tcp(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness launch-tcp",
        description="Run one paper app on the TCP (PC-LAN) backend.",
    )
    parser.add_argument("app", choices=sorted(ALL_TABLES))
    parser.add_argument("size", help="paper size label, e.g. 66")
    parser.add_argument("--nprocs", type=int, required=True,
                        help="total number of BSP processors (= ranks)")
    parser.add_argument("--rank", type=int, default=None,
                        help="this machine's rank; omit to fork every "
                             "rank locally over loopback")
    parser.add_argument("--coordinator", default="127.0.0.1:47710",
                        help="rank 0's host:port (multi-host mode)")
    parser.add_argument("--bind-host", default=None,
                        help="interface this rank's listener binds "
                             "(multi-host mode; default: coordinator host)")
    parser.add_argument("--token", type=int, default=0,
                        help="shared launch token; reject strangers' dials")
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="rendezvous / join timeout in seconds")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sync", default="strict",
                        choices=["strict", "relaxed", "elide"],
                        help="synchronization mode (identical results "
                             "and ledgers; cheaper barriers)")
    parser.add_argument("--generation", type=int, default=0,
                        help="mesh generation to rendezvous at; a rank "
                             "relaunched after a remesh must name the "
                             "epoch the survivors advanced to")
    parser.add_argument("--max-heals", type=int, default=8,
                        help="remesh attempts after a peer loss before "
                             "giving up (multi-host mode)")
    args = parser.parse_args(argv)

    if args.size not in APP_SIZES[args.app]:
        print(f"unknown size {args.size!r} for {args.app}; "
              f"known: {list(APP_SIZES[args.app])}", file=sys.stderr)
        return 2

    from ..backends.tcp import TcpBackend, TcpSpmdBackend
    from ..backends.tcp_launch import parse_hostport
    from ..core.errors import RemeshError, SynchronizationError

    if args.rank is None:
        backend = TcpBackend(join_timeout=args.timeout)
        rank = 0
    else:
        coordinator = parse_hostport(args.coordinator, 47710)
        backend = TcpSpmdBackend(
            args.rank, args.nprocs, coordinator,
            token=args.token, bind_host=args.bind_host,
            timeout=args.timeout, generation=args.generation,
        )
        rank = args.rank
    try:
        heals_left = args.max_heals if args.rank is not None else 0
        while True:
            try:
                stats = run_app(args.app, args.size, args.nprocs,
                                seed=args.seed, backend=backend,
                                sync=args.sync)
                break
            except SynchronizationError as exc:
                # Multi-host heal loop: a lost peer dirties the mesh;
                # every surviving rank re-rendezvouses at the next
                # generation and the operator relaunches the dead rank
                # with --generation <new epoch>.
                if heals_left <= 0:
                    raise
                heals_left -= 1
                print(f"[rank {rank}] peer lost ({exc}); remeshing "
                      f"({heals_left} heal(s) left)", file=sys.stderr)
                try:
                    gen = backend.remesh()
                except RemeshError:
                    raise exc from None
                print(f"[rank {rank}] remeshed at generation {gen}",
                      file=sys.stderr)
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
    if rank == 0:
        print(f"{args.app}/{args.size} on tcp, p={args.nprocs}: "
              f"S={stats.S} H={stats.H} W={stats.W:.4f}s")
    return 0


def _run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness run",
        description="Run one paper app on a supervised backend, "
                    "optionally with superstep checkpointing.",
    )
    parser.add_argument("app", choices=sorted(ALL_TABLES))
    parser.add_argument("size", help="paper size label, e.g. 66")
    parser.add_argument("--backend", default="processes",
                        choices=["simulator", "processes", "tcp"])
    parser.add_argument("--nprocs", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--retries", type=int, default=0,
                        help="crash/deadlock retry budget for the run")
    parser.add_argument("--checkpoint-every", type=int, default=None,
                        metavar="K",
                        help="snapshot every K supersteps (enables "
                             "checkpointing; requires --checkpoint-dir "
                             "on multiprocess backends)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="on-disk checkpoint store root")
    parser.add_argument("--resume", action="store_true",
                        help="resume from the newest complete checkpoint "
                             "instead of clearing the store first")
    parser.add_argument("--sync", default="strict",
                        choices=["strict", "relaxed", "elide"],
                        help="synchronization mode (identical results "
                             "and ledgers; cheaper barriers)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output: one JSON object "
                             "with the (S, H, W) ledger, its digest, "
                             "wall time, and ok/error — exit 0 on "
                             "success, 1 on a failed run; scripted "
                             "clients parse this instead of scraping "
                             "the human line")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="log supervision state (pool generation, "
                             "restarts, heal kinds, link repair "
                             "counters, last fault) after the run")
    args = parser.parse_args(argv)

    if args.size not in APP_SIZES[args.app]:
        print(f"unknown size {args.size!r} for {args.app}; "
              f"known: {list(APP_SIZES[args.app])}", file=sys.stderr)
        return 2

    checkpoint = None
    if args.checkpoint_every is not None or args.resume:
        from ..checkpoint import (
            CheckpointConfig,
            DiskCheckpointStore,
            MemoryCheckpointStore,
        )
        if args.checkpoint_dir is not None:
            store = DiskCheckpointStore(args.checkpoint_dir)
        else:
            store = MemoryCheckpointStore()
        checkpoint = CheckpointConfig(
            store=store,
            every=args.checkpoint_every or 1,
            run_key=f"{args.app}-{args.size}-p{args.nprocs}",
            resume=args.resume,
        )

    if args.backend == "processes":
        from ..backends.processes import ProcessBackend
        backend = ProcessBackend.pool(args.nprocs)
    elif args.backend == "tcp":
        from ..backends.tcp import TcpBackend
        backend = TcpBackend.pool(args.nprocs)
    else:
        backend = "simulator"
    import time as _time

    from ..core.errors import BspError
    t0 = _time.perf_counter()
    try:
        stats = run_app(args.app, args.size, args.nprocs,
                        seed=args.seed, backend=backend,
                        checkpoint=checkpoint, retries=args.retries,
                        sync=args.sync)
    except BspError as exc:
        if not args.json:
            raise
        # Machine-readable failure: same shape as success, ok=false,
        # typed error, exit code 1 — scripted callers branch on either.
        import json as _json
        print(_json.dumps({
            "ok": False,
            "app": args.app, "size": args.size, "backend": args.backend,
            "nprocs": args.nprocs, "sync": args.sync,
            "error": {"error": type(exc).__name__, "message": str(exc)},
            "wall_seconds": _time.perf_counter() - t0,
        }, indent=2))
        return 1
    finally:
        if args.verbose and not isinstance(backend, str):
            health = backend.health()
            if health is not None:
                print(f"[supervision] generation={health.generation} "
                      f"restarts={health.restarts} "
                      f"restarts_left={health.restarts_left} "
                      f"alive={health.alive}/{health.capacity}",
                      file=sys.stderr)
                if health.heal_kinds:
                    print("[supervision] heals: "
                          + ", ".join(health.heal_kinds), file=sys.stderr)
                if health.retransmits or health.reconnects:
                    print(f"[supervision] link repair: "
                          f"retransmits={health.retransmits} "
                          f"reconnects={health.reconnects}",
                          file=sys.stderr)
                if health.last_fault:
                    print(f"[supervision] last fault: {health.last_fault}",
                          file=sys.stderr)
        if not isinstance(backend, str):
            backend.close()
    if args.json:
        import json as _json

        from ..service.jobs import stats_payload
        payload = stats_payload(stats, _time.perf_counter() - t0)
        payload.update({"ok": True, "app": args.app, "size": args.size,
                        "backend": args.backend, "nprocs": args.nprocs,
                        "sync": args.sync})
        print(_json.dumps(payload, indent=2))
        return 0
    print(f"{args.app}/{args.size} on {args.backend}, p={args.nprocs}: "
          f"S={stats.S} H={stats.H} W={stats.W:.4f}s")
    return 0


def _serve(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness serve",
        description="Serve BSP jobs over TCP from a warm pool fleet.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=47780,
                        help="listen port (0 = pick a free one)")
    parser.add_argument("--fleet", action="append", default=None,
                        metavar="BACKEND:P[xN]",
                        help="warm N pools of P workers on BACKEND, e.g. "
                             "processes:4x2; repeatable, default "
                             "processes:4x2")
    parser.add_argument("--max-queued", type=int, default=256,
                        help="admission queue bound; overflow is a typed "
                             "rejection, not latency")
    parser.add_argument("--max-in-flight", type=int, default=None,
                        help="per-tenant cap on simultaneously running "
                             "jobs")
    parser.add_argument("--weight", action="append", default=[],
                        metavar="TENANT=W",
                        help="fair-share weight for a tenant (default 1)")
    parser.add_argument("--checkpoint-root", default=None,
                        help="service-managed on-disk checkpoint store "
                             "(default: private tempdir, or "
                             "<journal-dir>/checkpoints with --journal-dir)")
    parser.add_argument("--journal-dir", default=None,
                        help="durable job journal root; on startup an "
                             "existing journal is replayed — queued jobs "
                             "re-admitted in fair order, interrupted jobs "
                             "resumed from their last checkpoint")
    parser.add_argument("--probe-interval", type=float, default=1.0,
                        help="fleet health probe period in seconds "
                             "(0 disables probing)")
    parser.add_argument("--quarantine-after", type=int, default=2,
                        help="consecutive failed probes before a pool "
                             "slot is quarantined")
    parser.add_argument("--restart-burst", type=int, default=3,
                        help="worker restarts between probes that count "
                             "as a storm (immediate quarantine)")
    parser.add_argument("--crash-after-journal", type=int, default=None,
                        metavar="SEQ",
                        help="test hook: SIGKILL this gateway right "
                             "after journal record SEQ lands on disk")
    parser.add_argument("--tear-journal-at", type=int, default=None,
                        metavar="SEQ",
                        help="test hook: tear journal record SEQ in "
                             "half after writing it (simulated torn "
                             "tail)")
    args = parser.parse_args(argv)

    import asyncio

    from ..service import (
        FleetSpec,
        GatewayConfig,
        SchedulerConfig,
        ServiceGateway,
        parse_fleet_spec,
    )
    weights = {}
    for item in args.weight:
        tenant, sep, weight = item.partition("=")
        if not sep:
            print(f"--weight takes TENANT=W, got {item!r}", file=sys.stderr)
            return 2
        weights[tenant] = float(weight)
    fleet = tuple(parse_fleet_spec(text)
                  for text in (args.fleet or ["processes:4x2"]))
    if args.crash_after_journal is not None or args.tear_journal_at is not None:
        from .. import faults
        plan = []
        if args.crash_after_journal is not None:
            plan.append(faults.Fault(faults.GATEWAY_CRASH, 0,
                                     args.crash_after_journal))
        if args.tear_journal_at is not None:
            plan.append(faults.Fault(faults.JOURNAL_TORN, 0,
                                     args.tear_journal_at))
        faults.install(faults.FaultPlan(plan))
    config = GatewayConfig(
        host=args.host, port=args.port, fleet=fleet,
        scheduler=SchedulerConfig(max_queued=args.max_queued,
                                  max_in_flight=args.max_in_flight,
                                  weights=weights),
        checkpoint_root=args.checkpoint_root,
        journal_dir=args.journal_dir,
        probe_interval=args.probe_interval,
        quarantine_after=args.quarantine_after,
        restart_burst=args.restart_burst,
    )

    async def body() -> None:
        gateway = ServiceGateway(config)
        await gateway.start()
        fleet_desc = ", ".join(
            f"{spec.backend}:{spec.nprocs}x{spec.pools}" for spec in fleet)
        if gateway.journal is not None:
            print(f"[serve] journal: replayed={gateway.journal_replays} "
                  f"damaged={gateway.journal_damaged} "
                  f"orphans_reaped={gateway.orphans_reaped}",
                  file=sys.stderr)
        print(f"[serve] listening on {gateway.host}:{gateway.port} "
              f"fleet=[{fleet_desc}]", file=sys.stderr)
        await gateway.serve_forever()

    try:
        asyncio.run(body())
    except KeyboardInterrupt:
        print("[serve] interrupted; fleet shut down", file=sys.stderr)
    return 0


#: Exit code for "no gateway is listening there" — distinct from 1
#: (the request reached a gateway and failed), so retry wrappers can
#: tell a bouncing gateway from a genuinely failed job.
_EX_UNAVAILABLE = 3


def _client_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=47780)
    parser.add_argument("--tenant", default="default")


def _submit(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness submit",
        description="Submit one job to a running gateway and stream its "
                    "lifecycle.",
    )
    parser.add_argument("app", help="paper app (ocean, mst, ...) or a "
                                    "builtin micro job (noop, spin)")
    parser.add_argument("size", help="paper size label (or superstep "
                                     "count for builtins)")
    _client_args(parser)
    parser.add_argument("--nprocs", type=int, default=4)
    parser.add_argument("--backend", default="processes")
    parser.add_argument("--sync", default="strict",
                        choices=["strict", "relaxed", "elide"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--retries", type=int, default=0)
    parser.add_argument("--checkpoint-every", type=int, default=None)
    parser.add_argument("--key", default=None,
                        help="idempotency key: resubmitting the same key "
                             "re-attaches to the existing job (across "
                             "restarts of a journalled gateway) instead "
                             "of queuing a duplicate, and arms automatic "
                             "stream re-attach on a gateway bounce")
    parser.add_argument("--no-wait", action="store_true",
                        help="print the accepted record and return "
                             "without waiting for completion")
    args = parser.parse_args(argv)

    import json

    from ..core.errors import BspError, GatewayUnavailableError
    from ..service import ServiceClient
    try:
        with ServiceClient(args.host, args.port,
                           tenant=args.tenant) as client:
            outcome = client.submit(
                app=args.app, size=args.size, nprocs=args.nprocs,
                backend=args.backend, sync=args.sync, seed=args.seed,
                retries=args.retries,
                checkpoint_every=args.checkpoint_every,
                key=args.key, wait=False)
            if args.no_wait:
                outcome.close()
                print(json.dumps(outcome.job, indent=2))
                return 0
            final = outcome.wait(
                on_state=lambda job: print(
                    f"[{job['job_id']}] {job['state']}", file=sys.stderr))
    except GatewayUnavailableError as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return _EX_UNAVAILABLE
    except (BspError, ConnectionError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final, indent=2))
    return 0 if final["state"] == "DONE" else 1


def _status(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness status",
        description="Query a running gateway: one job, or service health.",
    )
    parser.add_argument("job_id", nargs="?", default=None)
    _client_args(parser)
    parser.add_argument("--json", action="store_true",
                        help="full machine-readable health dump, "
                             "including per-fleet-slot health (probe "
                             "failures, quarantined pools, journal "
                             "replay counters)")
    args = parser.parse_args(argv)

    import json

    from ..core.errors import BspError, GatewayUnavailableError
    from ..service import ServiceClient
    try:
        with ServiceClient(args.host, args.port,
                           tenant=args.tenant) as client:
            if args.job_id is not None:
                print(json.dumps(client.status(args.job_id), indent=2))
            else:
                health = client.health()
                if not args.json:
                    # Summary view: drop the per-slot detail, keep the
                    # fleet-level counters (quarantines included).
                    health = dict(health)
                    health["fleet"] = [
                        {k: slot[k]
                         for k in ("slot", "busy_job", "jobs_run",
                                   "recycles", "quarantined")
                         if k in slot}
                        for slot in health.get("fleet", [])]
                print(json.dumps(health, indent=2))
    except GatewayUnavailableError as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return _EX_UNAVAILABLE
    except (BspError, ConnectionError) as exc:
        print(f"status failed: {exc}", file=sys.stderr)
        return 1
    return 0


def _cancel(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness cancel",
        description="Cancel a QUEUED job on a running gateway.",
    )
    parser.add_argument("job_id")
    _client_args(parser)
    args = parser.parse_args(argv)

    import json

    from ..core.errors import BspError, GatewayUnavailableError
    from ..service import ServiceClient
    try:
        with ServiceClient(args.host, args.port,
                           tenant=args.tenant) as client:
            print(json.dumps(client.cancel(args.job_id), indent=2))
    except GatewayUnavailableError as exc:
        print(f"cancel failed: {exc}", file=sys.stderr)
        return _EX_UNAVAILABLE
    except (BspError, ConnectionError) as exc:
        print(f"cancel failed: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "launch-tcp":
        return _launch_tcp(argv[1:])
    if argv and argv[0] == "run":
        return _run(argv[1:])
    if argv and argv[0] == "serve":
        return _serve(argv[1:])
    if argv and argv[0] == "submit":
        return _submit(argv[1:])
    if argv and argv[0] == "status":
        return _status(argv[1:])
    if argv and argv[0] == "cancel":
        return _cancel(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's Appendix C tables.",
    )
    parser.add_argument("app", nargs="?", choices=sorted(ALL_TABLES))
    parser.add_argument("size", nargs="?", help="paper size label, e.g. 130")
    parser.add_argument("--list", action="store_true",
                        help="list apps and runnable sizes")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile-w", action="store_true",
                        help="also print per-superstep measured local-"
                             "compute seconds beside the predicted W")
    parser.add_argument("--profile-limit", type=int, default=20,
                        help="supersteps to show per --profile-w table")
    args = parser.parse_args(argv)

    if args.list or args.app is None:
        for app in sorted(APP_SIZES):
            sizes = runnable_sizes(app)
            extra = sorted(set(APP_SIZES[app]) - set(sizes))
            note = f" (+{', '.join(extra)} with REPRO_FULL=1)" if extra else ""
            print(f"{app:>8}: {', '.join(sizes)}{note}")
        return 0

    sizes = [args.size] if args.size else runnable_sizes(args.app)
    for size in sizes:
        if size not in APP_SIZES[args.app]:
            print(f"unknown size {size!r} for {args.app}; "
                  f"known: {list(APP_SIZES[args.app])}", file=sys.stderr)
            return 2
        table = evaluate_app(args.app, size, seed=args.seed)
        print(appendix_table(table))
        print()
        if args.profile_w:
            print(w_profile_report(table, limit=args.profile_limit))
            print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
