"""Command line, passes and output of the end-to-end benchmark."""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any

from . import probes, workloads
from .protocol import (
    HERE,
    RESULTS,
    Incarnation,
    Session,
    end_to_end,
    fingerprint,
    load_spec,
    measure,
    tail,
)
from .tracer import PATH_ROWS, critical_path, spans

_clock = time.perf_counter

#: Incarnations and operations of the traced pass (each mode), and of the
#: ``--quick`` self-check.  The traced pass feeds per-layer rows only;
#: end-to-end metrics always come from the full untraced pass.
TRACE_K = 2
QUICK_K, QUICK_M = 1, 2


def _counts(workload, spec: dict[str, Any], seconds: float,
            quick: bool) -> tuple[int, int, float]:
    """(K, M, nominal seconds of one timed window) for this invocation."""
    if quick:
        return QUICK_K, QUICK_M, 60.0
    share = seconds / spec["run_seconds"]
    return workload.K, max(1, round(workload.M * share)), seconds / workload.K


def _outcome(passes: list[Incarnation]) -> tuple[int, int]:
    attempted = sum(inc.timed.attempted for inc in passes)
    failed = sum(inc.timed.failed for inc in passes)
    return attempted, failed


def _bookkeeping(session: Session, values: dict[str, float],
                 books: list[Incarnation], attempted: int, failed: int,
                 leaks: dict[str, int]) -> dict[str, float]:
    """The runner's own rows, printed by both passes; ``values`` is
    :func:`end_to_end` of ``books``."""
    samples = [d for inc in books for d in inc.timed.durations]
    tail_s, tail_n = tail(samples) if samples else (float("nan"), 0)
    return {
        "bench.failed_frac": failed / attempted,
        "bench.leaks": sum(leaks.values()),
        "bench.ops_per_s": values["ops_per_s"],
        "bench.raw_run_s": values["raw_run_s"],
        "bench.run_tail_s": tail_s, "bench.tail_samples": tail_n,
        "machine.ref_pair_s": statistics.fmean(session.ref.samples),
    }


def untraced_pass(session: Session, spec, name: str, seed: int,
                  seconds: float, quick: bool) -> dict[str, Any]:
    """The full pass: every end-to-end metric of one workload."""
    workload = workloads.build(name)
    before = session.residue()
    t0 = _clock()
    workload.prepare(seed)
    setup_once_s = _clock() - t0
    k, m, window_s = _counts(workload, spec, seconds, quick)
    passes = measure(session, workload, [False] * k, m, window_s)
    leaks = session.leaks(before)
    attempted, failed = _outcome(passes)
    e2e = end_to_end(session, setup_once_s, passes)
    return {
        "workload": name, "seed": seed, "attempted": attempted,
        "failed": failed, "leaks": leaks,
        "end_to_end": {m["name"]: e2e["values"][m["name"]]
                       for m in spec["end_to_end"]},
        "incarnations": e2e["incarnations"],
        "bookkeeping": _bookkeeping(session, e2e["values"], passes,
                                    attempted, failed, leaks),
    }


def traced_pass(session: Session, spec, name: str, seed: int,
                seconds: float, quick: bool) -> dict[str, Any]:
    """Per-layer rows of one workload: the outside-in trace of its
    application, beside an untraced pass of the same length, and every
    layer probe."""
    workload = workloads.build(name)
    subject = workload.trace_subject
    before = session.residue()
    subject.prepare(seed)
    k, m, window_s = _counts(subject, spec, seconds, quick)
    if not quick:
        # Half the operations of the full pass, over 2 x TRACE_K
        # incarnations; the other half of the run goes to the probes.
        k, m = TRACE_K, max(2, k * m // (4 * TRACE_K))
    passes = measure(session, subject, [False, True] * k, m, window_s)
    probe_rows, gateway = probes.run_all(session, seed, quick)
    leaks = session.leaks(before)
    attempted, failed = _outcome(passes + [gateway])
    if subject is workload:
        books = [inc for inc in passes if not inc.traced]
    else:
        # gateway-jobs: the trace describes the job's body on a bare
        # pool; the bookkeeping rows describe the jobs themselves.
        books = [gateway]
    rows = dict(probe_rows)
    rows.update(trace_rows(passes, probe_rows, subject))
    rows.update(_bookkeeping(
        session, end_to_end(session, 0.0, books)["values"], books,
        attempted, failed, leaks))
    write_trace(name, passes)
    return {"workload": name, "seed": seed, "attempted": attempted,
            "failed": failed, "leaks": leaks,
            "per_layer": {m["name"]: rows[m["name"]]
                          for m in spec["per_layer"]}}


def trace_rows(passes: list[Incarnation], probe_rows: dict[str, float],
               subject) -> dict[str, float]:
    """The 16 trace rows: the critical path of the traced operations,
    the exact ledger counts, and predicted-vs-actual from the untraced
    ones."""
    traced = [inc for inc in passes if inc.traced]
    plain = [inc for inc in passes if not inc.traced]
    paths = [critical_path(op) for inc in traced for op in inc.timed.traces]
    rows = {key: statistics.median(p[key] for p in paths)
            for key in PATH_ROWS + ("backends.imbalance_wait_s",)}
    traced_op_s = statistics.median(p["op_s"] for p in paths)
    rows["bench.path_closure_pct"] = 100.0 * abs(
        sum(rows[key] for key in PATH_ROWS) - traced_op_s) / traced_op_s
    stats = [s for inc in plain for s in inc.timed.stats]
    first = stats[0]
    rows["core.S"] = first.S
    rows["core.H"] = first.H
    rows["core.msgs"] = sum(step.total_msgs for step in first.supersteps)
    rows["core.W_s"] = statistics.median(s.W for s in stats)
    rows["core.comm_s"] = statistics.median(
        s.wall_seconds - s.W for s in stats)
    # The paper's formula with this machine's own g and L for the
    # workload's backend and sync mode, against the measured wall.
    g_s = probe_rows[f"backends.{subject.backend}.g_us.strict"] * 1e-6
    l_s = probe_rows[f"backends.{subject.backend}.L_us.{subject.sync}"] * 1e-6
    rows["core.predict_err_pct"] = statistics.median(
        100.0 * abs(s.W + g_s * s.H + l_s * s.S - s.wall_seconds)
        / s.wall_seconds for s in stats)
    plain_op_s = statistics.median(
        d for inc in plain for d in inc.timed.durations)
    rows["bench.trace_overhead_pct"] = 100.0 * (
        traced_op_s - plain_op_s) / plain_op_s
    for counter in workloads.HEALTH_COUNTERS:
        rows[f"backends.{counter}"] = sum(
            inc.health[counter] for inc in plain)
    return rows


def write_trace(name: str, passes: list[Incarnation]) -> None:
    ops = [op for inc in passes if inc.traced for op in inc.timed.traces]
    rows = [row for index, op in enumerate(ops) for row in spans(index, op)]
    path = RESULTS / f"trace-{name}.json"
    path.write_text(json.dumps({"workload": name, "spans": rows}))


def report(result: dict[str, Any], spec: dict[str, Any], kind: str) -> str:
    """Human-readable rows, then the contract's one-line JSON object."""
    units = {m["name"]: m["unit"] for m in spec[kind]}
    lines = [f"== {result['workload']} (seed {result['seed']}) =="]
    metrics = {}
    for name, value in result[kind].items():
        lines.append(f"{name:44s} {value:14.6g} {units[name]}")
        metrics[name] = {"value": value, "unit": units[name]}
    for name, value in result.get("bookkeeping", {}).items():
        lines.append(f"{name:44s} {value:14.6g}")
    leaks = sum(result["leaks"].values())
    if leaks:
        lines.append(f"LEAKS: {result['leaks']}")
    correct = result["failed"] == 0 and leaks == 0
    lines.append(json.dumps({
        "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics}))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="End-to-end BSP benchmark: five whole-application "
                    "workloads, drift-corrected, checked against oracles.")
    parser.add_argument("--workload", choices=workloads.NAMES, default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: the per-layer pass (trace + probes) "
                             "instead of the end-to-end pass")
    parser.add_argument("--quick", action="store_true",
                        help="self-check sizes (K=1, M=2); numbers are "
                             "not comparable")
    parser.add_argument("--json", default=None, metavar="OUT",
                        help="also write every result, with the machine "
                             "fingerprint, to this file")
    args = parser.parse_args(argv)

    if args.workload is None:
        return _each_in_its_own_process(args)
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    run_pass = traced_pass if args.trace else untraced_pass
    kind = "per_layer" if args.trace else "end_to_end"
    with Session() as session:
        mark = fingerprint(session.ref_nominal_s)
        print(f"# fingerprint {json.dumps(mark)}", flush=True)
        result = run_pass(session, spec, args.workload, args.seed, seconds,
                          args.quick)
    print(report(result, spec, kind), flush=True)
    if args.json:
        _write_json(args.json, {"fingerprint": mark, "kind": kind,
                                "quick": args.quick, "results": [result]})
    if result["failed"] or sum(result["leaks"].values()):
        print(f"FAILED: wrong answers or leaks on {args.workload}",
              file=sys.stderr)
        return 1
    return 0


def _write_json(path: str, doc: dict[str, Any]) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _each_in_its_own_process(args) -> int:
    """All five workloads, each in a fresh interpreter — exactly what the
    driver's one-workload invocations measure (heap left behind by one
    workload would otherwise be billed to the next one's memory)."""
    RESULTS.mkdir(exist_ok=True)
    part = RESULTS / f"part-{os.getpid()}.json"
    command = [sys.executable, str(HERE / "run.py"), "--seed", str(args.seed),
               "--trace", str(args.trace), "--json", str(part)]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.quick:
        command.append("--quick")
    merged: dict[str, Any] = {}
    failed = []
    try:
        for name in workloads.NAMES:
            done = subprocess.run(command + ["--workload", name])
            if done.returncode != 0:
                failed.append(name)
            if part.exists():
                doc = json.loads(part.read_text())
                merged.setdefault("results", []).extend(doc.pop("results"))
                merged.update(doc)
                part.unlink()
    finally:
        part.unlink(missing_ok=True)
    if args.json:
        _write_json(args.json, merged)
    if failed:
        print(f"FAILED: {failed}", file=sys.stderr)
    return 1 if failed else 0
