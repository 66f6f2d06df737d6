"""Self-check of the end-to-end benchmark.

Run explicitly (it is not in tier-1's ``testpaths``)::

    python -m pytest benchmarks/e2e/test_selfcheck.py -q

Checks the benchmark, not the library: that ``BENCHMARK.json`` is within
the contract and names every metric the issue tabled, that the command
runs all five workloads in ``--quick`` mode and fails on a wrong answer,
that the tracing proxy changes no result and no ledger, and that the
critical-path arithmetic recovers sleeps of known length.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import numpy as np  # noqa: E402

from bspbench import runner, workloads  # noqa: E402
from bspbench.tracer import (  # noqa: E402
    PATH_ROWS,
    OpTrace,
    TracedBackend,
    critical_path,
)
from repro.apps.ocean import bsp_ocean  # noqa: E402
from repro.backends.base import get_backend  # noqa: E402
from repro.backends.processes import ProcessBackend  # noqa: E402
from repro.core.runtime import bsp_run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(HERE / "run.py")]

END_TO_END = {"run_s", "cpu_s", "setup_s", "peak_pss_mb"}
TRACE_ROWS = set(PATH_ROWS) | {
    "backends.imbalance_wait_s", "core.S", "core.H", "core.msgs",
    "core.W_s", "core.comm_s", "core.predict_err_pct",
    "backends.zerocopy_hits", "backends.zerocopy_fallbacks",
    "backends.restarts"}
PROBE_ROWS = {
    "backends.processes.L_us.strict", "backends.processes.L_us.relaxed",
    "backends.processes.L_us.elide", "backends.processes.g_us.strict",
    "backends.tcp.L_us.strict", "backends.tcp.L_us.relaxed",
    "backends.tcp.g_us.strict", "backends.threads.L_us.strict",
    "backends.processes.ocean_run_s.relaxed", "backends.tcp.ocean_run_s.strict",
    "backends.processes.run_overhead_ms", "backends.tcp.run_overhead_ms",
    "backends.processes.pool_start_s", "backends.tcp.pool_start_s",
    "backends.processes.bulk_mb_s.zerocopy", "backends.processes.bulk_mb_s.slab",
    "backends.tcp.bulk_mb_s", "backends.frames.encode_us_per_pkt.small",
    "backends.frames.decode_us_per_pkt.small",
    "backends.frames.encode_mb_s.large", "backends.shm.lease_us",
    "kernels.bh_walk_ms", "kernels.bh_direct_ms",
    "checkpoint.save_shard_ms", "checkpoint.shard_bytes",
    "service.journal.append_ms", "service.journal.append_nofsync_ms",
    "service.journal.records_per_job", "service.journal.bytes_per_job",
    "service.scheduler.cycle_us", "service.client.submit_ms",
    "service.scheduler.queue_wait_ms", "service.fleet.run_ms",
    "service.gateway.publish_ms", "service.gateway.jobs_per_s.nojournal",
    "service.fleet.jobs_per_s.pools2", "bench.raw_run_s", "bench.run_tail_s",
    "bench.tail_samples", "bench.trace_overhead_pct", "machine.ref_pair_s"}


# -- BENCHMARK.json ----------------------------------------------------------

def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [row["name"] for kind in ("workloads", "end_to_end", "per_layer")
             for row in SPEC[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for row in SPEC["workloads"]:
        assert set(row) == {"name", "why"} and len(row["why"]) <= 200
    for row in SPEC["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert 0 < row["bound"] <= 0.25
    for row in SPEC["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", row["unit"]), row
        assert row["better"] in ("lower", "higher")
    setup = next(r for r in SPEC["end_to_end"] if r["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(r["bound"] for r in SPEC["end_to_end"])


def test_every_tabled_row_is_named():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    assert {r["name"] for r in SPEC["end_to_end"]} == END_TO_END
    per_layer = {r["name"] for r in SPEC["per_layer"]}
    assert len(TRACE_ROWS) == 16 and len(PROBE_ROWS) == 41
    assert TRACE_ROWS | PROBE_ROWS <= per_layer


# -- the command -------------------------------------------------------------

def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_quick_run_of_all_five_workloads(tmp_path):
    out = tmp_path / "out.json"
    done = subprocess.run(RUN + ["--quick", "--json", str(out)], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    doc = json.loads(out.read_text())
    assert [r["workload"] for r in doc["results"]] == list(workloads.NAMES)
    for key in ("commit", "nproc", "python", "numpy", "ref_nominal_s",
                "start_method", "env"):
        assert key in doc["fingerprint"]
    for result in doc["results"]:
        assert set(result["end_to_end"]) == END_TO_END
        assert all(value > 0 for value in result["end_to_end"].values())
        assert result["failed"] == 0 and sum(result["leaks"].values()) == 0
    last = _last_json(done.stdout)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1
    assert set(last["metrics"]) == END_TO_END
    for name, unit in ((r["name"], r["unit"]) for r in SPEC["end_to_end"]):
        assert re.search(rf"^{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                         done.stdout, re.M), name


def test_quick_trace_emits_every_per_layer_row_and_the_path_closes():
    done = subprocess.run(
        RUN + ["--quick", "--trace", "1", "--workload", "ocean-sync"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    metrics = _last_json(done.stdout)["metrics"]
    assert set(metrics) == {r["name"] for r in SPEC["per_layer"]}
    assert metrics["bench.path_closure_pct"]["value"] < 10.0
    assert metrics["backends.restarts"]["value"] == 0
    trace = json.loads((HERE / "results" / "trace-ocean-sync.json").read_text())
    assert {"op", "rank", "step", "name", "t0", "t1", "parent"} <= set(
        trace["spans"][0])


def test_a_corrupted_digest_fails_the_command(monkeypatch, capsys):
    build = workloads.build

    def corrupted(name):
        workload = build(name)
        prepare = workload.prepare

        def prepare_then_corrupt(seed):
            prepare(seed)
            workload.digest = "0" * 64

        workload.prepare = prepare_then_corrupt
        return workload

    monkeypatch.setattr(workloads, "build", corrupted)
    code = runner.main(["--workload", "gateway-jobs", "--quick"])
    last = _last_json(capsys.readouterr().out)
    assert code != 0
    assert last["correct"] is False and last["failed"] == last["attempted"]


def test_without_the_library_the_command_fails_and_prints_no_result(tmp_path):
    """The driver also runs the command where only BENCHMARK.json and the
    benchmark's own files exist; it must fail there, not report."""
    import shutil
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "ocean-sync",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert "correct" not in done.stdout


# -- the tracer --------------------------------------------------------------

def _digest(stats):
    return workloads.ledger_digest(stats)


@pytest.mark.parametrize("make", [lambda: get_backend("threads"),
                                  lambda: ProcessBackend.pool(2)],
                         ids=["threads", "processes-pool"])
def test_traced_backend_changes_no_result_and_no_ledger(make):
    inner = make()
    try:
        plain = bsp_ocean(18, 1, 2, backend=inner, sync="relaxed")
        traced_backend = TracedBackend(inner)
        traced = bsp_ocean(18, 1, 2, backend=traced_backend, sync="relaxed")
    finally:
        close = getattr(inner, "close", None)
        if close is not None:
            close()
    assert np.array_equal(plain.state.psi, traced.state.psi)
    assert np.array_equal(plain.state.zeta, traced.state.zeta)
    assert plain.state.cycles == traced.state.cycles
    assert _digest(plain.stats) == _digest(traced.stats)
    (run,) = traced_backend.runs
    assert len(run.ranks) == 2
    assert all(len(rank["steps"]) == traced.stats.S - 1 for rank in run.ranks)


def sleepy_program(bsp):
    """Rank 1 is late to the first boundary by 50 ms of 'compute', rank 0
    to the second by 30 ms; the sends and drains are a handful."""
    if bsp.pid == 1:
        time.sleep(0.05)
    bsp.send(1 - bsp.pid, b"x" * 16)
    bsp.sync()
    assert len(list(bsp.packets())) == 1
    if bsp.pid == 0:
        time.sleep(0.03)
    bsp.sync()
    return bsp.pid


def test_critical_path_recovers_known_sleeps():
    backend = TracedBackend(get_backend("threads"))
    t0 = time.perf_counter()
    run = bsp_run(sleepy_program, 2, backend=backend)
    t1 = time.perf_counter()
    assert run.results == [0, 1]
    path = critical_path(OpTrace(t0, t1, backend.runs))
    # The six pieces are disjoint and cover the operation.
    assert sum(path[row] for row in PATH_ROWS) == pytest.approx(
        path["op_s"], rel=0.10)
    # Both sleeps are on the path (each rank is the last to arrive once)...
    assert path["apps.compute_s"] == pytest.approx(0.08, abs=0.015)
    # ...and each made the other rank wait: (50 + 30) ms over 2 ranks.
    assert path["backends.imbalance_wait_s"] == pytest.approx(0.04, abs=0.01)
    assert path["core.send_s"] < 0.005 and path["core.drain_s"] < 0.005
    assert path["backends.exchange_s"] < 0.02
