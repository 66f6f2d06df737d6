"""The run protocol: K fresh incarnations x M timed operations, each
incarnation priced against the reference job, and the sweeps for leaks.

Why the protocol looks like this (measured on the 2-vCPU recording box):
one warm pool gives medians that differ by 30% between back-to-back
sets, because the regime changes with every pool incarnation and with
host contention.  A number here is therefore a median over incarnations,
each on a conditioned box and scaled by ``ref_nominal_s / ref_pair``
(see :mod:`.machine`).
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.backends.shm import scan_orphans

from . import procfs
from .machine import RefPair, Spinners, pin_round_robin
from .workloads import Timed

_clock = time.perf_counter

HERE = pathlib.Path(__file__).resolve().parent.parent      # benchmarks/e2e
ROOT = HERE.parent.parent                                  # the checkout
RESULTS = HERE / "results"


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: metric names, units, bounds, ``run_seconds``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_baseline() -> dict[str, Any]:
    """``baseline.json``: ``ref_nominal_s`` and the recording machine."""
    return json.loads((HERE / "baseline.json").read_text())


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint(ref_nominal_s: float) -> dict[str, Any]:
    """What must match before two outputs may be compared."""
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "start_method": "fork",  # what the library's pools and meshes use
        "ref_nominal_s": ref_nominal_s,
        "env": {key: value for key, value in sorted(os.environ.items())
                if key.startswith("REPRO_")},
    }


@dataclass
class Incarnation:
    """One incarnation's measurements, before any correction."""

    traced: bool
    setup_s: float
    ref_s: float            # mean of ref_pair before and after
    cpu_s: float            # parent + workers, over the timed window
    pss_mb: float           # parent + workers, after the last timed op
    timed: Timed
    health: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)


class Session:
    """Process-wide state of one benchmark invocation: the reference
    workers, the scratch directory every temp file lands in, and the
    leak sweeps."""

    def __init__(self) -> None:
        self.ref_nominal_s = float(load_baseline()["ref_nominal_s"])
        # The helpers are forked before anything starts a thread.
        self.cpus = sorted(os.sched_getaffinity(0))
        self.ref = RefPair(self.cpus)
        self.spinners = Spinners(self.cpus)
        self.helpers = self.ref.pids | self.spinners.pids
        RESULTS.mkdir(exist_ok=True)
        self.scratch = pathlib.Path(tempfile.mkdtemp(
            prefix=f"run-{os.getpid()}-", dir=RESULTS))
        # The gateway and the checkpoint store take their temp dirs from
        # ``tempfile``; keep them inside the checkout, where the sweep
        # below can see what was left behind.
        tempfile.tempdir = str(self.scratch)
        self._me = os.getpid()

    def close(self) -> None:
        self.spinners.close()
        self.ref.close()
        tempfile.tempdir = None
        shutil.rmtree(self.scratch, ignore_errors=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- accounting ----------------------------------------------------------

    def workers(self) -> list[int]:
        """Every descendant except the benchmark's own helpers, oldest
        first — for a fresh pool, its ranks in rank order."""
        return procfs.descendants(self._me, self.helpers)

    def family(self) -> list[int]:
        """This process and its workers: who ``cpu_s`` and PSS bill."""
        return [self._me] + self.workers()

    def scale(self, ref_s: float) -> float:
        """Factor that turns a time measured at ``ref_s`` into nominal."""
        return self.ref_nominal_s / ref_s

    # -- leaks ---------------------------------------------------------------

    def residue(self) -> dict[str, Any]:
        """What exists now that a finished workload could have left."""
        return {
            "children": set(self.workers()),
            "segments": set(scan_orphans()),
            "listening": procfs.listening_sockets([self._me]),
            "tempfiles": set(os.listdir(self.scratch)),
        }

    def leaks(self, before: dict[str, Any]) -> dict[str, int]:
        """Count what a workload left behind, relative to ``before``.

        Children get a moment to finish exiting; anything still there
        after that is a leak, and is killed so the run can end.
        """
        deadline = time.monotonic() + 5.0
        while True:
            now = self.residue()
            stray = now["children"] - before["children"]
            if not stray or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        for pid in stray:
            try:
                os.kill(pid, 9)
            except OSError:
                pass
        return {
            "children": len(stray),
            "segments": len(now["segments"] - before["segments"]),
            "listening": max(0, now["listening"] - before["listening"]),
            "tempfiles": len(now["tempfiles"] - before["tempfiles"]),
        }


def measure(session: Session, workload, modes: list[bool], count: int,
            budget_s: float) -> list[Incarnation]:
    """Run one incarnation per entry of ``modes`` (``True`` = traced),
    ``count`` timed operations each, after one warm-up operation.

    ``budget_s`` is the nominal length of one timed window; a window that
    runs past 3x of it stops early (never below two operations) so a
    slow machine cannot push a run over the driver's time cap.
    """
    results: list[Incarnation] = []
    ref_prev = session.ref.measure()
    for traced in modes:
        t0 = _clock()
        inc = workload.open(traced)
        try:
            pin_round_robin(session.workers(), session.cpus)
            warm_ok = inc.warm_up()
            setup_s = _clock() - t0
            family = session.family()
            cpu0 = procfs.cpu_seconds(family)
            timed = inc.timed(count, _clock() + 3.0 * budget_s)
            cpu_s = procfs.cpu_seconds(family) - cpu0
            pss_mb = procfs.pss_mb(family)
            health = inc.health()
            extra = inc.extra()
        finally:
            inc.close()
        timed.attempted += 1
        timed.failed += 0 if warm_ok else 1
        ref_next = session.ref.measure()
        results.append(Incarnation(
            traced=traced, setup_s=setup_s, ref_s=(ref_prev + ref_next) / 2,
            cpu_s=cpu_s, pss_mb=pss_mb, timed=timed, health=health,
            extra=extra))
        ref_prev = ref_next
    return results


def tail(samples: list[float]) -> tuple[float, int]:
    """The tail the sample supports: p90 from 100 samples up, otherwise
    the highest percentile with ten samples beyond it (the maximum when
    there are not even eleven); with the sample count."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 100:
        return ordered[int(0.9 * n)], n
    return ordered[max(n - 11, 0) if n >= 11 else -1], n


def end_to_end(session: Session, setup_once_s: float,
               incarnations: list[Incarnation]) -> dict[str, Any]:
    """The end-to-end metrics of one untraced pass, drift-corrected, with
    the per-incarnation values they are medians of."""
    rows: dict[str, list[float]] = {
        "run_s": [], "ops_per_s": [], "cpu_s": [], "raw_run_s": [],
        "setup_s": [], "peak_pss_mb": []}
    for inc in incarnations:
        ok = inc.timed.durations
        if not ok:
            continue
        k = session.scale(inc.ref_s)
        rows["setup_s"].append(inc.setup_s * k)
        rows["peak_pss_mb"].append(inc.pss_mb)
        rows["raw_run_s"].append(statistics.median(ok))
        rows["run_s"].append(statistics.median(ok) * k)
        rows["ops_per_s"].append(len(ok) / inc.timed.window_s / k)
        rows["cpu_s"].append(inc.cpu_s / len(ok) * k)
    values = {name: statistics.median(vals) if vals else float("nan")
              for name, vals in rows.items()}
    # The one-off part (inputs, oracle) is priced at the run's mean ref.
    values["setup_s"] += setup_once_s * session.scale(
        statistics.fmean(inc.ref_s for inc in incarnations))
    return {"values": values, "incarnations": rows}
