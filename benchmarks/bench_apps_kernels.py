"""Measure the vectorized kernels against their pure-Python references.

PRs 1–3 attacked the ``gH`` and ``LS`` terms of ``T = W + gH + LS``; the
kernel layer (``repro.kernels``) attacks ``W``.  This benchmark times
each application's hot local phase under both kernel modes on identical
inputs and records the seed→optimized speedups into
``BENCH_kernels.json``, so the W-term trajectory is archived the same way
``BENCH_comm.json`` archives the communication-layer one.

Usage::

    PYTHONPATH=src python benchmarks/bench_apps_kernels.py           # full
    PYTHONPATH=src python benchmarks/bench_apps_kernels.py --smoke   # CI

The full run sizes the Barnes–Hut walk, octree build and count-only walk
at n=4096 bodies (the paper-scale force phase; build expected ≥5x, the
walk ≥ ``BH_WALK_FLOOR``, the count ≥3x faster than the walk) and the graph
phases at paper-like sizes (expected ≥2x).  ``bh_walk_rank`` is the walk at
the shape the e2e ``nbody-compute`` workload runs on each rank;
``mg_coarse`` is the ocean V-cycle's bottom solve (sweeps vs the cached
operator, ≥ ``MG_COARSE_FLOOR``, cold build ≤ ``MG_BUILD_CEILING_S``) and
``mg_vcycle_rank`` rank 0's compute of one V-cycle at the shape the e2e
``ocean-sync`` workload runs (same grids in both sweeps).  ``--smoke``
shrinks every input so the whole sweep fits in CI's five-minute cap while
still exercising every kernel pair; smoke results are written under a
separate label and never overwrite full measurements.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro import kernels
from repro.apps.nbody import DEFAULT_THETA, BHTree, orb_partition, plummer
from repro.apps.ocean import LocalBlock, build_partitions, wind_forcing
from repro.apps.ocean.multigrid import COARSE_SWEEPS, COARSEST
from repro.apps.ocean.parallel import v_cycle_distributed
from repro.core.runtime import bsp_run
from repro.graphs.distributed import LocalGraph
from repro.graphs.generators import random_connected_graph
from repro.graphs.unionfind import UnionFind

# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------


def best_of(fn, repeats: int) -> float:
    """Best wall time of ``repeats`` runs (minimum filters scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def compare(make_call, repeats: int) -> dict:
    """Time ``make_call(mode)()`` under both modes; return the record."""
    times = {}
    for mode in ("reference", "vectorized"):
        with kernels.using(mode):
            call = make_call(mode)
            times[mode] = best_of(call, repeats)
    return {
        "ref_s": round(times["reference"], 6),
        "vec_s": round(times["vectorized"], 6),
        "speedup": round(times["reference"] / max(times["vectorized"], 1e-12),
                         2),
    }


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


BH_THETA = 0.8

#: ``bh_walk`` speedup floors: 0.6 x the full-run speedup recorded in
#: BENCH_kernels.json (21.4x), 0.5 x the recorded smoke one (20.7x).
BH_WALK_FLOOR = {"full": 12.8, "smoke": 10.3}


def _bh_fixture(n: int):
    """Bodies, their tree and the self-skip index the BH scenarios share."""
    b = plummer(n, seed=1)
    return b, BHTree(b.pos, b.mass), np.arange(n, dtype=np.int64)


def scenario_bh_build(n: int, repeats: int) -> dict:
    """Octree construction: per-body bucketing vs one sort per level."""
    b = plummer(n, seed=1)
    # ``compare`` selects the mode; ``BHTree`` builds with ``bh_build``.
    rec = compare(lambda mode: lambda: BHTree(b.pos, b.mass), repeats)
    rec["n"] = n
    return rec


def scenario_bh_walk(n: int, repeats: int) -> dict:
    """The BH local force phase: one full walk over all n bodies."""
    b, tree, skip = _bh_fixture(n)

    def make_call(mode):
        walk = kernels.get("bh_walk", mode)
        return lambda: walk(tree, b.pos, BH_THETA, 0.05, skip)

    rec = compare(make_call, repeats)
    rec["n"] = n
    return rec


def scenario_bh_walk_rank(n: int, repeats: int) -> dict:
    """One rank's force phase of ``bsp_nbody`` at p=2, as e2e runs it:
    theta=1.0, one count-weighted ORB half against its own tree with the
    self-skip, then against the tree of the other half's essential records
    with ``skip=None``."""
    b, tree, skip = _bh_fixture(n)
    counts = kernels.get("bh_count")(tree, b.pos, DEFAULT_THETA, skip)
    owner = orb_partition(b.pos, np.maximum(counts.astype(np.float64), 1.0), 2)
    mine, theirs = (b.subset(np.flatnonzero(owner == q)) for q in range(2))
    local = BHTree(mine.pos, mine.mass)
    rec_m, rec_p = BHTree(theirs.pos, theirs.mass).essential_records(
        *mine.aabb(), DEFAULT_THETA)
    far = BHTree(rec_p, rec_m)
    own = np.arange(len(mine), dtype=np.int64)

    def make_call(mode):
        walk = kernels.get("bh_walk", mode)

        def run():
            walk(local, mine.pos, DEFAULT_THETA, 0.05, own)
            walk(far, mine.pos, DEFAULT_THETA, 0.05, None)

        return run

    rec = compare(make_call, repeats)
    rec["n"] = n
    rec["local"] = len(mine)
    rec["records"] = far.nbodies
    return rec


def scenario_bh_count(n: int, repeats: int) -> dict:
    """The ORB load estimate: the walk's counts without its forces."""
    b, tree, skip = _bh_fixture(n)

    def make_call(mode):
        count = kernels.get("bh_count", mode)
        return lambda: count(tree, b.pos, BH_THETA, skip)

    rec = compare(make_call, repeats)
    rec["n"] = n
    return rec


def scenario_bh_direct(n: int, repeats: int) -> dict:
    """The O(N²) direct-sum oracle, tiled vs per-body."""
    b = plummer(n, seed=2)

    def make_call(mode):
        direct = kernels.get("bh_direct", mode)
        return lambda: direct(b.pos, b.mass, 0.05)

    rec = compare(make_call, repeats)
    rec["n"] = n
    return rec


#: ``mg_coarse`` speedup floors: 0.6 x the speedups BENCH_kernels.json
#: records (full 325.7x, smoke 315.4x), the recipe of ``BH_WALK_FLOOR``.
MG_COARSE_FLOOR = {"full": 195.0, "smoke": 189.0}

#: Ceiling on building the bottom-solve operator from cold, per process.
MG_BUILD_CEILING_S = 0.010


def scenario_mg_coarse(n: int, repeats: int) -> dict:
    """The V-cycle's bottom solve on the coarsest grid: ``COARSE_SWEEPS``
    red-black sweeps vs two mat-vecs, plus the operator's cold build."""
    from repro.kernels.mg import _operator

    rng = np.random.default_rng(8)
    u0, f = rng.standard_normal((2, n + 2, n + 2))

    def make_call(mode):
        coarse = kernels.get("mg_coarse", mode)
        return lambda: coarse(u0.copy(), f, 1.0 / n, COARSE_SWEEPS)

    def build():
        _operator.cache_clear()
        _operator(n, COARSE_SWEEPS)

    rec = compare(make_call, 10 * repeats)
    rec["n"] = n
    rec["build_s"] = round(best_of(build, repeats), 6)
    return rec


class _RecordingBsp:
    """A rank's ``Bsp`` that keeps every inbox its syncs deliver."""

    def __init__(self, bsp):
        self._bsp = bsp
        self.inboxes = []

    def __getattr__(self, name):
        return getattr(self._bsp, name)

    def sync(self):
        self._bsp.sync()
        self.inboxes.append(list(self._bsp.packets()))

    def packets(self):
        return iter(self.inboxes[-1])


class _ReplayBsp:
    """One rank of a recorded run with the machine taken away: sends and
    charges are no-ops, each sync delivers the inbox the real one did."""

    def __init__(self, pid, nprocs, inboxes):
        self.pid, self.nprocs = pid, nprocs
        self._inboxes = iter(inboxes)

    def send(self, dst, payload):
        pass

    def charge(self, units):
        pass

    def sync(self):
        self._inbox = next(self._inboxes)

    def packets(self):
        return iter(self._inbox)


def _vcycle_fixture(bsp, m):
    """Record this rank's first V-cycle of the ocean's ψ solve (from
    rest, against the wind forcing): ``(inboxes, forcing rows)``."""
    parts = build_partitions(m, bsp.nprocs)
    f = LocalBlock(parts[0], bsp.pid)
    f.data[:] = wind_forcing(m, 1.0)[f.lo - 1 : f.hi + 1]
    rec = _RecordingBsp(bsp)
    v_cycle_distributed(rec, parts, 0, LocalBlock(parts[0], bsp.pid), f,
                        1.0 / m)
    return rec.inboxes, f.data


def scenario_mg_vcycle_rank(m: int, repeats: int) -> dict:
    """Rank 0's local compute of one ocean V-cycle at p=2, as e2e
    ``ocean-sync`` runs it (size m+2), behind a ``Bsp`` that costs
    nothing: what the rank computes between barriers, bottom solve
    included."""
    nprocs = 2
    inboxes, f_rows = bsp_run(_vcycle_fixture, nprocs, args=(m,)).results[0]
    parts = build_partitions(m, nprocs)
    f = LocalBlock(parts[0], 0, f_rows)

    def make_call(mode):
        def run():
            v_cycle_distributed(_ReplayBsp(0, nprocs, inboxes), parts, 0,
                                LocalBlock(parts[0], 0), f, 1.0 / m)

        return run

    rec = compare(make_call, 5 * repeats)
    rec["m"] = m
    rec["supersteps"] = len(inboxes)
    return rec


def _mst_edge_fixture(n: int, m: int, nlabels: int, rng):
    """Key-sorted crossing-edge arrays, as one Borůvka round sees them."""
    eu = rng.integers(0, n, size=m)
    ev = (eu + 1 + rng.integers(0, n - 1, size=m)) % n
    ew = np.round(rng.random(m) * 8) / 8
    lo, hi = np.minimum(eu, ev), np.maximum(eu, ev)
    order = np.lexsort((hi, lo, ew))
    ew, lo, hi = ew[order], lo[order], hi[order]
    comp_labels = rng.integers(0, nlabels, size=n)
    la, lb = comp_labels[lo], comp_labels[hi]
    crossing = la != lb
    active = np.flatnonzero(crossing)
    return active, ew, lo, hi, la[crossing], lb[crossing]


def scenario_mst_labels(n: int, repeats: int) -> dict:
    """The MST labeling loop: per-home-node root gather + group minima
    (the contraction/labeling per-node dict loop of the local phase)."""
    rng = np.random.default_rng(3)
    uf = UnionFind(n)
    for a, bb in rng.integers(0, n, size=(n - n // 20, 2)).tolist():
        uf.union(a, bb)
    home = np.unique(rng.integers(0, n, size=n))

    def make_call(mode):
        labels = kernels.get("mst_labels", mode)
        return lambda: labels(uf, home, n)

    rec = compare(make_call, repeats)
    rec["n"] = n
    rec["home"] = len(home)
    return rec


def scenario_mst_minima(n: int, repeats: int) -> dict:
    """Borůvka candidate selection + the phase-3 pair minima, at the
    component counts the real rounds see (hundreds, then ≤ 4p)."""
    rng = np.random.default_rng(3)
    m = 6 * n
    round_fix = _mst_edge_fixture(n, m, max(n // 64, 8), rng)
    tail_fix = _mst_edge_fixture(n, m, 16, rng)

    def make_call(mode):
        minima = kernels.get("mst_component_minima", mode)
        pairs = kernels.get("mst_pair_minima", mode)

        def run():
            minima(*round_fix, n)
            pairs(*tail_fix, n)

        return run

    rec = compare(make_call, repeats)
    rec["n"] = n
    rec["edges"] = m
    return rec


def scenario_sssp_updates(n: int, repeats: int) -> dict:
    """SSSP border-update application over realistic incoming batches.

    The distance matrix is pre-populated with finite labels so the mix of
    improving and stale records matches a mid-run superstep (the
    conservative update rule makes stale records the common case).
    """
    g = random_connected_graph(n, 4 * n, seed=4)
    owner = np.random.default_rng(4).integers(0, 4, size=n)
    lg = LocalGraph.build(g, owner, 0, 4)
    border = sorted(kernels.get("sssp_border_adjacency", "reference")(lg))
    rng = np.random.default_rng(5)
    nsrc = 8
    records = [
        (k, int(u), float(rng.random() * 3))
        for k in range(nsrc)
        for u in rng.choice(border, size=min(len(border), n // 8),
                            replace=False).tolist()
    ]
    cut = max(1, len(records) // 3)
    batches = [records[:cut], records[cut:2 * cut], records[2 * cut:]]
    base = np.random.default_rng(7).random((nsrc, lg.n_global)) * 2.0

    def make_call(mode):
        adj = kernels.get("sssp_border_adjacency", mode)(lg)
        apply_updates = kernels.get("sssp_apply_updates", mode)

        def run():
            dist = base.copy()
            queues = [[] for _ in range(nsrc)]
            apply_updates(adj, dist, queues, set(),
                          [list(b) for b in batches])

        return run

    rec = compare(make_call, repeats)
    rec["n"] = n
    rec["records"] = len(records)
    return rec


def scenario_sort_partition(n: int, repeats: int) -> dict:
    """Samplesort phase 3: cut a sorted block at p−1 splitters."""
    rng = np.random.default_rng(6)
    block = np.sort(rng.random(n))
    splitters = np.sort(rng.random(63))

    def make_call(mode):
        part = kernels.get("sort_partition", mode)
        return lambda: part(block, splitters)

    rec = compare(make_call, repeats)
    rec["n"] = n
    return rec


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_suite(smoke: bool) -> dict:
    if smoke:
        sizes = {"bh_build": 512, "bh_walk": 512, "bh_walk_rank": 512,
                 "bh_count": 512,
                 "bh_direct": 256, "mst_labels": 2000,
                 "mst_minima": 2000, "sssp_updates": 800,
                 "sort_partition": 20000,
                 "mg_coarse": COARSEST, "mg_vcycle_rank": 64}
        repeats = 2
    else:
        sizes = {"bh_build": 4096, "bh_walk": 4096, "bh_walk_rank": 4096,
                 "bh_count": 4096,
                 "bh_direct": 2048, "mst_labels": 20000,
                 "mst_minima": 20000, "sssp_updates": 8000,
                 "sort_partition": 500000,
                 "mg_coarse": COARSEST, "mg_vcycle_rank": 64}
        repeats = 3
    scenarios = {
        "bh_build": scenario_bh_build,
        "bh_walk": scenario_bh_walk,
        "bh_walk_rank": scenario_bh_walk_rank,
        "bh_count": scenario_bh_count,
        "bh_direct": scenario_bh_direct,
        "mst_labels": scenario_mst_labels,
        "mst_minima": scenario_mst_minima,
        "sssp_updates": scenario_sssp_updates,
        "sort_partition": scenario_sort_partition,
        "mg_coarse": scenario_mg_coarse,
        "mg_vcycle_rank": scenario_mg_vcycle_rank,
    }
    out = {}
    for name, fn in scenarios.items():
        rec = fn(sizes[name], repeats)
        out[name] = rec
        print(f"{name:>16}: ref {rec['ref_s']*1e3:9.2f} ms   "
              f"vec {rec['vec_s']*1e3:9.2f} ms   {rec['speedup']:6.1f}x",
              flush=True)
    # Same n, same theta, same bodies: what dropping the forces buys.
    out["bh_count"]["vs_walk_vec"] = round(
        out["bh_walk"]["vec_s"] / max(out["bh_count"]["vec_s"], 1e-12), 2
    )
    print(f"{'bh_count':>16}: {out['bh_count']['vs_walk_vec']:.1f}x faster "
          "than bh_walk (both vectorized)", flush=True)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs + sanity thresholds, for CI")
    parser.add_argument("--output", default="BENCH_kernels.json",
                        help="JSON archive to update (default: %(default)s)")
    parser.add_argument("--label", default=None,
                        help="snapshot label (default: full or smoke)")
    args = parser.parse_args(argv)

    label = args.label or ("smoke" if args.smoke else "full")
    scenarios = run_suite(args.smoke)

    snapshot = {
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "smoke": args.smoke,
        "scenarios": scenarios,
    }
    try:
        with open(args.output) as fh:
            archive = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        archive = {}
    archive[label] = snapshot
    with open(args.output, "w") as fh:
        json.dump(archive, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.output} [{label}]")

    # Sanity floor: the vectorized mode must never be meaningfully slower
    # than the reference (0.8 allows for timer noise on near-parity
    # phases).  The BH force phase and the multigrid bottom solve have
    # real floors in both sweeps — a fraction of the speedups
    # BENCH_kernels.json records, so neither can drift back unnoticed —
    # and the operator's cold build a ceiling: it is paid once per
    # process, inside a run.  The full run additionally enforces
    # ≥5x on the octree build, the count-only walk ≥3x faster than the
    # force walk, ≥2x on a graph local phase.
    failures = []
    for name, rec in scenarios.items():
        if rec["speedup"] < 0.8:
            failures.append(f"{name}: {rec['speedup']}x (regressed)")
    for name, floors in (("bh_walk", BH_WALK_FLOOR),
                         ("mg_coarse", MG_COARSE_FLOOR)):
        floor = floors["smoke" if args.smoke else "full"]
        if scenarios[name]["speedup"] < floor:
            failures.append(
                f"{name}: {scenarios[name]['speedup']}x < {floor}x floor"
            )
    if scenarios["mg_coarse"]["build_s"] > MG_BUILD_CEILING_S:
        failures.append(
            f"mg_coarse: operator build {scenarios['mg_coarse']['build_s']}s"
            f" > {MG_BUILD_CEILING_S}s"
        )
    if not args.smoke:
        if scenarios["bh_build"]["speedup"] < 5.0:
            failures.append(
                f"bh_build: {scenarios['bh_build']['speedup']}x < 5x floor"
            )
        if scenarios["bh_count"]["vs_walk_vec"] < 3.0:
            failures.append(
                f"bh_count: {scenarios['bh_count']['vs_walk_vec']}x faster "
                "than bh_walk < 3x floor"
            )
        if max(scenarios["mst_labels"]["speedup"],
               scenarios["sssp_updates"]["speedup"]) < 2.0:
            failures.append("neither mst_labels nor sssp_updates reached 2x")
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
