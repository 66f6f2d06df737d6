#!/usr/bin/env python3
"""Compare two outputs of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py a.json b.json

``a.json`` and ``b.json`` are files written by ``run.py --json`` (the
end-to-end pass).  For every end-to-end metric, one workload per row:
both values, the ratio ``b/a`` (base ``a``), and a verdict against the
bound ``BENCHMARK.json`` fixes for the metric —

* ``worse``       ``b`` is worse than ``a`` by more than the bound;
* ``unresolved``  the incarnations inside one of the files already
                  spread (first to third quartile, as a share of their
                  median) wider than the bound, so the two medians cannot
                  be told apart at that resolution;
* ``same``        otherwise.

Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent


def _spread(values: list[float]) -> float:
    """Quartile distance of ``values`` as a share of their median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _by_workload(doc: dict) -> dict[str, dict]:
    if doc.get("kind") != "end_to_end":
        raise SystemExit("compare.py needs outputs of the end-to-end pass "
                         "(run.py --json without --trace)")
    return {result["workload"]: result for result in doc["results"]}


def compare(a: dict, b: dict, spec: dict) -> tuple[str, bool]:
    """The report, and whether any row is ``worse``."""
    lines = []
    for key in ("nproc", "python", "numpy", "ref_nominal_s"):
        if a["fingerprint"][key] != b["fingerprint"][key]:
            lines.append(f"WARNING: {key} differs: {a['fingerprint'][key]} "
                         f"vs {b['fingerprint'][key]}")
    lines.append(f"a = {a['fingerprint']['commit']}   "
                 f"b = {b['fingerprint']['commit']}")
    runs_a, runs_b = _by_workload(a), _by_workload(b)
    any_worse = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        lower = metric["better"] == "lower"
        lines.append("")
        lines.append(f"{name} [{metric['unit']}]  {metric['better']} is "
                     f"better, bound {bound:.0%}")
        lines.append(f"  {'workload':16s} {'a':>11s} {'b':>11s} "
                     f"{'b/a (base a)':>13s} {'spread a':>9s} "
                     f"{'spread b':>9s}  verdict")
        for workload in (w["name"] for w in spec["workloads"]):
            if workload not in runs_a or workload not in runs_b:
                continue
            va = runs_a[workload]["end_to_end"][name]
            vb = runs_b[workload]["end_to_end"][name]
            spread_a = _spread(runs_a[workload]["incarnations"].get(name, []))
            spread_b = _spread(runs_b[workload]["incarnations"].get(name, []))
            ratio = vb / va
            worse = ratio > 1 + bound if lower else ratio < 1 - bound
            if max(spread_a, spread_b) > bound:
                verdict = "unresolved"
            elif worse:
                verdict = "worse"
                any_worse = True
            else:
                verdict = "same"
            lines.append(f"  {workload:16s} {va:11.5g} {vb:11.5g} "
                         f"{ratio:13.3f} {spread_a:9.1%} {spread_b:9.1%}  "
                         f"{verdict}")
    return "\n".join(lines), any_worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(pathlib.Path(path).read_text()) for path in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    text, any_worse = compare(a, b, spec)
    print(text)
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
