"""Compare two sets of benchmark runs: a parent commit and a change.

Each side is a directory of ``result-<workload>-seed<n>-trace0.json``
records as ``run.py`` writes them under ``.perfbench_out/``.  Runs pair
up by workload and seed.  The comparison refuses to pair runs whose
environment stamps differ (step kernel, numba, python, numpy, cores, run
length): the compiled kernel on one side only would fake a gain.

    python3 perfbench/compare.py parent_results/ change_results/

Per workload and end-to-end metric it prints both sides' medians and
quartiles and a verdict: ``gain`` when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
quartile spread; ``regressed`` when the change's median is worse than
the parent's by more than the metric's bound in ``BENCHMARK.json``;
``unresolved`` when the parent's own spread is wider than the bound;
otherwise ``same``.  Exits 1 on any regression, 2 on refused pairing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import checkout

#: stamp fields that must agree for two runs to be compared
PAIRED = ("kernel", "numba", "python", "numpy", "nproc", "seconds")


def load(directory: Path) -> dict:
    """``{(workload, seed): record}`` of the untraced runs in a directory."""
    runs = {}
    for path in sorted(directory.glob("result-*-trace0.json")):
        record = json.loads(path.read_text())
        env = record["env"]
        runs[env["workload"], env["seed"]] = record
    return runs


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    pairs = [sign * (c - p) for p, c in zip(parent, change) if c != p]
    wins = sum(1 for d in pairs if d > 0)
    if sign * (c_med - p_med) > q3 - q1 and wins >= 0.9 * len(parent):
        return "gain"
    if sign * (p_med - c_med) > bound * abs(p_med):
        return "regressed"
    if p_med and (q3 - q1) / abs(p_med) > bound \
            and not all(sign * (c - p) > 0 for p in parent for c in change):
        return "unresolved"
    return "same"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args()
    spec = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    parent, change = load(args.parent), load(args.change)
    keys = sorted(set(parent) & set(change))
    if not keys:
        print("no (workload, seed) runs on both sides", file=sys.stderr)
        return 2
    stamps = {tuple(side[key]["env"][f] for f in PAIRED)
              for side in (parent, change) for key in keys}
    if len(stamps) != 1:
        print(f"refusing to pair runs from different environments "
              f"({', '.join(PAIRED)}): {sorted(map(str, stamps))}",
              file=sys.stderr)
        return 2
    regressed = False
    for workload in sorted({w for w, _ in keys}):
        seeds = [s for w, s in keys if w == workload]
        print(f"{workload} ({len(seeds)} pairs)")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [parent[workload, s]["metrics"][name]["value"] for s in seeds]
            c = [change[workload, s]["metrics"][name]["value"] for s in seeds]
            if len(seeds) < 2:
                result = "too few runs"
            else:
                result = verdict(p, c, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(f"  {name:<16} parent {statistics.median(p):12.5g} "
                  f"change {statistics.median(c):12.5g} "
                  f"{metric['unit']:<5} {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
