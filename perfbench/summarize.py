#!/usr/bin/env python3
"""Medians and quartiles of benchmark results over runs.

Reads the BENCH_*.json files that run.py writes (default: .perfbench_out at
the repository root) and prints, per workload and mode, each metric's
median and quartiles over the runs, and the distance between the quartiles
as a share of the median. End-to-end metrics also show their bound from
BENCHMARK.json; a spread above the bound is marked.

Usage: python3 perfbench/summarize.py [DIR]
"""

import json
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    folder = Path(argv[1]) if len(argv) > 1 else ROOT / ".perfbench_out"
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    groups = defaultdict(lambda: defaultdict(list))
    for path in sorted(folder.glob("BENCH_*.json")):
        bench = json.loads(path.read_text())
        env = bench["env"]
        key = (env["workload"], "traced" if env["trace"] else "untraced")
        for name, metric in bench["result"]["metrics"].items():
            groups[key][name].append(metric["value"])
        groups[key]["(correct)"].append(float(bench["result"]["correct"]))
    for (workload, mode), metrics in sorted(groups.items()):
        runs = len(metrics["(correct)"])
        print(f"== {workload} {mode}: {runs} runs")
        for name, values in metrics.items():
            med, q1, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name) if mode == "untraced" else None
            mark = ""
            if bound is not None:
                mark = f"bound {bound:.2f}" + ("  OVER" if spread > bound else "")
            print(f"  {name:48s} {med:12.6g} [{q1:12.6g}, {q3:12.6g}] "
                  f"spread {spread:7.2%}  {mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
