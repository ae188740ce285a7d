#!/usr/bin/env python3
"""Desk-pipeline benchmark for symadit.

Runs one workload (train, generate, evaluate or ingest) through the
package's public API for a fixed time, checks every output, and prints its
metrics. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones (span shares, counters,
layer micro-timings and the tracing overhead). --workload all runs every
workload, each in its own process. Results also go to
.perfbench_out/BENCH_<workload>_seed<n>_trace<t>.json at the repository
root, spans of a traced run to .perfbench_out/spans_<workload>_seed<n>.jsonl.

Usage:
    python3 perfbench/run.py --workload train --seed 1 --seconds 10 --trace 0
    python3 perfbench/summarize.py        # medians and quartiles over runs
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("train", "generate", "evaluate", "ingest")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5        # fresh interpreters per run; setup_s is their median
UNTRACED_SHARE = 1 / 3  # of a traced run's time, measured without spans


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def measure(workload, seconds: float, start: int, reference_s=None):
    """Closed loop of whole cycles from operation `start` (a cycle start)
    until `seconds` have passed. Returns [(index, seconds, OpResult)].
    With a list `reference_s`, the reference task runs after each cycle,
    untimed in the records, and its times are appended to the list."""
    import reference

    records = []
    i = start
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        result = workload.op(i)
        t1 = perf_counter()
        records.append((i, t1 - t0, result))
        i += 1
        if i % workload.cycle == 0:
            if reference_s is not None:
                reference_s.append(reference.seconds())
            if t1 >= deadline:
                return records


def cycle_times(records, cycle: int) -> list[list[float]]:
    """Element times of each cycle in the records."""
    return [[t for _, t, _ in records[lo:lo + cycle]]
            for lo in range(0, len(records), cycle)]


def cycle_rates(records, cycle: int) -> list[float]:
    """Items per second of each cycle in the records."""
    return [sum(r.items for _, _, r in records[lo:lo + cycle])
            / sum(t for _, t, _ in records[lo:lo + cycle])
            for lo in range(0, len(records), cycle)]


def setup_seconds(workload) -> float:
    """One fresh-interpreter set-up, as every CLI start pays it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
         *workload.setup_args()],
        capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def environment(args, nproc: int) -> dict:
    import numpy as np

    from symadit import kernels

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc, "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "numpy": np.__version__, "python": platform.python_version(),
        "kernels_backend": kernels.backend(), "git_commit": commit,
        "loop": "closed, one client, one process",
    }


def catalog_path() -> str:
    from importlib import resources

    from symadit import symcat

    return (os.environ.get(symcat.ENV_CATALOG)
            or str(resources.files("symadit") / "data" / "sg_catalog.txt"))


def timed_run(workload, args):
    import reference

    cycle = workload.cycle
    # the set-up probes are spread over the timed window, so that its cycles
    # sample a longer stretch of the host's speed; each part runs until the
    # measured time reaches its share of the whole
    setup, records, ref = [], [], []
    for k in range(1, SETUP_PROBES + 1):
        setup.append(setup_seconds(workload))
        measured = sum(t for _, t, _ in records)
        records += measure(workload,
                           args.seconds * k / SETUP_PROBES - measured,
                           start=cycle + len(records), reference_s=ref)
    # high-water mark of the whole process: the program's own set-up, the
    # warm-up and every timed cycle; inputs were built in a child process
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rates = cycle_rates(records, cycle)
    # host slowness: 2 means the host runs at half the nominal speed now
    slowness = statistics.median(ref) / reference.NOMINAL_S
    metrics = {
        "items_per_s_ref": (statistics.median(rates) * slowness, "1/s"),
        "setup_s": (statistics.median(setup) / slowness, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    named = {}
    for times in cycle_times(records, cycle):
        for name, (value, unit) in workload.named_metrics(times).items():
            named.setdefault(name, ([], unit))[0].append(value)
    named.update({
        f"items_per_s raw ({workload.unit})": (rates, "1/s"),
        "reference task": (ref, "s"),
        f"setup_s raw ({SETUP_PROBES} fresh interpreters)": (setup, "s"),
        "peak_rss_mb": ([peak_mb], "MB"),
    })
    return records, metrics, named, {}


def traced_run(workload, catalog, args):
    import layers
    import micro
    import spans
    from symadit import symcat

    cycle = workload.cycle
    untraced = measure(workload, args.seconds * UNTRACED_SHARE, start=cycle)
    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        symcat.load_catalog(catalog_path())
        load = tracer.summary()
        tracer.clear()
        workload.mark = lambda ident: setattr(tracer, "op_id", ident)
        records = measure(workload, args.seconds * (1 - UNTRACED_SHARE),
                          start=untraced[-1][0] + 1)
    finally:
        tracer.uninstall()
        workload.mark = lambda ident: None
    items = sum(r.items for _, _, r in records)
    wall = sum(t for _, t, _ in records)
    rate_off = quartiles(cycle_rates(untraced, cycle))[1]
    rate_on = quartiles(cycle_rates(records, cycle))[1]
    metrics = {
        "symcat.load_catalog.s": (load["symcat.load_catalog"]["busy_s"], "s"),
        "triplet.parse_triplet.calls": (
            load["triplet.parse_triplet"]["calls"], "count"),
        **layers.span_metrics(tracer, items, wall),
        **micro.run(catalog, args.seed),
        "trace.overhead": (100.0 * (rate_off / rate_on - 1.0), "%"),
        "trace.spans": (len(tracer.spans) / items, "spans/item"),
    }
    tracer.write(OUT / f"spans_{args.workload}_seed{args.seed}.jsonl")
    named = {f"items_per_s untraced ({workload.unit})":
             (cycle_rates(untraced, cycle), "1/s"),
             f"items_per_s traced ({workload.unit})":
             (cycle_rates(records, cycle), "1/s")}
    summary = {name: {k: round(v, 6) for k, v in agg.items()}
               for name, agg in sorted(tracer.summary().items(),
                                       key=lambda kv: -kv[1]["self_s"])}
    return untraced + records, metrics, named, summary


def print_table(rows):
    print(f"  {'metric':48s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'n':>4s}  unit")
    for name, (values, unit) in rows.items():
        med, q1, q3 = quartiles(list(values))
        print(f"  {name:48s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):4d}  {unit}")


def run_one(args, nproc: int) -> int:
    from symadit import default_catalog

    import reference
    import workloads

    env = environment(args, nproc)
    catalog = default_catalog()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT))
    try:
        t0 = perf_counter()
        workload = workloads.WORKLOADS[args.workload](catalog, args.seed,
                                                      workdir)
        t1 = perf_counter()
        # one untimed cycle: lazy set-up and caches fill, outputs to compare;
        # collecting first makes the garbage collections, and so the peak
        # memory, the same in every run
        gc.collect()
        warm = measure(workload, 0.0, start=0)
        t2 = perf_counter()
        run = (traced_run(workload, catalog, args) if args.trace
               else timed_run(workload, args))
        records, metrics, named, span_summary = run
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = [r.digest for _, _, r in warm]
    errors = [e for _, _, r in warm + records for e in r.errors]
    differing = sum(1 for i, _, r in records
                    if r.digest != expected[i % workload.cycle])
    if differing:
        errors.append(f"{differing} operations differ from the same cycle "
                      "element in the warm-up cycle")
    results = [r for _, _, r in records]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    run_digest = workloads.digest(expected)
    result = {
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    mode = "traced" if args.trace else "untraced"
    print(f"== perfbench {args.workload} | seed {args.seed} | "
          f"{args.seconds:g} s | {mode}")
    print("env " + json.dumps(env))
    print("loop: closed, one client, one process; no layer has a queue, so "
          "no wait-time metric applies")
    print(f"prepare {t1 - t0:.2f} s, warm-up cycle of {workload.cycle} "
          f"operations {t2 - t1:.2f} s, {len(records)} measured operations; "
          "untraced items_per_s_ref and setup_s are scaled to a host on "
          f"which the reference task takes {reference.NOMINAL_S} s")
    print(f"ops {attempted} attempted, {failed} failed, failed_share "
          f"{failed / attempted:.4f}; output digest {run_digest}")
    print_table(named)
    if args.trace:
        zero = [k for k, (v, _) in metrics.items() if v == 0]
        for name, (value, unit) in metrics.items():
            if value != 0:
                print(f"  {name:48s} {value:12.6g}  {unit}")
        print(f"  {len(zero)} more per-layer metrics read 0: the workload "
              "does not reach them")
        print("  spans by self time (calls, busy_s, self_s):")
        for name, agg in span_summary.items():
            print(f"    {name:44s} {agg['calls']:9d} {agg['busy_s']:10.4f} "
                  f"{agg['self_s']:10.4f}")
    for err in errors[:20]:
        print(f"WRONG OUTPUT: {err}")
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
     ).write_text(json.dumps({
         "env": env, "result": result, "digest": run_digest,
         "failed_share": failed / attempted, "errors": errors[:20],
         "named": {k: dict(zip(("median", "q1", "q3"), quartiles(list(v))),
                           n=len(v), unit=u) for k, (v, u) in named.items()},
         "spans": span_summary}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines() or ["{}"]
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {}
        combined["correct"] &= (proc.returncode == 0
                                and result.get("correct", False))
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        combined["metrics"][name] = result.get("metrics", {})
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "symadit" / "__init__.py").is_file():
        print(f"perfbench: no symadit sources under {SRC}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run_one(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
