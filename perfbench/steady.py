#!/usr/bin/env python3
"""Steadiness report for the benchmark in BENCHMARK.json.

Runs the benchmark command once per seed on each workload and prints, for
every end-to-end metric, the median, the quartiles (as Python's
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median against the metric's bound. A spread is steady when it
is below a third of the bound. With --sets 2 the whole set of runs is
repeated on the next seeds and the drift of each median between the sets
is reported too.

With --exact it also runs the traced mode twice with one seed per workload
and checks that the exact counts (engine work, executor items, bytes
written, rows invalidated and recomputed) repeat.

Run from the repository root:

    python3 perfbench/steady.py                      # 10 seeds, all workloads
    python3 perfbench/steady.py --workloads offline --seeds 5
    python3 perfbench/steady.py --exact
"""

import argparse
import json
import statistics
import subprocess
import sys

EXACT = [
    "engine.sources",
    "engine.levels",
    "engine.frontier_touched",
    "engine.arcs_time_pruned",
    "artifact.bytes_written",
    "executor.items",
    "serve.rows_invalidated",
    "core.rows_recomputed",
]


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med


def report(bench, workload, sets):
    worst = True
    print(f"\n{workload}: {len(sets[0])} seeds per set, {len(sets)} set(s)")
    print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} {'drift':>8}  verdict")
    for m in bench["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = [spread([runs[name] for runs in s]) for s in sets]
        med, q1, q3, sp = stats[0]
        drift = ""
        ok = sp < bound / 3
        if len(stats) > 1:
            second = stats[1][0]
            worse = (second - med) / med if m["better"] == "lower" else (med - second) / med
            drift = f"{worse:+.3f}"
            ok = ok and worse <= bound
        worst = worst and ok
        print(f"  {name:<18} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {sp:>8.4f} "
              f"{bound:>6.2f} {drift:>8}  {'ok' if ok else 'NOISY'}")
        print("  " + " " * 18 + " runs: " + " ".join(f"{runs[name]:.4g}" for s in sets for runs in s))
    return worst


def exact(bench, workload, seed):
    a, b = run(bench, workload, seed, 1), run(bench, workload, seed, 1)
    names = [n for n in EXACT if a.get(n, 0) or b.get(n, 0)]
    same = all(a[n] == b[n] for n in names)
    for n in names:
        print(f"  {workload:<12} {n:<26} {a[n]:>14} {b[n]:>14}  {'ok' if a[n] == b[n] else 'DIFFERS'}")
    return same


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seeds", type=int, default=10, help="runs per set, one seed each")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--exact", action="store_true", help="check exact counts instead")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    chosen = args.workloads.split(",") if args.workloads else names
    ok = True
    if args.exact:
        for w in chosen:
            ok = exact(bench, w, args.first_seed) and ok
    else:
        for w in chosen:
            sets = []
            for k in range(args.sets):
                first = args.first_seed + k * args.seeds
                seeds = range(first, first + args.seeds)
                sets.append([run(bench, w, s, 0) for s in seeds])
            ok = report(bench, w, sets) and ok
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
