#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload scale-large --seeds 1-10 [--trace 0]
    python3 perfbench/spread.py --workload paper-suite --seeds 7,7 --trace 1

Runs perfbench/run.py once per seed with BENCHMARK.json's run_seconds and
prints, per metric, the median and the distance between the first and
third quartile as a share of the median, next to the metric's bound.
When a seed repeats, it also lists every metric whose value differs
between two runs of that seed: work counts, quality metrics and the peak
heap must repeat exactly.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

# Metrics that measure time; everything else must repeat exactly.
TIMED_UNITS = {"ms", "s", "1/s", "ns"}


def parse_seeds(spec):
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True,
                    help="comma-separated seeds or LO-HI ranges")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        start = time.monotonic()
        out = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {out.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']} "
              f"wall {time.monotonic() - start:.1f} s",
              flush=True)
        runs.append((seed, result))

    print(f"\n{'metric':34} {'median':>14} {'IQR/median':>11} {'bound':>6}")
    worst = 0.0
    for name, m in runs[0][1]["metrics"].items():
        values = [r["metrics"][name]["value"] for _, r in runs]
        med = statistics.median(values)
        q = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s":
            worst = max(worst, spread / bound)
            flag = " <-- over a third of bound" if spread > bound / 3 else ""
        print(f"{name:34} {med:14.6f} {spread:11.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")

    by_seed = {}
    for seed, r in runs:
        by_seed.setdefault(seed, []).append(r["metrics"])
    for seed, ms in by_seed.items():
        for other in ms[1:]:
            for name, m in ms[0].items():
                if (m["unit"] in TIMED_UNITS
                        or name.startswith(("share.", "trace."))):
                    continue
                if other[name]["value"] != m["value"]:
                    print(f"seed {seed}: {name} differs: {m['value']} vs "
                          f"{other[name]['value']}")
    return 0 if all(r["correct"] for _, r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
