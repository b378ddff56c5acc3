"""Run-to-run spread of the end-to-end metrics, one benchmark process per seed.

Usage (from the repository root):

    python3 perfbench/spread.py --workload target_stream --seeds 1-10 --seconds 10

For each metric it prints the median and the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the median,
next to the metric's bound from BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    print("  seed %d: %.1f s wall" % (seed, time.perf_counter() - start), flush=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("seed %d: outputs not correct\n%s" % (seed, out.stderr))
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workload:
        runs = [run_once(workload, seed, seconds) for seed in args.seeds]
        print("%s (%d seeds, %d s)" % (workload, len(runs), seconds))
        for name, bound in bounds.items():
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "" if spread < bound / 3 else ("  WIDE" if spread >= bound else "  over a third")
            print("  %-15s median %10.4f  spread %6.3f  bound %.2f%s" % (name, med, spread, bound, flag))
            print("  %-15s values %s" % ("", " ".join("%.4g" % v for v in values)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
