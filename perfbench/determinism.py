"""Check that every workload's output digest is the same under PYTHONHASHSEED=0 and 1.

Usage (from the repository root):

    python3 perfbench/determinism.py [--seed 0] [--workload NAME ...]

Each workload runs once per hash seed, in its own process, for one pass.
Exit status 0 means every digest matched and every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HASH_SEEDS = ("0", "1")


def digest_of(workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=600, check=True)
    lines = out.stdout.strip().splitlines()
    correct = json.loads(lines[-1])["correct"]
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return digest, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload or list(WORKLOADS):
        results = {h: digest_of(workload, args.seed, h) for h in HASH_SEEDS}
        same = len({d for d, _ in results.values()}) == 1
        correct = all(c for _, c in results.values())
        ok = ok and same and correct
        for h, (digest, c) in results.items():
            print("%-14s PYTHONHASHSEED=%s %s correct=%s" % (workload, h, digest, c))
        print("%-14s %s" % (workload, "identical" if same else "DIFFERENT"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
