"""Self-check: per-layer counts of a traced run repeat exactly for one seed.

    python3 bench/selfcheck.py [--seed N] [--seconds S] [--workload W ...]

Runs ``bench/run.py --trace 1`` twice per workload, one process at a time,
and compares every count-type layer metric (calls, bases, predicate calls,
set counts, descent depths, word lengths, endpoint bits, warnings).  Exits 1
on any difference or on a run that is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("digits", "cover", "pressure", "cli")
COUNT_SUFFIXES = (".calls", ".bases", ".predicate_calls", ".yield_ratio", ".sets_mean",
                  ".depth_mean", ".depth_max", ".word_len_mean", ".endpoint_bits_mean",
                  ".false_frac", "cap_warnings", "failed_frac")


def traced_counts(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run not correct")
    return {name: m["value"] for name, m in result["metrics"].items() if name.endswith(COUNT_SUFFIXES)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=4)
    p.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = p.parse_args()
    bad = 0
    for workload in args.workload:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        bad += bool(diff)
        print(f"{workload}: {len(first)} counts, " + (f"DIFFER {diff}" if diff else "identical"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
