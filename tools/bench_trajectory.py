"""Print the trajectory of the recorded bench pairs, one line per metric.

    python3 tools/bench_trajectory.py [BENCH_FILE ...]

The files default to every BENCH_<pr>.json of the repository this script
belongs to, in PR order.  For each file, workload and end-to-end metric of
BENCHMARK.json that the file's summary holds, it prints the PR, the
workload, the metric, the change side's median, that median over the base
side's (change/base), and the base side's interquartile range as a share of
the base median: how far apart the parent's own runs lay.  A file written
before a metric was recorded skips it.  The bench does not record op time
(the time its ops took, which says whether a run held enough work to
settle a claim) on its info line, so that column is not printed.
Standard library only.
"""

from __future__ import annotations

import glob
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HEADER = f"{'pr':>4}  {'workload':<9} {'metric':<15} {'change':>11} {'ratio':>7} {'base_iqr':>8}"


def pr_number(path: str) -> int:
    """The PR number in a BENCH_<pr>.json file name."""
    return int(re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(path)).group(1))


def trajectory(paths: list[str], metrics: list[str]) -> list[str]:
    """The lines for the files at paths, in the order given."""
    lines = [HEADER]
    for path in paths:
        with open(path, encoding="utf-8") as f:
            workloads = json.load(f)["workloads"]
        for workload, record in workloads.items():
            summary = record["summary"]
            for name in (m for m in metrics if m in summary):
                base, change = summary[name]["base_median"], summary[name]["change_median"]
                iqr = summary[name]["base_iqr"]
                lines.append(f"{pr_number(path):>4}  {workload:<9} {name:<15} {change:>11.5g} "
                             f"{change / base:>7.3f} {iqr / base:>8.3f}")
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    paths = argv or sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")), key=pr_number)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        metrics = [m["name"] for m in json.load(f)["end_to_end"]]
    print("\n".join(trajectory(paths, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
