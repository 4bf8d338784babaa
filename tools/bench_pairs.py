"""Run bench/run.py in alternating base/change pairs and record every run.

    python3 tools/bench_pairs.py --out BENCH_6.json [--base HEAD]

The change side is the working tree this script belongs to, uncommitted
edits included, copied into a temporary directory: its tracked files and
its untracked files that .gitignore does not name (``git ls-files --cached
--others --exclude-standard``), so neither side runs with bytecode caches
(``__pycache__``) or other build output that the other lacks.  The base
side is a copy of the change side whose ``src/`` is that of the git
revision --base (default HEAD), exported with ``git archive``.  So both
sides run one harness, the change side's ``bench/``, ``BENCHMARK.json`` and
``tools/output_digest.py``, and differ only in the library: a change to a
workload, its ROUND_S or the digest tool times and hashes the same pools
on both sides.

Every workload of BENCHMARK.json runs PAIRS pairs at its run_seconds; pair
i runs both sides at seed SEEDS[i % len(SEEDS)], the base first when i is
even and the change first when i is odd, so a slow drift of the host
weighs on both sides alike.  The protocol is fixed (a performance claim
needs at least 10 pairs on every workload at the benchmark's run length),
so only the output file and the base revision are options.  One benchmark
process runs at a time.

The output file records the host, the Python version, the seeds, every
run's metrics and verdict counts, and for each end-to-end metric of
BENCHMARK.json: the median of each side, the base's interquartile range,
the pairs the change won, and whether the median gain exceeds that range;
the metric's bound, whether the change's median is worse than the base's
by more than that bound (a share of the base median), and whether the
comparison is unresolved: the base IQR, as a share of its median, exceeds
the bound and not every change run beats every base run.  For each side
it records the failed share of ops (failed over attempted, summed over the
pairs) and whether every run was correct.  Before a workload's pairs, each
side runs tools/output_digest.py on that workload once, against its own
``src/``, and outputs_equal records whether the two print the same
digests: whether the change keeps every output of the workload's pools
bit-identical.
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 1800
PAIRS = 10
SEEDS = (11, 13)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_6.json")
    p.add_argument("--base", default="HEAD", help="git revision of the base side")
    return p.parse_args(argv)


def git(*argv, cwd: str = ROOT) -> bytes:
    return subprocess.run(["git", *argv], cwd=cwd, check=True, capture_output=True).stdout


def export_base(rev: str, dest: str, change: str, root: str = ROOT) -> str:
    """Copy the checkout change into dest with its src/ replaced by that of
    revision rev of the repository at root; return rev's full commit id."""
    shutil.copytree(change, dest, dirs_exist_ok=True,
                    ignore=lambda folder, names: ["src"] if folder == change else [])
    return export_tree(rev, "src", dest, root)


def export_tree(rev: str, path: str, dest: str, root: str = ROOT) -> str:
    """Extract path as it is in revision rev of the repository at root into
    dest (at dest/path), with git archive; return rev's full commit id."""
    archive = git("archive", "--format=tar", rev, path, cwd=root)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return git("rev-parse", f"{rev}^{{commit}}", cwd=root).decode().strip()


def export_change(dest: str, root: str = ROOT) -> None:
    """Copy the tracked and unignored untracked files of the working tree
    at root into dest; a tracked file deleted in the working tree is left
    out."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard", cwd=root).decode()
    for name in filter(None, names.split("\0")):
        source = os.path.join(root, name)
        if os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(dest, name))


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
    }


def bench_once(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """One timed bench/run.py process; its final JSON line plus the info line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: run failed in {checkout}:\n{proc.stderr}")
    info_line, result_line = proc.stdout.splitlines()[-2:]
    result = json.loads(result_line)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "info": json.loads(info_line),
    }


def outputs_equal(base: str, change: str, workload: str) -> bool:
    """Whether tools/output_digest.py prints the same digests of workload's
    pools in the checkouts base and change, each run in its own checkout."""
    digests = []
    for checkout in (base, change):
        proc = subprocess.run(
            [sys.executable, "tools/output_digest.py", "--workload", workload],
            cwd=checkout, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.exit(f"bench_pairs: output digest failed in {checkout}:\n{proc.stderr}")
        digests.append(proc.stdout)
    return digests[0] == digests[1]


def _share(amount: float, of: float) -> float:
    """amount as a share of |of|; infinite for a positive amount of 0."""
    if of:
        return amount / abs(of)
    return math.inf if amount > 0 else 0.0


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, the sides' medians, the change's wins and the
    regression verdicts against the metric's bound; per side, the failed
    share of ops over all pairs and whether every run was correct."""
    summary = {"failures": {}}
    for side in ("base", "change"):
        runs = [p[side] for p in pairs]
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        summary["failures"][side] = {
            "failed": failed,
            "attempted": attempted,
            "failed_share": failed / attempted if attempted else 0.0,
            "all_correct": all(run["correct"] for run in runs),
        }
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        q1, _, q3 = statistics.quantiles(base, n=4)
        base_median = statistics.median(base)
        gain = statistics.median(change) - base_median
        gain = gain if higher else -gain
        beats_every_base_run = min(change) > max(base) if higher else max(change) < min(base)
        summary[name] = {
            "better": spec["better"],
            "base_median": base_median,
            "change_median": statistics.median(change),
            "base_iqr": q3 - q1,
            "median_gain": gain,
            "gain_exceeds_base_iqr": gain > q3 - q1,
            "change_wins": wins,
            "pairs": len(pairs),
            "bound": spec["bound"],
            "worse_beyond_bound": _share(-gain, base_median) > spec["bound"],
            "unresolved": _share(q3 - q1, base_median) > spec["bound"]
            and not beats_every_base_run,
        }
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    record = {
        "host": host(),
        "python": platform.python_version(),
        "seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-base-") as base_dir, \
         tempfile.TemporaryDirectory(prefix="bench-change-") as change_dir:
        export_change(change_dir)
        record["base"] = export_base(args.base, base_dir, change_dir)
        sides = {"base": base_dir, "change": change_dir}
        for workload in (w["name"] for w in benchmark["workloads"]):
            equal = outputs_equal(base_dir, change_dir, workload)
            print(f"{workload} outputs_equal {equal}", file=sys.stderr)
            pairs = []
            for i in range(PAIRS):
                seed = SEEDS[i % len(SEEDS)]
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"pair": i, "seed": seed, "order": list(order)}
                for side in order:
                    pair[side] = bench_once(sides[side], workload, seed, seconds)
                    ops = pair[side]["metrics"]["ops_per_s"]
                    print(f"{workload} pair {i} seed {seed} {side}: ops_per_s {ops:.2f}",
                          file=sys.stderr)
                pairs.append(pair)
            record["workloads"][workload] = {
                "outputs_equal": equal,
                "pairs": pairs,
                "summary": summarise(pairs, benchmark["end_to_end"]),
            }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
