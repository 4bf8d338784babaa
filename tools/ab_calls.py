"""Time the same calls on two revisions of perron in one process, alternating
them call by call.

    python3 tools/ab_calls.py --pool {digits,cover,pressure} [--seed N] [--pool-rounds K] \
        [--rounds R] [--base REV] [--repo DIR]
    python3 tools/ab_calls.py --call MODULE:FUNCTION [--args EXPR] [--rounds R] \
        [--base REV] [--repo DIR]

The change side is the working tree's src/perron, imported as ``perron``.
The base side is src/perron of the git revision --base (default HEAD),
exported with ``git archive`` (as tools/bench_pairs.py exports its base)
and loaded beside it as the package ``perron_base``: perron imports
itself only relatively, so the copy runs its own modules.  --repo names
the repository (default: the one this script belongs to).

The calls are either the ops of a bench pool, the seed's pool that
bench/run.py draws at the benchmark's run_seconds (its first K rounds with
--pool-rounds), each op run through its workload's run_op as
tools/output_digest.py runs it; or one call of FUNCTION in the package's
MODULE (core, coverings, ...) with the arguments EXPR, a Python expression
evaluated once per side with ``perron`` bound to that side's package and
``Fraction`` to fractions.Fraction (for example
``--call core:positive_digits --args "perron.DigitRule.pierce(), Fraction(61, 215), 300"``).
Each side makes its own inputs: the workload module and bench/common.py are
loaded once per side with ``perron`` resolving to that side's package.  The
``cli`` pool runs perron in child processes, so it cannot be compared here.

Each of R rounds (default 9) runs every call once on each side; call i of
round j runs the base first when i + j is even and the change first
otherwise, so a slow phase of the host weighs on both sides alike.  A call
that raises has its exception as its output.  After the first round the
reprs of the two sides' outputs are compared, call by call; if any differ,
the script names the first such call on stderr and exits 1.  Otherwise it
prints one JSON object: per side, the minimum and the median over rounds of
the round's total time, and the 50th and 90th percentiles over calls of
each call's minimum over rounds (nearest rank), all in ms; each one's
change/base ratio; and the rounds whose total the change won.  Standard
library only.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import statistics
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_pairs  # noqa: E402  the git archive export

BASE_PACKAGE = "perron_base"
POOLS = ("digits", "cover", "pressure")
BENCH_MODULES = ("common", "tracer", "workloads")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = p.add_mutually_exclusive_group(required=True)
    what.add_argument("--pool", choices=POOLS, help="the ops of this workload's bench pool")
    what.add_argument("--call", metavar="MODULE:FUNCTION", help="one call of a perron function")
    p.add_argument("--args", default="", help="the call's arguments, a Python expression")
    p.add_argument("--seed", type=int, default=11, help="the pool's seed (default 11)")
    p.add_argument("--pool-rounds", type=int, help="keep only the pool's first K rounds")
    p.add_argument("--rounds", type=int, default=9, help="timed rounds (default 9)")
    p.add_argument("--base", default="HEAD", help="git revision of the base side")
    p.add_argument("--repo", default=ROOT, help="the repository (default: this one)")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    return args


def load_packages(repo: str, rev: str, base_dir: str):
    """(base package, change package, base commit id): the working tree's
    perron and revision rev's, exported into base_dir as perron_base."""
    commit = bench_pairs.export_tree(rev, "src/perron", base_dir, repo)
    os.rename(os.path.join(base_dir, "src", "perron"), os.path.join(base_dir, BASE_PACKAGE))
    src = os.path.join(os.path.abspath(repo), "src")
    sys.path[:0] = [src, base_dir]
    change = importlib.import_module("perron")
    if not os.path.abspath(change.__file__).startswith(src + os.sep):
        sys.exit(f"ab_calls: perron imported from {change.__file__}, not from {src}")
    return importlib.import_module(BASE_PACKAGE), change, commit


def _drop_bench_modules() -> None:
    for name in list(sys.modules):
        if name.split(".")[0] in BENCH_MODULES:
            del sys.modules[name]


def pool_calls(repo: str, package, workload: str, seed: int, rounds: int | None) -> list:
    """One callable per op of the seed's pool, its inputs made and its op
    run by package: the bench modules are loaded fresh with perron
    resolving to package, and dropped again after."""
    bench = os.path.join(os.path.abspath(repo), "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    change = sys.modules["perron"]
    _drop_bench_modules()
    sys.modules["perron"] = package
    try:
        run = importlib.import_module("run")
        wl = importlib.import_module(f"workloads.{workload}")
        spec = argparse.Namespace(workload=workload, seed=seed, seconds=seconds, trace=0)
        pool = run.make_rounds(wl, spec)[:rounds]
        tracer = run.NullTracer()
    finally:
        sys.modules["perron"] = change
        _drop_bench_modules()
    return [(lambda op=op: wl.run_op(op, tracer)) for rnd in pool for unit in rnd for op in unit]


def function_call(package, target: str, args: str):
    """The call of MODULE:FUNCTION of package on args, evaluated for it."""
    module, _, name = target.partition(":")
    fn = getattr(importlib.import_module(f"{package.__name__}.{module}"), name)
    values = eval(f"({args},)" if args else "()", {"perron": package, "Fraction": Fraction})
    return [lambda: fn(*values)]


def _run(call):
    try:
        return call()
    except Exception as exc:  # a raising call is an output too
        return exc


def race(calls: dict, rounds: int) -> dict:
    """Per side, each call's time (s) in each round: times[side][i][j].
    SystemExit when a call's outputs on the two sides differ in repr."""
    n = len(calls["base"])
    times = {side: [[0.0] * rounds for _ in range(n)] for side in calls}
    for j in range(rounds):
        gc.collect()  # outside the timed calls, as bench/run.py does between rounds
        outputs = {"base": [], "change": []}
        for i in range(n):
            for side in ("base", "change") if (i + j) % 2 == 0 else ("change", "base"):
                start = perf_counter()
                out = _run(calls[side][i])
                times[side][i][j] = perf_counter() - start
                if not j:
                    outputs[side].append(repr(out))
        if not j:
            for i, (b, c) in enumerate(zip(outputs["base"], outputs["change"])):
                if b != c:
                    sys.exit(f"ab_calls: call {i} differs:\n"
                             f"  base   {b[:300]}\n  change {c[:300]}")
    return times


def _percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summarise(times: dict) -> dict:
    """Per side the round totals' min and median and the per-call minima's
    p50 and p90 (ms), their change/base ratios, and the rounds won."""
    totals = {side: [sum(col) for col in zip(*rows)] for side, rows in times.items()}
    report = {}
    for side, rows in times.items():
        best = [min(row) for row in rows]
        report[side] = {
            "total_min_ms": 1e3 * min(totals[side]),
            "total_median_ms": 1e3 * statistics.median(totals[side]),
            "call_p50_ms": 1e3 * _percentile(best, 0.5),
            "call_p90_ms": 1e3 * _percentile(best, 0.9),
        }
    report["ratio"] = {key: report["change"][key] / report["base"][key] for key in report["base"]}
    report["change_won"] = sum(c < b for b, c in zip(totals["base"], totals["change"]))
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ab-base-") as base_dir:
        base, change, commit = load_packages(args.repo, args.base, base_dir)
        sides = {"base": base, "change": change}
        if args.pool:
            calls = {side: pool_calls(args.repo, pkg, args.pool, args.seed, args.pool_rounds)
                     for side, pkg in sides.items()}
            what = f"pool {args.pool} seed {args.seed}"
        else:
            calls = {side: function_call(pkg, args.call, args.args) for side, pkg in sides.items()}
            what = f"call {args.call}({args.args})"
        times = race(calls, args.rounds)
    record = {"base_commit": commit, "what": what, "calls": len(calls["base"]),
              "rounds": args.rounds, "outputs_equal": True, **summarise(times)}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
