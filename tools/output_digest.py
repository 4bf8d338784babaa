"""Hash every output of the benchmark's op pools, to show that a change keeps
them bit-identical.

    python3 tools/output_digest.py [--workload W ...] [--seed N ...] [--rounds K] [--per-op]

For each workload (default: all of BENCHMARK.json) and seed (default 5, 11
and 13), the pool is the one bench/run.py draws for that seed at the
benchmark's run_seconds: its distinct rounds, each op once, made by the
workload's make_round and run through its run_op, untimed and untraced.
--rounds K keeps the first K rounds of it.  Each op adds one line to a
sha256: its position, the repr of its whole result (an exception as its
repr), and the counters it reported to the tracer (the cap-warning count of
a pressure op).  A repr is exact for every result type the workloads return:
Fractions, float repr (which round-trips), family sets, reports and digit
words, and for ``cli`` the exit codes and stdout bytes.  Prints one line per
workload and seed: the workload, the seed, the op count and the hex digest.
Run it in two checkouts and compare the lines.  With --per-op, each op's
line is printed before its pool's, as the op's position, its sha256 and
the line itself cut to 120 characters, so a pair of runs whose digests
differ can be compared line by line (diff the two outputs) to name the
op.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run as bench  # noqa: E402  bench/run.py: the pool and the perron import
from tracer import NullTracer  # noqa: E402

SEEDS = (5, 11, 13)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    BENCHMARK = json.load(_spec)


class Counters(NullTracer):
    """A tracer that times nothing and keeps what an op adds to counters."""

    def __init__(self) -> None:
        self.added: list[tuple[str, float]] = []

    def add(self, name: str, value: float) -> None:
        self.added.append((name, value))


def parse_args(argv=None):
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", choices=workloads)
    p.add_argument("--seed", action="append", type=int)
    p.add_argument("--rounds", type=int, help="hash only the first ROUNDS rounds of each pool")
    p.add_argument("--per-op", action="store_true", help="also print each op's line and its hash")
    args = p.parse_args(argv)
    args.workload = args.workload or workloads
    args.seed = args.seed or list(SEEDS)
    return args


def pool_digest(workload: str, seed: int, rounds: int | None = None,
                per_op=None) -> tuple[int, str]:
    """(op count, sha256 hex digest) of the seed's pool of workload; per_op,
    when given, is called with each op's position and line."""
    wl = importlib.import_module(f"workloads.{workload}")
    spec = argparse.Namespace(workload=workload, seed=seed, seconds=BENCHMARK["run_seconds"], trace=0)
    pool = bench.make_rounds(wl, spec)[:rounds]
    ops = [op for rnd in pool for unit in rnd for op in unit]
    sha = hashlib.sha256()
    for i, op in enumerate(ops):
        counters = Counters()
        try:
            result = wl.run_op(op, counters)
        except Exception as exc:  # a raising op is an output too
            result = exc
        line = f"{i}\t{result!r}\t{counters.added!r}\n"
        sha.update(line.encode())
        if per_op:
            per_op(i, line)
    return len(ops), sha.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    bench.import_perron()

    def print_op(i: int, line: str) -> None:
        digest = hashlib.sha256(line.encode()).hexdigest()
        print(f"  op {i} sha256 {digest} {line.rstrip()[:120]!r}", flush=True)

    for workload in args.workload:
        for seed in args.seed:
            count, hexdigest = pool_digest(workload, seed, args.rounds, print_op if args.per_op else None)
            print(f"{workload} seed {seed} ops {count} sha256 {hexdigest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
