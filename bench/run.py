"""Closed-loop benchmark of perron, built from the checkout's own ``src/``.

    python3 bench/run.py --workload {digits,cover,pressure,cli} --seed N \
        --seconds S --trace {0,1}

One caller issues each op only after the previous one returns; no threads,
and at most one child process (or one two-process pipe) at a time.  Inputs
come from the seed alone and are generated before timing starts.  Every op's
output is checked; the last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and the line before it records the
Python version, CPU count, seed, the host reference loop time
(``host.ref_loop_s``) and the failure mix.

``--trace 0`` runs a fixed quota of whole rounds: ceil(S / ROUND_S), where a
workload's ROUND_S is one round's time on the reference host, and at least
100 ops.  The quota depends on S and the seed alone, not on how fast the run
goes, so the same seed always attempts the same ops and gets the same
verdicts (failures included), and the run lasts about S seconds on that host.
It reports:

* ``ops_per_s``: correct ops per second of op time (time inside the calls
  under test, so the benchmark's own checks do not dilute it);
* ``latency_p50_ms`` / ``latency_p90_ms``: per-op latency percentiles over
  all attempted ops, failed ones included (sample count on the info line);
* ``setup_s``: median over 5 fresh processes of the time from process start
  through ``import perron`` and input generation, ready for the first op;
* ``peak_rss_mb``: peak resident memory of the process running the ops (for
  ``cli``, of the child processes).

Times are host-scaled: a fixed pure-Python loop is timed between ops every
50 ms of op time (and around the set-up processes), and each time is
multiplied by the loop's nominal time over its mean time in this run, so a
host that runs everything slower for minutes does not read as a regression.
The unscaled values and the scale factors are on the info line.

``failed_frac`` (failed / attempted) is on the info line, and among the
per-layer metrics, since it is 0 on three workloads.  A failed op is
``correct: false`` unless its check names it a known defect (``known: ...``).

``--trace 1`` runs a fixed, seed-determined set of ops twice, untraced then
traced, one unit after the other, and reports per-layer counts and busy times
of the spans this benchmark records around each call into perron, plus
``trace.overhead_frac`` (traced over untraced op time, minus 1).  Spans go to
``.bench_out/spans-<workload>-seed<N>.jsonl`` in the checkout.
"""

from __future__ import annotations

import argparse
import collections
import gc
import hashlib
import importlib
import itertools
import json
import math
import os
import pickle
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from time import perf_counter

from tracer import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("digits", "cover", "pressure", "cli")
MIN_OPS = 100  # so at least ten samples lie beyond p90
SETUP_REPEATS = 5
REF_ITERATIONS = 20_000
REF_NOMINAL_S = 1.2e-3  # that loop's time on an unloaded 2-CPU host, CPython 3.11.7
REF_EVERY_S = 0.05
MAX_ROUNDS = 100  # a run cycles at most this many distinct rounds; keeps set-up short
CHILD_TIMEOUT_S = 120

with open(os.path.join(ROOT, "BENCHMARK.json")) as _spec:
    PER_LAYER = [(m["name"], m["unit"]) for m in json.load(_spec)["per_layer"]]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def import_perron():
    """Import perron from this checkout's src/, and nothing else."""
    sys.path.insert(0, SRC)
    try:
        import perron
    except ImportError as exc:
        sys.exit(f"bench: cannot import perron from {SRC}: {exc}")
    if not os.path.abspath(perron.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: perron imported from {perron.__file__}, not from {SRC}")


def quota(wl, args) -> int:
    """Rounds a run issues: a timed run's S seconds at ROUND_S each, or the
    fixed set a traced run replays twice."""
    if args.trace:
        return max(1, round(args.seconds / (2 * wl.ROUND_S)))
    return math.ceil(args.seconds / wl.ROUND_S)


def make_rounds(wl, args) -> list:
    """The seed's distinct rounds of op units (a run cycles them)."""
    rng = random.Random(f"{args.workload}:{args.seed}")
    return [wl.make_round(rng, i) for i in range(min(quota(wl, args), MAX_ROUNDS))]


def digest(rounds) -> str:
    return hashlib.sha256(pickle.dumps(rounds, protocol=4)).hexdigest()


class Outcome:
    """Latencies and check verdicts of the ops run so far."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failures: collections.Counter = collections.Counter()
        self.unknown = 0
        self.reported = 0

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def add(self, verdicts) -> None:
        for verdict in verdicts:
            if verdict is not None:
                self.failures[verdict] += 1
                self.unknown += not verdict.startswith("known:")

    def report(self, exc: BaseException) -> None:
        if self.reported < 3:
            self.reported += 1
            traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)


def run_unit(wl, unit, tr, outcome: Outcome) -> float:
    """Run one unit of ops back to back, then check them; return op time.
    A workload's optional ``after_op`` runs outside the op's time."""
    after_op = getattr(wl, "after_op", None)
    results, busy = [], 0.0
    for op in unit:
        tr.begin_op(len(outcome.latencies))
        start = perf_counter()
        try:
            result = wl.run_op(op, tr)
        except Exception as exc:  # a failing op is counted, and the run goes on
            outcome.report(exc)
            result = exc
        end = perf_counter()
        tr.end_op(start, end)
        outcome.latencies.append(end - start)
        busy += end - start
        results.append(result)
        if after_op:
            after_op(op, result, end - start, tr)
    if any(isinstance(r, Exception) for r in results):
        outcome.add([f"raised {type(r).__name__}" if isinstance(r, Exception) else "unit raised"
                     for r in results])
        return busy
    try:
        outcome.add(wl.check_unit(unit, results))
    except Exception as exc:
        outcome.report(exc)
        outcome.add([f"check raised {type(exc).__name__}"] * len(unit))
    return busy


class HostClock:
    """Host speed, sampled between ops with a fixed pure-Python loop.

    On a shared host the same ops run up to a third slower for minutes at a
    time, and this loop slows by the same factor (same-seed runs: raw
    ops_per_s spread 21%, scaled 4%).  ``scale`` converts a time measured in
    this run to the time at the loop's nominal speed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._due = 0.0

    def sample(self) -> None:
        start = perf_counter()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i * i
        self.samples.append(perf_counter() - start)

    def sample_every(self, busy: float) -> None:
        """Take a sample once per REF_EVERY_S of op time."""
        if busy >= self._due:
            self.sample()
            self._due = busy + REF_EVERY_S

    @property
    def ref_s(self) -> float:
        return statistics.mean(self.samples)

    @property
    def scale(self) -> float:
        return REF_NOMINAL_S / self.ref_s


def setup_s(args, want: str, clock: HostClock) -> float:
    """Median over fresh processes of start -> inputs ready for the first op."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--setup-child"]
    times = []
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
        child = json.loads(proc.stdout.decode().splitlines()[-1])
        if child["digest"] != want:
            sys.exit("bench: one seed gave two different input sets")
        times.append(child["ready"] - start)  # CLOCK_MONOTONIC is system-wide
    clock.sample()
    return statistics.median(times)


def percentile_ms(latencies, q: int) -> float:
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1] * 1e3


def timed_run(wl, rounds, args, clock: HostClock) -> tuple[Outcome, dict]:
    tr, outcome = NullTracer(), Outcome()
    busy, want = 0.0, quota(wl, args)
    # whole rounds only, so every run measures the same stratified mix
    for done, rnd in enumerate(itertools.cycle(rounds), 1):
        for unit in rnd:
            busy += run_unit(wl, unit, tr, outcome)
            clock.sample_every(busy)
        gc.collect()  # collect the round's reference cycles at a fixed point, outside op time
        if done >= want and len(outcome.latencies) >= MIN_OPS:
            break
    ok = len(outcome.latencies) - outcome.failed
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    raw = {
        "ops_per_s": ok / busy,
        "latency_p50_ms": percentile_ms(outcome.latencies, 50),
        "latency_p90_ms": percentile_ms(outcome.latencies, 90),
    }
    scale = clock.scale
    metrics = {
        "ops_per_s": (raw["ops_per_s"] / scale, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] * scale, "ms"),
        "latency_p90_ms": (raw["latency_p90_ms"] * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }
    return outcome, metrics, raw


def traced_run(wl, rounds, args, info, clock: HostClock) -> tuple[Outcome, dict]:
    tr, plain, outcome = Tracer(), Outcome(), Outcome()
    plain_busy = traced_busy = 0.0
    for rnd in rounds:
        for unit in rnd:
            plain_busy += run_unit(wl, unit, NullTracer(), plain)
            traced_busy += run_unit(wl, unit, tr, outcome)
            clock.sample_every(plain_busy + traced_busy)
        gc.collect()
    outcome.unknown += plain.unknown
    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tr.calls.get(base, 0)
        elif field == "busy_s":
            values[name] = tr.busy.get(base, 0.0)
        elif field.endswith("_mean"):
            values[name] = tr.mean(f"{base}.{field[:-5]}")
        elif field.endswith("_max"):
            values[name] = tr.peak(f"{base}.{field[:-4]}")
        elif field == "false_frac":
            values[name] = tr.mean(f"{base}.false")
        else:
            values[name] = tr.totals.get(name, 0)
    bases = values["dimension.enumerate_compatible_bases.bases"]
    calls = values["dimension.enumerate_compatible_bases.predicate_calls"]
    values["dimension.enumerate_compatible_bases.yield_ratio"] = bases / calls if calls else 0.0
    values.update(getattr(wl, "layer_metrics", dict)())
    values["host.ref_loop_s"] = clock.ref_s
    values["trace.overhead_frac"] = traced_busy / plain_busy - 1
    values["failed_frac"] = outcome.failed / len(outcome.latencies)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    tr.write_spans(os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl"),
                   dict(info, derived=["dimension.pressure_root.self_s"]))
    return outcome, {name: (values[name], unit) for name, unit in PER_LAYER}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_perron()
    wl = importlib.import_module(f"workloads.{args.workload}")
    rounds = make_rounds(wl, args)
    if args.setup_child:
        print(json.dumps({"ready": time.monotonic(), "digest": digest(rounds)}))
        return 0
    gc.collect()
    gc.freeze()  # the input pool is never garbage; keep collections from rescanning it
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "ops_in_pool": sum(len(u) for r in rounds for u in r),
    }
    clock = HostClock()
    if args.trace:
        outcome, metrics = traced_run(wl, rounds, args, info, clock)
    else:
        outcome, metrics, raw = timed_run(wl, rounds, args, clock)
        setup_clock = HostClock()
        raw["setup_s"] = setup_s(args, digest(rounds), setup_clock)
        metrics["setup_s"] = (raw["setup_s"] * setup_clock.scale, "s")
        info.update(raw=raw, host_scale=clock.scale, setup_host_scale=setup_clock.scale)
    attempted = len(outcome.latencies)
    info.update({"host.ref_loop_s": clock.ref_s}, samples=attempted, failed=outcome.failed,
                failed_frac=outcome.failed / attempted, failures=dict(outcome.failures.most_common(5)))
    print(json.dumps(info))
    print(json.dumps({
        "correct": outcome.unknown == 0,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
