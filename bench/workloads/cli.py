"""cli: one ``python -m perron.cli`` process (or one two-process pipe) per op.

The op mix rotates through ``expand``, ``cylinder``, a small ``dim``,
``measure``, ``transform-point`` and the ``cover | verify`` pipe.  Stdout is
compared byte for byte with lines the benchmark formats itself from library
results.  Traced runs also time the same argv through ``perron.cli.run`` in
process, and the bare cost of ``import perron.cli``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import warnings
from dataclasses import dataclass
from time import perf_counter

from perron import (
    CapTooSmallWarning,
    ISPoint,
    QInterval,
    Sign,
    TransformKind,
    cover_interval,
    cylinder,
    measure_at_rank,
    positive_digits,
    pressure_root,
    transform_point,
    verify_cover,
)

from common import BUILTIN_RULES, SIGNS, criterion04_bounds, rational, rule
from workloads.pressure import predicate

ROUND_S = 0.7  # seconds one round takes on a 2-CPU host, CPython 3.11
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
CLI = [sys.executable, "-m", "perron.cli"]
TIMEOUT_S = 60
IMPORT_REPEATS = 5
DIM_PREDICATES = {  # CLI text -> pressure-workload predicate spec
    "all": ("all",),
    "alphabet:2,3,5": ("alphabet", (2, 3, 5)),
    "bounded-ratio:2": ("bounded-ratio", 2),
    "ratio-window:1.0,0.3": ("ratio-window", 1.0, 0.3),
}
ALPHA = 0.5


@dataclass(frozen=True)
class Op:
    command: str
    argv: tuple  # for "cover|verify": the cover argv; verify reuses it
    spec: tuple  # inputs needed to format the expected stdout


def _q(x) -> str:
    return f"{x.numerator}/{x.denominator}"


def make_round(rng, index: int) -> list[tuple[Op]]:
    names = list(BUILTIN_RULES)
    ops = []
    name, x, n = rng.choice(names), rational(rng), rng.randint(5, 30)
    ops.append(Op("expand", ("expand", "--system", name, "--x", _q(x), "--n", str(n)), (name, x, n)))

    name, sign = rng.choice(names), rng.choice(SIGNS)
    word = positive_digits(rule(name), rational(rng), rng.randint(3, 12))
    ops.append(Op("cylinder", ("cylinder", "--system", name, "--word", ",".join(map(str, word)),
                               "--sign", sign.value), (name, word, sign)))

    for command in ("dim", "measure"):
        name, text = rng.choice(names[:4]), rng.choice(sorted(DIM_PREDICATES))
        rank, cap = rng.randint(1, 2), rng.randint(6, 15)
        ops.append(Op(command, (command, "--system", name, "--predicate", text, "--rank", str(rank),
                                "--cap", str(cap)), (name, DIM_PREDICATES[text], rank, cap)))

    kind, x, rank = rng.choice(("fp", "t", "g")), rational(rng), rng.randint(5, 20)
    name = rng.choice(names) if kind == "fp" else ""
    argv = ("transform-point", "--kind", kind, "--x", _q(x), "--rank", str(rank))
    argv += ("--system", name) if name else ()
    ops.append(Op("transform-point", argv, (kind, name, x, rank)))

    name, sign = rng.choice(names[:4]), rng.choice(SIGNS)
    lo, hi = criterion04_bounds(rng, index)
    argv = ("--system", name, "--sign", sign.value, "--lo", _q(lo), "--hi", _q(hi))
    ops.append(Op("cover|verify", argv, (name, sign, lo, hi)))
    rng.shuffle(ops)
    return [(op,) for op in ops]


def _verify_argv(op: Op) -> tuple:
    return ("verify",) + op.argv + ("--alpha", str(ALPHA))


def run_op(op: Op, tr):
    start = perf_counter()
    if op.command != "cover|verify":
        proc = subprocess.run(CLI + list(op.argv), env=ENV, capture_output=True, timeout=TIMEOUT_S)
        codes, out = (proc.returncode,), proc.stdout
    else:
        with subprocess.Popen(CLI + ["cover", *op.argv], env=ENV, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as cover, \
             subprocess.Popen(CLI + list(_verify_argv(op)), env=ENV, stdin=cover.stdout,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as verify:
            cover.stdout.close()
            out, _ = verify.communicate(timeout=TIMEOUT_S)
            cover.wait(timeout=TIMEOUT_S)
        codes = (cover.returncode, verify.returncode)
    tr.record("cli.process", start, perf_counter())
    return [codes, out, None]


def _run_in_process(op: Op, tr) -> bytes:
    from perron.cli import run  # only traced runs load the CLI module in this process

    def one(argv, stdin_text=None):
        buf = io.StringIO()
        saved = sys.stdin
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        try:
            with contextlib.redirect_stdout(buf), warnings.catch_warnings():
                warnings.simplefilter("ignore", CapTooSmallWarning)
                tr.call("cli.run", run, list(argv))
        finally:
            sys.stdin = saved
        return buf.getvalue()

    if op.command != "cover|verify":
        return one(op.argv).encode()
    return one(_verify_argv(op), one(("cover",) + op.argv)).encode()


def after_op(op, result, latency, tr) -> None:
    """Traced runs only: the same argv through ``perron.cli.run`` in process."""
    if tr.enabled and not isinstance(result, Exception):
        result[2] = _run_in_process(op, tr)


def _line(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


def _bracket(outcome) -> str:
    if isinstance(outcome, ISPoint):
        return _line({"digits": list(outcome.digits), "is_point": True, "rank": outcome.rank})
    return _line({"lo": str(outcome.lo), "hi": str(outcome.hi), "diam": str(outcome.diameter)})


def expected(op: Op) -> str:
    if op.command == "expand":
        name, x, n = op.spec
        return _line({"digits": list(positive_digits(rule(name), x, n))})
    if op.command == "cylinder":
        name, word, sign = op.spec
        return _bracket(cylinder(rule(name), word, sign))
    if op.command in ("dim", "measure"):
        name, spec, rank, cap = op.spec
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            if op.command == "measure":
                return _line({"measure": str(measure_at_rank(rule(name), Sign.POSITIVE, predicate(spec),
                                                             rank, cap))})
            est = pressure_root(rule(name), Sign.POSITIVE, predicate(spec), rank, cap, 1e-9)
        return _line({"s": est.s_value, "rank": est.rank, "cap": est.digit_cap,
                      "residual": est.residual, "bases": est.bases_count})
    if op.command == "transform-point":
        kind, name, x, rank = op.spec
        tk = {"fp": lambda: TransformKind.fp(rule(name)), "t": TransformKind.t_engel,
              "g": TransformKind.g_pierce}[kind]()
        return _bracket(transform_point(tk, x, rank))
    name, sign, lo, hi = op.spec
    U = QInterval(lo, hi, False, sign is Sign.POSITIVE)
    report = verify_cover(rule(name), U, cover_interval(rule(name), sign, U), ALPHA)
    return _line({"covers": report.covers, "max_diameter": str(report.max_diameter),
                  "cost": report.cost})


def check_unit(unit, results) -> list[str | None]:
    (op,), (res,) = unit, results
    codes, out, in_process = res
    if any(codes):
        return [f"{op.command} exited {codes}"]
    want = expected(op).encode()
    if out != want:
        return [f"{op.command} stdout differs"]
    if in_process is not None and in_process != want:
        return [f"{op.command} in-process stdout differs"]
    return [None]


def _median_run_s(argv) -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        start = perf_counter()
        subprocess.run(argv, env=ENV, check=True, capture_output=True, timeout=TIMEOUT_S)
        times.append(perf_counter() - start)
    return statistics.median(times)


def layer_metrics() -> dict:
    """Traced runs only: interpreter start and the import cost on top of it."""
    interpreter = _median_run_s([sys.executable, "-c", "pass"])
    with_import = _median_run_s([sys.executable, "-c", "import perron.cli"])
    return {"cli.interpreter_s": interpreter, "cli.import_s": with_import - interpreter}
