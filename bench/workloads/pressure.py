"""pressure: rank-k pressure roots and exact measures over enumerated bases.

Every round pairs each rule (the five built-ins plus a ``DigitRule.custom``
rule) with each predicate (``all``, ``alphabet``, ``bounded-ratio``,
``growth``, ``ratio-window`` and an opaque digit-sum bound) at a rank and a
digit cap, and runs ``pressure_root`` (tol 1e-9) or ``measure_at_rank`` on
it once per sign.  The cap is the largest whose unrestricted base count stays
under a target drawn inside one of 12 log strata over 10..2e4, so enumeration
sizes span that range.  Each grid cell keeps its stratum and rank in every
round and the target's place in its stratum follows a low-discrepancy
sequence, so the mix of cheap and costly configs is the same for every seed
and for every whole number of rounds.
Criterion-10 configs check roots against frozen values.

The two signs of a config are two ops; their results must agree bit for bit.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

from perron import (
    CapTooSmallWarning,
    DigitPredicate,
    Sign,
    all_digits,
    alphabet_restrict,
    bounded_ratio,
    cylinder,
    enumerate_compatible_bases,
    growth_floor,
    measure_at_rank,
    pressure_root,
    ratio_limit_window,
)

from common import SIGNS, rule

ROUND_S = 2.6  # seconds one round takes on a 2-CPU host, CPython 3.11
RULES = ("luroth", "engel", "engel-mod", "pierce", "oppenheim:2,1", "custom")
_STEP = {  # rule value after digit c, for the unrestricted base counts
    "luroth": lambda c: 1,
    "custom": lambda c: 1,  # lower bound of the parity rule: counts stay an upper bound
    "engel": lambda c: c - 1,
    "engel-mod": lambda c: c,
    "pierce": lambda c: c,
    "oppenheim:2,1": lambda c: 2 * c + 1,
}
PREDICATES = ("all", "alphabet", "bounded-ratio", "growth", "ratio-window", "digit-sum")
STRATA = 12
MIN_BASES, MAX_BASES = 10, 20_000
MAX_CAP = 400  # above rank 1; rank 1 caps reach MAX_BASES + 1
TOL = 1e-9
_PHI, _PSI = 0.6180339887, 0.3819660113
JITTER = 0.1
CRITERION10 = {1: 0.970864, 2: 0.639576, 3: 0.553852, 4: 0.520242}
_GROWTH = {"n": lambda n: n, "n^2": lambda n: n * n, "2^n": lambda n: 2**n}


@dataclass(frozen=True)
class Op:
    kind: str  # "root" or "measure"
    rule: str
    pred: tuple  # (kind, *params)
    rank: int
    cap: int
    sign: Sign
    criterion10: bool = False


def _word_count(step, rank: int, cap: int) -> int:
    """Valid rank-`rank` words with digits <= cap (phi0 = 1, so digits >= 2)."""
    counts = [0, 0] + [1] * (cap - 1)
    for _ in range(rank - 1):
        nxt = [0] * (cap + 1)
        acc, c = 0, 2
        for d in range(2, cap + 1):
            while c <= cap and step(c) < d:
                acc += counts[c]
                c += 1
            nxt[d] = acc
        counts = nxt
    return sum(counts)


def _cap_for(name: str, rank: int, target: float) -> int:
    """Largest cap whose unrestricted base count stays within target."""
    step = _STEP[name]
    lo, hi = 2, MAX_BASES + 1 if rank == 1 else MAX_CAP
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _word_count(step, rank, mid) <= target:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _pred_spec(rng, kind: str, rank: int, cap: int, turn: int) -> tuple:
    # parameters that set how restrictive a predicate is follow the rule's
    # turn, so every seed gets the same mix of cheap and costly configs
    if kind == "alphabet":
        return kind, tuple(sorted(rng.sample(range(2, max(cap, 8) + 1), 4)))
    if kind == "bounded-ratio":
        return kind, (Fraction(3, 2), Fraction(2), Fraction(3))[turn % 3]
    if kind == "growth":
        return kind, ("n", "n^2", "2^n")[turn % 3]
    if kind == "ratio-window":
        return kind, (0.8, 1.0, 1.25)[turn % 3], (0.5, 0.3, 0.2)[turn % 3]
    if kind == "digit-sum":
        return kind, max(3 * rank, rank * cap // (2 + turn % 3))
    return (kind,)


def predicate(spec: tuple) -> DigitPredicate:
    kind, *params = spec
    if kind == "all":
        return all_digits()
    if kind == "alphabet":
        return alphabet_restrict(params[0])
    if kind == "bounded-ratio":
        return bounded_ratio(params[0])
    if kind == "growth":
        return growth_floor(_GROWTH[params[0]])
    if kind == "ratio-window":
        return ratio_limit_window(*params)
    bound = params[0]  # opaque: whole-word digit sum, no declarative shape
    return DigitPredicate(lambda word: sum(word) <= bound, f"digit-sum<={bound}")


def make_round(rng, index: int) -> list[tuple[Op, ...]]:
    """One config per rule x predicate cell, each at its own base-count
    stratum and rank, plus the criterion-10 configs: ranks 1-3 in every
    round, the costly rank 4 in the first round only.  Every round thus
    costs about the same, whichever seed drew it."""
    configs = []
    span = math.log10(MAX_BASES / MIN_BASES) / STRATA
    for cell, (name, kind) in enumerate(itertools.product(RULES, PREDICATES)):
        stratum, rank = (cell * 5) % STRATA, 1 + (cell + cell // STRATA) % 4
        # where the target falls inside its stratum follows a low-discrepancy
        # sequence over rounds, so any run of whole rounds averages the same
        # sizes; the seed only jitters it
        place = (cell * _PSI + index * _PHI + JITTER * rng.random()) % 1
        target = MIN_BASES * 10 ** ((stratum + place) * span)
        cap = _cap_for(name, rank, target)
        op_kind = "measure" if rng.random() < 1 / 3 else "root"
        pred = _pred_spec(rng, kind, rank, cap, turn=cell // len(PREDICATES))
        configs.append((op_kind, name, pred, rank, cap, False))
    for rank in CRITERION10:
        if rank < 4 or index == 0:
            configs.append(("root", "luroth", ("ratio-window", 1.0, 0.2), rank, 20, True))
    rng.shuffle(configs)
    return [tuple(Op(*cfg[:5], sign, cfg[5]) for sign in SIGNS) for cfg in configs]


def _quiet(fn, *args):
    """Run fn with CapTooSmallWarning recorded instead of shown; return
    (result, number of such warnings).  Other warnings are re-issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CapTooSmallWarning)
        result = fn(*args)
    cap_warnings = 0
    for w in caught:
        if issubclass(w.category, CapTooSmallWarning):
            cap_warnings += 1
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return result, cap_warnings


def _call(op: Op, r, pred, tr):
    name = "dimension.pressure_root" if op.kind == "root" else "dimension.measure_at_rank"
    fn = pressure_root if op.kind == "root" else measure_at_rank
    args = (r, op.sign, pred, op.rank, op.cap) + ((TOL,) if op.kind == "root" else ())
    return tr.call(name, _quiet, fn, *args)


def run_op(op: Op, tr):
    pred = predicate(op.pred)
    tr.wrap_predicate(pred, "dimension.enumerate_compatible_bases.predicate_calls")
    result, cap_warnings = _call(op, rule(op.rule), pred, tr)
    tr.add("dimension.cap_warnings", cap_warnings)
    return result


def _list_bases(r, pred, rank, cap):
    return list(enumerate_compatible_bases(r, pred, rank, cap))


def after_op(op: Op, result, latency: float, tr) -> None:
    """Traced runs only: replay the op's enumeration and per-base cylinders
    with a fresh rule and predicate, so the op's time can be split."""
    if not tr.enabled or isinstance(result, Exception):
        return
    r, pred = rule(op.rule), predicate(op.pred)
    tr.wrap_predicate(pred, "replay.predicate_calls")  # as in the op, so the times compare
    start = perf_counter()
    bases, _ = _quiet(_list_bases, r, pred, op.rank, op.cap)
    mid = perf_counter()
    cyls = [cylinder(r, w, op.sign) for w in bases]
    end = perf_counter()
    tr.record("dimension.enumerate_compatible_bases", start, mid)
    tr.record("core.cylinder", mid, end, calls=len(cyls))
    tr.add("dimension.enumerate_compatible_bases.bases", len(bases))
    if cyls:
        tr.observe("core.cylinder.word_len", op.rank * len(cyls), len(cyls))
        bits = sum(max(c.lo.denominator.bit_length(), c.hi.denominator.bit_length()) for c in cyls)
        tr.observe("core.cylinder.endpoint_bits", bits, len(cyls))
    if op.kind == "root":
        tr.add("dimension.pressure_root.self_s", latency - (end - start))


def _bits(est) -> tuple:
    return est.rank, est.digit_cap, est.s_value.hex(), est.residual.hex(), est.bases_count


def check_unit(unit, results) -> list[str | None]:
    op = unit[0]
    first, second = results
    if op.kind == "measure":
        if first != second:
            return ["signs disagree"] * 2
        closed_form = (1 - Fraction(1, op.cap)) ** op.rank
        if op.rule == "luroth" and op.pred == ("all",) and first != closed_form:
            return ["luroth measure differs from (1 - 1/cap)^rank"] * 2
        return [None, None]
    if _bits(first) != _bits(second):
        return ["signs disagree bitwise"] * 2
    if first.bases_count and first.residual > TOL:
        return [f"residual {first.residual} above tol"] * 2
    if op.criterion10 and abs(first.s_value - CRITERION10[op.rank]) > 1e-4:
        return [f"rank {op.rank} root off the frozen value"] * 2
    return [None, None]
