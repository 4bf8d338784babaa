"""digits: digit extraction, the cylinder of the digits, and point maps.

Each op draws a rational x, a rule and a form, extracts digits to a short,
medium or deep depth (x whose digits would outgrow DIGIT_BITS are redrawn),
builds the cylinder of those digits and tests that it contains x.  About 1 op in 11 is a ``transform_point`` at rank 20 instead.
All of the work lands in ``core`` (and ``transforms``); nothing here reaches
``coverings`` or ``dimension``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from perron import (
    ISPoint,
    Sign,
    TransformKind,
    alternating_digits,
    cylinder,
    partial_sum,
    positive_digits,
    rule_value,
    transform_point,
    word_diameter,
)

from common import BUILTIN_RULES, SIGNS, rational, rule

ROUND_S = 0.03  # seconds one round takes on a 2-CPU host, CPython 3.11
DEPTHS = {"short": (3, 7), "medium": (16, 24), "deep": (52, 68)}
TRANSFORM_RANK = 20
# About 1 in 1200 rationals sends engel's alternating expansion into a regime
# where each digit is about the square of the one before (x = 61/215 reaches
# 10^8 bits by depth 52), so one op would run for hours.  Such x are redrawn;
# no other rule and form showed this in 3000 draws each.
RUNAWAY = {("engel", Sign.ALTERNATING)}
DIGIT_BITS = 4096
_SHIFT = {"fp": lambda w: w,
          "t": lambda w: tuple(c + i for i, c in enumerate(w)),
          "g": lambda w: tuple(c + 1 for c in w)}


@dataclass(frozen=True)
class Op:
    kind: str  # "digits" or a transform kind "fp" / "t" / "g"
    rule: str
    sign: Sign
    x: Fraction
    n: int


def _tame(name: str, sign: Sign, x: Fraction, n: int) -> bool:
    """The digits of x to depth n stay within DIGIT_BITS, probed every 8
    digits so that a runaway expansion is caught while it is still cheap."""
    if (name, sign) not in RUNAWAY:
        return True
    extract = positive_digits if sign is Sign.POSITIVE else alternating_digits
    depth = 0
    while depth < n:
        depth = min(depth + 8, n)
        out = extract(rule(name), x, depth)
        word = out.digits if isinstance(out, ISPoint) else out
        if max((c.bit_length() for c in word), default=0) > DIGIT_BITS:
            return False
        if isinstance(out, ISPoint):
            break
    return True


def make_round(rng, index: int) -> list[tuple[Op]]:
    ops = []
    for name in BUILTIN_RULES:
        for sign in SIGNS:
            for lo, hi in DEPTHS.values():
                n = rng.randint(lo, hi)
                x = rational(rng)
                while not _tame(name, sign, x, n):
                    x = rational(rng)
                ops.append(Op("digits", name, sign, x, n))
    for kind in _SHIFT:
        name = rng.choice(list(BUILTIN_RULES)) if kind == "fp" else ""
        ops.append(Op(kind, name, Sign.POSITIVE, rational(rng), TRANSFORM_RANK))
    rng.shuffle(ops)
    return [(op,) for op in ops]


def _transform_kind(op: Op) -> TransformKind:
    if op.kind == "fp":
        return TransformKind.fp(rule(op.rule))
    return TransformKind.t_engel() if op.kind == "t" else TransformKind.g_pierce()


def run_op(op: Op, tr):
    if op.kind != "digits":
        return tr.call("transforms.transform_point", transform_point,
                       _transform_kind(op), op.x, op.n)
    r = rule(op.rule)
    if op.sign is Sign.POSITIVE:
        out = tr.call("core.positive_digits", positive_digits, r, op.x, op.n)
    else:
        out = tr.call("core.alternating_digits", alternating_digits, r, op.x, op.n)
    word = out.digits if isinstance(out, ISPoint) else out
    if not word:
        return out, None, None
    cyl = tr.call("core.cylinder", cylinder, r, word, op.sign)
    if tr.enabled:
        tr.observe("core.cylinder.word_len", len(word))
        tr.observe("core.cylinder.endpoint_bits", _endpoint_bits(cyl))
    return out, cyl, cyl.contains(op.x)


def _endpoint_bits(cyl) -> int:
    return max(cyl.lo.denominator.bit_length(), cyl.hi.denominator.bit_length())


def _is_endpoint(r, x: Fraction, point: ISPoint) -> bool:
    """x is the shared endpoint of two children of the cylinder of
    point.digits, computed from term-by-term partial sums."""
    d = point.digits
    if d:
        off = partial_sum(r, d, Sign.ALTERNATING)
        sc = word_diameter(r, d) * (-1) ** len(d)
    else:
        off, sc = Fraction(0), Fraction(1)
    if x == off:
        return False
    m = sc * rule_value(r, d) / (x - off)
    if m.denominator != 1 or m < rule_value(r, d) + 1:
        return False
    m = int(m)
    return partial_sum(r, d + (m + 1,), Sign.ALTERNATING) == x


def _check_transform(op: Op, out) -> str | None:
    shift = _SHIFT[op.kind]
    if op.kind == "g":
        src = alternating_digits(BUILTIN_RULES["pierce"], op.x, op.n)
        if isinstance(src, ISPoint):
            ok = isinstance(out, ISPoint) and out.digits == shift(src.digits)
            return None if ok else "g-pierce endpoint digits differ"
        target, sign = BUILTIN_RULES["pierce"], Sign.ALTERNATING
    else:
        src_rule = rule(op.rule) if op.kind == "fp" else BUILTIN_RULES["engel"]
        src = positive_digits(src_rule, op.x, op.n)
        if op.kind == "fp":
            target, sign = src_rule, Sign.ALTERNATING
        else:
            target, sign = BUILTIN_RULES["engel-mod"], Sign.POSITIVE
    if isinstance(out, ISPoint):
        return f"{op.kind}: unexpected ISPoint"
    if out.word != shift(src) or out.sign is not sign:
        return f"{op.kind}: image word or sign differs"
    if out.diameter != word_diameter(target, out.word):
        return f"{op.kind}: image diameter differs"
    return None


def check_unit(unit, results) -> list[str | None]:
    (op,), (res,) = unit, results
    if op.kind != "digits":
        return [_check_transform(op, res)]
    out, _cyl, inside = res
    if isinstance(out, ISPoint):
        if op.sign is Sign.POSITIVE or not _is_endpoint(rule(op.rule), op.x, out):
            return ["ISPoint not confirmed as a cylinder endpoint"]
        if inside is False:
            return ["endpoint's parent cylinder misses x"]
        return [None]
    if len(out) != op.n:
        return [f"{len(out)} digits for depth {op.n}"]
    return [None if inside else "cylinder does not contain x"]
