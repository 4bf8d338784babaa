"""Batch command-line front end with exact rational JSON-lines output.

Every command maps 1-to-1 onto a library operation and prints one JSON
object per result line (compact separators, insertion-ordered keys, so
output is byte-identical across runs).  Exact rationals are serialized as
lowest-terms strings ("3/8"); floating-point fields (costs, pressure roots)
are serialized with repr precision.

Exit codes: 0 success (including ISPoint outcomes, reported with
"is_point": true); 2 validation errors (bad digit words, malformed input
sets); 3 domain errors (arguments outside an operation's domain); 64 usage
errors (unknown flags or unparsable flag values).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Sequence

from .core import (
    DigitRule,
    ISPoint,
    Sign,
    alternating_digits,
    cylinder,
    partial_sum,
    positive_digits,
)
from .coverings import (
    FamilySet,
    QInterval,
    cover_interval,
    split_to_finite,
    verify_cover,
)
from .dimension import (
    all_digits,
    alphabet_restrict,
    bounded_ratio,
    growth_floor,
    measure_at_rank,
    moran_dimension,
    pressure_root,
    ratio_limit_window,
)
from .errors import DomainError, ValidityError
from .transforms import TransformKind, transform_digits, transform_point

__all__ = ["run", "main"]

USAGE_EXIT = 64


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# Flag value parsers (failures here are usage errors)
# ---------------------------------------------------------------------------


def _flag_parser(parse):
    """Make parse's failures argparse usage errors that keep their message.

    argparse replaces the text of a plain ValueError from a type= parser
    with "invalid <name> value", and lets any other exception escape; an
    ArgumentTypeError is printed as it is.
    """

    @functools.wraps(parse)
    def wrapped(text: str):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return wrapped


@_flag_parser
def _parse_system(text: str) -> DigitRule:
    if text == "luroth":
        return DigitRule.luroth()
    if text == "engel":
        return DigitRule.engel()
    if text == "engel-mod":
        return DigitRule.engel_mod()
    if text == "pierce":
        return DigitRule.pierce()
    if text.startswith("oppenheim:"):
        parts = text[len("oppenheim:") :].split(",")
        if len(parts) != 2:
            raise ValueError("oppenheim needs two parameters: oppenheim:a,b")
        return DigitRule.oppenheim(int(parts[0]), int(parts[1]))
    raise ValueError(f"unknown system {text!r}")


@_flag_parser
def _parse_rational(text: str) -> Fraction:
    return Fraction(text)


@_flag_parser
def _parse_word(text: str) -> tuple:
    if not text:
        return ()
    return tuple(int(t) for t in text.split(","))


@_flag_parser
def _parse_sign(text: str) -> Sign:
    try:
        return Sign(text)
    except ValueError:
        raise ValueError(f"sign must be P or P-, got {text!r}")


@_flag_parser
def _parse_cap(text: str) -> int | None:
    if text == "inf":
        return None
    return int(text)


def _parse_growth(expr: str):
    """Growth-floor shapes: constant 'c', polynomial 'n^k', geometric 'b^n'."""
    if expr.isdigit():
        value = int(expr)
        return lambda n: value
    if expr.startswith("n^"):
        k = int(expr[2:])
        return lambda n: n**k
    if expr.endswith("^n"):
        base = int(expr[:-2])
        return lambda n: base**n
    raise ValueError(f"growth shape {expr!r} not one of: c, n^k, b^n")


@_flag_parser
def _parse_predicate(text: str):
    if text == "all":
        return all_digits()
    if text.startswith("alphabet:"):
        return alphabet_restrict(_parse_word(text[len("alphabet:") :]))
    if text.startswith("bounded-ratio:"):
        return bounded_ratio(Fraction(text[len("bounded-ratio:") :]))
    if text.startswith("growth:"):
        return growth_floor(_parse_growth(text[len("growth:") :]))
    if text.startswith("ratio-window:"):
        parts = text[len("ratio-window:") :].split(",")
        if len(parts) != 2:
            raise ValueError("ratio-window needs two parameters: ratio-window:a,d")
        return ratio_limit_window(float(parts[0]), float(parts[1]))
    raise ValueError(f"unknown predicate {text!r}")


@_flag_parser
def _parse_ratios(text: str) -> list:
    return [Fraction(t) for t in text.split(",")]


@_flag_parser
def _parse_kind(text: str) -> str:
    if text not in ("fp", "t", "g"):
        raise ValueError(f"kind must be fp, t, or g, got {text!r}")
    return text


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _emit(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")))


def _family_set_json(fs: FamilySet) -> dict:
    return {
        "sign": fs.sign.value,
        "prefix": list(fs.prefix),
        "from": fs.start,
        "to": "inf" if fs.end is None else fs.end,
    }


def _family_set_from_json(obj: dict) -> FamilySet:
    try:
        sign = Sign(obj["sign"])
        prefix = tuple(int(c) for c in obj["prefix"])
        start = int(obj["from"])
        end = None if obj["to"] == "inf" else int(obj["to"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidityError(f"malformed family set {obj!r}: {exc}", index=None)
    return FamilySet(sign, prefix, start, end)


def _interval(sign: Sign, lo: Fraction, hi: Fraction) -> QInterval:
    if sign is Sign.POSITIVE:
        return QInterval(lo, hi, False, True)
    return QInterval(lo, hi, False, False)


def _digits_json(outcome) -> dict:
    if isinstance(outcome, ISPoint):
        return {
            "digits": list(outcome.digits),
            "is_point": True,
            "rank": outcome.rank,
        }
    return {"digits": list(outcome)}


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_expand(ns) -> int:
    _emit({"digits": list(positive_digits(ns.system, ns.x, ns.n))})
    return 0


def _cmd_alt_expand(ns) -> int:
    _emit(_digits_json(alternating_digits(ns.system, ns.x, ns.n)))
    return 0


def _cmd_eval(ns) -> int:
    _emit({"value": str(partial_sum(ns.system, ns.word, ns.sign))})
    return 0


def _cmd_cylinder(ns) -> int:
    cyl = cylinder(ns.system, ns.word, ns.sign)
    _emit({"lo": str(cyl.lo), "hi": str(cyl.hi), "diam": str(cyl.diameter)})
    return 0


def _cmd_cover(ns) -> int:
    for fs in cover_interval(ns.system, ns.sign, _interval(ns.sign, ns.lo, ns.hi)):
        _emit(_family_set_json(fs))
    return 0


def _cmd_split(ns) -> int:
    if ns.blocks < 0:
        raise DomainError("--blocks must be >= 0")
    fs = FamilySet(ns.sign, ns.prefix, ns.start, None)
    stream = split_to_finite(ns.system, fs, ns.alpha, ns.eps)
    for _ in range(ns.blocks):
        _emit(_family_set_json(next(stream)))
    return 0


def _cmd_verify(ns) -> int:
    sets = []
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidityError(f"bad JSON input line: {exc}", index=None)
        sets.append(_family_set_from_json(obj))
    report = verify_cover(ns.system, _interval(ns.sign, ns.lo, ns.hi), sets, ns.alpha)
    _emit(
        {
            "covers": report.covers,
            "max_diameter": str(report.max_diameter),
            "cost": report.cost,
        }
    )
    return 0


def _transform_kind(ns) -> TransformKind:
    if ns.kind == "fp":
        if ns.system is None:
            raise DomainError("--kind fp needs --system")
        return TransformKind.fp(ns.system)
    if ns.kind == "t":
        return TransformKind.t_engel()
    return TransformKind.g_pierce()


def _cmd_transform(ns) -> int:
    _emit({"digits": list(transform_digits(_transform_kind(ns), ns.word))})
    return 0


def _cmd_transform_point(ns) -> int:
    outcome = transform_point(_transform_kind(ns), ns.x, ns.rank)
    if isinstance(outcome, ISPoint):
        _emit(_digits_json(outcome))
    else:
        _emit(
            {
                "lo": str(outcome.lo),
                "hi": str(outcome.hi),
                "diam": str(outcome.diameter),
            }
        )
    return 0


def _cmd_dim(ns) -> int:
    est = pressure_root(ns.system, ns.sign, ns.predicate, ns.rank, ns.cap, ns.tol)
    _emit(
        {
            "s": est.s_value,
            "rank": est.rank,
            "cap": est.digit_cap,
            "residual": est.residual,
            "bases": est.bases_count,
        }
    )
    return 0


def _cmd_moran(ns) -> int:
    _emit({"s": moran_dimension(ns.ratios, ns.tol)})
    return 0


def _cmd_measure(ns) -> int:
    value = measure_at_rank(ns.system, ns.sign, ns.predicate, ns.rank, ns.cap)
    _emit({"measure": str(value)})
    return 0


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="perron", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    def flag_system(p, required=True):
        p.add_argument("--system", type=_parse_system, required=required,
                       default=None,
                       help="luroth | engel | engel-mod | pierce | oppenheim:a,b")

    def flag_sign(p, default=None):
        p.add_argument("--sign", type=_parse_sign,
                       default=default, required=default is None,
                       help="P (positive) or P- (alternating)")

    p = add("expand", _cmd_expand, help="positive-form digits of x")
    flag_system(p)
    p.add_argument("--x", type=_parse_rational, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("alt-expand", _cmd_alt_expand, help="alternating-form digits of x")
    flag_system(p)
    p.add_argument("--x", type=_parse_rational, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("eval", _cmd_eval, help="exact partial sum of a digit word")
    flag_system(p)
    p.add_argument("--word", type=_parse_word, required=True)
    flag_sign(p)

    p = add("cylinder", _cmd_cylinder, help="exact cylinder of a digit word")
    flag_system(p)
    p.add_argument("--word", type=_parse_word, required=True)
    flag_sign(p)

    p = add("cover", _cmd_cover, help="cover an interval by at most 3 family sets")
    flag_system(p)
    flag_sign(p)
    p.add_argument("--lo", type=_parse_rational, required=True)
    p.add_argument("--hi", type=_parse_rational, required=True)

    p = add("split", _cmd_split, help="split an unbounded family set into blocks")
    flag_system(p)
    flag_sign(p)
    p.add_argument("--prefix", type=_parse_word, default=())
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--blocks", type=int, default=10)

    p = add("verify", _cmd_verify,
            help="verify a cover read as JSON lines from standard input")
    flag_system(p)
    flag_sign(p)
    p.add_argument("--lo", type=_parse_rational, required=True)
    p.add_argument("--hi", type=_parse_rational, required=True)
    p.add_argument("--alpha", type=float, required=True)

    p = add("transform", _cmd_transform, help="digit-map a word between systems")
    p.add_argument("--kind", type=_parse_kind, required=True,
                   help="fp | t (engel to engel-mod) | g (pierce shift)")
    p.add_argument("--word", type=_parse_word, required=True)
    flag_system(p, required=False)

    p = add("transform-point", _cmd_transform_point,
            help="bracket the image of a point under a digit map")
    p.add_argument("--kind", type=_parse_kind, required=True)
    p.add_argument("--x", type=_parse_rational, required=True)
    p.add_argument("--rank", type=int, required=True)
    flag_system(p, required=False)

    p = add("dim", _cmd_dim, help="pressure-equation dimension estimate")
    flag_system(p)
    flag_sign(p, default=Sign.POSITIVE)
    p.add_argument("--predicate", type=_parse_predicate, default=all_digits(),
                   help="all | alphabet:2,3 | bounded-ratio:3/2 | "
                        "growth:c|n^k|b^n | ratio-window:a,d")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--cap", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = add("moran", _cmd_moran, help="self-similar dimension from a ratio list")
    p.add_argument("--ratios", type=_parse_ratios, required=True,
                   help="comma-separated rationals in (0,1), e.g. 1/2,1/6")
    p.add_argument("--tol", type=float, default=1e-12)

    p = add("measure", _cmd_measure, help="exact rank-k outer measure bound")
    flag_system(p)
    flag_sign(p, default=Sign.POSITIVE)
    p.add_argument("--predicate", type=_parse_predicate, default=all_digits())
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--cap", type=_parse_cap, required=True,
                   help="positive integer, or inf (unrestricted predicate only)")

    return parser


def _check_threads_env() -> str | None:
    """Validate PERRON_THREADS (positive integer) if set.

    The reduction order of every operation is fixed, so results never depend
    on this cap; it exists to bound any internal parallelism.  The current
    implementation evaluates serially regardless.
    """
    raw = os.environ.get("PERRON_THREADS")
    if raw is None:
        return None
    try:
        if int(raw) < 1:
            raise ValueError
    except ValueError:
        return f"PERRON_THREADS must be a positive integer, got {raw!r}"
    return None


def run(argv: Sequence[str] | None = None) -> int:
    """Run one command; return its exit code.

    Digits, endpoints and diameters can have more decimal digits than
    CPython's int/str conversion limit (4300 by default), which int() and
    json enforce, so the limit is lifted while the command runs and
    restored afterwards for in-process callers.
    """
    saved = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if saved is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        if saved is not None:
            sys.set_int_max_str_digits(saved)


def _run(argv: Sequence[str] | None) -> int:
    problem = _check_threads_env()
    if problem is not None:
        print(f"perron: error: {problem}", file=sys.stderr)
        return USAGE_EXIT
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        return ns.func(ns)
    except ValidityError as exc:
        print(f"perron: error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"perron: error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
