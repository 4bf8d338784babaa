"""Batch command-line front end with exact rational JSON-lines output.

Every command maps 1-to-1 onto a library operation.  Its handler returns
(split: yields, so blocks stream) the records of its result, and one print
path writes each record as one JSON line (compact separators,
insertion-ordered keys, so output is byte-identical across runs).  Exact
rationals are serialized as lowest-terms strings ("3/8"); floating-point
fields (costs, pressure roots) are serialized with repr precision.  Flags
that several commands take are declared once (_FLAGS); each command lists
the flags it takes (_COMMANDS).

Each process compiles and imports only the modules its command runs: this
module loads core and errors, and coverings, dimension and transforms are
imported by the flag parsers and handlers that use them (--predicate,
whose default "all" argparse parses like a given value, and --kind read
dimension and transforms when they are parsed).

Exit codes: 0 success (including ISPoint outcomes, reported with
"is_point": true); 2 validation errors (bad digit words, malformed input
sets); 3 domain errors (arguments outside an operation's domain); 64 usage
errors (unknown flags or unparsable flag values).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from typing import Sequence

from .core import (
    CylinderInterval,
    DigitRule,
    ISPoint,
    Sign,
    alternating_digits,
    cylinder,
    partial_sum,
    positive_digits,
)
from .errors import DomainError, ValidityError

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


# The built-in rules without parameters, by name
_SYSTEMS = {
    rule.kind: rule
    for rule in (DigitRule.luroth(), DigitRule.engel(), DigitRule.engel_mod(), DigitRule.pierce())
}


@_flag_parser
def _parse_system(text: str) -> DigitRule:
    if text in _SYSTEMS:
        return _SYSTEMS[text]
    if text.startswith("oppenheim:"):
        parts = text[len("oppenheim:") :].split(",")
        if len(parts) != 2:
            raise ValueError("oppenheim needs two parameters: oppenheim:a,b")
        return DigitRule.oppenheim(int(parts[0]), int(parts[1]))
    raise ValueError(f"unknown system {text!r}")


# The largest decimal exponent a rational flag may carry: Fraction reads
# "1e-N" as 10**N, so the exponent, not the length, sets the cost.  This is
# the longest single argument Linux passes (MAX_ARG_STRLEN), in characters.
_MAX_EXPONENT = 131072


@_flag_parser
def _parse_rational(text: str) -> Fraction:
    """A rational as Fraction reads it ("3/8", "0.375", "1e-3"), its decimal
    exponent at most _MAX_EXPONENT in magnitude."""
    _, e, exponent = text.upper().partition("E")
    digits = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    too_long = len(digits) > len(str(_MAX_EXPONENT))
    if e and digits.isdecimal() and (too_long or int(digits) > _MAX_EXPONENT):
        raise ValueError(f"exponent of {text!r} exceeds {_MAX_EXPONENT} in magnitude")
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


# Every digit that dim or measure tests is at most its --cap, one argument of
# at most _MAX_EXPONENT characters, so below 10**_MAX_EXPONENT < 2**_FLOOR_BITS.
_FLOOR_BITS = 4 * _MAX_EXPONENT


def _power(base: int, exponent: int):
    """base**exponent, or 2**_FLOOR_BITS when the bit lengths show that the
    power is at least that: either floor is above every digit a run tests."""
    if base > 1 and exponent * (base.bit_length() - 1) >= _FLOOR_BITS:
        return 1 << _FLOOR_BITS
    return base**exponent


def _parse_growth(expr: str):
    """Growth-floor shapes: constant 'c', polynomial 'n^k', geometric 'b^n'.

    growth_floor asks psi once per word it expands (its range starts at
    ceil(psi(n))), and the cache makes that once per position, so a power
    floor (_power) is worked out once per position."""
    if expr.isdigit():
        value = int(expr)
        return lambda n: value
    if expr.startswith("n^"):
        k = int(expr[2:])
        return functools.cache(lambda n: _power(n, k))
    if expr.endswith("^n"):
        base = int(expr[:-2])
        return functools.cache(lambda n: _power(base, n))
    raise ValueError(f"growth shape {expr!r} not one of: c, n^k, b^n")


@_flag_parser
def _parse_predicate(text: str):
    from .dimension import (
        all_digits, alphabet_restrict, bounded_ratio, growth_floor, ratio_limit_window,
    )

    if text == "all":
        return all_digits()
    if text.startswith("alphabet:"):
        return alphabet_restrict(_parse_word(text[len("alphabet:") :]))
    if text.startswith("bounded-ratio:"):
        return bounded_ratio(_parse_rational(text[len("bounded-ratio:") :]))
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
    return [_parse_rational(t) for t in text.split(",")]


# Each --kind names the TransformKind constructor it calls on --system: fp
# needs the rule (transforms checks that it has one), t and g ignore it
_KINDS = {
    "fp": lambda kinds, rule: kinds.fp(rule),
    "t": lambda kinds, rule: kinds.t_engel(),
    "g": lambda kinds, rule: kinds.g_pierce(),
}


@_flag_parser
def _parse_kind(text: str):
    if text not in _KINDS:
        raise ValueError(f"kind must be fp, t, or g, got {text!r}")
    from .transforms import TransformKind

    return functools.partial(_KINDS[text], TransformKind)


# ---------------------------------------------------------------------------
# Records: each handler returns (or yields) the JSON objects of its result
# ---------------------------------------------------------------------------


def _record(outcome) -> dict:
    """The record of a digit word, an ISPoint or a CylinderInterval."""
    if isinstance(outcome, ISPoint):
        return {"digits": list(outcome.digits), "is_point": True, "rank": outcome.rank}
    if isinstance(outcome, CylinderInterval):
        return {"lo": str(outcome.lo), "hi": str(outcome.hi), "diam": str(outcome.diameter)}
    return {"digits": list(outcome)}


def _family_set_json(fs) -> dict:
    return {
        "sign": fs.sign.value,
        "prefix": list(fs.prefix),
        "from": fs.start,
        "to": "inf" if fs.end is None else fs.end,
    }


def _family_set_from_line(line: str):
    """The family set of one input line, read strictly.

    prefix is a JSON array of integers, from a JSON integer, and to a JSON
    integer or "inf"; anything else is a malformed family set, never a value
    rounded or split into digits.  This reader checks only that prefix is
    an array; FamilySet checks the rest (plain ints, so a JSON float or
    boolean fails, and to >= from) when the set is made.
    """
    from .coverings import FamilySet

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidityError(f"bad JSON input line: {exc}", index=None)
    try:
        sign, prefix, start, end = Sign(obj["sign"]), obj["prefix"], obj["from"], obj["to"]
        if type(prefix) is not list:
            raise TypeError("prefix must be a JSON array")
        return FamilySet(sign, prefix, start, None if end == "inf" else end)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidityError(f"malformed family set {obj!r}: {exc}", index=None)


def _interval(ns):
    from .coverings import QInterval

    return QInterval(ns.lo, ns.hi, False, ns.sign is Sign.POSITIVE)


# ---------------------------------------------------------------------------
# Command handlers
# ---------------------------------------------------------------------------


def _cmd_expand(ns):
    return [_record(positive_digits(ns.system, ns.x, ns.n))]


def _cmd_alt_expand(ns):
    return [_record(alternating_digits(ns.system, ns.x, ns.n))]


def _cmd_eval(ns):
    return [{"value": str(partial_sum(ns.system, ns.word, ns.sign))}]


def _cmd_cylinder(ns):
    return [_record(cylinder(ns.system, ns.word, ns.sign))]


def _cmd_cover(ns):
    from .coverings import cover_interval

    return [_family_set_json(fs) for fs in cover_interval(ns.system, ns.sign, _interval(ns))]


def _cmd_split(ns):
    from .coverings import FamilySet, split_to_finite

    if ns.blocks < 0:
        raise DomainError("--blocks must be >= 0")
    fs = FamilySet(ns.sign, ns.prefix, ns.start, None)
    stream = split_to_finite(ns.system, fs, ns.alpha, ns.eps)
    for _ in range(ns.blocks):
        yield _family_set_json(next(stream))


def _cmd_verify(ns):
    from .coverings import verify_cover

    lines = (line.strip() for line in sys.stdin)
    sets = [_family_set_from_line(line) for line in lines if line]
    report = verify_cover(ns.system, _interval(ns), sets, ns.alpha)
    return [
        {"covers": report.covers, "max_diameter": str(report.max_diameter), "cost": report.cost}
    ]


def _cmd_transform(ns):
    from .transforms import transform_digits

    return [_record(transform_digits(ns.kind(ns.system), ns.word))]


def _cmd_transform_point(ns):
    from .transforms import transform_point

    return [_record(transform_point(ns.kind(ns.system), ns.x, ns.rank))]


def _cmd_dim(ns):
    from .dimension import pressure_root

    est = pressure_root(ns.system, ns.sign, ns.predicate, ns.rank, ns.cap, ns.tol)
    return [
        {"s": est.s_value, "rank": est.rank, "cap": est.digit_cap,
         "residual": est.residual, "bases": est.bases_count}
    ]


def _cmd_moran(ns):
    from .dimension import moran_dimension

    return [{"s": moran_dimension(ns.ratios, ns.tol)}]


def _cmd_measure(ns):
    from .dimension import measure_at_rank

    return [{"measure": str(measure_at_rank(ns.system, ns.sign, ns.predicate, ns.rank, ns.cap))}]


# ---------------------------------------------------------------------------
# Parser assembly
# ---------------------------------------------------------------------------

# The flags that several subcommands take, each declared once.  A flag is
# required unless its declaration (or a subcommand's override) gives a default.
_FLAGS = {
    "--system": dict(type=_parse_system, help=" | ".join([*_SYSTEMS, "oppenheim:a,b"])),
    "--sign": dict(type=_parse_sign, help="P (positive) or P- (alternating)"),
    "--x": dict(type=_parse_rational),
    "--n": dict(type=int, help=(
        "number of digits, not bounded, though a digit past 2^16 bits is an error. Each "
        "digit is one divmod of the exact remainder, which can grow by each rule value's "
        "bits: the cost is at most about n times (the bits of x's denominator plus the "
        "sum of the rule values' bits). For x = 61/215, 4000 engel digits take about a "
        "millisecond and 1000 pierce digits about a second")),
    "--word": dict(type=_parse_word),
    "--lo": dict(type=_parse_rational),
    "--hi": dict(type=_parse_rational),
    "--alpha": dict(type=float),
    "--kind": dict(type=_parse_kind, help="fp | t (engel to engel-mod) | g (pierce shift)"),
    "--predicate": dict(
        type=_parse_predicate,
        default="all",
        help="all | alphabet:2,3 | bounded-ratio:3/2 | growth:c|n^k|b^n | ratio-window:a,d",
    ),
    "--rank": dict(type=int),
}
_OPTIONAL_SYSTEM = ("--system", dict(default=None))
_SIGN_P = ("--sign", dict(default=Sign.POSITIVE))

# (name, handler, help, *flags): a flag is a name from _FLAGS, or a pair of a
# name and the keywords that declare it (or override its _FLAGS entry)
_COMMANDS = (
    ("expand", _cmd_expand, "positive-form digits of x", "--system", "--x", "--n"),
    ("alt-expand", _cmd_alt_expand, "alternating-form digits of x", "--system", "--x", "--n"),
    ("eval", _cmd_eval, "exact partial sum of a digit word", "--system", "--word", "--sign"),
    ("cylinder", _cmd_cylinder, "exact cylinder of a digit word", "--system", "--word", "--sign"),
    ("cover", _cmd_cover, "cover an interval by at most 3 family sets",
     "--system", "--sign", "--lo", "--hi"),
    ("split", _cmd_split, "split an unbounded family set into blocks",
     "--system", "--sign", ("--prefix", dict(type=_parse_word, default=())),
     ("--from", dict(dest="start", type=int)), "--alpha", ("--eps", dict(type=float)),
     ("--blocks", dict(type=int, default=10))),
    ("verify", _cmd_verify, "verify a cover read as JSON lines from standard input",
     "--system", "--sign", "--lo", "--hi", "--alpha"),
    ("transform", _cmd_transform, "digit-map a word between systems",
     "--kind", "--word", _OPTIONAL_SYSTEM),
    ("transform-point", _cmd_transform_point, "bracket the image of a point under a digit map",
     "--kind", "--x", "--rank", _OPTIONAL_SYSTEM),
    ("dim", _cmd_dim, "pressure-equation dimension estimate",
     "--system", _SIGN_P, "--predicate", "--rank", ("--cap", dict(type=int)),
     ("--tol", dict(type=float, default=1e-9))),
    ("moran", _cmd_moran, "self-similar dimension from a ratio list",
     ("--ratios", dict(type=_parse_ratios,
                       help="comma-separated rationals in (0,1), e.g. 1/2,1/6")),
     ("--tol", dict(type=float, default=1e-12))),
    ("measure", _cmd_measure, "exact rank-k outer measure bound",
     "--system", _SIGN_P, "--predicate", "--rank",
     ("--cap", dict(type=_parse_cap, help="positive integer, or inf (unrestricted predicate "
                                          "only, and a rule that prunes no word of the rank)"))),
)


def _build_parser() -> _Parser:
    parser = _Parser(prog="perron", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, func, help_text, *flags in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag in flags:
            flag, own = (flag, {}) if isinstance(flag, str) else flag
            kwargs = {**_FLAGS.get(flag, {}), **own}
            p.add_argument(flag, required="default" not in kwargs, **kwargs)
    return parser


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
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        for record in ns.func(ns):
            print(json.dumps(record, separators=(",", ":")))
    except (ValidityError, DomainError) as exc:
        print(f"perron: error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValidityError) else 3
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
