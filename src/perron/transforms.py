"""Digit transformations between expansion systems.

Three maps, each induced by a digitwise rewrite:

  * fp: reinterpret a positive-form digit word in the alternating form (the
    digits themselves are unchanged; both validity notions coincide).  The
    induced point map sends the number with positive digits (c_1, c_2, ...)
    to the number with the same alternating digits.  It preserves cylinder
    diameters exactly.
  * t_engel: c'_n = c_n + n - 1 turns a valid repeating-allowed word (engel
    rule) into a strictly increasing word (engel-mod rule), bijectively for
    each length.
  * g_pierce: c'_n = c_n + 1 shifts a strictly increasing word (pierce rule)
    to another valid pierce word.

Each kind resolves once (_spec) to what it reads and writes: a source rule
and sign, a target rule and sign, and a per-position digit shift.  Both
operations then take one path for all three: transform_digits validates the
word against the source rule and shifts it; transform_point extracts the
source digits with core's sign-generic extraction loop and brackets the
image by the shifted word's target cylinder.

Point images are generally irrational, so the point-level operation returns
the exact rank-n target cylinder bracketing the image instead of a value;
the bracket width shrinks to 0 as the rank grows.
"""

from __future__ import annotations

from typing import Sequence

from . import _LAZY
from .core import (
    CylinderInterval,
    DigitRule,
    DigitWord,
    ExactQ,
    ISPoint,
    Sign,
    _digits,
    _integer,
    _Record,
    cylinder,
    validate_word,
    word_diameter,
)
from .errors import DomainError

__all__ = _LAZY["transforms"]  # declared once, in the package

_ENGEL = DigitRule.engel()
_ENGEL_MOD = DigitRule.engel_mod()
_PIERCE = DigitRule.pierce()


class TransformKind(_Record):
    """One of the three digit maps; fp carries the digit rule it reinterprets."""

    name: str
    rule: DigitRule | None

    def __init__(self, name: str, rule: DigitRule | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "rule", rule)

    @classmethod
    def fp(cls, rule: DigitRule) -> "TransformKind":
        return cls("fp", rule=rule)

    @classmethod
    def t_engel(cls) -> "TransformKind":
        return cls("t-engel")

    @classmethod
    def g_pierce(cls) -> "TransformKind":
        return cls("g-pierce")


def _spec(kind: TransformKind):
    """(source rule, source sign, target rule, target sign, shift) of kind,
    where image digit i (0-based) is word[i] + shift(i)."""
    if kind.name == "fp":
        if kind.rule is None:
            raise DomainError("fp transform needs a digit rule")
        return kind.rule, Sign.POSITIVE, kind.rule, Sign.ALTERNATING, lambda i: 0
    if kind.name == "t-engel":
        return _ENGEL, Sign.POSITIVE, _ENGEL_MOD, Sign.POSITIVE, lambda i: i
    if kind.name == "g-pierce":
        return _PIERCE, Sign.ALTERNATING, _PIERCE, Sign.ALTERNATING, lambda i: 1
    raise DomainError(f"unknown transform {kind.name!r}")


def _image(shift, word: DigitWord) -> DigitWord:
    return tuple(c + shift(i) for i, c in enumerate(word))


def transform_digits(kind: TransformKind, word: Sequence[int]) -> DigitWord:
    """Image digit word under the transform.

    fp validates against its carried rule and returns the word unchanged
    (the transform changes the sign interpretation, not the digits);
    t_engel maps engel-valid words onto engel-mod-valid words of the same
    length (a bijection: the shift by n-1 is invertible and turns
    "non-decreasing from 2" exactly into "strictly increasing from 2");
    g_pierce adds 1 to every digit of a pierce-valid word.
    """
    word = tuple(word)
    source, _, _, _, shift = _spec(kind)
    validate_word(source, word)
    return _image(shift, word)


def transform_point(
    kind: TransformKind, x: ExactQ, rank: int
) -> CylinderInterval | ISPoint:
    """Rank-`rank` target cylinder bracketing the transform's image of x.

    fp: x in (0, 1], positive digits reinterpreted as alternating digits of
    the image (same rule).  t_engel: x in (0, 1] via the engel rule, image
    bracketed in the engel-mod system.  g_pierce: x in (0, 1) via the
    alternating pierce expansion; if x is a cylinder endpoint the outcome is
    an ISPoint carrying the transformed digits (the image is then the
    corresponding endpoint on the target side).
    """
    rank = _integer("rank", rank, 1)
    source, source_sign, target, target_sign, shift = _spec(kind)
    outcome = _digits(source, source_sign, x, rank)
    if isinstance(outcome, ISPoint):
        return ISPoint(rank=outcome.rank, digits=_image(shift, outcome.digits))
    return cylinder(target, _image(shift, outcome), target_sign)


def t_ratio(word: Sequence[int]) -> ExactQ:
    """Exact ratio of image to source cylinder diameter under t_engel.

    For an engel-valid word of length k the ratio telescopes to

        prod_{n=1}^{k} (c_n-1)c_n / ((c_n+n-2)(c_n+n-1))
        * prod_{n=1}^{k-1} (c_n+n-1)/(c_n-1),

    which stays in (0, 2); on the all-2 word of length k it equals
    2**k / (k+1)!.  Computed here as the quotient of the two exact cylinder
    diameters (not the closed form), so tests can cross-check the product.
    """
    word = tuple(word)
    src = word_diameter(_ENGEL, word)
    img = word_diameter(_ENGEL_MOD, transform_digits(TransformKind.t_engel(), word))
    return img / src
