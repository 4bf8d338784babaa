"""The paper's transfer principles for the digit maps, at finite rank.

t_engel carries classical Engel words onto modified Engel words and
g_pierce carries Pierce words onto Pierce words.  For each map, a rank k
and a cap C, the image of the source's compatible bases (every digit <= C)
is a set of bases that the public enumeration lists directly: each row
states it by an image predicate and an image cap.  Each row checks three
things:

1. transform_digits maps the source's bases one to one onto the image's.

2. The pressure roots of the two sets are close.  Let d be a source
   diameter, d' = t d its image's, with m <= t <= M over the bases, and
   D the largest d.  Let s1 and s2 be the roots: sum d^s1 = 1 and
   sum d'^s2 = 1.  If s2 >= s1, then

       sum d^s2 = sum d^s1 d^(s2 - s1) <= D^(s2 - s1),
       1 = sum t^s2 d^s2 <= M^s2 sum d^s2,

   so M^(-s2) <= D^(s2 - s1), that is (s2 - s1) ln(1/D) <= s2 ln M.  If
   s2 < s1, the same steps run with every inequality reversed and m in
   place of M: sum d^s2 >= D^(s2 - s1) and sum d^s2 <= m^(-s2), so
   (s1 - s2) ln(1/D) <= s2 ln(1/m).  Together,

       |s2 - s1| <= s2 max(ln M, ln 1/m) / ln(1/D).

   This is an inequality at each (rank, cap), not a convergence: the
   least ratio falls fast with the rank (t_ratio on the all-2 word is
   2^k / (k+1)!).

3. pressure_root on the image equals tests/reference.py's pressure_root,
   which lists the image's bases one by one: equal bases_count and
   s_value, and residuals within 1e-15.  This is an oracle comparison,
   not a third principle.  Each image is an opaque whole-word predicate
   under a built-in rule, so the library's root runs on word-keyed
   levels.  The source's sum reweighted by each word's exact ratio adds
   nothing to check 1: each term d (d'/d) is d' exactly.

The fp map is criterion 08 of tests/test_acceptance.py.  Pierce words at
cap C warn CapTooSmallWarning at position 2, since no digit <= C follows
the word (C,); the image at cap C + 1 does the same.  The rows expect
that warning from both enumerations and both roots.
"""

import contextlib
import math

import pytest
import reference

from perron import (
    CapTooSmallWarning,
    DigitPredicate,
    DigitRule,
    Sign,
    TransformKind,
    all_digits,
    enumerate_compatible_bases,
    pressure_root,
    transform_digits,
    word_diameter,
)

ENGEL = DigitRule.engel()
ENGEL_MOD = DigitRule.engel_mod()
PIERCE = DigitRule.pierce()


def engel_image(cap):
    """The t_engel image of the engel words with digits <= cap, asked of
    each whole word: c'_n - (n - 1) <= cap."""
    return DigitPredicate(lambda word: all(c - n <= cap for n, c in enumerate(word)),
                          f"c'_n - (n - 1) <= {cap}")


PIERCE_IMAGE = DigitPredicate(lambda word: word[0] >= 3, "c'_1 >= 3")

# (kind, source rule, target rule, sign, rank k, cap C, image predicate,
# image cap, whether the cap cuts a word off at position 2)
ROWS = [
    pytest.param(TransformKind.t_engel(), ENGEL, ENGEL_MOD, Sign.POSITIVE, 2, 40,
                 engel_image(40), 41, False, id="t_engel-2-40"),
    pytest.param(TransformKind.t_engel(), ENGEL, ENGEL_MOD, Sign.POSITIVE, 3, 12,
                 engel_image(12), 14, False, id="t_engel-3-12"),
    pytest.param(TransformKind.g_pierce(), PIERCE, PIERCE, Sign.ALTERNATING, 2, 60,
                 PIERCE_IMAGE, 61, True, id="g_pierce-2-60"),
    pytest.param(TransformKind.g_pierce(), PIERCE, PIERCE, Sign.ALTERNATING, 3, 30,
                 PIERCE_IMAGE, 31, True, id="g_pierce-3-30"),
]


@pytest.mark.parametrize("kind,source,target,sign,rank,cap,image,image_cap,cut", ROWS)
def test_a_digit_map_carries_bases_and_bounds_the_root_shift(
    kind, source, target, sign, rank, cap, image, image_cap, cut
):
    def capped():
        if cut:
            return pytest.warns(CapTooSmallWarning, match="position 2")
        return contextlib.nullcontext()

    with capped():
        bases = list(enumerate_compatible_bases(source, all_digits(), rank, cap))
    with capped():
        image_bases = list(enumerate_compatible_bases(target, image, rank, image_cap))
    mapped = [transform_digits(kind, word) for word in bases]
    assert len(set(mapped)) == len(bases) and sorted(mapped) == image_bases

    with capped():
        s1 = pressure_root(source, sign, all_digits(), rank, cap, 1e-12).s_value
    with capped():
        image_root = pressure_root(target, sign, image, rank, image_cap, 1e-12)
    s2 = image_root.s_value
    ratios = [word_diameter(target, v) / word_diameter(source, w) for w, v in zip(bases, mapped)]
    largest = max(word_diameter(source, word) for word in bases)
    spread = max(math.log(max(ratios)), -math.log(min(ratios)))
    assert abs(s2 - s1) <= s2 * spread / -math.log(largest)

    ref = reference.pressure_root(target, sign, image, rank, image_cap, 1e-12)
    assert (image_root.bases_count, s2) == (ref.bases_count, ref.s_value)
    assert abs(image_root.residual - ref.residual) <= 1e-15
