"""Digit maps between systems, their point brackets, and the diameter ratio."""

import random
import warnings
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perron import (
    CapTooSmallWarning,
    DigitRule,
    DomainError,
    FamilySet,
    ISPoint,
    Sign,
    TransformKind,
    ValidityError,
    cylinder,
    enumerate_compatible_bases,
    all_digits,
    family_set_hull,
    positive_digits,
    t_ratio,
    transform_digits,
    transform_point,
    validate_word,
)

ENGEL = DigitRule.engel()
ENGEL_MOD = DigitRule.engel_mod()
PIERCE = DigitRule.pierce()
LUROTH = DigitRule.luroth()


# ---------------------------------------------------------------------------
# digit maps
# ---------------------------------------------------------------------------


def test_transform_digits_examples():
    assert transform_digits(TransformKind.t_engel(), [2, 3, 5]) == (2, 4, 7)
    assert transform_digits(TransformKind.g_pierce(), [3, 5, 9]) == (4, 6, 10)
    assert transform_digits(TransformKind.t_engel(), [2, 2, 2]) == (2, 3, 4)
    assert transform_digits(TransformKind.fp(ENGEL), [2, 2]) == (2, 2)


def test_transform_digits_validates_source():
    with pytest.raises(ValidityError):
        transform_digits(TransformKind.t_engel(), [3, 2])  # not engel-valid
    with pytest.raises(ValidityError):
        transform_digits(TransformKind.g_pierce(), [2, 2])  # must increase
    with pytest.raises(DomainError):
        transform_digits(TransformKind("fp"), [2, 2])  # fp without a rule
    with pytest.raises(DomainError):
        transform_digits(TransformKind("spin"), [2, 2])


def test_t_engel_is_a_rankwise_bijection():
    source = list(enumerate_compatible_bases(ENGEL, all_digits(), 3, 8))
    images = [transform_digits(TransformKind.t_engel(), w) for w in source]
    for img in images:
        validate_word(ENGEL_MOD, img)
    assert len(set(images)) == len(source)
    # inverse shift lands back on a valid source word, so the map is onto
    # the strictly increasing words reachable at this rank
    for img in images:
        back = tuple(c - i for i, c in enumerate(img))
        validate_word(ENGEL, back)
        assert transform_digits(TransformKind.t_engel(), back) == img


def test_t_engel_image_characterizes_targets():
    # every strictly increasing rank-3 word whose inverse shift is valid for
    # the repeating-allowed rule arises as an image; the cap warning from the
    # strictly increasing enumeration near the cap is expected noise here
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        targets = list(enumerate_compatible_bases(ENGEL_MOD, all_digits(), 3, 10))
    images = {
        transform_digits(TransformKind.t_engel(), w)
        for w in enumerate_compatible_bases(ENGEL, all_digits(), 3, 10)
    }
    for tgt in targets:
        back = tuple(c - i for i, c in enumerate(tgt))
        validate_word(ENGEL, back)  # always succeeds: shift preserves validity
        assert tgt in images or max(back) > 10


@given(st.lists(st.integers(1, 30), min_size=1, max_size=8))
def test_g_pierce_preserves_validity(increments):
    digits = []
    prev = 1
    for inc in increments:
        prev += inc
        digits.append(prev)
    word = tuple(digits)
    validate_word(PIERCE, word)
    img = transform_digits(TransformKind.g_pierce(), word)
    validate_word(PIERCE, img)
    assert img == tuple(c + 1 for c in word)


# ---------------------------------------------------------------------------
# sign reinterpretation preserves sizes
# ---------------------------------------------------------------------------


@given(
    st.sampled_from([LUROTH, ENGEL, ENGEL_MOD, PIERCE]),
    st.integers(1, 10**4),
    st.integers(2, 10**4),
    st.integers(1, 6),
)
def test_fp_preserves_cylinder_diameters(rule, p, q, rank):
    x = Fraction(min(p, q), q)
    word = positive_digits(rule, x, rank)
    assert transform_digits(TransformKind.fp(rule), word) == word
    pos = cylinder(rule, word, Sign.POSITIVE)
    alt = cylinder(rule, word, Sign.ALTERNATING)
    assert pos.diameter == alt.diameter


@given(
    st.sampled_from([LUROTH, ENGEL, ENGEL_MOD, PIERCE]),
    st.integers(0, 15),
    st.integers(0, 15),
)
def test_fp_preserves_family_set_measure(rule, gap, length):
    start = 2 + gap
    end = start + length
    pos = family_set_hull(rule, FamilySet(Sign.POSITIVE, (), start, end))
    alt = family_set_hull(rule, FamilySet(Sign.ALTERNATING, (), start, end))
    assert pos.diameter == alt.diameter


# ---------------------------------------------------------------------------
# point brackets
# ---------------------------------------------------------------------------


def test_fp_point_brackets_shrink_to_two_thirds():
    # x = 1 has all-2 digits; the alternating value of that digit stream is
    # the geometric sum 2/3, and the rank-n brackets close in on it
    target = Fraction(2, 3)
    prev_diam = None
    for rank in range(1, 13):
        cyl = transform_point(TransformKind.fp(LUROTH), Fraction(1), rank)
        assert cyl.lo < target < cyl.hi
        if prev_diam is not None:
            assert cyl.diameter < prev_diam
        prev_diam = cyl.diameter
    assert prev_diam < Fraction(1, 1000)


def test_t_engel_point_example():
    cyl = transform_point(TransformKind.t_engel(), Fraction(3, 8), 3)
    assert cyl.word == (3, 10, 11)
    expect = cylinder(ENGEL_MOD, (3, 10, 11), Sign.POSITIVE)
    assert (cyl.lo, cyl.hi) == (expect.lo, expect.hi)


def test_t_engel_point_brackets_nest():
    brackets = [
        transform_point(TransformKind.t_engel(), Fraction(3, 8), rank)
        for rank in range(1, 7)
    ]
    for outer, inner in zip(brackets, brackets[1:]):
        assert outer.lo <= inner.lo and inner.hi <= outer.hi
        assert inner.diameter < outer.diameter


def test_g_pierce_point_and_termination():
    # 2/5 has first alternating digit 3, so the rank-1 image cylinder is (4,);
    # deeper ranks hit the rank-2 termination, propagated with shifted digits
    cyl = transform_point(TransformKind.g_pierce(), Fraction(2, 5), 1)
    assert cyl.word == (4,)

    outcome = transform_point(TransformKind.g_pierce(), Fraction(2, 5), 4)
    assert outcome == ISPoint(rank=2, digits=(4,))


def test_transform_point_rank_domain():
    with pytest.raises(DomainError, match="^rank must be >= 1$"):
        transform_point(TransformKind.t_engel(), Fraction(1, 2), 0)
    # a rank that is not an integer raised TypeError from the extraction
    with pytest.raises(DomainError, match="^rank must be an integer, got 2.5$"):
        transform_point(TransformKind.t_engel(), Fraction(1, 3), 2.5)
    assert transform_point(TransformKind.t_engel(), Fraction(1, 3), True) == transform_point(
        TransformKind.t_engel(), Fraction(1, 3), 1)


# ---------------------------------------------------------------------------
# the diameter ratio of the shift to strictly increasing words
# ---------------------------------------------------------------------------


def test_t_ratio_worked_values():
    assert t_ratio([2]) == 1
    assert t_ratio([2, 3]) == 1


def test_t_ratio_all_two_closed_form():
    for k in range(1, 11):
        assert t_ratio((2,) * k) == Fraction(2**k, factorial(k + 1))


def test_t_ratio_all_two_decay_law():
    for k in range(1, 11):
        assert t_ratio((2,) * (k + 1)) / t_ratio((2,) * k) == Fraction(2, k + 2)


def test_t_ratio_stays_below_two_sampled():
    rng = random.Random(20260821)
    for _ in range(2000):
        digits = []
        c = rng.randint(2, 30)
        for _ in range(rng.randint(1, 12)):
            digits.append(c)
            c += rng.randint(0, 5)
        ratio = t_ratio(tuple(digits))
        assert 0 < ratio < 2


def test_t_ratio_floor_under_cubic_growth():
    """Words growing at least cubically keep the ratio away from zero.

    With c_m >= m**3 the per-rank factors converge fast enough that the
    product over all ranks stays above prod (1 - 2/n**2) >= 1/4.
    """
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randint(1, 12)
        word = tuple(max(2, m**3) + rng.randint(0, m) for m in range(1, k + 1))
        validate_word(ENGEL, word)
        assert t_ratio(word) >= Fraction(1, 4)
