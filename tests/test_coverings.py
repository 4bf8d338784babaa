"""Family-set hulls, boundary covers, three-set interval covers, splitting."""

import itertools
import math
import os
import random
import subprocess
import sys
import time
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perron import (
    FROM_INF,
    TO_SUP,
    BoundaryCover,
    CoverReport,
    DigitRule,
    DomainError,
    FamilySet,
    ISPoint,
    QInterval,
    Sign,
    ValidityError,
    all_digits,
    alternating_digits,
    cover_boundary,
    cover_interval,
    cylinder,
    family_set_hull,
    measure_at_rank,
    partial_sum,
    positive_digits,
    pressure_root,
    rule_value,
    split_parameters,
    split_to_finite,
    verify_cover,
    word_diameter,
)
from perron import coverings
from perron.core import _child, _Frame

import reference
from reference import outcome

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

LUROTH = DigitRule.luroth()
ENGEL = DigitRule.engel()
ENGEL_MOD = DigitRule.engel_mod()
PIERCE = DigitRule.pierce()

RULES = [LUROTH, ENGEL, ENGEL_MOD, PIERCE]
SIGNS = [Sign.POSITIVE, Sign.ALTERNATING]


def interval_for(sign, lo, hi):
    if sign is Sign.POSITIVE:
        return QInterval(lo, hi, False, True)
    return QInterval(lo, hi, False, False)


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------


def test_hull_examples():
    hull = family_set_hull(LUROTH, FamilySet(Sign.POSITIVE, (), 3, 5))
    assert (hull.lo, hull.hi) == (Fraction(1, 5), Fraction(1, 2))
    assert hull.diameter == Fraction(3, 10)
    assert (hull.lo_included, hull.hi_included) == (False, True)

    whole = family_set_hull(ENGEL, FamilySet(Sign.POSITIVE, (), 2, None))
    assert whole.diameter == 1

    # children 3..inf of the first repeating-allowed cylinder: the remainder
    # factor after digit 2 is 1/2, and the unbounded tail from 3 contributes
    # 1/(3-1) of it, so the hull is (1/2, 3/4] with diameter 1/4
    tail = family_set_hull(ENGEL, FamilySet(Sign.POSITIVE, (2,), 3, None))
    assert (tail.lo, tail.hi) == (Fraction(1, 2), Fraction(3, 4))
    assert tail.diameter == Fraction(1, 4)
    assert tail.hi == cylinder(ENGEL, (2, 2), Sign.POSITIVE).lo


def test_alternating_hull_is_open():
    hull = family_set_hull(PIERCE, FamilySet(Sign.ALTERNATING, (), 2, 3))
    assert (hull.lo_included, hull.hi_included) == (False, False)


def test_family_set_validation():
    assert outcome(lambda: family_set_hull(LUROTH, FamilySet(Sign.POSITIVE, (), 1, 5))) == (
        ValidityError, "start 1 below first admissible digit 2", None)
    assert outcome(lambda: family_set_hull(LUROTH, FamilySet(Sign.POSITIVE, (), 5, 3))) == (
        ValidityError, "end 3 below start 5", None)
    assert outcome(lambda: family_set_hull(
        ENGEL_MOD, FamilySet(Sign.POSITIVE, (2, 2), 4, None))) == (
        ValidityError, "digit 2 at position 2 violates c >= 3", 2)


def test_qinterval_must_be_nonempty():
    assert outcome(QInterval, Fraction(1, 2), Fraction(1, 2)) == (
        DomainError, "empty interval [1/2, 1/2]", None)
    assert outcome(QInterval, Fraction(2, 3), Fraction(1, 3)) == (
        DomainError, "empty interval [2/3, 1/3]", None)


@st.composite
def rule_sign_prefix(draw, max_rank=4):
    rule = draw(st.sampled_from(RULES))
    sign = draw(st.sampled_from(SIGNS))
    q = draw(st.integers(2, 10**4))
    p = draw(st.integers(1, q))
    rank = draw(st.integers(0, max_rank))
    prefix = positive_digits(rule, Fraction(p, q), rank)
    return rule, sign, prefix


@given(rule_sign_prefix(), st.integers(0, 12), st.integers(0, 12))
def test_hull_diameter_is_sum_of_member_diameters(rsp, gap, length):
    rule, sign, prefix = rsp
    r = rule_value(rule, prefix)
    start = r + 1 + gap
    end = start + length
    fs = FamilySet(sign, prefix, start, end)
    members = sum(word_diameter(rule, prefix + (i,)) for i in range(start, end + 1))
    assert family_set_hull(rule, fs).diameter == members


@given(rule_sign_prefix(), st.integers(0, 10), st.integers(1, 10))
def test_unbounded_hull_splits_into_head_and_tail(rsp, gap, length):
    rule, sign, prefix = rsp
    r = rule_value(rule, prefix)
    start = r + 1 + gap
    whole = family_set_hull(rule, FamilySet(sign, prefix, start, None)).diameter
    head = family_set_hull(rule, FamilySet(sign, prefix, start, start + length)).diameter
    tail = family_set_hull(rule, FamilySet(sign, prefix, start + length + 1, None)).diameter
    assert head + tail == whole


# ---------------------------------------------------------------------------
# boundary covers
# ---------------------------------------------------------------------------


def test_boundary_exact_junction_collapses_to_one_set():
    # the digit-4 cylinder is (1/4, 1/3], so the piece (0, 1/4] is exactly
    # the digits >= 5
    cov = cover_boundary(LUROTH, Sign.POSITIVE, (), Fraction(1, 4), FROM_INF)
    assert cov.tight == (FamilySet(Sign.POSITIVE, (), 5, None),)
    assert cov.single == FamilySet(Sign.POSITIVE, (), 5, None)
    hull = family_set_hull(LUROTH, cov.single)
    assert (hull.lo, hull.hi) == (Fraction(0), Fraction(1, 4))


def test_boundary_to_sup_descends_to_exact_child():
    cov = cover_boundary(LUROTH, Sign.POSITIVE, (5,), Fraction(21, 100), TO_SUP)
    assert cov.single == FamilySet(Sign.POSITIVE, (5,), 2, 5)
    assert cov.tight == (cov.single,)


def test_boundary_interior_cut_gives_tight_pair():
    # 3/10 is interior to the digit-4 cylinder (1/4, 1/3]; the tight pair is
    # the tail (0, 1/4] plus that whole cylinder
    cov = cover_boundary(LUROTH, Sign.POSITIVE, (), Fraction(3, 10), FROM_INF)
    assert cov.tight == (
        FamilySet(Sign.POSITIVE, (), 5, None),
        FamilySet(Sign.POSITIVE, (), 4, 4),
    )
    assert cov.single == FamilySet(Sign.POSITIVE, (), 4, None)
    hulls = [family_set_hull(LUROTH, fs) for fs in cov.tight]
    assert (hulls[0].lo, hulls[0].hi) == (Fraction(0), Fraction(1, 4))
    assert (hulls[1].lo, hulls[1].hi) == (Fraction(1, 4), Fraction(1, 3))
    for hull in hulls:
        assert hull.diameter <= Fraction(3, 10)
    assert family_set_hull(LUROTH, cov.single).diameter <= 2 * Fraction(3, 10)


# (rule, prefix, cut, side, tight, single) for the alternating sign, each set
# as (prefix, start, end).  Luroth's alternating (2,) is (1/2, 1) with the
# relative position y = 2(1 - x), so its cylinder is descending: FROM_INF is
# a relative high piece there and TO_SUP a low one.
ALT_BOUNDARY_COVERS = [
    # root, low piece, interior cut in the digit-4 child
    (LUROTH, (), Fraction(3, 10), FROM_INF,
     [((), 5, None), ((), 4, 4)], ((), 4, None)),
    # root, high piece, exact junction: digits 2..4 are [1/4, 1) exactly
    (LUROTH, (), Fraction(1, 4), TO_SUP, [((), 2, 4)], ((), 2, 4)),
    # root, high piece inside the first child: descends and flips to low
    (LUROTH, (), Fraction(7, 10), TO_SUP,
     [((2,), 3, None), ((2,), 2, 2)], ((2,), 2, None)),
    # descending (2,), FROM_INF is high: y = 3/10 interior in child 4
    (LUROTH, (2,), Fraction(17, 20), FROM_INF,
     [((2,), 4, 4), ((2,), 2, 3)], ((2,), 2, 4)),
    # descending (2,), TO_SUP is low: y = 1/5, the junction of child 6
    (LUROTH, (2,), Fraction(9, 10), TO_SUP, [((2,), 6, None)], ((2,), 6, None)),
    # descending (2,), FROM_INF high with y = 4/5 inside the first child
    (LUROTH, (2,), Fraction(3, 5), FROM_INF,
     [((2, 2), 4, None), ((2, 2), 3, 3)], ((2, 2), 3, None)),
    # engel's (3,) is (1/3, 1/2), descending: both sides of one cut
    (ENGEL, (3,), Fraction(5, 14), TO_SUP,
     [((3,), 4, None), ((3,), 3, 3)], ((3,), 3, None)),
    (ENGEL, (3,), Fraction(5, 14), FROM_INF,
     [((3, 3), 6, None), ((3, 3), 5, 5)], ((3, 3), 5, None)),
]


@pytest.mark.parametrize("rule, prefix, cut, side, tight, single", ALT_BOUNDARY_COVERS)
def test_alternating_boundary_covers_are_frozen(rule, prefix, cut, side, tight, single):
    cov = cover_boundary(rule, Sign.ALTERNATING, prefix, cut, side)
    assert cov == BoundaryCover(
        tuple(FamilySet(Sign.ALTERNATING, *fs) for fs in tight),
        FamilySet(Sign.ALTERNATING, *single),
    )


def test_boundary_cut_outside_cylinder():
    assert outcome(cover_boundary, LUROTH, Sign.POSITIVE, (2,), Fraction(1, 4), FROM_INF) == (
        DomainError, "cut 1/4 outside (1/2, 1]", None)
    assert outcome(cover_boundary, LUROTH, Sign.POSITIVE, (), Fraction(1, 2), "upward") == (
        DomainError, "unknown side 'upward'", None)
    # side endpoints: FROM_INF allows the supremum but not the infimum
    assert outcome(cover_boundary, LUROTH, Sign.POSITIVE, (2,), Fraction(1, 2), FROM_INF) == (
        DomainError, "cut 1/2 outside (1/2, 1]", None)
    cover_boundary(LUROTH, Sign.POSITIVE, (2,), Fraction(1, 2), TO_SUP)


@pytest.mark.parametrize("sign", SIGNS, ids=["P", "A"])
@pytest.mark.parametrize("prefix", [(3,), (3, 5)], ids=["odd", "even"])
def test_boundary_cuts_at_and_beyond_the_cylinder_ends(sign, prefix):
    # FROM_INF takes cuts in (lo, hi] and TO_SUP in [lo, hi): the included
    # end leaves the whole cylinder as the piece, and the excluded end and
    # every point outside are DomainErrors that name the admissible range
    cyl = cylinder(ENGEL_MOD, prefix, sign)
    lo, hi = cyl.lo, cyl.hi
    whole = FamilySet(sign, prefix, rule_value(ENGEL_MOD, prefix) + 1, None)
    step = (hi - lo) / 7
    for side, included, excluded in ((FROM_INF, hi, lo), (TO_SUP, lo, hi)):
        cov = cover_boundary(ENGEL_MOD, sign, prefix, included, side)
        assert cov == BoundaryCover((whole,), whole)
        span = f"({lo}, {hi}]" if side == FROM_INF else f"[{lo}, {hi})"
        for cut in (excluded, lo - step, hi + step):
            with pytest.raises(DomainError) as exc:
                cover_boundary(ENGEL_MOD, sign, prefix, cut, side)
            assert str(exc.value) == f"cut {cut} outside {span}"


@st.composite
def boundary_case(draw):
    rule = draw(st.sampled_from(RULES))
    sign = draw(st.sampled_from(SIGNS))
    q = draw(st.integers(2, 10**4))
    p = draw(st.integers(1, q))
    rank = draw(st.integers(0, 3))
    prefix = positive_digits(rule, Fraction(p, q), rank)
    cyl_lo, cyl_hi = (Fraction(0), Fraction(1))
    if prefix:
        cyl = cylinder(rule, prefix, sign)
        cyl_lo, cyl_hi = cyl.lo, cyl.hi
    # a cut strictly inside the cylinder
    t = Fraction(draw(st.integers(1, 9999)), 10000)
    cut = cyl_lo + t * (cyl_hi - cyl_lo)
    side = draw(st.sampled_from([FROM_INF, TO_SUP]))
    return rule, sign, prefix, cut, side, cyl_lo, cyl_hi


@settings(max_examples=150)
@given(boundary_case())
def test_boundary_contracts(case):
    rule, sign, prefix, cut, side, cyl_lo, cyl_hi = case
    width = (cut - cyl_lo) if side == FROM_INF else (cyl_hi - cut)
    cov = cover_boundary(rule, sign, prefix, cut, side)

    assert 1 <= len(cov.tight) <= 2
    for fs in cov.tight:
        assert family_set_hull(rule, fs).diameter <= width
    assert family_set_hull(rule, cov.single).diameter <= 2 * width

    piece = (
        interval_for(sign, cyl_lo, cut)
        if side == FROM_INF
        else interval_for(sign, cut, cyl_hi)
    )
    for sets in (cov.tight, [cov.single]):
        report = verify_cover(rule, piece, sets, 1.0)
        assert report.covers


# ---------------------------------------------------------------------------
# three-set interval covers
# ---------------------------------------------------------------------------


def test_cover_exact_cylinder_boundaries_is_one_set():
    U = QInterval(Fraction(1, 5), Fraction(1, 2), False, True)
    assert cover_interval(LUROTH, Sign.POSITIVE, U) == [
        FamilySet(Sign.POSITIVE, (), 3, 5)
    ]


def test_cover_three_set_example():
    U = QInterval(Fraction(21, 100), Fraction(3, 5), False, True)
    sets = cover_interval(LUROTH, Sign.POSITIVE, U)
    assert sets == [
        FamilySet(Sign.POSITIVE, (5,), 2, 5),
        FamilySet(Sign.POSITIVE, (), 3, 4),
        FamilySet(Sign.POSITIVE, (2,), 6, None),
    ]
    for fs in sets:
        assert family_set_hull(LUROTH, fs).diameter <= U.diameter
    assert verify_cover(LUROTH, U, sets, 1.0).covers


def test_cover_from_zero_engel():
    # lower endpoint 0 turns the task into a one-sided cover; 3/4 is interior
    # to the digit-2 cylinder, so the tight pair is the unbounded tail from 3
    # plus the whole digit-2 cylinder (diameter 1/2 <= 3/4)
    U = QInterval(Fraction(0), Fraction(3, 4), False, True)
    sets = cover_interval(ENGEL, Sign.POSITIVE, U)
    assert sets == [
        FamilySet(Sign.POSITIVE, (), 3, None),
        FamilySet(Sign.POSITIVE, (), 2, 2),
    ]
    for fs in sets:
        assert family_set_hull(ENGEL, fs).diameter <= U.diameter
    assert verify_cover(ENGEL, U, sets, 1.0).covers


def test_cover_whole_space():
    sets = cover_interval(LUROTH, Sign.POSITIVE, QInterval(0, 1, False, True))
    assert sets == [FamilySet(Sign.POSITIVE, (), 2, None)]


def _tie_cases():
    # (22/75, 28/75): adjacent children 4 and 3 whose junction 1/3 is U's
    # midpoint, so the lower piece is exactly |U|/2; (3/10, 19/30): the
    # middle block, child 3, is exactly |U|/2.  A tie keeps the lower piece
    # tight in the first case and the middle block on its own in the second.
    P, A = Sign.POSITIVE, Sign.ALTERNATING
    yield "adjacent-P", P, (Fraction(22, 75), Fraction(28, 75)), [
        ((4, 2), 2, 25), ((3,), 5, None)]
    yield "middle-P", P, (Fraction(3, 10), Fraction(19, 30)), [
        ((4, 2), 2, 5), ((), 3, 3), ((2,), 4, None)]
    yield "adjacent-A", A, (Fraction(22, 75), Fraction(28, 75)), [
        ((4,), 4, None), ((4,), 3, 3), ((3, 2), 3, None)]
    yield "middle-A", A, (Fraction(3, 10), Fraction(19, 30)), [
        ((4,), 3, None), ((), 3, 3), ((2, 2), 2, None)]


def _tie(sign, middle):
    """U at the root with a tie in width (see _tie_cases): of the adjacent
    pieces, or of the middle block."""
    lo, hi = (Fraction(3, 10), Fraction(19, 30)) if middle else (Fraction(22, 75), Fraction(28, 75))
    return interval_for(sign, lo, hi)


@pytest.mark.parametrize("depth", [0, 40, 41])
@pytest.mark.parametrize(
    "sign,rel,expected", [pytest.param(*case[1:], id=case[0]) for case in _tie_cases()]
)
def test_cover_width_ties_are_exact(sign, rel, expected, depth):
    """A piece of width exactly |U|/2 counts as wide: the lists below are
    the >= branch.  luroth cylinders are all alike, so U placed at the same
    relative position inside a deep cylinder gives the same list under it."""
    word = positive_digits(LUROTH, Fraction(271828, 314159), depth)
    if word:
        cyl = cylinder(LUROTH, word, sign)
        if sign is Sign.POSITIVE or depth % 2 == 0:
            ends = [cyl.lo + cyl.diameter * t for t in rel]
        else:  # an odd alternating cylinder is flipped
            ends = [cyl.hi - cyl.diameter * t for t in rel]
        lo, hi = sorted(ends)
    else:
        lo, hi = rel
    U = interval_for(sign, lo, hi)
    sets = cover_interval(LUROTH, sign, U)
    assert sets == [FamilySet(sign, word + extra, a, b) for extra, a, b in expected]
    assert all(family_set_hull(LUROTH, fs).diameter <= U.diameter for fs in sets)
    assert verify_cover(LUROTH, U, sets, 1.0).covers


def test_cover_interval_conventions():
    half_open = (DomainError, "positive intervals must be half-open (lo, hi]", None)
    assert outcome(cover_interval, LUROTH, Sign.POSITIVE,
                   QInterval(0, Fraction(1, 2), True, True)) == half_open
    assert outcome(cover_interval, LUROTH, Sign.POSITIVE,
                   QInterval(0, Fraction(1, 2), False, False)) == half_open
    assert outcome(cover_interval, LUROTH, Sign.ALTERNATING,
                   QInterval(0, Fraction(1, 2), False, True)) == (
        DomainError, "alternating intervals must be open (lo, hi)", None)
    assert outcome(cover_interval, LUROTH, Sign.POSITIVE,
                   QInterval(0, Fraction(3, 2), False, True)) == (
        DomainError, "interval (0, 3/2] not inside (0, 1]", None)


@st.composite
def cover_case(draw):
    rule = draw(st.sampled_from(RULES))
    sign = draw(st.sampled_from(SIGNS))
    den = draw(st.integers(2, 10**4))
    a = draw(st.integers(0, den - 1))
    b = draw(st.integers(1, den))
    if a == b:
        b = a + 1
    lo, hi = (Fraction(min(a, b), den), Fraction(max(a, b), den))
    if draw(st.integers(0, 19)) == 0:
        lo = Fraction(0)
    if sign is Sign.ALTERNATING and hi == 1:
        hi = Fraction(2 * den - 1, 2 * den)
    return rule, sign, interval_for(sign, lo, hi)


@settings(max_examples=200)
@given(cover_case())
def test_cover_interval_contracts(case):
    rule, sign, U = case
    sets = cover_interval(rule, sign, U)
    assert 1 <= len(sets) <= 3
    for fs in sets:
        assert fs.sign is sign
        assert family_set_hull(rule, fs).diameter <= U.diameter
    assert verify_cover(rule, U, sets, 1.0).covers


@settings(max_examples=100)
@given(cover_case())
# two ties, a junction end, U from 0 (a low piece) and U up to 1 (a high one)
@example((LUROTH, Sign.POSITIVE, _tie(Sign.POSITIVE, False)))
@example((LUROTH, Sign.ALTERNATING, _tie(Sign.ALTERNATING, True)))
@example((ENGEL, Sign.POSITIVE, interval_for(Sign.POSITIVE, Fraction(1, 3), Fraction(5, 7))))
@example((ENGEL, Sign.POSITIVE, interval_for(Sign.POSITIVE, Fraction(0), Fraction(3, 4))))
@example((PIERCE, Sign.POSITIVE, interval_for(Sign.POSITIVE, Fraction(1, 2), Fraction(1))))
def test_cover_interval_makes_only_the_sets_it_returns(case):
    """Each boundary piece is read once, and only the variant the cover
    takes, tight or single, is made into sets."""
    rule, sign, U = case
    made = []
    init = FamilySet.__init__

    def counting(self, *args):
        made.append(args)
        init(self, *args)

    with mock.patch.object(FamilySet, "__init__", counting):
        sets = cover_interval(rule, sign, U)
    assert len(made) == len(sets)


PARITY = DigitRule.custom(lambda prefix: 1 + sum(prefix) % 2)


@pytest.mark.parametrize("sign", SIGNS, ids=["P", "A"])
def test_cover_walks_ask_a_custom_rule_about_each_prefix_once(sign):
    # a rule keeps no cache, so each walk must not ask about a prefix twice
    calls = []

    def fn(prefix):
        calls.append(prefix)
        return PARITY.fn(prefix)

    rule = DigitRule.custom(fn)
    word = positive_digits(PARITY, Fraction(271828, 314159), 24)
    cyl = cylinder(PARITY, word, sign)
    U = interval_for(sign, cyl.lo + cyl.diameter / 7, cyl.lo + cyl.diameter * 5 / 9)
    sets = cover_interval(PARITY, sign, U)
    child = cylinder(PARITY, word[:6], sign)
    cut = child.lo + child.diameter / 3
    walks = [
        lambda: cover_interval(rule, sign, U),
        lambda: verify_cover(rule, U, sets, 1.0),
        lambda: family_set_hull(rule, sets[0]),
        lambda: cover_boundary(rule, sign, word[:5], cut, FROM_INF),
        lambda: cover_boundary(rule, sign, word[:5], cut, TO_SUP),
    ]
    for walk in walks:
        calls.clear()
        walk()
        assert calls and len(calls) == len(set(calls))


@pytest.mark.parametrize("sign", SIGNS)
def test_custom_rule_deep_cylinders_and_covers(sign):
    # r depends on the whole prefix, so no last-digit shortcut applies
    word = positive_digits(PARITY, Fraction(271828, 314159), 70)
    for k in (1, 2, 35, 70):
        cyl = cylinder(PARITY, word[:k], sign)
        assert cyl.diameter == word_diameter(PARITY, word[:k])
        upper = sign is Sign.ALTERNATING and k % 2
        value = partial_sum(PARITY, word[:k], sign)
        assert value == reference.partial_sum(PARITY, word[:k], sign)
        assert value == (cyl.hi if upper else cyl.lo)

    cyl = cylinder(PARITY, word, sign)
    U = interval_for(sign, cyl.lo + cyl.diameter / 7, cyl.lo + cyl.diameter * 5 / 9)
    sets = cover_interval(PARITY, sign, U)
    assert 1 <= len(sets) <= 3
    assert min(len(fs.prefix) for fs in sets) > 64
    for fs in sets:
        assert family_set_hull(PARITY, fs).diameter <= U.diameter
    assert verify_cover(PARITY, U, sets, 1.0).covers


@pytest.mark.parametrize("sign", SIGNS, ids=["P", "A"])
def test_degenerate_rule_values_mid_descent_are_validity_errors(sign):
    """A descent into a child whose rule value is below 1 stops there.

    Under r_n = c_n - 5 the children 3 and 2 of the root give r_1 = -2 and
    -3; a cover that never enters them is still returned.
    """
    rule = DigitRule.oppenheim(1, -5)
    U = interval_for(sign, Fraction(2, 5), Fraction(9, 20))  # inside child 3
    with pytest.raises(ValidityError) as err:
        cover_interval(rule, sign, U)
    assert str(err.value) == "rule value -2 after position 1 is not a positive integer"
    assert err.value.index == 1

    cut = Fraction(3, 4)  # (3/4, 1] lies inside child 2
    with pytest.raises(ValidityError) as err:
        cover_boundary(rule, sign, (), cut, TO_SUP)
    assert str(err.value) == "rule value -3 after position 1 is not a positive integer"
    assert err.value.index == 1
    tight = (FamilySet(sign, (), 3, None), FamilySet(sign, (), 2, 2))
    single = FamilySet(sign, (), 2, None)
    assert cover_boundary(rule, sign, (), cut, FROM_INF) == BoundaryCover(tight, single)


@pytest.mark.parametrize("sign", SIGNS)
def test_deep_junction_endpoints_resolve_exactly(sign):
    """Endpoints exactly on child junctions of a rank-48 engel cylinder.

    The frame's scale numerator and denominator share the factor
    prod (c_i - 1) here, so every relative position is an unreduced pair and
    the exact-junction branches must recognise it without reducing.
    """
    word = positive_digits(ENGEL, Fraction(271828, 314159), 48)
    frame = _Frame.walk(ENGEL, sign, word)
    assert gcd(frame.sc_num, frame.den) > 2**64
    r = frame.r
    for fs in (
        FamilySet(sign, word, r + 3, r + 7),  # both ends strictly inside
        FamilySet(sign, word, r + 4, None),  # from the accumulating end
        FamilySet(sign, word, r + 1, r + 5),  # up to the first child's end
    ):
        U = family_set_hull(ENGEL, fs)
        assert gcd(*frame.relative(U.lo)) > 1 and gcd(*frame.relative(U.hi)) > 1
        assert cover_interval(ENGEL, sign, U) == [fs]
        assert verify_cover(ENGEL, U, [fs], 1.0).covers

    cyl = cylinder(ENGEL, word, sign)
    for m in (r + 1, r + 2, r + 6):
        low, high = FamilySet(sign, word, m + 1, None), FamilySet(sign, word, r + 1, m)
        h_low, h_high = family_set_hull(ENGEL, low), family_set_hull(ENGEL, high)
        below, above = (low, high) if h_low.lo < h_high.lo else (high, low)
        cut = family_set_hull(ENGEL, below).hi
        assert cyl.lo < cut < cyl.hi
        assert cover_boundary(ENGEL, sign, word, cut, FROM_INF) == BoundaryCover((below,), below)
        assert cover_boundary(ENGEL, sign, word, cut, TO_SUP) == BoundaryCover((above,), above)
        # one end on the junction, the other inside a child on either side
        for lo, hi in ((cut, cut + (cyl.hi - cut) / 3), (cut - (cut - cyl.lo) / 3, cut)):
            U = interval_for(sign, lo, hi)
            sets = cover_interval(ENGEL, sign, U)
            assert 1 <= len(sets) <= 3
            assert all(family_set_hull(ENGEL, fs).diameter <= U.diameter for fs in sets)
            assert verify_cover(ENGEL, U, sets, 1.0).covers


# ---------------------------------------------------------------------------
# splitting unbounded sets
# ---------------------------------------------------------------------------


def test_split_parameter_choice():
    # geometric tail 1/(s-1) < eps first holds at s = 4 for eps = 1/2, alpha = 1
    assert split_parameters(1.0, 0.5) == 4
    assert split_parameters(1.0, 1.0) == 3
    for alpha, eps in ((0.0, 0.5), (1.0, -1.0)):
        assert outcome(split_parameters, alpha, eps) == (
            DomainError, "alpha and eps must be positive", None)


def _split_parameters_by_search(alpha, eps):
    """The minimal s >= 2 with s**alpha > 1 + 1/eps, by linear search."""
    s = 2
    while s**alpha <= 1 + 1 / eps:
        s += 1
    return s


def test_split_parameters_match_linear_search():
    # includes exact roots (bound**(1/alpha) an integer) where the float test
    # decides between the guess and its successor
    for alpha in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0):
        for eps in (0.1, 1 / 8, 0.25, 1 / 3, 0.5, 1.0, 2.0, 10.0):
            assert split_parameters(alpha, eps) == _split_parameters_by_search(alpha, eps)


def test_split_parameters_far_beyond_linear_search():
    alpha, eps = 0.05, 0.5
    s = split_parameters(alpha, eps)
    assert s**alpha > 1 + 1 / eps >= (s - 1) ** alpha
    # guesses that overflow a float (or pass 2**53) are rejected, not searched
    for alpha, eps in ((0.001, 0.5), (0.01, 1e-300), (0.02, 0.5)):
        assert outcome(split_parameters, alpha, eps) == (
            DomainError, f"split ratio for alpha={alpha}, eps={eps} exceeds 2**53", None)
    assert outcome(split_parameters, float("nan"), 0.5) == (
        DomainError, "alpha and eps must be positive", None)


def test_split_parameters_steps_down_from_an_overshooting_guess():
    # the closed-form root floor(bound**(1/alpha)) is 4065864416048191 here,
    # which float rounding puts 9 above the minimal s; a search started
    # from it must come down, and the bisection must not stop at it
    alpha, eps = 0.7128828351944042, 7.455947326874669e-12
    assert int((1 + 1 / eps) ** (1 / alpha)) == 4065864416048191
    s = split_parameters(alpha, eps)
    assert s == 4065864416048182
    assert s**alpha > 1 + 1 / eps
    assert (s - 1) ** alpha <= 1 + 1 / eps


def test_split_parameters_where_the_power_overflows_a_float():
    # a power beyond float range passes the test; each of these used to
    # end in an OverflowError
    assert split_parameters(2000.0, 0.5) == 2
    assert split_parameters(1e308, 1e308) == 2
    assert split_parameters(700.0, 1e-300) == 3  # 2**700 < 1e300 < 3**700
    # 1 + 1/eps is infinite here, so an overflowed power is not above it
    with pytest.raises(DomainError, match=r"exceeds 2\*\*53"):
        split_parameters(1000.0, 5e-324)


def test_split_parameters_tests_an_integer_alpha_in_floats():
    # an exact power (2**53)**alpha would have 53e7 bits here
    assert split_parameters(10**7, 0.5) == 2
    assert split_parameters(2, 0.5) == split_parameters(2.0, 0.5) == 2


def test_split_parameters_search_is_bounded():
    # 1 + 1/eps rounds to 1.0 and (2**53)**1e-20 to 1.0 as well, so no s up
    # to 2**53 passes; the stepping search never returned here, so the call
    # runs in a process of its own
    code = (
        "from perron import DomainError, split_parameters\n"
        "try:\n"
        "    split_parameters(1e-20, 1e20)\n"
        "except DomainError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert "exceeds 2**53" in proc.stdout


def test_split_parameters_far_from_the_start():
    # the minimal s is about 1.16e12: stepping up from 2 took 23.7 s on a
    # 2-CPU x86-64 host
    assert split_parameters(1e-12, 3.6e10) == 1158203366082


def test_split_requires_unbounded_set():
    assert outcome(lambda: next(split_to_finite(
        ENGEL, FamilySet(Sign.POSITIVE, (), 2, 9), 1.0, 1.0))) == (
        DomainError, "split_to_finite needs an unbounded family set", None)
    assert outcome(lambda: next(split_to_finite(
        ENGEL, FamilySet(Sign.POSITIVE, (), 2, None), -1.0, 1.0))) == (
        DomainError, "alpha and eps must be positive", None)


def test_split_blocks_are_consecutive_and_follow_the_recurrence():
    fs = FamilySet(Sign.POSITIVE, (), 2, None)
    s = split_parameters(1.0, 0.5)
    blocks = list(itertools.islice(split_to_finite(LUROTH, fs, 1.0, 0.5), 6))
    t = fs.start
    for blk in blocks:
        assert blk.prefix == fs.prefix and blk.sign is fs.sign
        assert blk.start == t
        t_next = (s + 1) * (t - 1) + 2
        assert blk.end == t_next - 1
        t = t_next


@pytest.mark.parametrize("sign", SIGNS, ids=["P", "A"])
@pytest.mark.parametrize("rule, prefix", [(LUROTH, ()), (ENGEL, (2, 2, 5)), (PIERCE, (3, 7, 8))],
                         ids=["luroth", "engel", "pierce"])
def test_split_blocks_equal_sets_made_the_public_way(rule, prefix, sign):
    # a block is the set the constructor makes from the parent's sign and
    # prefix, field for field, in equality and hash
    fs = FamilySet(sign, prefix, rule_value(rule, prefix) + 2, None)
    for blk in itertools.islice(split_to_finite(rule, fs, 0.5, 0.1), 12):
        made = FamilySet(sign, list(prefix), blk.start, blk.end)
        assert type(blk) is FamilySet and blk == made and hash(blk) == hash(made)
        assert vars(blk) == vars(made) and type(blk.prefix) is tuple
        start = blk.start
        with pytest.raises(AttributeError):
            blk.start = 0
        assert blk.start == start


def cost_with_residue(rule, fs, alpha, eps, n_blocks):
    """Float cost of the first blocks plus the exact-diameter residue bound."""
    s = split_parameters(alpha, eps)
    stream = split_to_finite(rule, fs, alpha, eps)
    cost = 0.0
    last_end = fs.start - 1
    for blk in itertools.islice(stream, n_blocks):
        cost += float(family_set_hull(rule, blk).diameter) ** alpha
        last_end = blk.end
    tail = family_set_hull(rule, FamilySet(fs.sign, fs.prefix, last_end + 1, None))
    residue = float(tail.diameter) ** alpha / (1 - (s + 1) ** (-alpha))
    return cost + residue


def test_split_cost_examples():
    # alpha = 1: disjoint blocks, cost is plain length, below (1+eps) * 1
    fs = FamilySet(Sign.POSITIVE, (), 2, None)
    assert cost_with_residue(ENGEL, fs, 1.0, 1.0, 50) < 2.0

    fs2 = FamilySet(Sign.POSITIVE, (2,), 3, None)
    bound = (1 + 0.1) * float(family_set_hull(ENGEL, fs2).diameter) ** 0.5
    assert cost_with_residue(ENGEL, fs2, 0.5, 0.1, 50) < bound


def test_split_cost_bound_sampled():
    rng = random.Random(7)
    for _ in range(25):
        rule = rng.choice(RULES)
        sign = rng.choice(SIGNS)
        rank = rng.randrange(0, 3)
        x = Fraction(rng.randrange(1, 500), 500)
        prefix = positive_digits(rule, x, rank)
        r = rule_value(rule, prefix)
        fs = FamilySet(sign, prefix, r + 1 + rng.randrange(0, 5), None)
        alpha = rng.choice([0.25, 0.5, 1.0])
        eps = rng.choice([0.1, 0.5, 1.0])
        total = cost_with_residue(rule, fs, alpha, eps, 30)
        bound = (1 + eps) * float(family_set_hull(rule, fs).diameter) ** alpha
        assert total < bound


def test_split_checks_its_arguments_at_the_call():
    # no block is asked for: the errors come from the call itself
    with pytest.raises(ValidityError, match="start 1"):
        split_to_finite(LUROTH, FamilySet(Sign.POSITIVE, (), 1, None), 1.0, 0.5)
    with pytest.raises(DomainError, match="alpha"):
        split_to_finite(LUROTH, FamilySet(Sign.POSITIVE, (), 2, None), -1.0, 0.5)
    with pytest.raises(DomainError, match="unbounded"):
        split_to_finite(LUROTH, FamilySet(Sign.POSITIVE, (), 2, 5), 1.0, 0.5)


# ---------------------------------------------------------------------------
# the verification oracle itself
# ---------------------------------------------------------------------------


def test_verify_examples():
    U = QInterval(Fraction(1, 5), Fraction(1, 2), False, True)
    good = verify_cover(LUROTH, U, [FamilySet(Sign.POSITIVE, (), 3, 5)], 1.0)
    assert good.covers
    assert good.max_diameter == Fraction(3, 10)
    assert good.cost == 0.3

    bad = verify_cover(LUROTH, U, [FamilySet(Sign.POSITIVE, (), 4, 5)], 1.0)
    assert not bad.covers

    empty = verify_cover(LUROTH, U, [], 1.0)
    assert (empty.covers, empty.max_diameter, empty.cost) == (False, 0, 0.0)


def test_verify_crosses_certified_junction_points():
    # two open hulls abut at 1/2, which no open set contains; 1/2 has no
    # alternating expansion, so coverage holds modulo that countable set
    U = QInterval(Fraction(1, 3), Fraction(9, 10), False, False)
    sets = [
        FamilySet(Sign.ALTERNATING, (), 3, 3),
        FamilySet(Sign.ALTERNATING, (), 2, 2),
    ]
    assert verify_cover(PIERCE, U, sets, 1.0).covers


def test_verify_certifies_junctions_deeper_than_64():
    # the sets abut at the junction of children 5 and 6 of the (2,)*k
    # cylinder, a rank-(k+1) endpoint with no alternating expansion
    for k in (63, 64, 100):
        prefix = (2,) * k
        sets = [
            FamilySet(Sign.ALTERNATING, prefix, 2, 5),
            FamilySet(Sign.ALTERNATING, prefix, 6, None),
        ]
        U = family_set_hull(LUROTH, FamilySet(Sign.ALTERNATING, prefix, 2, None))
        assert verify_cover(LUROTH, U, sets, 1.0).covers


def test_verify_rejects_real_alternating_gap():
    U = QInterval(Fraction(1, 4), Fraction(9, 10), False, False)
    sets = [FamilySet(Sign.ALTERNATING, (), 2, 2)]  # hull (1/2, 1)
    assert not verify_cover(PIERCE, U, sets, 1.0).covers


def test_verify_positive_needs_left_closed_chaining():
    # positive hulls are (lo, hi]: a set starting exactly at the current
    # reach point continues the chain
    U = QInterval(Fraction(1, 5), Fraction(1, 2), False, True)
    sets = [
        FamilySet(Sign.POSITIVE, (), 3, 4),
        FamilySet(Sign.POSITIVE, (), 5, 5),
    ]
    assert verify_cover(LUROTH, U, sets, 1.0).covers


@pytest.mark.parametrize("alpha", [float("nan"), 0.0, -1.0, float("-inf")])
def test_verify_rejects_non_positive_alpha(alpha):
    U = QInterval(Fraction(1, 5), Fraction(1, 2), False, True)
    for sets in ([FamilySet(Sign.POSITIVE, (), 3, 5)], []):
        with pytest.raises(DomainError, match="alpha"):
            verify_cover(LUROTH, U, sets, alpha)


def test_verify_rejects_mixed_signs():
    # hulls (1/3, 1/2] and the open (1/5, 1/3): neither contains 1/3, so
    # whichever sign decided the sweep, the answer "covers" would be wrong
    U = QInterval(Fraction(1, 5), Fraction(1, 2), False, True)
    sets = [FamilySet(Sign.POSITIVE, (), 3, 3), FamilySet(Sign.ALTERNATING, (), 4, 5)]
    for order in (sets, sets[::-1]):
        with pytest.raises(DomainError, match="sign"):
            verify_cover(LUROTH, U, order, 1.0)


@pytest.mark.parametrize("prefix", [(2**70000,), (3, 2**70000)], ids=["1", "2"])
@pytest.mark.parametrize("sign", SIGNS, ids=["P", "A"])
def test_covers_under_digits_past_the_extraction_bound_verify(sign, prefix):
    # a cover inside the cylinder of a 70001-bit digit: verify_cover reads
    # that digit only from the sets' own prefixes, so the bound digit
    # extraction applies must not stop it
    cyl = cylinder(LUROTH, prefix, sign)
    w = cyl.hi - cyl.lo
    U = interval_for(sign, cyl.lo + w / 7, cyl.lo + 5 * w / 7)
    sets = cover_interval(LUROTH, sign, U)
    assert all(fs.prefix[: len(prefix)] == prefix for fs in sets)
    assert verify_cover(LUROTH, U, sets, 1.0).covers
    for i in range(len(sets)):
        assert not verify_cover(LUROTH, U, sets[:i] + sets[i + 1 :], 1.0).covers
    extract = positive_digits if sign is Sign.POSITIVE else alternating_digits
    with pytest.raises(DomainError, match=f"position {len(prefix)} has 70001 bits"):
        extract(LUROTH, cyl.lo + w / 2, len(prefix))


def test_verify_enforces_the_target_conventions():
    # 0 is not in the hull (0, 1] of the whole positive space, so a closed
    # target must not be reported as covered
    whole = [FamilySet(Sign.POSITIVE, (), 2, None)]
    with pytest.raises(DomainError, match="half-open"):
        verify_cover(LUROTH, QInterval(0, 1, True, True), whole, 1.0)
    with pytest.raises(DomainError, match="not inside"):
        verify_cover(LUROTH, QInterval(0, Fraction(3, 2), False, True), whole, 1.0)
    alternating = [FamilySet(Sign.ALTERNATING, (), 2, None)]
    with pytest.raises(DomainError, match="open"):
        verify_cover(LUROTH, QInterval(Fraction(1, 5), Fraction(1, 2)), alternating, 1.0)
    # the alpha and sign checks still come first
    with pytest.raises(DomainError, match="alpha"):
        verify_cover(LUROTH, QInterval(0, 1, True, True), whole, 0.0)
    with pytest.raises(DomainError, match="sign"):
        verify_cover(LUROTH, QInterval(0, 1, True, True), whole + alternating, 1.0)


# ---------------------------------------------------------------------------
# the one-pass sweep against the reference's rescanning sweep
# ---------------------------------------------------------------------------


@st.composite
def set_list_case(draw):
    """Single-sign sets under one prefix of depth up to 90: runs of
    consecutive children with gaps or touching ends (alternating stall
    points), an optional unbounded tail, sets nested one level deeper,
    duplicates; U spans hull endpoints or points between them."""
    rule = draw(st.sampled_from(RULES + [PARITY]))
    sign = draw(st.sampled_from(SIGNS))
    q = draw(st.integers(2, 10**4))
    base = positive_digits(rule, Fraction(draw(st.integers(1, q)), q), draw(st.integers(0, 90)))
    r = rule_value(rule, base)
    sets, c = [], r + 1
    runs = st.tuples(st.sampled_from([0, 0, 0, 1, 2]), st.integers(0, 4))  # mostly touching
    for gap, length in draw(st.lists(runs, max_size=5)):
        sets.append(FamilySet(sign, base, c + gap, c + gap + length))
        c += gap + length + 1
    if draw(st.booleans()):
        sets.append(FamilySet(sign, base, c + draw(st.integers(0, 2)), None))
    for digit in draw(st.lists(st.integers(r + 1, r + 12), max_size=3)):
        sub = base + (digit,)
        start = rule_value(rule, sub) + 1 + draw(st.integers(0, 3))
        end = draw(st.one_of(st.none(), st.integers(start, start + 5)))
        sets.append(FamilySet(sign, sub, start, end))
    if not sets:
        sets.append(FamilySet(sign, base, r + 1, None))
    sets += draw(st.lists(st.sampled_from(sets), max_size=2))  # duplicates
    sets = draw(st.permutations(sets))

    hulls = [family_set_hull(rule, fs) for fs in sets]
    ends = sorted({h.lo for h in hulls} | {h.hi for h in hulls})
    points = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    lo, hi = sorted(draw(st.lists(st.sampled_from(points), min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):  # the whole union's span: every junction inside U
        lo, hi = ends[0], ends[-1]
    return rule, interval_for(sign, lo, hi), sets


@settings(max_examples=150, deadline=None)
@given(set_list_case(), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_one_pass_verify_matches_rescanning_sweep(case, alpha):
    rule, U, sets = case
    assert verify_cover(rule, U, sets, alpha) == reference.verify_cover(rule, U, sets, alpha)


@st.composite
def split_prefix_case(draw):
    """Single-sign sets under two or more distinct children of a prefix P of
    depth up to 60 (often 0, and odd or even), each set one or two digits
    further down, so that P is the sets' longest common prefix and shorter
    than every set's prefix.  Children are mostly consecutive and the sets
    often whole cylinders, so hulls abut across the children; U spans hull
    endpoints or points between them."""
    rule = draw(st.sampled_from(RULES + [PARITY]))
    sign = draw(st.sampled_from(SIGNS))
    q = draw(st.integers(2, 10**4))
    depth = draw(st.one_of(st.just(0), st.integers(0, 60)))
    common = positive_digits(rule, Fraction(draw(st.integers(1, q)), q), depth)
    c = rule_value(rule, common) + 1 + draw(st.integers(0, 3))
    sets = []
    for step in draw(st.lists(st.sampled_from([0, 1, 1, 1, 2]), min_size=1, max_size=4)):
        word = common + (c,)
        for _ in range(draw(st.integers(0, 2))):
            word += (rule_value(rule, word) + 1 + draw(st.sampled_from([0, 0, 1, 3])),)
        start = rule_value(rule, word) + 1 + draw(st.sampled_from([0, 0, 0, 1, 4]))
        end = draw(st.one_of(st.none(), st.none(), st.integers(start, start + 6)))
        sets.append(FamilySet(sign, word, start, end))
        c += step
    sets.append(FamilySet(sign, common + (c + 1,), rule_value(rule, common + (c + 1,)) + 1, None))
    sets = draw(st.permutations(sets))

    hulls = [family_set_hull(rule, fs) for fs in sets]
    ends = sorted({h.lo for h in hulls} | {h.hi for h in hulls})
    points = ends + [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    lo, hi = sorted(draw(st.lists(st.sampled_from(points), min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):
        lo, hi = ends[0], ends[-1]
    return rule, interval_for(sign, lo, hi), common, sets


@settings(max_examples=200, deadline=None)
@given(split_prefix_case(), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
def test_verify_under_split_prefixes_matches_rescanning_sweep(case, alpha):
    rule, U, common, sets = case
    assert all(fs.prefix[: len(common)] == common for fs in sets)
    assert len({fs.prefix[len(common)] for fs in sets}) >= 2  # common is the longest
    report = verify_cover(rule, U, sets, alpha)
    expected = reference.verify_cover(rule, U, sets, alpha)
    assert report == expected
    assert report.cost.hex() == expected.cost.hex()


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("sign", SIGNS, ids=["P", "A"])
@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.kind)
def test_verify_chains_across_children_of_the_common_prefix(rule, sign, depth):
    # whole cylinders of three consecutive children of P chain across their
    # union; an odd-length alternating P reverses P's frame, so U's ends
    # swap there, and a missing middle child is a gap in either frame
    common = positive_digits(rule, Fraction(5, 7), depth)
    first = rule_value(rule, common) + 1
    sets = []
    for c in (first, first + 1, first + 2):
        word = common + (c,)
        sets.append(FamilySet(sign, word, rule_value(rule, word) + 1, None))
    union = family_set_hull(rule, FamilySet(sign, common, first, first + 2))
    U = interval_for(sign, union.lo, union.hi)
    inner = interval_for(sign, union.lo + union.diameter / 5, union.hi - union.diameter / 5)
    for target in (U, inner):
        report = verify_cover(rule, target, sets, 0.5)
        assert report.covers
        assert report == reference.verify_cover(rule, target, sets, 0.5)
        for i in range(3):
            rest = sets[:i] + sets[i + 1 :]
            expected = reference.verify_cover(rule, target, rest, 0.5)
            assert verify_cover(rule, target, rest, 0.5) == expected
        assert not verify_cover(rule, target, [sets[0], sets[2]], 0.5).covers


def _invalid(draw, rule, fs):
    """The arguments of fs with a bad digit somewhere in its prefix, a start
    below r+1, or an end below its start.  A digit "x" and an end below the
    start are refused when the set is made; the others when it is read."""
    kind = draw(st.sampled_from(["digit", "start", "end"]))
    if kind == "digit":
        j = draw(st.integers(0, len(fs.prefix) - 1))
        bad = draw(st.sampled_from([1, rule_value(rule, fs.prefix[:j]), "x"]))
        return fs.sign, fs.prefix[:j] + (bad,) + fs.prefix[j + 1 :], fs.start, fs.end
    if kind == "start":
        return fs.sign, fs.prefix, draw(st.integers(0, rule_value(rule, fs.prefix))), fs.end
    return fs.sign, fs.prefix, fs.start, fs.start - draw(st.integers(1, 3))


def _verify_made(verify, rule, U, members, alpha):
    """verify of the family sets made from members, argument tuples, in
    order, so an error in making one is this call's outcome too."""
    return verify(rule, U, [FamilySet(*m) for m in members], alpha)


@settings(max_examples=150, deadline=None)
@given(split_prefix_case(), st.data())
def test_verify_rejects_invalid_members_as_the_rescanning_sweep(case, data):
    """Invalid members raise what walking each set from the root raises,
    the first invalid set in order deciding: a bad digit deep inside one
    prefix, a start below r+1, or an end below the start.  Each set is made
    before either sweep runs, so a set that cannot be made decides first."""
    rule, U, _, sets = case
    members = [(fs.sign, fs.prefix, fs.start, fs.end) for fs in sets]
    positions = st.integers(0, len(sets) - 1)
    for i in data.draw(st.lists(positions, min_size=1, max_size=2, unique=True)):
        members[i] = _invalid(data.draw, rule, sets[i])
    got = outcome(_verify_made, verify_cover, rule, U, members, 1.0)
    assert got[0] is ValidityError
    assert got == outcome(_verify_made, reference.verify_cover, rule, U, members, 1.0)
    # a mixed sign is rejected before any member is read, and an empty list
    # is not a cover
    made = [fs for fs in (outcome(FamilySet, *m) for m in members) if isinstance(fs, FamilySet)]
    fs = sets[0]
    other = Sign.POSITIVE if fs.sign is Sign.ALTERNATING else Sign.ALTERNATING
    mixed = [*made, fs, FamilySet(other, fs.prefix, fs.start, fs.end)]
    assert outcome(verify_cover, rule, U, mixed, 1.0) == (
        DomainError, "the sets of a cover must all have one sign", None,
    )
    assert verify_cover(rule, U, [], 1.0) == CoverReport(False, Fraction(0), 0.0)


def test_verify_rejects_invalid_members_with_the_same_messages():
    # frozen: the messages and indices raised before verify_cover worked in
    # the common prefix's frame, for bad digits beyond it and inside it.  A
    # digit that is not an int and an end below its start are refused when
    # the set is made (the end keeps its text), so each member is made in
    # the call, in order
    U = QInterval(Fraction(1, 8), Fraction(1, 3), False, True)
    sets = [((2, 4), 6, None), ((2, 5), 7, 9)]
    cases = [
        ([*sets, ((2, 1, 3), 5, None)], "digit 1 at position 2 violates c >= 3", 2),
        ([((2, 2, 9), 5, None), *sets], "digit 2 at position 2 violates c >= 3", 2),
        ([*sets, ((2, 4, 4), 6, None)], "digit 4 at position 3 violates c >= 5", 3),
        ([*sets, ((2, 6), 4, None)], "start 4 below first admissible digit 7", None),
        ([*sets, ((2, 6), 9, 8)], "end 8 below start 9", None),
        ([((2, "x"), 9, 8), *sets], "digit 'x' at position 2 is not an integer", 2),
        ([((1, 4), 6, None), ((1, 5), 7, 9)], "digit 1 at position 1 violates c >= 2", 1),
        ([((2, 6), 4, None), ((2, 1, 3), 5, None)],
         "start 4 below first admissible digit 7", None),
    ]
    for members, message, index in cases:
        members = [(Sign.POSITIVE, *m) for m in members]
        expected = (ValidityError, message, index)
        assert outcome(_verify_made, verify_cover, PIERCE, U, members, 1.0) == expected
        assert outcome(_verify_made, reference.verify_cover, PIERCE, U, members, 1.0) == expected


def test_verify_checks_float_digits_beyond_the_common_prefix_in_every_order():
    # a float digit equal to an int is refused when its set is made, so no
    # order of the sets decides it: inside P, the sets' longest common
    # prefix (the first two sets alone, where P's cut by != and a memo keyed
    # by prefix once read 3.0 as 3 in one order), and beyond it
    U = QInterval(Fraction(1, 8), Fraction(1, 3), False, True)
    members = [
        (Sign.POSITIVE, (2, 3, 4), 5, None),
        (Sign.POSITIVE, (2, 3.0, 5), 6, None),
        (Sign.POSITIVE, (2, 4), 5, None),
    ]
    expected = (ValidityError, "digit 3.0 at position 2 is not an integer", 2)
    for some in (members[:2], members):
        for order in itertools.permutations(some):
            assert outcome(_verify_made, verify_cover, ENGEL_MOD, U, order, 1.0) == expected


@pytest.mark.parametrize(
    "args, message, index",
    [
        (((2, 3.0, 5), 6, None), "digit 3.0 at position 2 is not an integer", 2),
        (((2,), 4.0, 5), "start 4.0 or end 5 is not an integer", None),
        (((2,), 4, 5.0), "start 4 or end 5.0 is not an integer", None),
        (((True,), 4, None), "digit True at position 1 is not an integer", 1),
        (((), 2, 1), "end 1 below start 2", None),
        (((), Fraction(3), None), "start Fraction(3, 1) or end None is not an integer", None),
    ],
)
def test_family_set_checks_its_contract_when_made(args, message, index):
    # before, these were made, and (2,) from 4.0 to 5 then failed in
    # family_set_hull with a bare TypeError
    assert outcome(FamilySet, Sign.POSITIVE, *args) == (ValidityError, message, index)


# Each reader of a sign; before, each took any value but Sign.POSITIVE as
# the alternating form, or failed on it with an AttributeError (with "P",
# pressure_root returned s = 0.868831230327487 and measure_at_rank 25/36)
_SIGN_READERS = {
    "cylinder": lambda sign: cylinder(ENGEL, (2, 3), sign),
    "partial_sum": lambda sign: partial_sum(ENGEL, (2, 3), sign),
    "cover_boundary": lambda sign: cover_boundary(ENGEL, sign, (2,), Fraction(3, 5), FROM_INF),
    "cover_interval": lambda sign: cover_interval(
        ENGEL, sign, QInterval(Fraction(1, 5), Fraction(1, 2), False, True)),
    "FamilySet": lambda sign: FamilySet(sign, (2,), 3),
    "pressure_root": lambda sign: pressure_root(LUROTH, sign, all_digits(), 2, 6, 1e-9),
    "measure_at_rank": lambda sign: measure_at_rank(LUROTH, sign, all_digits(), 2, 6),
}


@pytest.mark.parametrize("sign", ["P", "P-", None, 1])
@pytest.mark.parametrize("read", _SIGN_READERS.values(), ids=_SIGN_READERS.keys())
def test_a_sign_that_is_no_sign_member_is_a_domain_error(read, sign):
    message = f"sign must be Sign.POSITIVE or Sign.ALTERNATING, got {sign!r}"
    assert outcome(read, sign) == (DomainError, message, None)


@st.composite
def float_injected_case(draw):
    """Valid sets and U (split_prefix_case), and the same sets' arguments
    with one digit (anywhere in one prefix, P included), start or end
    replaced by the float equal to it (a digit below 2**53, so one is)."""
    rule, U, common, sets = draw(split_prefix_case())
    members = [[fs.sign, fs.prefix, fs.start, fs.end] for fs in sets]
    m = draw(st.sampled_from(members))
    slots = [("digit", j) for j, c in enumerate(m[1]) if c < 2**53] + [("start", 2)]
    slots += [("end", 3)] if m[3] is not None else []
    kind, j = draw(st.sampled_from(slots))
    if kind == "digit":
        m[1] = m[1][:j] + (float(m[1][j]),) + m[1][j + 1 :]
    else:
        m[j] = float(m[j])
    return rule, U, [tuple(m) for m in members], m


@settings(max_examples=100, deadline=None)
@given(float_injected_case(), st.randoms(use_true_random=False))
def test_verify_refuses_float_equal_members_in_every_order(case, rnd):
    rule, U, members, bad = case
    expected = outcome(FamilySet, *bad)
    assert expected[0] is ValidityError
    for _ in range(6):
        rnd.shuffle(members)
        assert outcome(_verify_made, verify_cover, rule, U, members, 1.0) == expected


def _pierce_blocks(sign):
    """Pierce blocks under a prefix whose cylinder is 1/(2(c-1)c), about
    2**-999, wide: block diameters fall by a factor of 5 or more, through
    the subnormal range and below 2**-1075, where float() of the diameter
    is 0.0.  (U, [(sets, covers), ...]): the blocks chain across U in
    either order, and from the 21st on they miss its start."""
    c = 2**499
    prefix = (2, 3, c)
    assert cylinder(PIERCE, prefix, sign).diameter == Fraction(1, 2 * (c - 1) * c)
    fs = FamilySet(sign, prefix, c + 2, None)
    blocks = list(itertools.islice(split_to_finite(PIERCE, fs, 1.0, 0.5), 60))
    diameters = [family_set_hull(PIERCE, b).diameter for b in blocks]
    assert any(0 < float(d) < 2.0**-1022 for d in diameters)
    assert any(d < Fraction(2) ** -1075 for d in diameters)
    U = family_set_hull(PIERCE, FamilySet(sign, prefix, fs.start, blocks[-1].end))
    return U, [(blocks, True), (blocks[::-1], True), (blocks[20:], False)]


def _luroth_thin(sign):
    """The luroth cover of (1/3, 1/3 + 10**-400] (open in the alternating
    form): two sets whose diameters are about 10**-400, so float() of each
    is 0.0."""
    U = interval_for(sign, Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**400))
    sets = cover_interval(LUROTH, sign, U)
    assert len(sets) == 2
    return U, [(sets, True)]


_UNDERFLOW_CASES = [(PIERCE, _pierce_blocks), (LUROTH, _luroth_thin)]


def _decimal_power(d, s):
    """(d ** s in 50-digit decimal arithmetic, the error core._ratio_power
    states for it: a relative 2u (1 + s (3 ln(1/d) + 3)), u = 2**-53, and
    2**-1074 more where the power is below 2**-1022)."""
    with localcontext(Context(prec=50)):
        ln_d = Decimal(d.numerator).ln() - Decimal(d.denominator).ln()
        exact = (Decimal(s) * ln_d).exp()
        u = Decimal(2) ** -53
        bound = 2 * u * (1 + Decimal(s) * (3 * -ln_d + 3)) * exact
        if exact < Decimal(2) ** -1022:
            bound += Decimal(2) ** -1074
        return exact, bound


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("sign", SIGNS, ids=["P", "A"])
def test_verify_cost_is_bit_identical_in_the_underflow_regime(sign, alpha):
    # each cost term comes from core._ratio_power, bit for bit as the
    # reference forms it: one whose quotient is a normal double keeps the
    # bits of float(d) ** alpha, and one below 2**-1022 lies within the
    # stated error of d ** alpha in 50-digit decimals.  It used to be
    # float(d) ** alpha there too, so the luroth cover at alpha 0.5 cost
    # 0.0, where the exact cost is about 1e-200
    power = coverings._ratio_power

    def logged(num, den, s):  # each term with its exact ratio
        terms.append((Fraction(num, den), power(num, den, s)))
        return terms[-1][1]

    for rule, make in _UNDERFLOW_CASES:
        U, runs = make(sign)
        for sets, covers in runs:
            terms = []
            with mock.patch.object(coverings, "_ratio_power", logged):
                report = verify_cover(rule, U, sets, alpha)
            hulls = [family_set_hull(rule, fs) for fs in sets]
            assert [d for d, _ in terms] == [h.diameter for h in hulls]
            assert report.cost == math.fsum(t for _, t in terms)
            for d, t in terms:
                if float(d) >= 2.0**-1022:
                    assert t.hex() == (float(d) ** alpha).hex()
                else:
                    exact, bound = _decimal_power(d, alpha)
                    assert abs(Decimal(t) - exact) <= bound, (d, t)
            assert report.max_diameter == max(h.diameter for h in hulls)
            assert report.covers == covers
            expected = reference.verify_cover(rule, U, sets, alpha)
            assert report == expected and report.cost.hex() == expected.cost.hex()
    if alpha == 0.5:  # the luroth cover, last
        assert 1e-200 < report.cost < 1.01e-200


@st.composite
def alternating_set_case(draw):
    """One alternating set under a prefix of depth up to 90, drawn as in
    set_list_case: the whole cylinder (start r+1, unbounded), a tail from a
    later digit, or a bounded run."""
    rule = draw(st.sampled_from(RULES + [PARITY]))
    q = draw(st.integers(2, 10**4))
    prefix = positive_digits(rule, Fraction(draw(st.integers(1, q)), q), draw(st.integers(0, 90)))
    start = rule_value(rule, prefix) + 1 + draw(st.sampled_from([0, 0, 1, 2, 5, 100]))
    end = draw(st.one_of(st.none(), st.integers(start, start + 12)))
    return rule, FamilySet(Sign.ALTERNATING, prefix, start, end)


@settings(max_examples=200, deadline=None)
@given(alternating_set_case())
def test_alternating_hull_endpoints_are_cylinder_endpoints(case):
    """What lets verify_cover chain abutting open hulls without a check:
    every hull endpoint inside (0, 1) is a cylinder endpoint of rank at most
    len(prefix) + 1, so it has no alternating expansion."""
    rule, fs = case
    hull = family_set_hull(rule, fs)
    for x in (hull.lo, hull.hi):
        if 0 < x < 1:
            assert isinstance(alternating_digits(rule, x, len(fs.prefix) + 2), ISPoint)


@pytest.mark.parametrize(
    "rule, sign",
    [(rule, sign) for rule in (LUROTH, ENGEL) for sign in SIGNS],
    ids=["P", "A", "engel-P", "engel-A"],  # the luroth ids predate engel
)
def test_verify_scales_to_thousands_of_split_blocks(rule, sign):
    # the blocks chain across the hull of their union; the rescanning sweep
    # took minutes here, since every advance of reach rescanned all hulls
    fs = FamilySet(sign, (3,), 5, None)
    blocks = list(itertools.islice(split_to_finite(rule, fs, 1.0, 0.5), 4000))
    U = family_set_hull(rule, FamilySet(sign, (3,), 5, blocks[-1].end))
    began = time.perf_counter()
    report = verify_cover(rule, U, blocks, 1.0)
    elapsed = time.perf_counter() - began
    assert report.covers
    assert report.max_diameter == family_set_hull(rule, blocks[0]).diameter
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# stepped relative positions and deep junction covers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("sign", SIGNS, ids=["P", "A"])
@pytest.mark.parametrize("rule", RULES + [PARITY], ids=lambda r: r.kind)
def test_stepped_relative_positions_match_frame_relative(rule, sign):
    word = positive_digits(rule, Fraction(271828, 314159), 90)
    cyl = cylinder(rule, word, sign)
    for x in (cyl.lo + cyl.diameter / 3, cyl.hi):
        frame = _Frame.walk(rule, sign, ())
        u = frame.relative(x)
        for c in word:
            digit, at_junction, u = _child(sign, frame.r, *u)
            if digit != c:  # an end shared with child c + 1, at y there and 1 - y in c
                assert at_junction and digit == c + 1 and x == cyl.hi
                u = (u[1] - u[0], u[1])
            frame = frame.extend((c,))
            assert u[1] > 0
            assert Fraction(*u) == Fraction(*frame.relative(x))


def _deep_cases():
    for rule in RULES + [PARITY]:
        for sign in SIGNS:
            for depth in (40, 65, 90):
                yield pytest.param(rule, sign, depth, id=f"{rule.kind}-{sign.name[0]}-{depth}")


@pytest.mark.parametrize("rule,sign,depth", _deep_cases())
def test_deep_junction_covers_meet_their_contracts(rule, sign, depth):
    """Covers whose endpoints sit on child and grandchild junctions of a
    rank 40-90 cylinder, or inside a child next to such a junction."""
    word = positive_digits(rule, Fraction(314159, 271828 * 2), depth)
    r = rule_value(rule, word)
    cyl = cylinder(rule, word, sign)
    child = cylinder(rule, word + (r + 2,), sign)
    grandchild = cylinder(rule, word + (r + 2, rule_value(rule, word + (r + 2,)) + 3), sign)
    ends = {grandchild.lo, grandchild.hi}
    for m in range(r + 1, r + 5):
        ends |= {cylinder(rule, word + (m,), sign).lo, cylinder(rule, word + (m,), sign).hi}
    junctions = sorted(p for p in ends if cyl.lo < p < cyl.hi)
    assert len(junctions) == 6 and child.lo in junctions and child.hi in junctions
    points = sorted(junctions + [(a + b) / 2 for a, b in zip(junctions, junctions[1:])])
    for lo, hi in itertools.combinations(points, 2):
        U = interval_for(sign, lo, hi)
        sets = cover_interval(rule, sign, U)
        assert 1 <= len(sets) <= 3
        assert all(fs.sign is sign for fs in sets)
        assert all(family_set_hull(rule, fs).diameter <= U.diameter for fs in sets)
        assert verify_cover(rule, U, sets, 1.0).covers

    for cut in junctions:
        for side, width in ((FROM_INF, cut - cyl.lo), (TO_SUP, cyl.hi - cut)):
            cov = cover_boundary(rule, sign, word, cut, side)
            assert 1 <= len(cov.tight) <= 2
            assert all(family_set_hull(rule, fs).diameter <= width for fs in cov.tight)
            assert family_set_hull(rule, cov.single).diameter <= 2 * width
            piece = (
                interval_for(sign, cyl.lo, cut)
                if side == FROM_INF
                else interval_for(sign, cut, cyl.hi)
            )
            for sets in (cov.tight, [cov.single]):
                assert verify_cover(rule, piece, sets, 1.0).covers


# ---------------------------------------------------------------------------
# an independent oracle: covers against exact point sampling
# ---------------------------------------------------------------------------

BUILT_IN = RULES + [DigitRule.oppenheim(2, 1)]


@st.composite
def nested_cover_case(draw):
    """U inside a random rank-0..40 cylinder of a built-in rule, its ends
    drawn from the cylinder's own ends, its children's ends in either form,
    and relative positions with small or fine denominators; plus relative
    positions of interior sample points."""
    rule = draw(st.sampled_from(BUILT_IN))
    sign = draw(st.sampled_from(SIGNS))
    word, r = (), rule.phi0
    for _ in range(draw(st.integers(0, 40))):
        word += (r + 1 + draw(st.integers(0, 3)),)
        r = rule.a * word[-1] + rule.b
    lo, hi = reference.cylinder_ends(rule, sign, word)
    ends = {lo, hi}
    for c, form in itertools.product(range(r + 1, r + 7), SIGNS):
        ends.update(reference.cylinder_ends(rule, form, word + (c,)))
    fine = st.integers(1, 10**6 - 1).map(lambda k: Fraction(k, 10**6))
    position = st.one_of(st.fractions(0, 1, max_denominator=12), fine)
    end = st.one_of(st.sampled_from(sorted(p for p in ends if lo <= p <= hi)),
                    position.map(lambda t: lo + (hi - lo) * t))
    x1, x2 = sorted(draw(st.lists(end, min_size=2, max_size=2, unique=True)))
    inner = draw(st.lists(st.one_of(position, fine).filter(lambda t: 0 < t < 1),
                          min_size=1, max_size=3))
    return rule, sign, word, x1, x2, inner


def _sample_points(rule, word, lo, hi, inner, closed_hi):
    """Exact points of (lo, hi), or of (lo, hi] when closed_hi, inside word's
    cylinder: interior points at the relative positions inner, points a hair
    inside both ends, hi itself when closed_hi, the cylinder junctions of
    ranks 1-3 below word, in both forms, that fall inside, and one point
    between each two of these."""
    hair = (hi - lo) / 2**60
    points = {lo + (hi - lo) * t for t in inner} | {lo + hair, hi - hair}
    if closed_hi:
        points.add(hi)
    for x in list(points):
        below = reference.digits(rule, Sign.POSITIVE, x, len(word) + 3)
        for k in range(len(word) + 1, len(word) + 4):
            for form in SIGNS:
                points.update(reference.cylinder_ends(rule, form, below[:k]))
    points = sorted(p for p in points if lo < p < hi or (p == hi and closed_hi))
    return points + [(a + b) / 2 for a, b in zip(points, points[1:])]


def _holders(rule, sign, x, sets):
    """The sets that hold x, read off x's own digits; None when x is an
    alternating endpoint, which no set can hold and no cover needs to."""
    digits = reference.digits(rule, sign, x, max(len(fs.prefix) for fs in sets) + 1)
    if isinstance(digits, ISPoint):
        return None
    return [
        fs for fs in sets
        if digits[: len(fs.prefix)] == fs.prefix
        and fs.start <= digits[len(fs.prefix)]
        and (fs.end is None or digits[len(fs.prefix)] <= fs.end)
    ]


@settings(max_examples=60, deadline=None)
@given(nested_cover_case())
def test_covers_hold_every_sampled_point(case):
    """Every exact point of U sampled here lies in one of its cover's sets,
    read off the point's own digits; no set is wider than U.

    The points are those of _sample_points for U inside its cylinder, U's
    included end among them.  Alternating endpoints are exempt: the cover
    holds modulo that countable set.
    """
    rule, sign, word, lo, hi, inner = case
    U = interval_for(sign, lo, hi)
    sets = cover_interval(rule, sign, U)
    assert 1 <= len(sets) <= 3
    for fs in sets:
        assert fs.sign is sign
        assert reference.diameter(rule, fs) <= U.diameter
    for x in _sample_points(rule, word, lo, hi, inner, sign is Sign.POSITIVE):
        assert _holders(rule, sign, x, sets) != [], (x, sets)


@settings(max_examples=60, deadline=None)
@given(nested_cover_case(), st.booleans(), st.booleans())
def test_boundary_covers_hold_every_sampled_point(case, from_inf, upper):
    """Both variants of cover_boundary hold every sampled point of their
    piece, read off the point's own digits: tight in 1-2 sets of diameter at
    most the piece width w, single in one set of diameter at most 2w.

    The piece of word's cylinder (lo, hi) runs from lo up to the cut
    (FROM_INF) or from the cut up to hi (TO_SUP); positive pieces include
    their upper end, and alternating ones are covered modulo the endpoint
    set, so there the cut itself is not sampled.  The cut is either end of
    the drawn U, inside the piece's range.
    """
    rule, sign, word, x1, x2, inner = case
    lo, hi = reference.cylinder_ends(rule, sign, word)
    cut = x2 if upper else x1
    if not (lo < cut if from_inf else cut < hi):
        cut = x2 if from_inf else x1
    side = FROM_INF if from_inf else TO_SUP
    piece = (lo, cut) if from_inf else (cut, hi)
    w = piece[1] - piece[0]
    cover = cover_boundary(rule, sign, word, cut, side)
    assert 1 <= len(cover.tight) <= 2
    for fs in (*cover.tight, cover.single):
        assert fs.sign is sign
    assert all(reference.diameter(rule, fs) <= w for fs in cover.tight)
    assert reference.diameter(rule, cover.single) <= 2 * w
    for x in _sample_points(rule, word, *piece, inner, sign is Sign.POSITIVE):
        for sets in (cover.tight, [cover.single]):
            assert _holders(rule, sign, x, sets) != [], (x, side, sets)


@settings(max_examples=40, deadline=None)
@given(nested_cover_case(), st.integers(0, 5), st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       st.sampled_from([0.1, 0.5, 1.0]))
def test_split_blocks_hold_every_sampled_point_once(case, offset, alpha, eps):
    """The first blocks of split_to_finite tile the part of the unbounded
    family set they reach: every sampled point there lies in exactly one
    block, read off its own digits, and block j (from 1) is narrower than
    |fs| / (s + 1)**(j - 1).

    The set is word's children from r + 1 + offset on.  The points are those
    of _sample_points in the hull of each block's children and the next
    block's first child, so a gap between blocks is sampled too; the upper
    end is included when positive.  Alternating endpoints are exempt.
    """
    rule, sign, word, _, _, inner = case
    fs = FamilySet(sign, word, rule_value(rule, word) + 1 + offset, None)
    s = split_parameters(alpha, eps)
    blocks = list(itertools.islice(split_to_finite(rule, fs, alpha, eps), 5))
    width = reference.diameter(rule, fs)
    for j, block in enumerate(blocks, start=1):
        assert reference.diameter(rule, block) < width / (s + 1) ** (j - 1)
    for block in blocks:
        top = min(block.end + 1, blocks[-1].end)
        ends = [*reference.cylinder_ends(rule, sign, word + (block.start,)),
                *reference.cylinder_ends(rule, sign, word + (top,))]
        for x in _sample_points(rule, word, min(ends), max(ends), inner, sign is Sign.POSITIVE):
            held = _holders(rule, sign, x, blocks)
            assert held is None or len(held) == 1, (x, block, held)


# ---------------------------------------------------------------------------
# the descent and verify_cover against the reference's Fraction forms
# ---------------------------------------------------------------------------


DIFF_RULES = [LUROTH, ENGEL, ENGEL_MOD, PIERCE, DigitRule.oppenheim(2, 1), PARITY,
              DigitRule.oppenheim(1, -5)]


@st.composite
def differential_case(draw):
    """A rule (every built-in one, oppenheim(2,1), a custom rule, and one
    whose values drop below 1), a sign, and U nested in the cylinder of a
    word up to 70 digits deep.  U's ends are child junctions of the word or
    of a child (so exactly at a cylinder end), points with small relative
    denominators, or points with large unrelated denominators."""
    rule = draw(st.sampled_from(DIFF_RULES))
    sign = draw(st.sampled_from(SIGNS))
    q = draw(st.integers(2, 10**6))
    try:
        word = positive_digits(rule, Fraction(draw(st.integers(1, q - 1)), q),
                               draw(st.integers(0, 70)))
    except ValidityError:
        word = ()
    lo, hi = reference.cylinder_ends(rule, sign, word)
    r = rule_value(rule, word)

    def point():
        kind = draw(st.sampled_from(["junction", "deep junction", "small", "large"]))
        if kind == "small":
            den = draw(st.integers(1, 10**4))
            return lo + (hi - lo) * Fraction(draw(st.integers(0, den)), den)
        if kind == "large":
            den = draw(st.integers(2**60, 2**200))
            return lo + (hi - lo) * Fraction(draw(st.integers(0, den)), den)
        child = word + (r + 1 + draw(st.integers(0, 6)),)
        try:
            if kind == "deep junction":
                child += (rule_value(rule, child) + 1 + draw(st.integers(0, 6)),)
            return draw(st.sampled_from(reference.cylinder_ends(rule, sign, child)))
        except ValidityError:
            return lo
    x1, x2 = sorted((point(), point()))
    assume(x1 < x2)
    return rule, sign, interval_for(sign, x1, x2)


def _tie_below(rule, sign, word, middle):
    """U inside word's cylinder with a tie in width at its children: the
    adjacent children c + 1 and c (c = r + 2) split U at its midpoint, or
    child c + 1 between them is exactly |U|/2.  The descent reaches the
    tie through word, and its position pairs then carry common factors
    (in the thousands under the words below), which the width tests
    reduce away."""
    off, sc, r = reference.cylinder_map(rule, sign, word)
    c = r + 2
    if middle:
        m = Fraction(r, c) - Fraction(r, c + 1)
        rel = (Fraction(r, c + 1) - m / 4, Fraction(r, c) + 3 * m / 4)
    else:
        w = Fraction(r, 3 * (c + 1) * (c + 2))
        rel = (Fraction(r, c) - w, Fraction(r, c) + w)
    return interval_for(sign, *sorted(off + sc * t for t in rel))


def _bench_like(sign):
    """U at relative (2137/9973, 7001/9973] of a depth-90 pierce cylinder,
    as a deep bench cover op draws it: the descent's position pairs pass
    13 000 bits there, and reduce to a few bits."""
    word = positive_digits(PIERCE, Fraction(271828, 314159), 90)
    off, sc, _ = reference.cylinder_map(PIERCE, sign, word)
    return interval_for(sign, *sorted(off + sc * t for t in (Fraction(2137, 9973),
                                                               Fraction(7001, 9973))))


@settings(max_examples=300, deadline=None)
@given(differential_case(), st.sampled_from([0.25, 0.5, 1.0, 2.0]))
@example((LUROTH, Sign.POSITIVE, _tie(Sign.POSITIVE, False)), 1.0)
@example((LUROTH, Sign.ALTERNATING, _tie(Sign.ALTERNATING, True)), 1.0)
@example((LUROTH, Sign.ALTERNATING, _tie(Sign.ALTERNATING, False)), 1.0)
@example((LUROTH, Sign.POSITIVE, _tie(Sign.POSITIVE, True)), 1.0)
@example((ENGEL, Sign.POSITIVE, _tie_below(ENGEL, Sign.POSITIVE, (3, 4, 6, 9), False)), 0.5)
@example((ENGEL, Sign.ALTERNATING, _tie_below(ENGEL, Sign.ALTERNATING, (3, 4, 6, 9), True)), 0.5)
@example((PIERCE, Sign.ALTERNATING, _tie_below(PIERCE, Sign.ALTERNATING, (2, 3, 5, 8), False)),
         0.5)
@example((PIERCE, Sign.POSITIVE, _tie_below(PIERCE, Sign.POSITIVE, (2, 3, 5, 8), True)), 0.5)
# decisions between ends of unequal denominators, which a width test that
# paired each end's numerator with its own denominator would flip
@example((LUROTH, Sign.POSITIVE, interval_for(Sign.POSITIVE, Fraction(2, 5), Fraction(3, 7))), 1.0)
@example((LUROTH, Sign.POSITIVE, interval_for(Sign.POSITIVE, Fraction(2, 7), Fraction(2, 3))), 1.0)
@example((PIERCE, Sign.POSITIVE, _bench_like(Sign.POSITIVE)), 0.5)
@example((PIERCE, Sign.ALTERNATING, _bench_like(Sign.ALTERNATING)), 0.5)
def test_cover_and_verify_match_the_two_step_fraction_forms(case, alpha):
    rule, sign, U = case
    sets = outcome(cover_interval, rule, sign, U)
    assert sets == outcome(reference.cover_interval, rule, sign, U)
    if isinstance(sets, list):
        report = verify_cover(rule, U, sets, alpha)
        expected = reference.verify_cover(rule, U, sets, alpha)
        assert report == expected
        assert report.cost.hex() == expected.cost.hex()


# ---------------------------------------------------------------------------
# the inline rule step's fallbacks: each error keeps its text and index
# ---------------------------------------------------------------------------

# r_1 = 1 after any first digit, then r_2 = 0
DROPS = DigitRule.custom(lambda prefix: 2 - len(prefix))
OPP = DigitRule.oppenheim(1, -5)  # r = c - 5, so a digit below 6 gives r < 1


def _boundary_high(rule, prefix, cut_rel):
    """cover_boundary of the high piece above relative cut_rel of prefix's
    positive cylinder."""
    cyl = cylinder(rule, prefix, Sign.POSITIVE) if prefix else None
    lo, hi = (cyl.lo, cyl.hi) if cyl else (Fraction(0), Fraction(1))
    return cover_boundary(rule, Sign.POSITIVE, prefix, lo + (hi - lo) * cut_rel, TO_SUP)


FALLBACKS = [
    # a digit below r + 1
    (lambda: cylinder(ENGEL_MOD, (3, 3), Sign.POSITIVE),
     "digit 3 at position 2 violates c >= 4", 2),
    (lambda: family_set_hull(ENGEL_MOD, FamilySet(Sign.ALTERNATING, (3, 2), 5, None)),
     "digit 2 at position 2 violates c >= 4", 2),
    (lambda: verify_cover(ENGEL_MOD, QInterval(Fraction(1, 8), Fraction(1, 3)),
                          [FamilySet(Sign.POSITIVE, (2, 2), 3, None)], 1.0),
     "digit 2 at position 2 violates c >= 3", 2),
    (lambda: cover_boundary(PIERCE, Sign.POSITIVE, (2, 1), Fraction(1, 3), TO_SUP),
     "digit 1 at position 2 violates c >= 3", 2),
    # a float digit and a True digit (a family set refuses both when made);
    # a float read "violates c >= 2", a True still does
    (lambda: cylinder(ENGEL, (2, 3.0), Sign.POSITIVE),
     "digit 3.0 at position 2 is not an integer", 2),
    (lambda: cylinder(LUROTH, (2, True), Sign.ALTERNATING),
     "digit True at position 2 violates c >= 2", 2),
    (lambda: cover_boundary(LUROTH, Sign.POSITIVE, (2.0,), Fraction(3, 4), TO_SUP),
     "digit 2.0 at position 1 is not an integer", 1),
    (lambda: cover_boundary(ENGEL_MOD, Sign.ALTERNATING, (True,), Fraction(1, 2), FROM_INF),
     "digit True at position 1 violates c >= 2", 1),
    (lambda: family_set_hull(LUROTH, FamilySet(Sign.POSITIVE, (2, 2.0), 2)),
     "digit 2.0 at position 2 is not an integer", 2),
    (lambda: verify_cover(LUROTH, QInterval(Fraction(1, 8), Fraction(1, 3)),
                          [FamilySet(Sign.POSITIVE, (True,), 2)], 1.0),
     "digit True at position 1 is not an integer", 1),
    # a built-in rule value below 1
    (lambda: cylinder(OPP, (7, 3), Sign.ALTERNATING),
     "rule value -2 after position 2 is not a positive integer", 2),
    (lambda: family_set_hull(OPP, FamilySet(Sign.POSITIVE, (4,), 2, None)),
     "rule value -1 after position 1 is not a positive integer", 1),
    (lambda: verify_cover(OPP, QInterval(Fraction(1, 8), Fraction(1, 3)),
                          [FamilySet(Sign.POSITIVE, (8, 5), 2, None)], 1.0),
     "rule value 0 after position 2 is not a positive integer", 2),
    (lambda: positive_digits(OPP, Fraction(2, 5), 3),
     "rule value -2 after position 1 is not a positive integer", 1),
    (lambda: _boundary_high(OPP, (7,), Fraction(5, 6)),  # r_1 = 2: child 3 gives -2
     "rule value -2 after position 2 is not a positive integer", 2),
    # a custom rule value below 1
    (lambda: cylinder(DROPS, (2, 2), Sign.POSITIVE),
     "rule value 0 after position 2 is not a positive integer", 2),
    (lambda: family_set_hull(DROPS, FamilySet(Sign.ALTERNATING, (3, 5), 2, None)),
     "rule value 0 after position 2 is not a positive integer", 2),
    (lambda: verify_cover(DROPS, QInterval(Fraction(1, 8), Fraction(1, 3)),
                          [FamilySet(Sign.POSITIVE, (2, 2), 2, 4)], 1.0),
     "rule value 0 after position 2 is not a positive integer", 2),
    (lambda: positive_digits(DROPS, Fraction(2, 7), 3),
     "rule value 0 after position 2 is not a positive integer", 2),
    (lambda: _boundary_high(DROPS, (3,), Fraction(2, 3)),  # r_1 = 1: child 2 gives 0
     "rule value 0 after position 2 is not a positive integer", 2),
]


@pytest.mark.parametrize("call, message, index", FALLBACKS)
def test_inline_rule_step_falls_back_to_the_checked_step(call, message, index):
    with pytest.raises(ValidityError) as err:
        call()
    assert (str(err.value), err.value.index) == (message, index)


@st.composite
def deep_boundary_case(draw):
    """A rule of DIFF_RULES, a sign, a word up to 6 digits deep, and a cut
    m/2^k of the cylinder's width (k up to 60) from either end, on either
    side: from the end where the first child lies, a high piece descends
    through about k first children under luroth (whose first child holds
    half its cylinder), and under oppenheim(1,-5) until r drops below 1."""
    rule = draw(st.sampled_from(DIFF_RULES))
    sign = draw(st.sampled_from(SIGNS))
    q = draw(st.integers(2, 10**6))
    try:
        word = positive_digits(rule, Fraction(draw(st.integers(1, q - 1)), q),
                               draw(st.integers(0, 6)))
    except ValidityError:
        word = ()
    lo, hi = reference.cylinder_ends(rule, sign, word)
    v = (hi - lo) * Fraction(draw(st.integers(1, 7)), 2 ** draw(st.integers(3, 60)))
    cut = draw(st.sampled_from([lo + v, hi - v]))
    return rule, sign, word, cut, draw(st.sampled_from([FROM_INF, TO_SUP]))


@settings(max_examples=400, deadline=None)
@given(deep_boundary_case())
@example((LUROTH, Sign.POSITIVE, (), 1 - Fraction(1, 2**60), TO_SUP))
@example((LUROTH, Sign.ALTERNATING, (3,), Fraction(1, 3) + Fraction(1, 6 * 2**60), FROM_INF))
@example((OPP, Sign.POSITIVE, (40,), Fraction(1, 39) - Fraction(1, 39 * 40 * 2**50), TO_SUP))
@example((LUROTH, Sign.POSITIVE, (3,), Fraction(1, 3), TO_SUP))  # from the infimum: u = 0
def test_boundary_descent_matches_the_first_child_step(case):
    rule, sign, word, cut, side = case
    expected = outcome(reference.cover_boundary, rule, sign, word, cut, side)
    assert outcome(cover_boundary, rule, sign, word, cut, side) == expected
