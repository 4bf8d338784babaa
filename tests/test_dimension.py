"""Base enumeration, pressure roots, the independent Moran solver, measures."""

import functools
import itertools
import math
import random
import warnings
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perron import dimension
from perron import (
    CapTooSmallWarning,
    DigitPredicate,
    DigitRule,
    DimensionEstimate,
    DomainError,
    Sign,
    ValidityError,
    all_digits,
    alphabet_restrict,
    bounded_ratio,
    enumerate_compatible_bases,
    growth_floor,
    measure_at_rank,
    moran_dimension,
    pressure_root,
    ratio_limit_window,
    rule_value,
    word_diameter,
)

import reference

LUROTH = DigitRule.luroth()
ENGEL = DigitRule.engel()
ENGEL_MOD = DigitRule.engel_mod()
PIERCE = DigitRule.pierce()


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumeration_examples():
    assert list(enumerate_compatible_bases(LUROTH, all_digits(), 1, 5)) == [
        (2,),
        (3,),
        (4,),
        (5,),
    ]
    # the prefix (4,) has admissible children only beyond the cap, so this
    # enumeration also demonstrates the cap warning firing mid-stream
    with pytest.warns(CapTooSmallWarning, match="position 2, cutting off 1 compatible"):
        assert list(enumerate_compatible_bases(ENGEL_MOD, all_digits(), 2, 4)) == [
            (2, 3),
            (2, 4),
            (3, 4),
        ]
    assert list(enumerate_compatible_bases(ENGEL, alphabet_restrict([2]), 3, 9)) == [
        (2, 2, 2)
    ]


def test_enumeration_is_lexicographic():
    words = list(enumerate_compatible_bases(LUROTH, all_digits(), 3, 5))
    assert words == sorted(words)
    assert len(words) == 4**3


def test_enumeration_domain():
    for rank, cap, text in ((0, 5, "rank must be >= 1"), (2, 1, "digit_cap must be >= 2")):
        assert reference.outcome(lambda: list(enumerate_compatible_bases(
            LUROTH, all_digits(), rank, cap))) == (DomainError, text, None)


def test_enumeration_checks_its_arguments_at_the_call():
    # no base is asked for: the errors come from the call itself
    for rank, cap, text in ((0, 5, "rank must be >= 1"), (2, 1, "digit_cap must be >= 2")):
        assert reference.outcome(enumerate_compatible_bases, LUROTH, all_digits(), rank, cap) == (
            DomainError, text, None)


_INTEGER_ARGUMENTS = [
    # (call, the parameter its DomainError names, its value); each raised
    # TypeError before rank and digit_cap went through core._integer.  The
    # enumeration raises at the call, before any base is asked for
    (lambda: pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 2.5, 6, 1e-9), "rank", "2.5"),
    (lambda: pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 2, 6.5, 1e-9), "digit_cap", "6.5"),
    (lambda: pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 2, None, 1e-9), "digit_cap",
     "None"),
    (lambda: measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), 2, 6.5), "digit_cap", "6.5"),
    (lambda: measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), 2.0, None), "rank", "2.0"),
    (lambda: enumerate_compatible_bases(LUROTH, all_digits(), 1.5, 6), "rank", "1.5"),
    (lambda: enumerate_compatible_bases(LUROTH, all_digits(), 2, 6.0), "digit_cap", "6.0"),
    (lambda: enumerate_compatible_bases(LUROTH, all_digits(), 2, None), "digit_cap", "None"),
]


@pytest.mark.parametrize("call, name, value", _INTEGER_ARGUMENTS, ids=[
    "pressure-rank", "pressure-cap", "pressure-cap-None", "measure-cap", "measure-rank-cap-None",
    "enumerate-rank", "enumerate-cap", "enumerate-cap-None"])
def test_a_non_integer_rank_or_cap_is_a_domain_error(call, name, value):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value}$"):
        call()


def test_rank_and_cap_keep_their_range_texts():
    calls = [
        (lambda: pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 0, 6, 1e-9), "rank must be >= 1"),
        (lambda: pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 2, 1, 1e-9),
         "digit_cap must be >= 2"),
        (lambda: measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), 0, None), "rank must be >= 1"),
        (lambda: measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), 2, 1),
         "digit_cap must be >= 2"),
        (lambda: enumerate_compatible_bases(LUROTH, all_digits(), 0, 6), "rank must be >= 1"),
        (lambda: enumerate_compatible_bases(ENGEL, all_digits(), 2, 1), "digit_cap must be >= 2"),
    ]
    for call, text in calls:
        assert reference.outcome(call) == (DomainError, text, None)


def test_cap_warning_when_digits_run_out():
    # strictly increasing digits need 2,3,4 by rank 3; cap 3 starves rank 3,
    # and the prefix (3,) is already cut off at position 2
    with pytest.warns(CapTooSmallWarning, match="position 2, cutting off 1 compatible"):
        words = list(enumerate_compatible_bases(ENGEL_MOD, all_digits(), 3, 3))
    assert words == []


def test_cap_warning_for_alphabet_cut_off():
    # the allowed digit 5 is admissible after (2,) but sits beyond the cap
    with pytest.warns(CapTooSmallWarning, match="position 2, cutting off 1 compatible"):
        words = list(
            enumerate_compatible_bases(ENGEL_MOD, alphabet_restrict([2, 5]), 2, 4)
        )
    assert words == []


def test_cap_warning_carries_position_and_count():
    # r = 2c + 1 leaves the prefixes (4,) ... (9,) no digit <= 9 at position 2
    rule = DigitRule.oppenheim(2, 1)
    calls = [
        lambda: list(enumerate_compatible_bases(rule, all_digits(), 3, 9)),
        lambda: pressure_root(rule, Sign.POSITIVE, all_digits(), 3, 9, 1e-9),
        lambda: measure_at_rank(rule, Sign.ALTERNATING, all_digits(), 3, 9),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [CapTooSmallWarning]
        assert (caught[0].message.position, caught[0].message.count) == (2, 6)
        assert "digit_cap 9 excludes all digits at position 2" in str(caught[0].message)


def test_cap_warning_for_growth_floor_cut_off():
    # position 3 needs a digit >= 9 under the floor n^2, beyond the cap 8:
    # the 7 * 5 compatible rank-2 prefixes are cut off by the cap, as an
    # alphabet beyond the cap cuts them
    calls = [
        lambda: list(enumerate_compatible_bases(LUROTH, growth_floor(lambda n: n * n), 3, 8)),
        lambda: pressure_root(LUROTH, Sign.POSITIVE, growth_floor(lambda n: n * n), 3, 8, 1e-9),
        lambda: measure_at_rank(LUROTH, Sign.ALTERNATING, growth_floor(lambda n: n * n), 3, 8),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [w.category for w in caught] == [CapTooSmallWarning]
        assert (caught[0].message.position, caught[0].message.count) == (3, 35)
        assert caught[0].filename == __file__
    # a floor the cap leaves room for cuts nothing off
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert pressure_root(LUROTH, Sign.POSITIVE, growth_floor(lambda n: n * n), 3, 9,
                             1e-9).bases_count == 8 * 6 * 1


def test_enumeration_warning_points_at_the_caller():
    # the walk warns from its one generator frame once it is exhausted,
    # however deep the cut-off prefixes (4,), (2, 4) or (2, 3, 4) lie
    for rank in (2, 3, 5):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            list(enumerate_compatible_bases(ENGEL_MOD, all_digits(), rank, 4))
        assert [w.category for w in caught] == [CapTooSmallWarning]
        assert caught[0].filename == __file__


def test_enumeration_warns_once_exhausted():
    # (2, 12) is the first cut-off prefix the walk meets, after the 45 words
    # that start with 2; the first position the cap cuts is 2, below (12,)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        words = enumerate_compatible_bases(ENGEL_MOD, all_digits(), 3, 12)
        head = list(itertools.islice(words, 46))
    assert head[-1] == (3, 4, 5) and caught == []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        words = list(enumerate_compatible_bases(ENGEL_MOD, all_digits(), 3, 12))
    assert words[:46] == head and len(words) == 165
    assert [(w.message.position, w.message.count) for w in caught] == [(2, 1)]


def test_enumeration_lists_any_rank():
    assert list(enumerate_compatible_bases(LUROTH, all_digits(), 2000, 2)) == [(2,) * 2000]


def test_no_warning_when_alphabet_is_really_exhausted():
    # after (2,) the only allowed digit 2 is inadmissible everywhere, cap or
    # not; that is emptiness, not a cap artifact
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        words = list(
            enumerate_compatible_bases(ENGEL_MOD, alphabet_restrict([2]), 2, 9)
        )
    assert words == []


def test_predicate_constructors_validate():
    calls = [
        (lambda: alphabet_restrict([]), "allowed digit set must be nonempty"),
        (lambda: bounded_ratio(0), "ratio bound must be positive"),
        (lambda: ratio_limit_window(1.0, -0.1), "delta must be >= 0"),
        (lambda: ratio_limit_window(math.nan, 0.1), "alpha and delta must not be NaN"),
        (lambda: ratio_limit_window(1.0, math.nan), "alpha and delta must not be NaN"),
        (lambda: alphabet_restrict([2.5, 3]), "allowed digits must be integers"),
    ]
    for call, text in calls:
        assert reference.outcome(call) == (DomainError, text, None)


def test_predicates_repr_their_description():
    assert repr(DigitPredicate(lambda w: True, "opaque")) == "DigitPredicate(opaque)"
    assert repr(bounded_ratio(2)) == "DigitPredicate(ratio<=2)"
    assert repr(alphabet_restrict([2, 3])) == "DigitPredicate(alphabet[2, 3])"


def test_bounded_ratio_enumeration():
    words = list(enumerate_compatible_bases(LUROTH, bounded_ratio(Fraction(3, 2)), 2, 6))
    brute = [(a, b) for a in range(2, 7) for b in range(2, 7) if 2 * b <= 3 * a]
    assert words == brute
    # boundary case c2 = 1.5 c1 is allowed (comparison is exact, not strict)
    assert (2, 3) in words


def test_growth_floor_enumeration():
    pred = growth_floor(lambda n: n**2)
    words = list(enumerate_compatible_bases(LUROTH, pred, 2, 10))
    assert len(words) == 9 * 7  # first digit 2..10, second 4..10
    assert all(w[1] >= 4 for w in words)


def test_ratio_window_enumeration_is_a_restriction():
    pred = ratio_limit_window(1.0, 0.5)
    words = set(enumerate_compatible_bases(LUROTH, pred, 2, 9))
    everything = set(enumerate_compatible_bases(LUROTH, all_digits(), 2, 9))
    assert words < everything
    assert all(pred(w) for w in words)


@given(st.integers(1, 4), st.integers(2, 12))
def test_enumeration_counts_luroth(rank, cap):
    words = list(enumerate_compatible_bases(LUROTH, all_digits(), rank, cap))
    assert len(words) == (cap - 1) ** rank


# ---------------------------------------------------------------------------
# pressure roots
# ---------------------------------------------------------------------------


def test_single_base_pins_root_at_zero():
    est = pressure_root(ENGEL, Sign.POSITIVE, alphabet_restrict([2]), 3, 9, 1e-9)
    assert est == DimensionEstimate(3, 9, 0.0, 0.0, 1)


def test_no_bases_reports_the_honest_residual():
    est = pressure_root(
        ENGEL_MOD, Sign.POSITIVE, alphabet_restrict([2]), 2, 9, 1e-9
    )
    assert est == DimensionEstimate(2, 9, 0.0, 1.0, 0)


def test_pressure_agrees_with_moran_on_multiplicative_restrictions():
    oracle = moran_dimension([Fraction(1, 2), Fraction(1, 6)], tol=1e-12)
    for rank in range(1, 5):
        est = pressure_root(
            LUROTH, Sign.POSITIVE, alphabet_restrict([2, 3]), rank, 3, 1e-9
        )
        assert est.bases_count == 2**rank
        assert abs(est.s_value - oracle) <= 2e-9 + 1e-9


def test_pressure_approaches_one_with_large_cap():
    est = pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 1, 100, 1e-9)
    assert 0.9 < est.s_value < 1.0
    assert est.residual <= 1e-9


def test_pressure_monotone_in_restriction_and_cap():
    small = pressure_root(LUROTH, Sign.POSITIVE, alphabet_restrict([2, 3]), 2, 9, 1e-9)
    large = pressure_root(
        LUROTH, Sign.POSITIVE, alphabet_restrict([2, 3, 4]), 2, 9, 1e-9
    )
    assert small.s_value < large.s_value

    low_cap = pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 1, 10, 1e-9)
    high_cap = pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 1, 50, 1e-9)
    assert low_cap.s_value < high_cap.s_value


def test_pressure_sign_forms_agree_bitwise():
    import warnings

    cases = [
        (LUROTH, alphabet_restrict([2, 3]), 3, 9),
        (ENGEL, all_digits(), 2, 12),
        (ENGEL_MOD, bounded_ratio(2), 3, 12),
        (PIERCE, growth_floor(lambda n: n), 2, 10),
    ]
    for rule, pred, rank, cap in cases:
        # strictly increasing rules warn near the cap; not under test here
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            pos = pressure_root(rule, Sign.POSITIVE, pred, rank, cap, 1e-9)
            alt = pressure_root(rule, Sign.ALTERNATING, pred, rank, cap, 1e-9)
        assert pos == alt


TOL_REFUSED = (DomainError, "tol must be finite and positive", None)


def test_pressure_tol_domain():
    assert reference.outcome(pressure_root, LUROTH, Sign.POSITIVE, all_digits(), 1, 5, 0.0) == (
        TOL_REFUSED)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_non_finite_tol_is_a_domain_error(tol):
    assert reference.outcome(pressure_root, LUROTH, Sign.POSITIVE, all_digits(), 1, 5, tol) == (
        TOL_REFUSED)
    ratios = [Fraction(1, 2), Fraction(1, 6)]
    assert reference.outcome(lambda: moran_dimension(ratios, tol=tol)) == TOL_REFUSED


def test_unreachable_tol_is_a_domain_error():
    # 1e-18 is below the spacing of doubles near 1, so no bisection step can
    # bring |sum - 1| within it; the contract residual <= tol cannot be kept
    with pytest.raises(DomainError, match="residual"):
        pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 2, 6, 1e-18)
    # the plain loop raises too; the message names the least residual over
    # f(0) and the midpoints the bisection evaluated
    (got, plain), _ = _recorded(lambda: _root_and_plain(
        lambda: pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 2, 6, 1e-18)))
    assert got == plain == "DomainError"


def test_non_integer_rule_values_are_validity_errors():
    # these raised AttributeError or TypeError from inside the enumeration
    rule = DigitRule.custom(lambda w: Fraction(3, 2))
    calls = [
        lambda: list(enumerate_compatible_bases(rule, all_digits(), 2, 6)),
        lambda: pressure_root(rule, Sign.POSITIVE, all_digits(), 2, 6, 1e-9),
        lambda: measure_at_rank(rule, Sign.ALTERNATING, all_digits(), 2, 6),
    ]
    for call in calls:
        assert reference.outcome(call) == (
            ValidityError, "rule value Fraction(3, 2) after position 1 is not an integer", 1)


@pytest.mark.parametrize("sign", [Sign.POSITIVE, Sign.ALTERNATING])
def test_degenerate_rule_values_are_pruned(sign):
    # r = c - 3 drops below 1 on the digits 2 and 3: those words are not
    # valid, and neither the enumeration nor the state recursion keeps them,
    # on merged levels (all_digits) or word-keyed ones (an opaque predicate)
    rule, rank, cap = DigitRule.oppenheim(1, -3), 3, 9
    words = reference.bases(rule, all_digits(), rank, cap)
    assert words and len(words) < (cap - 1) ** rank
    diameters = [word_diameter(rule, w) for w in words]
    for pred in (all_digits(), DigitPredicate(lambda word: True, "any")):
        assert list(enumerate_compatible_bases(rule, pred, rank, cap)) == words, pred
        assert measure_at_rank(rule, sign, pred, rank, cap) == sum(diameters), pred
        est = pressure_root(rule, sign, pred, rank, cap, 1e-9)
        assert est.bases_count == len(words), pred
        total = math.fsum(float(d) ** est.s_value for d in diameters)
        assert abs(total - 1) <= 1e-9 + 1e-12, pred


def test_custom_rule_enumeration_never_reevaluates_prefixes():
    calls = []

    def fn(prefix):
        calls.append(prefix)
        return 1

    rule = DigitRule.custom(fn)
    est = pressure_root(rule, Sign.POSITIVE, all_digits(), 3, 6, 1e-9)
    assert est.bases_count == 5**3
    assert len(calls) == len(set(calls))
    # the rule keeps no cache: each walk asks about each prefix once itself
    for walk in (lambda: list(enumerate_compatible_bases(rule, all_digits(), 3, 6)),
                 lambda: measure_at_rank(rule, Sign.POSITIVE, all_digits(), 3, 6)):
        calls.clear()
        walk()
        assert len(calls) == len(set(calls)) == 5 + 5**2 + 5**3


# ---------------------------------------------------------------------------
# the independent Moran solver
# ---------------------------------------------------------------------------


def test_moran_examples():
    assert moran_dimension([Fraction(1, 2), Fraction(1, 2)]) == 1.0
    s = moran_dimension([Fraction(1, 2), Fraction(1, 6)])
    assert 0.6 < s < 0.65
    # ratios that are normal floats keep the bits of float(ratio) ** s
    assert s == 0.6009668516144302
    assert moran_dimension([Fraction(1, 2), Fraction(1, 10**300)]) == 0.0075986116439707985


def test_moran_truncated_telescoping_lists_rise_toward_one():
    roots = []
    for top in (5, 10, 40, 200):
        ratios = [Fraction(1, c * (c - 1)) for c in range(2, top + 1)]
        roots.append(moran_dimension(ratios))
    assert roots == sorted(roots)
    assert roots[-1] < 1.0
    assert roots[-1] > 0.98


def test_moran_domain():
    for ratios, text in (([], "need at least one ratio"), ([Fraction(1)], "ratio 1 outside (0, 1)"),
                         ([Fraction(-1, 2)], "ratio -1/2 outside (0, 1)"),
                         ([Fraction(2, 3), Fraction(2, 3)], "ratios must sum to at most 1")):
        assert reference.outcome(moran_dimension, ratios) == (DomainError, text, None)
    assert reference.outcome(lambda: moran_dimension([Fraction(1, 2)], tol=0.0)) == TOL_REFUSED


def test_moran_unreachable_tol_is_a_domain_error():
    # bisection on this list stops one float step from the root, where
    # |sum - 1| is 2.2e-16 > 1e-16; the midpoint used to come back as if
    # it met tol
    ratios = [Fraction(1, 25), Fraction(1, 8), Fraction(1, 10), Fraction(1, 25)]
    with pytest.raises(DomainError, match="not reached in 200 bisection steps; best residual"):
        moran_dimension(ratios, tol=1e-16)
    s = moran_dimension(ratios, tol=1e-15)
    assert abs(math.fsum(float(r) ** s for r in ratios) - 1) <= 1e-15


MORAN_TINY = {
    # a ratio whose float is 0.0, a subnormal one, one below 2**-1075, and
    # two lists of normal floats
    "1e-400": [Fraction(1, 2), Fraction(1, 10**400)],
    "1e-320": [Fraction(1, 2), Fraction(1, 10**320)],
    "2**-1100": [Fraction(1, 3), Fraction(1, 3), Fraction(1, 2**1100)],
    "two": [Fraction(1, 2), Fraction(1, 6)],
    "1e-300": [Fraction(1, 2), Fraction(1, 10**300)],
}


@pytest.mark.parametrize("case", list(MORAN_TINY))
def test_moran_matches_a_decimal_bisection_below_the_float_range(case):
    # the terms were float(ratio) ** s, so 10**-400 counted as 0.0 and
    # [1/2, 10**-400] gave 9.09e-13, not 0.0059617453508; the slope of the
    # sum is below -0.6 at every root here, so tol 1e-12 puts s within
    # 2e-12 of it
    ratios = MORAN_TINY[case]
    assert abs(Decimal(moran_dimension(ratios)) - reference.moran_dimension(ratios)) < 1e-11


@given(st.integers(2, 40))
def test_moran_single_ratio_forces_zero(c):
    # a single ratio r in (0,1) satisfies r**s = 1 only at s = 0
    assert moran_dimension([Fraction(1, c)], tol=1e-13) == 0.0


# ---------------------------------------------------------------------------
# rank-k measures
# ---------------------------------------------------------------------------


def test_measure_examples():
    assert measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), 1, None) == 1
    assert measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), 5, None) == 1
    assert measure_at_rank(
        LUROTH, Sign.POSITIVE, alphabet_restrict([2, 3]), 2, 3
    ) == Fraction(4, 9)
    for n in (5, 17):
        assert measure_at_rank(PIERCE, Sign.ALTERNATING, all_digits(), 1, n) == 1 - Fraction(1, n)


def test_measure_requires_cap_for_restrictions():
    opaque_all = DigitPredicate(lambda w: True, "all")  # cannot declare itself unrestricted
    restricted = "digit_cap required for restricted predicates"
    for pred, rank, text in ((alphabet_restrict([2, 3]), 2, restricted), (opaque_all, 2, restricted),
                             (all_digits(), 0, "rank must be >= 1")):
        assert reference.outcome(measure_at_rank, LUROTH, Sign.POSITIVE, pred, rank, None) == (
            DomainError, text, None)


@pytest.mark.parametrize(
    "rule, rank, position",
    [
        (DigitRule.oppenheim(1, -5), 1, 1),  # digits 2..5 lead to r < 1
        (DigitRule.oppenheim(0, 0), 1, 1),  # every r is 0
        (DigitRule.oppenheim(1, -2, phi0=5), 5, 5),  # least r: 4, 3, 2, 1, 0
    ],
)
def test_measure_without_cap_refuses_a_rule_that_prunes_words(rule, rank, position):
    # the pruned words' cylinders are missing, so the rank-k cylinders do
    # not tile the space; before, the total read 1 all the same
    with pytest.raises(DomainError, match=f"the rule prunes words at position {position}$"):
        measure_at_rank(rule, Sign.POSITIVE, all_digits(), rank, None)
    assert measure_at_rank(rule, Sign.POSITIVE, all_digits(), rank, 2000) < Fraction(999, 1000)
    # one position less prunes nothing, and the capped total tends to 1
    if rank > 1:
        assert measure_at_rank(rule, Sign.POSITIVE, all_digits(), rank - 1, None) == 1


def test_measure_without_cap_needs_a_known_affine_rule():
    # a custom rule's pruned words are not known without a cap; a rule with
    # a < 0, whose large digits lead to r < 1, is refused when it is made
    message = "digit_cap required for a rule other than a*c + b with a >= 0"
    for rule in (DigitRule.custom(lambda prefix: 1), DigitRule.custom(lambda w: 100 - w[-1])):
        assert reference.outcome(measure_at_rank, rule, Sign.POSITIVE, all_digits(), 1, None) == (
            DomainError, message, None)
    assert reference.outcome(DigitRule, "falling", 1, -1, 100) == (
        DomainError, "a must be >= 0", None)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(-8, 3), st.integers(1, 6), st.integers(1, 5))
def test_measure_without_cap_is_one_exactly_when_no_word_is_pruned(a, b, phi0, rank):
    # the oracle walks the words with digits up to r + 3 at each position,
    # which holds the least digit, and so under a >= 0 the least rule value
    rule = DigitRule.oppenheim(a, b, phi0)
    stack, pruned = [((), phi0)], None
    while stack and pruned is None:
        word, r = stack.pop()
        for c in range(r + 1, r + 4):
            r_next = a * c + b
            if r_next < 1:
                pruned = len(word) + 1
            elif len(word) + 1 < rank:
                stack.append((word + (c,), r_next))
    if pruned is None:
        assert measure_at_rank(rule, Sign.POSITIVE, all_digits(), rank, None) == 1
    else:
        with pytest.raises(DomainError, match="prunes words"):
            measure_at_rank(rule, Sign.POSITIVE, all_digits(), rank, None)


def test_measure_without_cap_stops_once_the_least_value_grows():
    # a nondecreasing least rule value never falls below 1 again, so a huge
    # rank is answered at once, with no power of it formed
    for rule in (LUROTH, ENGEL, ENGEL_MOD, DigitRule.oppenheim(2, 1)):
        assert measure_at_rank(rule, Sign.POSITIVE, all_digits(), 10**9, None) == 1


def test_measure_non_increasing_in_rank():
    values = [
        measure_at_rank(LUROTH, Sign.POSITIVE, alphabet_restrict([2, 3]), rank, 3)
        for rank in range(1, 5)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_measure_sign_independent():
    pred = alphabet_restrict([2, 3, 5])
    pos = measure_at_rank(ENGEL, Sign.POSITIVE, pred, 2, 5)
    alt = measure_at_rank(ENGEL, Sign.ALTERNATING, pred, 2, 5)
    assert pos == alt


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 15), st.integers(1, 3))
def test_measure_all_with_cap_matches_telescoped_tail(cap, rank):
    # rank-1 cylinders with digits up to the cap miss exactly the unbounded
    # tail, and deeper ranks miss more
    value = measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), rank, cap)
    assert value == (1 - Fraction(1, cap)) ** rank


@pytest.mark.parametrize("cap", [20001, 300000])
@pytest.mark.parametrize(
    "rule, first",
    [
        (LUROTH, 2),
        (ENGEL, 2),
        (ENGEL_MOD, 2),
        (PIERCE, 2),
        (DigitRule.oppenheim(2, 1), 2),
        (DigitRule.oppenheim(1, -3), 4),  # digits 2 and 3 lead to r < 1
        (DigitRule.oppenheim(1, 0, phi0=3), 4),  # the first digit exceeds phi_0 = 3
    ],
    ids=["luroth", "engel", "engel-mod", "pierce", "oppenheim:2,1", "oppenheim:1,-3",
         "oppenheim:1,0,phi0=3"],
)
def test_rank_1_measure_at_a_large_cap_is_its_closed_form(rule, first, cap):
    # the rank-1 cylinders of the digits first..cap abut: their diameters
    # phi_0 / (c - 1)c telescope to phi_0 (1 / (first - 1) - 1 / cap), which
    # is 1 - 1/cap when phi_0 = 1 and no digit is pruned
    closed_form = rule.phi0 * (Fraction(1, first - 1) - Fraction(1, cap))
    for pred in (all_digits(), bounded_ratio(2)):  # a first digit is free under either
        for sign in (Sign.POSITIVE, Sign.ALTERNATING):
            assert measure_at_rank(rule, sign, pred, 1, cap) == closed_form


# ---------------------------------------------------------------------------
# carried diameters against the reference's listed bases
# ---------------------------------------------------------------------------

ORACLE_RULES = {
    "luroth": LUROTH,
    "engel": ENGEL,
    "engel-mod": ENGEL_MOD,
    "pierce": PIERCE,
    "oppenheim": DigitRule.oppenheim(2, 1),
    "custom": DigitRule.custom(lambda prefix: 1 + sum(prefix) % 2),
}


def _assert_same_estimate(got, ref, key):
    """Every field equal except residual, a float diagnostic whose last bits
    depend on the order of the float operations in the sum."""
    for name in ("rank", "digit_cap", "s_value", "bases_count"):
        assert getattr(got, name) == getattr(ref, name), (key, name)
    assert abs(got.residual - ref.residual) <= 1e-15, key


@pytest.mark.parametrize("sign", [Sign.POSITIVE, Sign.ALTERNATING], ids=["P", "A"])
@pytest.mark.parametrize("name", list(ORACLE_RULES))
def test_carried_diameters_match_cylinder_oracle(name, sign):
    rule = ORACLE_RULES[name]
    preds = [all_digits(), alphabet_restrict([2, 3, 5, 8]), bounded_ratio(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        for rank in (1, 2, 3):
            for pred in preds:
                ref = reference.pressure_root(rule, sign, pred, rank, 9, 1e-9)
                got = pressure_root(rule, sign, pred, rank, 9, 1e-9)
                _assert_same_estimate(got, ref, (name, sign, rank, pred))
                measure = measure_at_rank(rule, sign, pred, rank, 9)
                diams = reference.diameters(rule, sign, pred, rank, 9)
                assert measure == sum(diams, Fraction(0)), (name, sign, rank, pred)


# ---------------------------------------------------------------------------
# local predicates against whole-word classifiers
# ---------------------------------------------------------------------------


def _whole_word_alphabet(allowed):
    allowed_set = frozenset(allowed)
    return lambda word: all(c in allowed_set for c in word)


def _whole_word_ratio(k):
    k = Fraction(k)
    return lambda word: all(word[i + 1] <= k * word[i] for i in range(len(word) - 1))


def _whole_word_growth(psi):
    return lambda word: all(c >= psi(n) for n, c in enumerate(word, start=1))


def _whole_word_window(alpha, delta):
    def classify(word):
        for i in range(len(word) - 1):
            ratio = math.log(word[i + 1]) / math.log(word[i])
            if abs(ratio - alpha) > delta:
                return False
        return True

    return classify


# (built-in, opaque whole-word classifier) pairs; the windows (1.5, 0.5),
# (1.0, 1.0) and (2.0, 0.0) have pairs such as (2, 2), (2, 4) and (3, 9),
# whose float log-ratio 1.0 or 2.0 lies exactly on the window's edge
LOCAL_CASES = {
    "all": (all_digits(), lambda word: True),
    "alphabet": (alphabet_restrict([2, 3, 5, 8]), _whole_word_alphabet([2, 3, 5, 8])),
    "ratio-3/2": (bounded_ratio(Fraction(3, 2)), _whole_word_ratio(Fraction(3, 2))),
    "ratio-2": (bounded_ratio(2), _whole_word_ratio(2)),
    "growth-n": (growth_floor(lambda n: n), _whole_word_growth(lambda n: n)),
    "growth-n^2": (growth_floor(lambda n: n * n), _whole_word_growth(lambda n: n * n)),
    "window-1,0.5": (ratio_limit_window(1.0, 0.5), _whole_word_window(1.0, 0.5)),
    "window-1.5,0.5": (ratio_limit_window(1.5, 0.5), _whole_word_window(1.5, 0.5)),
    "window-1,1": (ratio_limit_window(1.0, 1.0), _whole_word_window(1.0, 1.0)),
    "window-2,0": (ratio_limit_window(2.0, 0.0), _whole_word_window(2.0, 0.0)),
}


@pytest.mark.parametrize("case", list(LOCAL_CASES))
def test_local_predicates_match_whole_word_oracle(case):
    local, classify = LOCAL_CASES[case]
    opaque = DigitPredicate(classify, case)
    words = [()] + [w for k in (1, 2, 3) for w in itertools.product(range(2, 10), repeat=k)]
    assert [local(w) for w in words] == [opaque(w) for w in words]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        for name, rule in ORACLE_RULES.items():
            for rank, cap in itertools.product((1, 2, 3), (4, 9, 16)):
                key = (name, rank, cap)
                got = list(enumerate_compatible_bases(rule, local, rank, cap))
                assert got == list(enumerate_compatible_bases(rule, opaque, rank, cap)), key
                for sign in (Sign.POSITIVE, Sign.ALTERNATING):
                    _assert_same_estimate(
                        pressure_root(rule, sign, local, rank, cap, 1e-9),
                        pressure_root(rule, sign, opaque, rank, cap, 1e-9),
                        (key, sign),
                    )
                    assert measure_at_rank(rule, sign, local, rank, cap) == measure_at_rank(
                        rule, sign, opaque, rank, cap
                    ), (key, sign)


def test_growth_floor_asks_psi_once_per_expanded_word():
    # the built-in form states its range once per word it expands (one
    # _children call per compatible word shorter than the rank), where the
    # opaque form is asked once per child tested
    calls = [0]

    def psi(n):
        calls[0] += 1
        return n + 1

    local = list(enumerate_compatible_bases(LUROTH, growth_floor(psi), 4, 7))
    opaque = DigitPredicate(lambda word: all(c >= n + 1 for n, c in enumerate(word, 1)), "g")
    assert local == list(enumerate_compatible_bases(LUROTH, opaque, 4, 7)) and local
    expanded = 1 + sum(
        len(list(enumerate_compatible_bases(LUROTH, opaque, k, 7))) for k in (1, 2, 3))
    assert expanded == 1 + 6 + 6 * 5 + 6 * 5 * 4
    assert calls[0] == expanded


# ---------------------------------------------------------------------------
# the digits a local predicate admits, as a range, and the slices they give
# ---------------------------------------------------------------------------

# the windows of the benchmark's pressure pools, of LOCAL_CASES and of
# criterion 10, and alpha 3, delta 0, where the float test rejects
# (5, 125): math.log(125) / math.log(5) is 3.0000000000000004
WINDOWS = [(0.8, 0.5), (1.0, 0.3), (1.25, 0.2), (1.0, 0.5), (1.5, 0.5), (1.0, 1.0),
           (2.0, 0.0), (1.0, 0.2), (3.0, 0.0)]
# floors with a float, a Fraction, an infinite and a NaN value; math.ceil
# raises on the last three
PSIS = [lambda n: 3, lambda n: n * n, lambda n: 2**n, lambda n: 2.5 * n,
        lambda n: Fraction(7, 2) * n, lambda n: math.inf, lambda n: math.nan, lambda n: -math.inf]


def _cut_by(classify, word, r, cap, beyond):
    """Whether the cap cuts word (rule value r) off, read from a whole-word
    classifier: no digit in (r, cap] extends word, but one in
    (max(r, cap), beyond] does.  beyond must exceed every digit classify
    admits after word, unless it admits all digits from some point up to
    beyond.  An opaque predicate (classify None) is cut when r >= cap."""
    if classify is None:
        return r >= cap

    def extends(lo, hi):
        return any(classify(word + (c,)) for c in range(lo, hi + 1))

    return not extends(r + 1, cap) and extends(max(r, cap) + 1, beyond)


@st.composite
def _local_children(draw):
    """(predicate, its whole-word classifier, compatible word of length
    <= 1, r, cap).  After such a word no predicate drawn admits a digit
    beyond 10^4 (a window's prev is at most 21, and 21^3 < 10^4) unless it
    admits every digit from some point on."""
    kind = draw(st.sampled_from(["all", "alphabet", "ratio", "growth", "window"]))
    prev = draw(st.integers(2, 21 if kind == "window" else 200))
    if kind == "all":
        pred, classify = all_digits(), lambda word: True
    elif kind == "alphabet":
        alphabet = draw(st.sets(st.integers(2, 60), min_size=1, max_size=6))
        pred, classify = alphabet_restrict(alphabet), _whole_word_alphabet(alphabet)
        prev = draw(st.sampled_from(sorted(alphabet)))
    elif kind == "ratio":
        k = draw(st.sampled_from([Fraction(1, 3), Fraction(5, 4), Fraction(3, 2), 2, 3]))
        pred, classify = bounded_ratio(k), _whole_word_ratio(k)
    elif kind == "growth":
        psi = draw(st.sampled_from(PSIS))
        pred, classify = growth_floor(psi), _whole_word_growth(psi)
    else:
        extremes = [(0.0, 0.5), (-1.0, 0.5), (math.inf, math.inf)]
        window = draw(st.sampled_from(WINDOWS + extremes))
        pred, classify = ratio_limit_window(*window), _whole_word_window(*window)
    word = draw(st.sampled_from([(), (prev,)]))
    assume(classify(word))
    cap = draw(st.integers(2, 300))
    return pred, classify, word, draw(st.integers(1, cap + 2)), cap


@settings(max_examples=400, deadline=None)
@given(_local_children())
def test_children_are_the_per_digit_filter(case):
    # the digits and the cut of one statement against a whole-word
    # classifier asked about each digit
    pred, classify, word, r, cap = case
    digits, cut = dimension._children(pred, word, r, cap)
    assert list(digits) == [c for c in range(r + 1, cap + 1) if classify(word + (c,))]
    assert cut == _cut_by(classify, word, r, cap, 10**4)


def test_window_range_keeps_the_float_tests_rejections():
    # (5, 125) fails the float test of alpha 3, delta 0, and stays out
    pred = ratio_limit_window(3.0, 0.0)
    digits, cut = dimension._children(pred, (5,), 5, 200)
    assert list(digits) == [c for c in range(6, 201) if _whole_word_window(3.0, 0.0)((5, c))]
    assert 125 not in digits and not cut
    # so the window admits nothing after 5 and no cap cuts it, while after
    # 7 it admits 343 alone, past the cap 100
    assert dimension._children(pred, (5,), 5, 100) == (range(101, 101), False)
    assert pred((7, 343)) and dimension._children(pred, (7,), 7, 100) == (range(101, 101), True)


@pytest.mark.parametrize("alpha, delta", WINDOWS)
def test_window_range_is_its_float_test_up_to_1500(alpha, delta):
    # the digits up to 1500 are those the float test passes; the span's
    # ends, up to 1500 or past it, are the test's boundaries, and the cap
    # cuts a prefix when the span is not empty but lies wholly past 1500
    pred = ratio_limit_window(alpha, delta)
    logs = [0.0, 0.0] + [math.log(c) for c in range(2, 1501)]
    for prev in range(2, 1501):
        log_prev = logs[prev]

        def passes(c):
            return abs(math.log(c) / log_prev - alpha) <= delta

        passing = [c for c in range(2, 1501) if abs(logs[c] / log_prev - alpha) <= delta]
        digits, cut = dimension._children(pred, (prev,), 1, 1500)
        assert list(digits) == passing, prev
        lo, hi = pred._span(prev, 2)
        assert (lo == 1 or not passes(lo - 1)) and not passes(hi + 1), prev
        assert lo > hi or passes(lo) and passes(hi), prev
        assert cut == (not passing and lo <= hi), prev


def test_window_span_steps_to_its_test_from_any_estimate():
    # each end starts at the digit nearest prev ** (alpha -+ delta) and
    # steps to the float test's boundary, so estimates some digits off on
    # either side give the same spans
    exp = math.exp
    for window in WINDOWS:
        pred = ratio_limit_window(*window)
        spans = [pred._span(prev, 2) for prev in range(2, 200)]
        for shift in (-3, 3):
            with mock.patch.object(math, "exp", lambda x: exp(x) + shift):
                assert [pred._span(prev, 2) for prev in range(2, 200)] == spans, (window, shift)


@pytest.mark.parametrize("case", list(LOCAL_CASES))
def test_merged_slices_are_the_states_that_admit_each_digit(case):
    pred = LOCAL_CASES[case][0]
    for name, rule in ORACLE_RULES.items():
        if rule.fn is not None:
            continue
        for length, cap in ((1, 30), (2, 24), (3, 14)):
            firsts = {}  # a compatible word per last digit: a merged level
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CapTooSmallWarning)
                for word in enumerate_compatible_bases(rule, pred, length, cap):
                    firsts.setdefault(word[-1], word)
            states = [firsts[d] for d in sorted(firsts)]
            rs = [rule_value(rule, w) for w in states]
            children = [dimension._children(pred, w, r, cap)[0] for w, r in zip(states, rs)]
            got = [(i, j, c) for i, j, run in dimension._slices(children, True) for c in run]
            expected = []
            for c in range(2, cap + 1):
                admit = [
                    k for k, (w, r) in enumerate(zip(states, rs)) if r < c and pred(w + (c,))]
                if admit:
                    expected.append((admit[0], admit[-1] + 1, c))
                    assert admit == list(range(admit[0], admit[-1] + 1)), (name, length, c)
            assert got == expected, (name, length, cap)


def test_slices_of_word_keyed_levels_are_one_state_each():
    children = [range(3, 6), [], [2, 7]]
    assert list(dimension._slices(children, False)) == [
        (0, 1, range(3, 6)), (1, 2, []), (2, 3, [2, 7])]


def _all_three(rule, pred, rank, cap):
    """(bases, pressure_root bits, measure, warnings as (position, count))
    of a config, each call's warnings recorded in turn."""
    bases, w1 = _recorded(lambda: list(enumerate_compatible_bases(rule, pred, rank, cap)))
    est, w2 = _recorded(lambda: pressure_root(rule, Sign.POSITIVE, pred, rank, cap, 1e-9))
    measure, w3 = _recorded(lambda: measure_at_rank(rule, Sign.POSITIVE, pred, rank, cap))
    cuts = [[(w.position, w.count) for w in ws] for ws in (w1, w2, w3)]
    return bases, (est.s_value.hex(), est.bases_count), measure, cuts


@pytest.mark.parametrize("psi, floor", [(lambda n: math.inf, "inf"), (lambda n: math.nan, "nan"),
                                        (lambda n: -math.inf, "-inf"), (lambda n: 10**40, "huge")])
def test_growth_floor_of_any_value_matches_its_test(psi, floor):
    # math.ceil raises on the three non-finite floors.  A floor past the
    # cap admits digits beyond it only, so the cap cuts every prefix; an
    # infinite or NaN floor admits no digit at any cap and cuts none
    opaque = DigitPredicate(lambda w: all(c >= psi(n) for n, c in enumerate(w, 1)), floor)
    for rule in (LUROTH, ENGEL_MOD):
        got = _all_three(rule, growth_floor(psi), 2, 9)
        assert got[:3] == _all_three(rule, opaque, 2, 9)[:3], floor
    bases, _, measure, cuts = got
    if floor == "-inf":
        assert len(bases) == 28 and cuts == [[(2, 1)]] * 3
    else:
        assert bases == [] and measure == 0
        assert cuts == ([[(1, 1)]] * 3 if floor == "huge" else [[]] * 3)


def test_empty_ranges_and_empty_levels():
    # the cap cuts a prefix only when the predicate admits a digit beyond
    # it.  A ratio bound below 1 leaves strictly increasing digits no child
    # at any cap, and so do ratio 2 under oppenheim(2, 1) (c_2 > 2 c_1 + 1)
    # and ratio 1 under engel-mod (c_2 > c_1): no cut.  The window 3 +- 0
    # admits none past (4,) within cap 100: after 5..100 it admits p**3
    # alone or nothing, and the cap cuts the 72 prefixes (p,) whose p**3
    # passes the float test.  The window 3 +- 0.1 admits after each of
    # 5..100 digits past cap 100 only
    window = _whole_word_window(3.0, 0.1)
    cases = [
        (ENGEL_MOD, bounded_ratio(Fraction(1, 2)), 3, 20, [], [[]] * 3),
        (ORACLE_RULES["oppenheim"], bounded_ratio(2), 2, 20, [], [[]] * 3),
        (ORACLE_RULES["oppenheim"], bounded_ratio(2), 2, 50, [], [[]] * 3),
        (ORACLE_RULES["oppenheim"], bounded_ratio(2), 2, 1000, [], [[]] * 3),
        (ENGEL_MOD, bounded_ratio(1), 2, 30, [], [[]] * 3),
        (LUROTH, ratio_limit_window(3.0, 0.0), 2, 100, [(2, 8), (3, 27), (4, 64)],
         [[(2, 72)]] * 3),
        (LUROTH, ratio_limit_window(3.0, 0.0), 3, 100, [], [[(2, 72)]] * 3),
        (LUROTH, ratio_limit_window(3.0, 0.1), 2, 100,
         [w for w in itertools.product(range(2, 101), repeat=2) if window(w)], [[(2, 96)]] * 3),
    ]
    for rule, pred, rank, cap, words, warned in cases:
        bases, (s_hex, count), measure, cuts = _all_three(rule, pred, rank, cap)
        assert bases == words and count == len(words) and cuts == warned
        assert measure == sum((word_diameter(rule, w) for w in words), Fraction(0))
        if not words:
            assert s_hex == (0.0).hex()
    assert len(words) == 25


def test_built_in_predicates_admit_no_digit_below_1():
    # each statement starts at 1 at the least; the window admits nothing
    # after a digit below 2, whose log is not positive
    window = ratio_limit_window(1.0, 0.5)
    assert not window((1, 2)) and not window((-3, 2)) and not window((0, 2))
    assert window((2,)) and window((3, 4)) and window((1,))
    for pred in (all_digits(), bounded_ratio(2), growth_floor(lambda n: -math.inf), window):
        assert not pred((0,)) and not pred((2, -1)) and pred((1,)), pred
    assert alphabet_restrict([0, 2])((0, 2, 0))


def test_window_admits_no_digit_above_2_46():
    # its span is the float test's up to 2^46 and ends there: the test
    # passes 2^47 after 2^30 (ratio 47/30 <= 2) and 3^40 after 3
    wide, far = ratio_limit_window(1.0, 1.0), ratio_limit_window(40.0, 0.1)
    assert wide._span(2**30, 2) == (1, 2**46) and wide((2**30, 2**46))
    assert not wide((2**30, 2**47)) and not far((3, 3**40))
    assert far._span(3, 2) == (2**46 + 1, 2**46)


def test_a_decreasing_affine_rule_keys_states_by_word():
    # r = 40 - 2c falls as c grows, so the children's ends are not
    # nondecreasing along a level, and its states must not merge; a
    # built-in rule cannot fall (a >= 0), so it is a custom rule, which
    # gave the estimates, measures and bases of the rule once made directly
    rule = DigitRule.custom(lambda w: 40 - 2 * w[-1])
    for pred in (all_digits(), bounded_ratio(2), ratio_limit_window(1.0, 0.5)):
        ref = reference.pressure_root(rule, Sign.POSITIVE, pred, 3, 19, 1e-9)
        diams = reference.diameters(rule, Sign.POSITIVE, pred, 3, 19)
        assert len(diams) > 100, pred
        est, _ = _recorded(lambda: pressure_root(rule, Sign.POSITIVE, pred, 3, 19, 1e-9))
        _assert_same_estimate(est, ref, pred)
        measure, _ = _recorded(lambda: measure_at_rank(rule, Sign.POSITIVE, pred, 3, 19))
        assert measure == sum(diams, Fraction(0)), pred


# ---------------------------------------------------------------------------
# the state recursion against enumeration and per-base cylinders
# ---------------------------------------------------------------------------

@st.composite
def _diff_predicates(draw):
    """(constructor, its whole-word classifier, or None): one of the five
    local predicate kinds or an opaque whole-word one, which keys states by
    word.  After digits up to 12 no local one admits a digit beyond 12^3
    unless it admits every digit from some point up to there on."""
    kind = draw(st.sampled_from(["all", "alphabet", "ratio", "growth", "window", "opaque"]))
    if kind == "all":
        return all_digits, lambda word: True
    if kind == "alphabet":
        digits = sorted(draw(st.sets(st.sampled_from(range(2, 15)), min_size=1, max_size=4)))
        return (lambda: alphabet_restrict(digits)), _whole_word_alphabet(digits)
    if kind == "ratio":
        k = draw(st.sampled_from([Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(3)]))
        return (lambda: bounded_ratio(k)), _whole_word_ratio(k)
    if kind == "growth":
        psi = draw(st.sampled_from([lambda n: 3, lambda n: n, lambda n: n * n, lambda n: 2**n]))
        return (lambda: growth_floor(psi)), _whole_word_growth(psi)
    if kind == "window":
        alpha = draw(st.sampled_from([0.8, 1.0, 1.5, 2.0]))
        delta = draw(st.sampled_from([0.0, 0.2, 0.5, 1.0]))
        return (lambda: ratio_limit_window(alpha, delta)), _whole_word_window(alpha, delta)
    bound = draw(st.sampled_from(range(4, 41)))
    return (lambda: DigitPredicate(lambda w: sum(w) <= bound, "digit-sum")), None


@st.composite
def _diff_configs(draw):
    rank = draw(st.sampled_from([1, 2, 3, 4]))
    cap = draw(st.sampled_from(range(2, 13 if rank < 4 else 9)))
    name = draw(st.sampled_from(list(ORACLE_RULES)))
    sign = draw(st.sampled_from([Sign.POSITIVE, Sign.ALTERNATING]))
    make, classify = draw(_diff_predicates())
    tol = draw(st.sampled_from([1e-6, 1e-9]))
    return name, sign, make, classify, rank, cap, tol


def _recorded(call):
    """call() with every warning recorded: (result, CapTooSmallWarnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    cuts = [w.message for w in caught if issubclass(w.category, CapTooSmallWarning)]
    assert len(cuts) == len(caught)
    return result, cuts


def _first_cut(rule, pred, classify, rank, cap):
    """(position, prefixes) of the first cap cut, counted prefix by prefix
    by _cut_by with the whole-word classifier (None: opaque)."""
    for length in range(rank):
        prefixes = [()] if length == 0 else enumerate_compatible_bases(rule, pred, length, cap)
        cut = sum(_cut_by(classify, w, rule_value(rule, w), cap, 12**3) for w in prefixes)
        if cut:
            return length + 1, cut
    return None


@settings(max_examples=100, deadline=None)
@given(_diff_configs())
def test_state_recursion_matches_enumeration(config):
    name, sign, make, classify, rank, cap, tol = config
    rule = ORACLE_RULES[name]
    bases, oracle_cuts = _recorded(lambda: list(enumerate_compatible_bases(rule, make(), rank, cap)))
    ref = reference.pressure_root(rule, sign, make(), rank, cap, tol)
    diams = reference.diameters(rule, sign, make(), rank, cap)
    got, root_cuts = _recorded(lambda: pressure_root(rule, sign, make(), rank, cap, tol))
    measure, measure_cuts = _recorded(lambda: measure_at_rank(rule, sign, make(), rank, cap))

    assert got.bases_count == ref.bases_count == len(bases)
    assert got.s_value == ref.s_value
    assert got.residual <= tol or not bases
    assert abs(got.residual - ref.residual) <= 1e-15
    assert measure == sum(diams, Fraction(0))
    first = _first_cut(rule, make(), classify, rank, cap)
    for cuts in (oracle_cuts, root_cuts, measure_cuts):
        assert [(w.position, w.count) for w in cuts] == ([first] if first else [])


MEASURE_RULES = [LUROTH, ENGEL, ENGEL_MOD, PIERCE, DigitRule.oppenheim(2, 1),
                 DigitRule.oppenheim(1, -3), ORACLE_RULES["custom"]]


@st.composite
def _measure_predicates(draw, cap):
    """A built-in local predicate; alphabets are drawn from 2..cap, so most
    have gaps, and some none."""
    kind = draw(st.sampled_from(["all", "alphabet", "ratio", "growth", "window"]))
    if kind == "all":
        return all_digits()
    if kind == "alphabet":
        return alphabet_restrict(draw(st.sets(st.integers(2, cap), min_size=1, max_size=8)))
    if kind == "ratio":
        return bounded_ratio(draw(st.sampled_from([Fraction(5, 4), Fraction(3, 2), 2, 3])))
    if kind == "growth":
        return growth_floor(draw(st.sampled_from([lambda n: 3, lambda n: n, lambda n: n * n])))
    alpha = draw(st.sampled_from([0.8, 1.0, 1.5, 2.0]))
    return ratio_limit_window(alpha, draw(st.sampled_from([0.0, 0.2, 0.5, 1.0])))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_measure_is_the_sum_of_the_word_diameters(data):
    # the runs of last digits without gaps are summed in closed form, the
    # others digit by digit; both must give the listed words' diameters
    rank = data.draw(st.integers(1, 3))
    cap = data.draw(st.integers(2, 40 if rank < 3 else 20))
    rule = data.draw(st.sampled_from(MEASURE_RULES))
    pred = data.draw(_measure_predicates(cap))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        total = sum(map(functools.partial(word_diameter, rule),
                        enumerate_compatible_bases(rule, pred, rank, cap)), Fraction(0))
        for sign in (Sign.POSITIVE, Sign.ALTERNATING):
            assert measure_at_rank(rule, sign, pred, rank, cap) == total


def test_opaque_predicate_is_asked_alike_by_all_three():
    # an opaque predicate is asked about every child word the descent tests;
    # the state recursion must ask about the same children, no more
    calls = [0]

    def classify(word):
        calls[0] += 1
        return sum(word) <= 15 and all(c % 4 for c in word)

    runs = {
        "pressure_root": lambda rule, rank, pred: pressure_root(
            rule, Sign.POSITIVE, pred, rank, 7, 1e-9),
        "measure_at_rank": lambda rule, rank, pred: measure_at_rank(
            rule, Sign.ALTERNATING, pred, rank, 7),
        "enumerate": lambda rule, rank, pred: list(
            enumerate_compatible_bases(rule, pred, rank, 7)),
    }
    names = ("engel", "engel-mod", "luroth", "oppenheim", "custom")
    for name, rank in itertools.product(names, (2, 3)):
        counts = {}
        for run, call in runs.items():
            calls[0] = 0
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", CapTooSmallWarning)
                call(ORACLE_RULES[name], rank, DigitPredicate(classify, "sum<=15, no 4k"))
            counts[run] = calls[0]
        assert len(set(counts.values())) == 1 and counts["enumerate"], (name, rank, counts)


def test_luroth_rank_30_factorises():
    # every word of digits 2..10 is compatible, so the rank-30 sum is g(s)**30
    # for the rank-1 sum g: 9**30 bases, the same root, measure (9/10)**30
    est = pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 30, 10, 1e-9)
    one = pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 1, 10, 1e-9)
    assert est.bases_count == 9**30
    assert abs(est.s_value - one.s_value) <= 1e-9
    assert measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), 30, 10) == Fraction(9, 10) ** 30


# ---------------------------------------------------------------------------
# the certified bisection against the plain loop
# ---------------------------------------------------------------------------


_CONVEX = dimension._convex_bisect  # the library's bisection, for the spies below


def _outcome(call):
    """call()'s result, or "DomainError" where it raises one."""
    try:
        return call()
    except DomainError:
        return "DomainError"


def _convex_outcome(f, hi, tol, f0, eps):
    """_convex_bisect(f, hi, tol, f0, eps), or "DomainError" once its
    message is checked to name the least |f| over f0 and its own calls."""
    values = []
    try:
        return _CONVEX(lambda s: values.append(f(s)) or values[-1], hi, tol, f0, eps)
    except DomainError as exc:
        best = min(abs(v) for v in [f0, *values])
        assert str(exc) == f"tol {tol} not reached in 200 bisection steps; best residual {best}"
        return "DomainError"


def _root_and_plain(call):
    """(the outcome of call(), which runs pressure_root, and that of
    reference.bisect over the same f) as (s_value.hex(), residual.hex())
    or "DomainError"; where the bisection raises, its message is checked
    by _convex_outcome.  Without a bisection (no base, one base, or f(0)
    within tol) both are the estimate's."""
    seen = []

    def spy(f, hi, tol, f0, eps):
        seen.append((f, hi, tol, f0))
        got = _convex_outcome(f, hi, tol, f0, eps)
        if got == "DomainError":
            raise DomainError("checked by _convex_outcome")
        return got

    with mock.patch.object(dimension, "_convex_bisect", spy):
        est = _outcome(call)
    if est != "DomainError":
        est = (est.s_value.hex(), est.residual.hex())
    if not seen:
        return est, est
    f, hi, tol, f0 = seen[0]
    plain = _outcome(lambda: reference.bisect(f, hi, tol, abs(f0)))
    return est, plain if plain == "DomainError" else (plain[0].hex(), plain[1].hex())


@st.composite
def _certified_configs(draw):
    rank = draw(st.sampled_from([1, 2, 3, 4]))
    cap = draw(st.sampled_from(range(2, {1: 41, 2: 41, 3: 16, 4: 9}[rank])))
    name = draw(st.sampled_from(list(ORACLE_RULES)))
    make, _ = draw(_diff_predicates())
    tol = draw(st.sampled_from([1e-6, 1e-9, 1e-12]))
    return name, make, rank, cap, tol


@settings(max_examples=150, deadline=None)
@given(_certified_configs())
def test_certified_bisection_matches_the_plain_loop(config):
    name, make, rank, cap, tol = config
    (got, plain), _ = _recorded(lambda: _root_and_plain(
        lambda: pressure_root(ORACLE_RULES[name], Sign.POSITIVE, make(), rank, cap, tol)))
    assert got == plain


def _moran(ratios):
    """sum x**s - 1 over the float ratios: convex and decreasing, computed
    within far less than 1e-12 (1 + |f|); returns f and its log of calls,
    a dict from s to f(s) in call order."""
    floats = [float(r) for r in ratios]
    calls = {}

    def f(s):
        calls[s] = math.fsum(x**s for x in floats) - 1.0
        return calls[s]

    return f, calls


MORAN_CASES = {
    "two": [Fraction(1, 2), Fraction(1, 6)],
    "luroth-10": [Fraction(1, c * (c - 1)) for c in range(2, 11)],
    "uneven": [Fraction(1, 3), Fraction(1, 1000), Fraction(1, 1000), Fraction(1, 10**6)],
}


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("case", list(MORAN_CASES))
def test_certified_bisection_skips_by_chord_and_secant(case, tol):
    ratios = MORAN_CASES[case]
    f0 = float(len(ratios) - 1)
    plain_f, plain_calls = _moran(ratios)
    plain = reference.bisect(plain_f, 1.5, tol, f0)
    f, calls = _moran(ratios)
    assert dimension._convex_bisect(f, 1.5, tol, f0, 1e-12) == plain
    assert 0.0 not in calls and len(calls) < len(plain_calls)
    assert calls.items() <= plain_calls.items() and list(calls)[-1] == plain[0]
    # a skipped midpoint the plain loop found below 0 was settled by the
    # chord, one above 0 by a secant
    skipped = [fs for s, fs in plain_calls.items() if s not in calls]
    assert min(skipped) < -tol and max(skipped) > tol


@pytest.mark.parametrize("tol", [1e-3, 1e-4, 1e-5])
@pytest.mark.parametrize("seed", range(16))
def test_certified_bisection_keeps_its_margins_under_noise(seed, tol):
    # f strays from the convex F by 0.9 eps (1 + |F|) either way, eps = 1e-4,
    # so near the root the noise, not F, sets the plain loop's branches: a
    # skip taken inside the margins would part from it
    eps = 1e-4
    floats = [0.5, 1 / 6]
    calls = {}

    def f(s):
        exact = math.fsum(x**s for x in floats) - 1.0
        noise = random.Random(f"{seed}:{s.hex()}").choice([-0.9, 0.9])
        calls[s] = exact + noise * eps * (1 + abs(exact))
        return calls[s]

    plain = _outcome(lambda: reference.bisect(f, 1.5, tol, 1.0))
    plain_calls, calls = calls, {}
    assert _convex_outcome(f, 1.5, tol, 1.0, eps) == plain
    assert len(calls) < len(plain_calls)


def test_a_stalled_bisection_raises_without_starting_again():
    # 1e-18 is out of reach: the bracket stalls at adjacent floats.  A stall
    # used to run the plain loop again from the start, so the Moran sum was
    # formed 202 times and pressure_root's f called 219 times
    ratios = [Fraction(1, 25), Fraction(1, 8), Fraction(1, 10), Fraction(1, 25)]
    message = "^tol 1e-18 not reached in 200 bisection steps; best residual"
    terms, power = [], dimension._ratio_power
    with mock.patch.object(dimension, "_ratio_power", lambda *a: terms.append(a) or power(*a)):
        with pytest.raises(DomainError, match=message):
            moran_dimension(ratios, tol=1e-18)
    assert len(terms) <= 64 * len(ratios)
    calls = []
    with mock.patch.object(dimension, "_convex_bisect",
                           lambda f, *args: _CONVEX(lambda s: calls.append(s) or f(s), *args)):
        with pytest.raises(DomainError, match=message):
            pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 2, 6, 1e-18)
    assert 0 < len(calls) <= 40
    # the stalled Moran bisection against the plain loop: both raise, and
    # the library names the least |f| over f0 and its own calls
    f, _ = _moran(ratios)
    assert _convex_outcome(f, 1.0, 1e-18, 3.0, math.inf) == "DomainError"
    assert _outcome(lambda: reference.bisect(f, 1.0, 1e-18, 3.0)) == "DomainError"


def test_certified_bisection_evaluates_every_midpoint_when_terms_may_underflow():
    # at rank 80 and cap 10 a term may reach 10**-240 ** 1.5: beyond the
    # bound's range, so its eps is infinite and nothing is skipped
    assert dimension._sum_error(80, 10) == math.inf
    assert dimension._sum_error(4, 20_000) < 1e-12
    f, calls = _moran(MORAN_CASES["luroth-10"])
    plain_f, plain_calls = _moran(MORAN_CASES["luroth-10"])
    assert dimension._convex_bisect(f, 1.5, 1e-9, 8.0, math.inf) == reference.bisect(
        plain_f, 1.5, 1e-9, 8.0)
    assert list(calls) == list(plain_calls)
    (got, plain), _ = _recorded(lambda: _root_and_plain(
        lambda: pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 80, 10, 1e-9)))
    assert got == plain


ROUNDING_CASES = {
    # rule, predicate, rank, cap and the number of bases, or None where
    # they are too many to list and F runs over _levels' own states: rank
    # 60 at cap 16 is L = 3k ln C = 499.07, just inside the range where eps
    # (2.4e-12 there) is finite, and where the terms are smallest
    "luroth-all": (LUROTH, all_digits(), 2, 40, 1521),
    "engel-all": (ENGEL, all_digits(), 3, 14, 455),
    "pierce-ratio2": (PIERCE, bounded_ratio(2), 3, 20, 473),
    "oppenheim21-all": (DigitRule.oppenheim(2, 1), all_digits(), 2, 30, 169),
    "luroth-60": (LUROTH, all_digits(), 60, 16, None),
    "engel-60": (ENGEL, all_digits(), 60, 16, None),
}


def _same_states_sum(rule, predicate, rank, cap):
    """F(s), the exact sum minus 1 over the states _levels builds for
    pressure_root, in 50-digit decimal arithmetic: pressure_root's
    recursion with decimal weights, exps and sums."""
    def ln(n):
        return Decimal(n).ln()

    with localcontext(Context(prec=50)):
        kept, final, _ = dimension._levels(
            rule, predicate, rank, cap, lambda num, den: ln(num) - ln(den),
            lambda num, den, digits: [ln(num) - ln(den * (c - 1) * c) for c in digits])

    def F(s):
        with localcontext(Context(prec=50)):
            s = Decimal(s)

            def values(level, u):
                out = []
                for (lo, hi), lws in level:
                    total = sum(u[lo:hi])
                    out += [total * (s * lw).exp() for lw in lws]
                return out

            u = [(s * ln(rule.phi0)).exp()]
            for level in kept:
                u += values(level, u)
            return sum(values(final, u)) - 1

    return F


def _rounding_case(case, bisect):
    """pressure_root on ROUNDING_CASES[case] with _convex_bisect replaced by
    bisect(f, *args) (seeing f, the sum minus 1 that pressure_root bisects);
    the estimate, and F(s), the exact sum of |cylinder|**s - 1 in 50-digit
    decimals: the reference's, over the bases it lists one by one, or over
    the same states as f (_same_states_sum)."""
    rule, predicate, rank, cap, count = ROUNDING_CASES[case]
    with mock.patch.object(dimension, "_convex_bisect", bisect):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            est = pressure_root(rule, Sign.POSITIVE, predicate, rank, cap, 1e-9)
    if count is None:
        return est, _same_states_sum(rule, predicate, rank, cap)
    diameters = reference.diameters(rule, Sign.POSITIVE, predicate, rank, cap)
    assert len(diameters) == count
    return est, reference.decimal_pressure_sum(diameters)


@pytest.mark.parametrize("case", sorted(ROUNDING_CASES))
def test_pressure_sum_is_within_its_rounding_bound(case):
    # the f that pressure_root bisects, against F, a 50-digit decimal sum of
    # |cylinder|**s over the bases one by one or over f's own states:
    # _sum_error's eps bounds |f - F| by eps (1 + |f|) for s in [0, 1.5]
    _, _, rank, cap, _ = ROUNDING_CASES[case]
    seen = []
    _, exact = _rounding_case(case, lambda f, *_: seen.append(f) or (0.0, 0.0))
    (f,) = seen
    eps = Decimal(dimension._sum_error(rank, cap))
    assert eps.is_finite()
    rng = random.Random(case)
    with localcontext(Context(prec=50)):
        for s in [rng.uniform(0.0, 1.5) for _ in range(20)]:
            got = Decimal(f(s))
            assert abs(got - exact(s)) <= eps * (1 + abs(got)), s


@pytest.mark.parametrize("case", sorted(ROUNDING_CASES))
def test_pressure_roots_last_bracket_encloses_the_exact_root(case):
    # where the last bracket [lo, hi] of the bisection has f(lo) > E and
    # f(hi) < -E, E = eps (1 + |f|), the exact sum F changes sign inside it
    seen, convex_bisect = [], dimension._convex_bisect
    est, exact = _rounding_case(
        case, lambda f, *args: seen.append((f, args)) or convex_bisect(f, *args))
    ((f, (top, _, _, eps)),) = seen
    lo, hi = 0.0, top  # the bracket whose midpoint is s, by replaying the path to s
    for _ in range(dimension._MAX_BISECT):
        mid = (lo + hi) / 2
        if mid == est.s_value:
            break
        lo, hi = (mid, hi) if est.s_value > mid else (lo, mid)
    assert (lo + hi) / 2 == est.s_value
    f_lo, f_hi = f(lo), f(hi)
    # not vacuous: on these configs both ends lie beyond E
    assert f_lo > eps * (1 + abs(f_lo)) and f_hi < -eps * (1 + abs(f_hi))
    assert exact(lo) > 0 > exact(hi)


# ---------------------------------------------------------------------------
# the stated bound on word-keyed levels
# ---------------------------------------------------------------------------


def test_word_keyed_levels_are_bounded(monkeypatch):
    monkeypatch.setattr(dimension, "_MAX_WORD_STATES", 50)
    custom = ORACLE_RULES["custom"]
    # level 1 holds 10 words and level 2 more than 50
    message = r"^level 2 has \d+ word-keyed states, more than the 50 allowed$"
    for call in (
        lambda: pressure_root(custom, Sign.POSITIVE, all_digits(), 2, 11, 1e-9),
        lambda: measure_at_rank(custom, Sign.POSITIVE, all_digits(), 2, 11),
    ):
        with pytest.raises(DomainError, match=message):
            call()
    assert measure_at_rank(custom, Sign.POSITIVE, all_digits(), 1, 11) == measure_at_rank(
        LUROTH, Sign.POSITIVE, all_digits(), 1, 11)
    # states keyed by the last digit are not word-keyed: no bound applies
    est = pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 3, 11, 1e-9)
    assert est.bases_count == 10**3


def test_word_keyed_bound_counts_the_last_levels_states(monkeypatch):
    # the last level's states are weighed one run at a time; the bound
    # counts the states, not the weights of the runs
    monkeypatch.setattr(dimension, "_MAX_WORD_STATES", 50)
    custom = ORACLE_RULES["custom"]
    message = r"^level 1 has 99 word-keyed states, more than the 50 allowed$"
    for call in (
        lambda: measure_at_rank(custom, Sign.POSITIVE, all_digits(), 1, 100),
        lambda: pressure_root(custom, Sign.POSITIVE, all_digits(), 1, 100, 1e-9),
    ):
        with pytest.raises(DomainError, match=message):
            call()


def test_word_keyed_bound_is_the_state_recursions_own(monkeypatch):
    # an opaque predicate keys every state by its word; the enumeration
    # lists words one at a time and keeps no level to bound
    monkeypatch.setattr(dimension, "_MAX_WORD_STATES", 50)
    pred = DigitPredicate(lambda w: True, "all, opaque")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        words = list(enumerate_compatible_bases(ENGEL_MOD, pred, 3, 12))
    assert words == list(itertools.combinations(range(2, 13), 3))
    assert [(w.message.position, w.message.count) for w in caught] == [(2, 1)]
    with pytest.raises(DomainError, match="^level 2 has 52 word-keyed states"):
        pressure_root(ENGEL_MOD, Sign.POSITIVE, pred, 3, 12, 1e-9)
