"""Digit extraction, series evaluation, and exact cylinder geometry."""

import math
import pickle
import random
import sys
import tracemalloc
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from perron import (
    FROM_INF,
    CylinderInterval,
    DigitRule,
    DomainError,
    FamilySet,
    ISPoint,
    QInterval,
    Sign,
    TransformKind,
    ValidityError,
    all_digits,
    alternating_digits,
    bounded_ratio,
    cover_boundary,
    cover_interval,
    cylinder,
    enumerate_compatible_bases,
    family_set_hull,
    moran_dimension,
    partial_sum,
    pierce_notation_convert,
    positive_digits,
    rule_value,
    traditional_pierce_digits,
    transform_point,
    validate_word,
    word_diameter,
)
from perron import core
from perron.core import _MAX_DIGIT_BITS, _child, _digits, _Frame

import reference

LUROTH = DigitRule.luroth()
ENGEL = DigitRule.engel()
ENGEL_MOD = DigitRule.engel_mod()
PIERCE = DigitRule.pierce()

RULES = [LUROTH, ENGEL, ENGEL_MOD, PIERCE, DigitRule.oppenheim(2, 1)]


# ---------------------------------------------------------------------------
# rule values and word validity
# ---------------------------------------------------------------------------


def test_rule_value_examples():
    assert rule_value(ENGEL, [3]) == 2
    assert rule_value(LUROTH, [7, 2, 9]) == 1
    assert rule_value(PIERCE, [3, 5]) == 5
    assert rule_value(ENGEL, ()) == 1  # r_0 = phi_0


def test_validate_word_examples():
    validate_word(ENGEL, [2, 3])
    validate_word(ENGEL, [2, 2])  # repeats allowed, r = c - 1
    with pytest.raises(ValidityError) as exc:
        validate_word(ENGEL_MOD, [2, 2])  # strictly increasing, needs c2 >= 3
    assert exc.value.index == 2


def test_validate_word_first_digit():
    with pytest.raises(ValidityError) as exc:
        validate_word(LUROTH, [1])  # needs c >= r0 + 1 = 2
    assert exc.value.index == 1


def test_oppenheim_rule_value_can_degenerate():
    # r_n = c_n - 2 hits zero on digit 2
    rule = DigitRule.oppenheim(1, -2)
    with pytest.raises(ValidityError) as exc:
        validate_word(rule, [2, 3])
    assert exc.value.index == 1


def test_oppenheim_constructor_domain():
    with pytest.raises(DomainError):
        DigitRule.oppenheim(-1, 0)
    with pytest.raises(DomainError):
        DigitRule.oppenheim(1, 0, phi0=0)
    with pytest.raises(DomainError):
        DigitRule.custom(lambda w: 1, phi0=0)


def test_phi0_below_one_is_refused_however_the_rule_is_made():
    # a rule made directly used to reach the walks with r_0 = 0: digit
    # extraction divided by it (ZeroDivisionError) and the alternating
    # form returned ISPoint(rank=1)
    for phi0 in (0, -3):
        with pytest.raises(DomainError, match=f"phi0 must be >= 1, got {phi0}"):
            DigitRule("x", phi0=phi0, a=1, b=0)
        with pytest.raises(DomainError, match="phi0 must be >= 1"):
            DigitRule.custom(_parity, phi0=phi0)


class _Index:
    """An integer-like value: operator.index reads it, and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_non_integer_rule_values_are_validity_errors():
    # 3/8 has first digit 3; a rule value of 1.5 after it used to feed the
    # next digit, and alternating_digits returned ISPoint(rank=2)
    for value in (1.5, Fraction(3, 2), "2"):
        rule = DigitRule.custom(lambda w, value=value: value)
        calls = [
            lambda: alternating_digits(rule, Fraction(3, 8), 4),
            lambda: positive_digits(rule, Fraction(3, 8), 4),
            lambda: validate_word(rule, (3, 4)),
            lambda: cylinder(rule, (3, 4), Sign.POSITIVE),
            lambda: rule_value(rule, (3,)),
            lambda: partial_sum(rule, (3, 4), Sign.POSITIVE),
            lambda: word_diameter(rule, (3, 4)),
        ]
        for call in calls:
            with pytest.raises(ValidityError, match="after position 1 is not an integer") as exc:
                call()
            assert exc.value.index == 1


def test_integer_like_rule_values_are_accepted():
    # what operator.index accepts is an integer rule value
    rule = DigitRule.custom(lambda w: _Index(w[-1] - 1))
    x = Fraction(3, 8)
    assert positive_digits(rule, x, 6) == positive_digits(ENGEL, x, 6)
    assert cylinder(rule, (3, 4), Sign.ALTERNATING) == cylinder(ENGEL, (3, 4), Sign.ALTERNATING)
    assert rule_value(DigitRule.custom(lambda w: True), (2,)) == 1


def test_rule_parameters_must_be_integers():
    makers = [
        lambda: DigitRule.oppenheim(1.5, 0),
        lambda: DigitRule.oppenheim(1, 0.5),
        lambda: DigitRule.oppenheim(1, 0, phi0=Fraction(3, 2)),
        lambda: DigitRule.custom(lambda w: 1, phi0=1.5),
        lambda: DigitRule("affine", a=Fraction(1, 2), b=1),
    ]
    for make in makers:
        with pytest.raises(DomainError, match="must be an integer"):
            make()
    assert DigitRule.oppenheim(_Index(2), _Index(1)) == DigitRule.oppenheim(2, 1)


def _parity(prefix):
    """A rule value that depends on the whole prefix (module level, so a
    rule made from it pickles)."""
    return 1 + sum(prefix) % 2


def test_each_walk_asks_a_custom_rule_about_each_prefix_once():
    calls = []

    def fn(prefix):
        calls.append(prefix)
        return _parity(prefix)

    rule = DigitRule.custom(fn)
    x = Fraction(271828, 314159)
    word = positive_digits(rule, x, 12)
    alternating = alternating_digits(rule, x, 12)
    walks = [
        (lambda: positive_digits(rule, x, 12), word),
        (lambda: alternating_digits(rule, x, 12), alternating),
        (lambda: validate_word(rule, word), word),
        (lambda: rule_value(rule, word), word),
        (lambda: cylinder(rule, word, Sign.POSITIVE), word),
        (lambda: cylinder(rule, alternating, Sign.ALTERNATING), alternating),
        (lambda: partial_sum(rule, word, Sign.ALTERNATING), word),
        (lambda: word_diameter(rule, word), word),
    ]
    for walk, walked in walks:
        calls.clear()
        walk()
        # the rule keeps no cache, so every ask reaches fn, once per prefix
        assert calls == [walked[:i] for i in range(1, len(walked) + 1)]


def test_custom_rules_are_values():
    rule = DigitRule.custom(_parity, phi0=2)
    assert rule == DigitRule.custom(_parity, phi0=2)
    assert hash(rule) == hash(DigitRule.custom(_parity, phi0=2))
    assert rule != DigitRule.custom(_parity)
    assert rule.fn is _parity
    for made in (rule, ENGEL, DigitRule.oppenheim(2, 1, phi0=3)):
        assert pickle.loads(pickle.dumps(made)) == made


def test_a_custom_rule_retains_nothing_after_a_walk():
    # the rule used to cache every prefix it was asked about: 2000 digits
    # retained about 16 MB of prefix tuples for as long as the rule lived
    rule = DigitRule.custom(_parity)
    tracemalloc.start()
    try:
        positive_digits(rule, Fraction(271828, 314159), 2000)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 100_000


def test_custom_rule_matches_builtin():
    # r = last digit - 1 is the repeating-allowed builtin
    rule = DigitRule.custom(lambda w: w[-1] - 1)
    x = Fraction(3, 8)
    assert positive_digits(rule, x, 6) == positive_digits(ENGEL, x, 6)


# ---------------------------------------------------------------------------
# digit extraction, worked values
# ---------------------------------------------------------------------------


def test_positive_digits_examples():
    assert positive_digits(ENGEL, 1, 4) == (2, 2, 2, 2)
    assert positive_digits(ENGEL, Fraction(3, 8), 4) == (3, 9, 9, 9)
    assert positive_digits(LUROTH, Fraction(1, 3), 4) == (4, 2, 2, 2)


def test_positive_digits_domain():
    with pytest.raises(DomainError):
        positive_digits(ENGEL, Fraction(0), 3)
    with pytest.raises(DomainError):
        positive_digits(ENGEL, Fraction(9, 8), 3)
    with pytest.raises(DomainError):
        positive_digits(ENGEL, Fraction(1, 2), -1)


def test_alternating_digits_examples():
    assert alternating_digits(PIERCE, Fraction(1, 2), 4) == ISPoint(rank=1, digits=())
    assert alternating_digits(PIERCE, Fraction(2, 5), 4) == ISPoint(rank=2, digits=(3,))
    assert alternating_digits(LUROTH, Fraction(2, 3), 3) == (2, 2, 2)


def test_alternating_digits_domain():
    with pytest.raises(DomainError):
        alternating_digits(PIERCE, Fraction(1), 3)
    with pytest.raises(DomainError):
        alternating_digits(PIERCE, Fraction(0), 3)


def test_digit_bit_length_is_bounded():
    # engel alternating digits of 61/215 roughly square at each step; the
    # one at position 31 has 126835 bits, past the 2**16-bit bound, so the
    # request stops there instead of running for hours
    with pytest.raises(DomainError, match="position 31 has 126835 bits"):
        alternating_digits(ENGEL, Fraction(61, 215), 48)
    assert len(alternating_digits(ENGEL, Fraction(61, 215), 30)) == 30
    # a first digit just past the bound, and one just inside it, in both
    # forms (x = 2/(2N+1) is no cylinder endpoint, and floor(1/x) = N)
    tiny = Fraction(2, 2**65537 + 1)
    for extract in (positive_digits, alternating_digits):
        with pytest.raises(DomainError, match="position 1 has 65537 bits"):
            extract(LUROTH, tiny, 1)
        assert extract(LUROTH, 2 * tiny, 1) == (2**65535 + 1,)


def test_zero_digits_requested():
    assert positive_digits(LUROTH, Fraction(1, 3), 0) == ()
    assert alternating_digits(LUROTH, Fraction(1, 3), 0) == ()


# ---------------------------------------------------------------------------
# series evaluation and cylinders, worked values
# ---------------------------------------------------------------------------


def test_partial_sum_examples():
    assert partial_sum(ENGEL, [3, 9], Sign.POSITIVE) == Fraction(10, 27)
    assert partial_sum(PIERCE, [3, 4], Sign.ALTERNATING) == Fraction(1, 3)
    assert partial_sum(LUROTH, [2], Sign.POSITIVE) == Fraction(1, 2)


def test_cylinder_examples():
    cyl = cylinder(ENGEL, [2, 3], Sign.POSITIVE)
    assert (cyl.lo, cyl.hi) == (Fraction(2, 3), Fraction(3, 4))
    assert cyl.diameter == Fraction(1, 12)
    assert (cyl.lo_included, cyl.hi_included) == (False, True)

    assert cylinder(ENGEL_MOD, [2, 3], Sign.POSITIVE).diameter == Fraction(1, 6)

    alt = cylinder(PIERCE, [2], Sign.ALTERNATING)
    assert (alt.lo, alt.hi) == (Fraction(1, 2), Fraction(1))
    assert alt.diameter == Fraction(1, 2)
    assert (alt.lo_included, alt.hi_included) == (False, False)


def test_engel_3_9_supremum():
    assert cylinder(ENGEL, [3, 9], Sign.POSITIVE).hi == Fraction(3, 8)


def test_contains_respects_openness():
    cyl = cylinder(ENGEL, [2, 3], Sign.POSITIVE)
    assert cyl.contains(Fraction(3, 4))
    assert not cyl.contains(Fraction(2, 3))
    alt = cylinder(PIERCE, [2], Sign.ALTERNATING)
    assert not alt.contains(Fraction(1, 2))
    assert not alt.contains(Fraction(1))
    assert alt.contains(Fraction(3, 4))
    for c in (cyl, alt):  # points below lo and above hi, both signs
        for x in (c.lo - c.diameter, c.lo - c.diameter / 1000, c.hi + c.diameter / 1000):
            assert not c.contains(x)
        for x in ("3/4", None, 0.75j):  # not numbers
            with pytest.raises(TypeError):
                c.contains(x)


def test_nan_and_infinities_are_in_no_cylinder():
    assert cylinder(ENGEL, (3, 4), Sign.POSITIVE).contains(float("nan")) is False
    not_finite = (float("nan"), float("inf"), float("-inf"), Decimal("NaN"),
                  Decimal("sNaN"), Decimal("Infinity"), Decimal("-Infinity"))
    for rule in RULES:
        for sign in (Sign.POSITIVE, Sign.ALTERNATING):
            cyl = cylinder(rule, (rule_value(rule, ()) + 1,), sign)
            for lo_included in (False, True):
                for hi_included in (False, True):
                    c = CylinderInterval(cyl.lo, cyl.hi, lo_included, hi_included, sign, cyl.word)
                    assert not any(c.contains(x) for x in not_finite)


_NON_FINITE_ENTRIES = {
    # entry point: (the parameter its DomainError names, a call with x there)
    "positive_digits": ("x", lambda x: positive_digits(LUROTH, x, 3)),
    "alternating_digits": ("x", lambda x: alternating_digits(LUROTH, x, 3)),
    "transform_point": ("x", lambda x: transform_point(TransformKind.t_engel(), x, 2)),
    "traditional_pierce_digits": ("x", traditional_pierce_digits),
    "QInterval": ("hi", lambda x: QInterval(0, x)),
    "cover_boundary": ("cut", lambda x: cover_boundary(LUROTH, Sign.POSITIVE, (), x, FROM_INF)),
    "bounded_ratio": ("k", bounded_ratio),
    "moran_dimension": ("ratio", lambda x: moran_dimension([Fraction(1, 3), x])),
}


@pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), Decimal("NaN"),
                               Decimal("Infinity")], ids=str)
@pytest.mark.parametrize("entry", sorted(_NON_FINITE_ENTRIES))
def test_non_finite_numbers_are_a_domain_error(entry, x):
    # Fraction refuses them with a ValueError (NaN) or an OverflowError (+-inf)
    name, call = _NON_FINITE_ENTRIES[entry]
    with pytest.raises(DomainError, match=f"^{name} must be a finite number, got "):
        call(x)


_INTEGER_ARGUMENTS = [
    # (call, the parameter its DomainError names); each raised TypeError
    # before n went through core._integer
    (lambda: positive_digits(LUROTH, Fraction(1, 3), 2.5), "n"),
    (lambda: positive_digits(LUROTH, Fraction(1, 3), None), "n"),
    (lambda: alternating_digits(LUROTH, Fraction(1, 3), Fraction(2)), "n"),
]


@pytest.mark.parametrize("call, name", _INTEGER_ARGUMENTS,
                         ids=["positive-2.5", "positive-None", "alternating-Fraction"])
def test_a_non_integer_count_is_a_domain_error(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got "):
        call()


def test_integer_arguments_are_read_as_operator_index_reads_them():
    x = Fraction(271828, 314159)
    assert positive_digits(LUROTH, x, _Index(5)) == positive_digits(LUROTH, x, 5)
    assert alternating_digits(ENGEL, x, True) == alternating_digits(ENGEL, x, 1)
    # out of range, the text is the one it was
    for digits in (positive_digits, alternating_digits):
        assert reference.outcome(digits, LUROTH, x, -1) == (DomainError, "n must be >= 0", None)


def test_values_fraction_refuses_otherwise_keep_its_error():
    with pytest.raises(ValueError, match="Invalid literal for Fraction") as exc:
        positive_digits(LUROTH, "nan", 3)
    assert type(exc.value) is ValueError
    with pytest.raises(TypeError):
        QInterval(0, 1j)
    # a finite float or Decimal is read exactly, as Fraction reads it
    assert QInterval(Decimal("0.25"), 0.5) == QInterval(Fraction(1, 4), Fraction(1, 2))


def _contains_by_fraction_comparison(cyl, x):
    """CylinderInterval.contains as it was before it cross-multiplied integer
    pairs: x compared with the Fraction ends."""
    if x < cyl.lo or x > cyl.hi:
        return False
    if x == cyl.lo:
        return cyl.lo_included
    if x == cyl.hi:
        return cyl.hi_included
    return True


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(RULES),
    st.sampled_from([Sign.POSITIVE, Sign.ALTERNATING]),
    st.integers(2, 2**40).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))),
    st.integers(1, 12),
    st.booleans(),
    st.booleans(),
    st.integers(1, 80),
)
@example(LUROTH, Sign.POSITIVE, (3, 4), 1, True, True, 1)  # (1/2, 1]: int and binary ends
@example(PIERCE, Sign.ALTERNATING, (3, 4), 1, False, True, 60)  # (1/2, 1)
def test_contains_matches_the_fraction_comparison(rule, sign, pq, depth, lo_included,
                                                  hi_included, shift):
    """Integer cross-multiplication gives the Fraction comparison's answer
    for an int, a Fraction, a float and a Decimal at each end, just inside
    it and just outside it, under either inclusion flag."""
    out = _digits(rule, sign, Fraction(*pq), depth)
    word = out.digits if isinstance(out, ISPoint) else out
    assume(word)
    cyl = cylinder(rule, word, sign)
    cyl = CylinderInterval(cyl.lo, cyl.hi, lo_included, hi_included, sign, word)
    step = cyl.diameter / 2**shift
    points = [-1, 0, 1, 2]
    for end in (cyl.lo, cyl.hi):
        for x in (end, end - step, end + step):
            points += [x, float(x), Decimal(x.numerator) / Decimal(x.denominator)]
        near = float(end)
        points += [math.nextafter(near, -math.inf), math.nextafter(near, math.inf),
                   Decimal(near), Decimal(near).next_minus(), Decimal(near).next_plus()]
        if end.denominator == 1:
            points.append(end.numerator)
    for x in points:
        assert cyl.contains(x) is _contains_by_fraction_comparison(cyl, x), x


def test_empty_word_rejected():
    for op in (partial_sum, cylinder):
        with pytest.raises(ValidityError):
            op(ENGEL, (), Sign.POSITIVE)
    with pytest.raises(ValidityError):
        word_diameter(ENGEL, ())


# ---------------------------------------------------------------------------
# notation shifts and the finite greedy expansion
# ---------------------------------------------------------------------------


def test_pierce_notation_convert_examples():
    assert pierce_notation_convert([3, 5, 9], "perron-to-traditional") == (2, 4, 8)
    assert pierce_notation_convert([1, 2, 5], "traditional-to-perron") == (2, 3, 6)
    with pytest.raises(ValidityError):
        pierce_notation_convert([2, 2], "perron-to-traditional")
    # traditional words increase strictly from 1
    for word, index in (([2, 2], 2), ([0, 3], 1)):
        with pytest.raises(ValidityError, match="must exceed") as exc:
            pierce_notation_convert(word, "traditional-to-perron")
        assert exc.value.index == index
    with pytest.raises(DomainError):
        pierce_notation_convert([2, 3], "sideways")


def test_traditional_pierce_examples():
    assert traditional_pierce_digits(Fraction(2, 5)) == (2, 5)
    assert traditional_pierce_digits(Fraction(1, 2)) == (2,)
    assert traditional_pierce_digits(Fraction(1, 3)) == (3,)


@given(st.integers(2, 300), st.integers(1, 299))
def test_traditional_digits_strictly_increase_and_evaluate_back(q, p):
    if p >= q:
        p = p % (q - 1) + 1
    x = Fraction(p, q)
    digits = traditional_pierce_digits(x)
    assert all(a < b for a, b in zip(digits, digits[1:]))
    # alternating greedy series: x = 1/a1 - 1/(a1 a2) + ...
    total = Fraction(0)
    prod = 1
    for i, d in enumerate(digits):
        prod *= d
        total += Fraction((-1) ** i, prod)
    assert total == x


@given(st.integers(2, 300), st.integers(1, 299))
def test_termination_rank_matches_greedy_expansion(q, p):
    """The rank-terminated alternating recursion and the greedy finite
    expansion describe the same rationals: termination rank equals the
    greedy length, and the digits found so far are the shifted greedy
    digits, last one dropped."""
    if p >= q:
        p = p % (q - 1) + 1
    x = Fraction(p, q)
    trad = traditional_pierce_digits(x)
    outcome = alternating_digits(PIERCE, x, 400)
    assert isinstance(outcome, ISPoint)
    assert outcome.rank == len(trad)
    assert outcome.digits == tuple(t + 1 for t in trad[:-1])


@given(st.lists(st.integers(1, 40), min_size=1, max_size=8, unique=True))
def test_notation_roundtrip(raw):
    trad = tuple(sorted(raw))
    perron = pierce_notation_convert(trad, "traditional-to-perron")
    validate_word(PIERCE, perron)
    assert pierce_notation_convert(perron, "perron-to-traditional") == trad


# ---------------------------------------------------------------------------
# property tests over random points and words
# ---------------------------------------------------------------------------


@st.composite
def unit_rational(draw, include_one=True):
    q = draw(st.integers(2, 10**6))
    p = draw(st.integers(1, q if include_one else q - 1))
    return Fraction(p, q)


@st.composite
def rule_and_word(draw, max_rank=8):
    """A valid nonempty word, obtained by expanding a random rational."""
    rule = draw(st.sampled_from(RULES))
    x = draw(unit_rational())
    rank = draw(st.integers(1, max_rank))
    return rule, positive_digits(rule, x, rank)


@given(st.sampled_from(RULES), unit_rational(), st.integers(1, 12))
def test_roundtrip_containment(rule, x, n):
    word = positive_digits(rule, x, n)
    assert cylinder(rule, word, Sign.POSITIVE).contains(x)


@given(st.sampled_from(RULES), unit_rational(), st.integers(1, 11))
def test_prefix_coherence(rule, x, n):
    assert positive_digits(rule, x, n + 1)[:n] == positive_digits(rule, x, n)


@given(rule_and_word())
def test_diameter_equal_for_both_sign_forms(rw):
    rule, word = rw
    pos = cylinder(rule, word, Sign.POSITIVE)
    alt = cylinder(rule, word, Sign.ALTERNATING)
    assert pos.diameter == alt.diameter == word_diameter(rule, word)


@given(rule_and_word(max_rank=5), st.integers(1, 60))
def test_children_tile_parent(rw, extra):
    """Consecutive children plus the exact tail term telescope to the parent.

    The tail of children beyond digit N has total diameter (N-1) times the
    diameter of child N, so any finite run of children accounts for the
    parent exactly.
    """
    rule, prefix = rw
    r = rule_value(rule, prefix)
    n_top = r + extra
    total = sum(
        word_diameter(rule, prefix + (i,)) for i in range(r + 1, n_top + 1)
    )
    tail = (n_top - 1) * word_diameter(rule, prefix + (n_top,))
    assert total + tail == word_diameter(rule, prefix)


@given(rule_and_word(max_rank=5), st.integers(0, 30), st.integers(1, 30))
def test_monotone_child_diameters(rw, gap_n, gap_m):
    rule, prefix = rw
    r = rule_value(rule, prefix)
    n = r + 1 + gap_n
    m = n + gap_m
    d_n = word_diameter(rule, prefix + (n,))
    d_m = word_diameter(rule, prefix + (m,))
    assert d_m < d_n
    # any single child is no larger than the whole tail after it
    assert d_n <= (n + 1) * word_diameter(rule, prefix + (n + 1,))


@given(rule_and_word(max_rank=5), st.integers(0, 20))
def test_positive_children_descend_and_abut(rw, gap):
    rule, prefix = rw
    r = rule_value(rule, prefix)
    d = r + 1 + gap
    here = cylinder(rule, prefix + (d,), Sign.POSITIVE)
    below = cylinder(rule, prefix + (d + 1,), Sign.POSITIVE)
    assert below.hi == here.lo  # larger digit sits at smaller values


@given(rule_and_word(max_rank=7))
def test_alternating_orientation_flips_by_rank(rw):
    rule, word = rw
    for k in range(1, len(word) + 1):
        cyl = cylinder(rule, word[:k], Sign.ALTERNATING)
        value = partial_sum(rule, word[:k], Sign.ALTERNATING)
        assert value == reference.partial_sum(rule, word[:k], Sign.ALTERNATING)
        assert value == (cyl.hi if k % 2 else cyl.lo)


@given(rule_and_word(max_rank=7))
def test_positive_partial_sum_is_infimum(rw):
    rule, word = rw
    value = partial_sum(rule, word, Sign.POSITIVE)
    assert value == reference.partial_sum(rule, word, Sign.POSITIVE)
    assert value == cylinder(rule, word, Sign.POSITIVE).lo


@given(rule_and_word(max_rank=6), st.booleans())
def test_cylinder_endpoints_have_no_alternating_expansion(rw, take_hi):
    rule, word = rw
    cyl = cylinder(rule, word, Sign.ALTERNATING)
    x = cyl.hi if take_hi else cyl.lo
    if not 0 < x < 1:
        x = cyl.lo if take_hi else cyl.hi  # rank-1 cylinders can touch 0 or 1
    if not 0 < x < 1:
        return
    outcome = alternating_digits(rule, x, len(word) + 2)
    assert isinstance(outcome, ISPoint)


@settings(max_examples=60)
@given(st.sampled_from(RULES), unit_rational(include_one=False), st.integers(1, 8))
def test_full_alternating_word_means_strict_interior(rule, x, n):
    outcome = alternating_digits(rule, x, n)
    if isinstance(outcome, ISPoint):
        return
    cyl = cylinder(rule, outcome, Sign.ALTERNATING)
    # contains() of a both-open interval is exactly strict interiority
    assert cyl.contains(x)


@given(st.sampled_from(RULES), unit_rational(include_one=False), st.integers(1, 10))
def test_alternating_prefix_coherence(rule, x, n):
    longer = alternating_digits(rule, x, n + 1)
    shorter = alternating_digits(rule, x, n)
    if isinstance(shorter, ISPoint):
        assert longer == shorter
    elif isinstance(longer, ISPoint):
        assert longer.digits[:n] == shorter
    else:
        assert longer[:n] == shorter


# ---------------------------------------------------------------------------
# deep words: the cylinder walk against the term-by-term series oracles
# ---------------------------------------------------------------------------

PARITY = DigitRule.custom(lambda prefix: 1 + sum(prefix) % 2)
DEEP_RULES = [*RULES, PARITY]
DEEP_IDS = ["luroth", "engel", "engel-mod", "pierce", "oppenheim-2-1", "parity"]


@pytest.mark.parametrize("sign", [Sign.POSITIVE, Sign.ALTERNATING], ids=["P", "A"])
@pytest.mark.parametrize("rule", DEEP_RULES, ids=DEEP_IDS)
def test_deep_cylinders_match_series_oracles(rule, sign):
    """Rank 40-80 words from the positive digits of random rationals.

    The cylinder's frame carries its endpoints unreduced over one growing
    common denominator, and partial_sum reads its offset; the reference
    sums the series term by term and word_diameter multiplies its factors
    instead, so exact equality checks the reduction at depth.
    """
    rng = random.Random(40)
    for _ in range(4):
        q = rng.randrange(2, 10**6)
        x = Fraction(rng.randrange(1, q), q)
        word = positive_digits(rule, x, rng.randint(40, 80))
        cyl = cylinder(rule, word, sign)
        assert cyl.diameter == word_diameter(rule, word)
        upper = sign is Sign.ALTERNATING and len(word) % 2
        value = partial_sum(rule, word, sign)
        assert value == reference.partial_sum(rule, word, sign)
        assert value == (cyl.hi if upper else cyl.lo)
        if sign is Sign.POSITIVE:
            assert cyl.contains(x)


@st.composite
def reader_case(draw):
    """A rule (five built-in plus PARITY), a sign and a valid 1-60 digit word."""
    rule = draw(st.sampled_from(DEEP_RULES))
    word = []
    for _ in range(draw(st.integers(1, 60))):
        offset = draw(st.one_of(st.integers(0, 3), st.integers(0, 10**6)))
        word.append(rule_value(rule, word) + 1 + offset)
    return rule, draw(st.sampled_from([Sign.POSITIVE, Sign.ALTERNATING])), tuple(word)


@settings(max_examples=150, deadline=None)
@given(reader_case(), st.data())
def test_frame_extend_continues_any_frame(case, data):
    # the frame of w1 extended by w2 is the frame of w1 + w2, from the root
    # or from any frame below it, and an invalid digit in w2 raises what
    # walking the whole word raises, named by its position in that word
    rule, sign, word = case
    k = data.draw(st.integers(0, len(word)))
    w1, w2 = word[:k], word[k:]
    assert _Frame.walk(rule, sign, w1).extend(w2) == _Frame.walk(rule, sign, word)
    if not w2:
        return
    j = data.draw(st.integers(0, len(w2) - 1))
    bad = data.draw(st.sampled_from([1, rule_value(rule, word[: k + j]), "x", 2.5]))
    w2 = w2[:j] + (bad,) + w2[j + 1 :]
    with pytest.raises(ValidityError) as whole:
        _Frame.walk(rule, sign, w1 + w2)
    with pytest.raises(ValidityError) as extended:
        _Frame.walk(rule, sign, w1).extend(w2)
    assert str(extended.value) == str(whole.value)
    assert extended.value.index == whole.value.index == k + j + 1


@settings(max_examples=150, deadline=None)
@given(reader_case(), st.data())
def test_partial_sum_is_the_series_on_valid_and_invalid_words(case, data):
    # partial_sum reads the frame's offset; the reference sums the series
    # term by term.  Value, or error type, text and index, agree on the
    # word, its empty prefix, and the word with one digit made invalid
    rule, sign, word = case
    j = data.draw(st.integers(0, len(word) - 1))
    bad = data.draw(st.sampled_from([1, rule_value(rule, word[:j]), "x", 2.5, None]))
    for w in (word, (), word[:j] + (bad,) + word[j + 1:]):
        expected = reference.outcome(reference.partial_sum, rule, w, sign)
        assert reference.outcome(partial_sum, rule, w, sign) == expected


@settings(max_examples=150, deadline=None)
@given(reader_case())
def test_cylinder_and_family_set_hulls_read_one_interval(case):
    # a cylinder is read as the hull of its whole child range (the at(1, 1)
    # shortcut); it is also its parent's one-child range and its own
    # unbounded range, both read through the general child formula
    rule, sign, word = case
    cyl = cylinder(rule, word, sign)
    for fs in (
        FamilySet(sign, word[:-1], word[-1], word[-1]),
        FamilySet(sign, word, rule_value(rule, word) + 1, None),
    ):
        hull = family_set_hull(rule, fs)
        assert (hull.lo, hull.hi) == (cyl.lo, cyl.hi)


# ---------------------------------------------------------------------------
# digit extraction, whenever it reduces its remainder, against the textbook
# reference, which reduces every step; the reduction policy by counts
# ---------------------------------------------------------------------------

EXTRACTION_RULES = [*RULES, DigitRule.oppenheim(1, -3), PARITY,
                    DigitRule.custom(lambda prefix: prefix[-1] % 3 + 1, phi0=2)]


def _extract(rule, sign, x, n, max_bits):
    """_digits with its digit bound set to max_bits, or its error
    (reference.outcome)."""
    with mock.patch.object(core, "_MAX_DIGIT_BITS", max_bits):
        return reference.outcome(_digits, rule, sign, x, n)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(EXTRACTION_RULES),
    st.sampled_from([Sign.POSITIVE, Sign.ALTERNATING]),
    st.one_of(st.integers(2, 10**6), st.integers(2, 2**64)).flatmap(
        lambda q: st.tuples(st.integers(1, q), st.just(q))),
    st.one_of(st.integers(0, 8), st.integers(180, 220)),
    st.sampled_from([12, 40, _MAX_DIGIT_BITS, 2 * _MAX_DIGIT_BITS]),
)
@example(ENGEL, Sign.ALTERNATING, (61, 215), 48, _MAX_DIGIT_BITS)  # position 31
@example(ENGEL, Sign.ALTERNATING, (61, 215), 48, 2 * _MAX_DIGIT_BITS)  # position 32
@example(PIERCE, Sign.POSITIVE, (61, 215), 220, _MAX_DIGIT_BITS)
@example(DigitRule.oppenheim(2, 1), Sign.POSITIVE, (61, 215), 220, _MAX_DIGIT_BITS)
@example(PIERCE, Sign.ALTERNATING, (43, 97), 220, _MAX_DIGIT_BITS)
@example(DigitRule.oppenheim(0, 3), Sign.POSITIVE, (61, 215), 3000, _MAX_DIGIT_BITS)
@example(DigitRule.oppenheim(0, 3), Sign.POSITIVE, (2**700 - 1, 3**450), 400, _MAX_DIGIT_BITS)
@example(ENGEL, Sign.POSITIVE, (61, 215), 4000, _MAX_DIGIT_BITS)  # a junction, then 1
def test_extraction_matches_reducing_every_step(rule, sign, pq, n, max_bits):
    """Digits, ISPoint rank and digits, and the digit-bound or rule-value
    error, text and position, are those of the textbook reference, whose
    tail is a Fraction reduced after every digit, at the public bound and
    at smaller and larger ones."""
    p, q = pq
    if sign is Sign.ALTERNATING and p == q:
        p = q - 1
    x = Fraction(p, q)
    expected = reference.outcome(reference.digits, rule, sign, x, n, max_bits)
    assert _extract(rule, sign, x, n, max_bits) == expected


def _extraction_steps(rule, sign, x, n):
    """_digits(rule, sign, x, n) and its steps in order: ("divmod", r*b, a)
    for the remainder a/b at each digit, and ("gcd", bits of b, bits of b
    reduced) at each reduction."""
    steps = []

    def divmod_(u, v):
        steps.append(("divmod", u, v))
        return divmod(u, v)

    def gcd(u, v):
        g = math.gcd(u, v)
        steps.append(("gcd", v.bit_length(), (v // g).bit_length()))
        return g

    with mock.patch.object(core, "divmod", divmod_, create=True), \
         mock.patch.object(core, "gcd", gcd):
        return _digits(rule, sign, x, n), steps


def test_a_positive_junction_leaves_the_pair_at_one_with_no_gcd():
    # engel's positive digits of 61/215 meet a junction early; the tail is
    # then 1 at every digit, so the pair is (1, 1) from there on
    digits, steps = _extraction_steps(ENGEL, Sign.POSITIVE, Fraction(61, 215), 4000)
    divmods = [i for i, (kind, *_) in enumerate(steps) if kind == "divmod"]
    junction = next(i for i in divmods if steps[i][1] % steps[i][2] == 0)
    assert divmods.index(junction) < 100
    assert [kind for kind, *_ in steps[junction:]] == ["divmod"] * (4000 - divmods.index(junction))
    r = rule_value(ENGEL, digits[:-1])
    assert r > 1 and steps[-1] == ("divmod", r, 1)  # r*b = r: the pair is (1, 1)


def test_reducing_past_the_gate_stops_at_the_first_reduction_that_does_not_pay():
    # pierce's digits grow, and a reduction takes back a few percent of the
    # pair: below the gate the pair is reduced at each doubling, past it once
    _, steps = _extraction_steps(PIERCE, Sign.POSITIVE, Fraction(61, 215), 220)
    gcds = [bits for kind, bits, _ in steps if kind == "gcd"]
    assert sum(bits <= core._REDUCE_GATE_BITS for bits in gcds) >= 4
    assert sum(bits > core._REDUCE_GATE_BITS for bits in gcds) == 1
    # the pair is carried on far past the gate
    assert steps[-1][1].bit_length() > 8 * core._REDUCE_GATE_BITS


def test_a_reduction_taking_back_under_half_of_the_growth_stops_reducing():
    # under oppenheim(0, 5) the one reduction past the gate takes back 0.46
    # of what the pair grew since the reduction before: less than half, so
    # reducing stops there, though more than a quarter
    _, steps = _extraction_steps(DigitRule.oppenheim(0, 5), Sign.POSITIVE, Fraction(61, 215), 3000)
    gcds = [(bits, reduced) for kind, bits, reduced in steps if kind == "gcd"]
    assert [bits > core._REDUCE_GATE_BITS for bits, _ in gcds] == [False] * (len(gcds) - 1) + [True]
    (_, before), (bits, reduced) = gcds[-2:]
    assert 0.25 < (bits - reduced) / (bits - before) < 0.5


def test_reducing_goes_on_while_it_takes_back_most_of_the_growth():
    # under oppenheim(0, 3) every rule value is 3, and a reduction takes back
    # most of what the pair grew: reducing goes on past the gate, and the
    # carried pair stays within about twice the reduced pair's bits
    _, steps = _extraction_steps(DigitRule.oppenheim(0, 3), Sign.POSITIVE, Fraction(61, 215), 3000)
    gcds = [bits for kind, bits, _ in steps if kind == "gcd"]
    assert sum(bits > core._REDUCE_GATE_BITS for bits in gcds) >= 5
    reduced = None
    for kind, u, v in steps:
        if kind == "gcd":
            reduced = v
        elif reduced is not None:
            assert u.bit_length() <= 2 * reduced + 4  # u = 3*b
    assert reduced < 1000  # never reduced, b would have about 4760 bits


@pytest.mark.parametrize("rule,sign,n", [
    (PIERCE, Sign.POSITIVE, 220), (DigitRule.oppenheim(0, 3), Sign.POSITIVE, 3000),
    (LUROTH, Sign.ALTERNATING, 200), (DigitRule.oppenheim(2, 1), Sign.POSITIVE, 100),
    (DigitRule.oppenheim(1, 2), Sign.ALTERNATING, 100),
])
def test_the_carried_pair_is_never_larger_than_a_pair_never_reduced(rule, sign, n):
    # the cost bound: never reduced, the dividend r*b at digit i + 1 is
    # q r_0 ... r_i for x = p/q; the carried one divides it
    x = Fraction(2**200 + 1, 3**130)
    digits, steps = _extraction_steps(rule, sign, x, n)
    dividends = [u for kind, u, _ in steps if kind == "divmod"]
    assert len(dividends) == len(digits) == n
    never_reduced = x.denominator
    for i, u in enumerate(dividends):
        never_reduced *= rule_value(rule, digits[:i])
        assert never_reduced % u == 0, i


@given(
    st.sampled_from([Sign.POSITIVE, Sign.ALTERNATING]),
    st.one_of(st.integers(1, 10), st.integers(1, 2**70)),
    st.one_of(st.integers(1, 10**4), st.integers(1, 2**200)).flatmap(
        lambda den: st.tuples(st.integers(1, den), st.just(den))),
    st.one_of(st.just(1), st.integers(1, 2**64)),
)
@example(Sign.ALTERNATING, 3, (3, 4), 1)  # a junction, r/(c-1) = 3/4 for c = 5
@example(Sign.POSITIVE, 1, (1, 1), 1)  # the top of the tail space
def test_child_tail_is_the_two_step_integers(sign, r, pair, common):
    """One divmod gives the digit, the junction and the tail: the same as
    the textbook step, which takes the digit and then the tail, with the
    tail's integers unreduced over r*den."""
    num, den = pair[0] * common, pair[1] * common
    c, at_junction, (tn, td) = _child(sign, r, num, den)
    assert td == r * den
    assert (c, at_junction, Fraction(tn, td)) == reference.child(sign, r, Fraction(num, den))


@given(st.integers(2, 2**80).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q))))
def test_traditional_pierce_matches_a_fraction_greedy_loop(pq):
    x = Fraction(*pq)
    digits = []
    while x:
        digits.append(math.floor(1 / x))
        x = 1 - digits[-1] * x
    assert traditional_pierce_digits(Fraction(*pq)) == tuple(digits)


# ---------------------------------------------------------------------------
# the float power of an exact ratio
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("num, den", [(1, 2**1022), (3, 3 * 2**1022), (2**1100 + 1, 2**2122)])
def test_ratio_power_of_a_quotient_rounding_to_2_to_the_minus_1022_is_its_float_power(num, den):
    # the least normal double is in the normal range: its power is x ** s,
    # where exp of the logs would be off by tens of ulps
    assert num / den == 2.0**-1022
    for s in (0.1, 0.25, 0.5, 1.0):
        assert core._ratio_power(num, den, s).hex() == ((num / den) ** s).hex()


@pytest.mark.parametrize(
    "num, den", [(1, 10**400), (1, 2**1022 + 2**970), (7, 10**320), (1, 2**1100)])
def test_ratio_power_below_the_normal_range_depends_on_the_ratio_alone(num, den):
    # exp of the logs of the ratio in lowest terms, whatever pair states it,
    # within the stated error of a 50-digit decimal power (reference)
    assert num / den < 2.0**-1022
    for s in (0.25, 0.5, 1.0):
        got = core._ratio_power(num, den, s)
        assert core._ratio_power(num * 3**40, den * 3**40, s).hex() == got.hex()
        assert got == reference.ratio_power(Fraction(num, den), s)
        with localcontext(Context(prec=50)):
            ln_r = Decimal(num).ln() - Decimal(den).ln()
            exact = (Decimal(s) * ln_r).exp()
            rel = 2 * Decimal(2) ** -53 * (1 + Decimal(s) * (3 * -ln_r + 3))
            assert abs(Decimal(got) - exact) <= rel * exact + Decimal(2) ** -1074


# ---------------------------------------------------------------------------
# exact values in error messages past the int/str digit limit
# ---------------------------------------------------------------------------

needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
)


@pytest.fixture
def digit_limit():
    """CPython's default int/str digit limit, 4300, for the test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


BIG = 10**5000  # 16 610 bits, 5001 decimal digits
_DEEP = positive_digits(PIERCE, Fraction(61, 215), 130)
_DEEP_CYL = cylinder(PIERCE, _DEEP, Sign.POSITIVE)  # ends of 22 556-bit denominators

# Each message printed a value past the limit and raised ValueError
# ("Exceeds the limit (4300 digits) for integer string conversion") from
# inside it, in place of the error: the call, and the error's type, the
# start of its text and its index.
_LONG_VALUE_ERRORS = {
    "QInterval": (
        lambda: QInterval(_DEEP_CYL.hi, _DEEP_CYL.lo), DomainError,
        "empty interval [<fraction of 22552/22554 bits>, <fraction of 22554/22556 bits>]", None),
    "cover_interval": (
        lambda: cover_interval(PIERCE, Sign.POSITIVE, QInterval(_DEEP_CYL.lo, _DEEP_CYL.hi + 2)),
        DomainError, "interval QInterval(lo=<fraction of 22554/22556 bits>, hi=<fraction of", None),
    "cover_boundary": (
        lambda: cover_boundary(PIERCE, Sign.POSITIVE, _DEEP, _DEEP_CYL.hi + 1, FROM_INF),
        DomainError, "cut <fraction of 22554/22554 bits> outside (<fraction of", None),
    "validate_word": (
        lambda: validate_word(PIERCE, (2, BIG, 3)), ValidityError,
        "digit 3 at position 3 violates c >= <int of 16610 bits>", 3),
    "family_set_hull": (
        lambda: family_set_hull(PIERCE, FamilySet(Sign.POSITIVE, (BIG,), 3, None)), ValidityError,
        "start 3 below first admissible digit <int of 16610 bits>", None),
    "FamilySet": (
        lambda: FamilySet(Sign.POSITIVE, (), BIG, BIG // 10), ValidityError,
        "end <int of 16607 bits> below start <int of 16610 bits>", None),
    "positive_digits": (
        lambda: positive_digits(PIERCE, Fraction(BIG + 1, BIG), 3), DomainError,
        "x = <fraction of 16610/16610 bits> outside (0, 1]", None),
    "moran_dimension": (
        lambda: moran_dimension([Fraction(BIG + 1, BIG)]), DomainError,
        "ratio <fraction of 16610/16610 bits> outside (0, 1)", None),
    # the other messages that print a value the caller gives
    "phi0": (
        lambda: DigitRule.oppenheim(1, 0, phi0=-BIG), DomainError,
        "phi0 must be >= 1, got -<int of 16610 bits>", None),
    "digit_cap": (
        lambda: enumerate_compatible_bases(DigitRule.oppenheim(1, 0, phi0=BIG), all_digits(), 1, 3),
        DomainError, "digit_cap must be >= <int of 16610 bits>", None),
    "n": (
        lambda: positive_digits(LUROTH, Fraction(1, 3), Fraction(BIG + 1, 2)), DomainError,
        "n must be an integer, got <fraction of 16610/2 bits>", None),
    "a": (
        lambda: DigitRule.oppenheim(Fraction(BIG + 1, 2), 0), DomainError,
        "a must be an integer, got <fraction of 16610/2 bits>", None),
    "rule value": (
        lambda: rule_value(DigitRule.custom(lambda w: Fraction(BIG + 1, 2)), (2,)), ValidityError,
        "rule value <fraction of 16610/2 bits> after position 1 is not an integer", 1),
    "FamilySet digit": (
        lambda: FamilySet(Sign.POSITIVE, (Fraction(BIG + 1, 2),), 3), ValidityError,
        "digit <fraction of 16610/2 bits> at position 1 is not an integer", 1),
    "FamilySet start": (
        lambda: FamilySet(Sign.POSITIVE, (), Fraction(BIG + 1, 2)), ValidityError,
        "start <fraction of 16610/2 bits> or end None is not an integer", None),
    "pierce_notation_convert": (
        lambda: pierce_notation_convert((BIG, 3), "traditional-to-perron"), ValidityError,
        "traditional digit 3 at position 2 must exceed <int of 16610 bits>", 2),
}


@needs_int_limit
@pytest.mark.parametrize("case", list(_LONG_VALUE_ERRORS))
def test_an_error_shows_a_value_past_the_digit_limit_by_its_size(case, digit_limit):
    call, kind, text, index = _LONG_VALUE_ERRORS[case]
    got_kind, got_text, got_index = reference.outcome(call)
    assert got_kind is kind
    assert got_text.startswith(text) and got_index == index


@needs_int_limit
def test_shown_keeps_what_converts_and_sizes_what_does_not(digit_limit):
    small = [3, -3, Fraction(-2, 3), "x", 4.0, True, None]
    assert [core._shown(v) for v in small] == [str(v) for v in small]
    assert [core._shown(v, repr) for v in small] == [repr(v) for v in small]
    assert core._shown(-BIG) == "-<int of 16610 bits>"
    assert core._shown(Fraction(-1, BIG), repr) == "-<fraction of 1/16610 bits>"
    sys.set_int_max_str_digits(0)  # lifted, as the CLI does: every digit
    assert core._shown(BIG) == str(BIG)
    assert core._shown(Fraction(1, BIG), repr) == repr(Fraction(1, BIG))
