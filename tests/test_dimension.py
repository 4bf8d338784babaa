"""Base enumeration, pressure roots, the independent Moran solver, measures."""

import itertools
import math
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perron import (
    CapTooSmallWarning,
    DigitPredicate,
    DigitRule,
    DimensionEstimate,
    DomainError,
    Sign,
    all_digits,
    alphabet_restrict,
    bounded_ratio,
    cylinder,
    enumerate_compatible_bases,
    growth_floor,
    measure_at_rank,
    moran_dimension,
    pressure_root,
    ratio_limit_window,
)

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
    with pytest.warns(CapTooSmallWarning):
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
    with pytest.raises(DomainError):
        list(enumerate_compatible_bases(LUROTH, all_digits(), 0, 5))
    with pytest.raises(DomainError):
        list(enumerate_compatible_bases(LUROTH, all_digits(), 2, 1))


def test_cap_warning_when_digits_run_out():
    # strictly increasing digits need 2,3,4 by rank 3; cap 3 starves rank 3
    with pytest.warns(CapTooSmallWarning):
        words = list(enumerate_compatible_bases(ENGEL_MOD, all_digits(), 3, 3))
    assert words == []


def test_cap_warning_for_alphabet_cut_off():
    # the allowed digit 5 is admissible after (2,) but sits beyond the cap
    with pytest.warns(CapTooSmallWarning):
        words = list(
            enumerate_compatible_bases(ENGEL_MOD, alphabet_restrict([2, 5]), 2, 4)
        )
    assert words == []


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
    with pytest.raises(DomainError):
        alphabet_restrict([])
    with pytest.raises(DomainError):
        bounded_ratio(0)
    with pytest.raises(DomainError):
        ratio_limit_window(1.0, -0.1)
    with pytest.raises(DomainError):
        ratio_limit_window(math.nan, 0.1)
    with pytest.raises(DomainError):
        ratio_limit_window(1.0, math.nan)
    with pytest.raises(DomainError):
        alphabet_restrict([2.5, 3])


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


def test_pressure_tol_domain():
    with pytest.raises(DomainError):
        pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 1, 5, 0.0)


@pytest.mark.parametrize("tol", [float("nan"), float("inf")])
def test_non_finite_tol_is_a_domain_error(tol):
    with pytest.raises(DomainError):
        pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 1, 5, tol)
    with pytest.raises(DomainError):
        moran_dimension([Fraction(1, 2), Fraction(1, 6)], tol=tol)


def test_unreachable_tol_is_a_domain_error():
    # 1e-18 is below the spacing of doubles near 1, so no bisection step can
    # bring |sum - 1| within it; the contract residual <= tol cannot be kept
    with pytest.raises(DomainError, match="residual"):
        pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 2, 6, 1e-18)


def test_custom_rule_enumeration_never_reevaluates_prefixes():
    calls = []

    def fn(prefix):
        calls.append(prefix)
        return 1

    rule = DigitRule.custom(fn)
    est = pressure_root(rule, Sign.POSITIVE, all_digits(), 3, 6, 1e-9)
    assert est.bases_count == 5**3
    assert len(calls) == len(set(calls))


# ---------------------------------------------------------------------------
# the independent Moran solver
# ---------------------------------------------------------------------------


def test_moran_examples():
    assert moran_dimension([Fraction(1, 2), Fraction(1, 2)]) == 1.0
    s = moran_dimension([Fraction(1, 2), Fraction(1, 6)])
    assert 0.6 < s < 0.65


def test_moran_truncated_telescoping_lists_rise_toward_one():
    roots = []
    for top in (5, 10, 40, 200):
        ratios = [Fraction(1, c * (c - 1)) for c in range(2, top + 1)]
        roots.append(moran_dimension(ratios))
    assert roots == sorted(roots)
    assert roots[-1] < 1.0
    assert roots[-1] > 0.98


def test_moran_domain():
    with pytest.raises(DomainError):
        moran_dimension([])
    with pytest.raises(DomainError):
        moran_dimension([Fraction(1)])
    with pytest.raises(DomainError):
        moran_dimension([Fraction(-1, 2)])
    with pytest.raises(DomainError):
        moran_dimension([Fraction(2, 3), Fraction(2, 3)])  # sums above 1
    with pytest.raises(DomainError):
        moran_dimension([Fraction(1, 2)], tol=0.0)


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
    with pytest.raises(DomainError):
        measure_at_rank(LUROTH, Sign.POSITIVE, alphabet_restrict([2, 3]), 2, None)
    opaque_all = DigitPredicate(lambda w: True, "all")  # cannot declare itself unrestricted
    with pytest.raises(DomainError):
        measure_at_rank(LUROTH, Sign.POSITIVE, opaque_all, 2, None)
    with pytest.raises(DomainError):
        measure_at_rank(LUROTH, Sign.POSITIVE, all_digits(), 0, None)


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


# ---------------------------------------------------------------------------
# carried diameters against sign-aware cylinders
# ---------------------------------------------------------------------------

ORACLE_RULES = {
    "luroth": LUROTH,
    "engel": ENGEL,
    "engel-mod": ENGEL_MOD,
    "pierce": PIERCE,
    "oppenheim": DigitRule.oppenheim(2, 1),
    "custom": DigitRule.custom(lambda prefix: 1 + sum(prefix) % 2),
}


def _cylinder_root(rule, sign, pred, rank, cap, tol):
    """The pressure root with every diameter read off cylinder(); returns the
    estimate and the exact diameters it summed."""
    bases = list(enumerate_compatible_bases(rule, pred, rank, cap))
    diams = [cylinder(rule, w, sign).diameter for w in bases]
    if not bases:
        return DimensionEstimate(rank, cap, 0.0, 1.0, 0), diams
    logs = [math.log(d.numerator) - math.log(d.denominator) for d in diams]

    def f(s):
        return math.fsum(math.exp(s * ld) for ld in logs) - 1.0

    lo, hi = 0.0, 1.5
    if abs(f(lo)) <= tol:
        return DimensionEstimate(rank, cap, 0.0, abs(f(lo)), len(bases)), diams
    for _ in range(200):
        mid = (lo + hi) / 2
        fm = f(mid)
        if abs(fm) <= tol:
            return DimensionEstimate(rank, cap, mid, abs(fm), len(bases)), diams
        lo, hi = (mid, hi) if fm > 0 else (lo, mid)
    raise AssertionError("reference bisection did not converge")


@pytest.mark.parametrize("sign", [Sign.POSITIVE, Sign.ALTERNATING], ids=["P", "A"])
@pytest.mark.parametrize("name", list(ORACLE_RULES))
def test_carried_diameters_match_cylinder_oracle(name, sign):
    rule = ORACLE_RULES[name]
    preds = [all_digits(), alphabet_restrict([2, 3, 5, 8]), bounded_ratio(2)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CapTooSmallWarning)
        for rank in (1, 2, 3):
            for pred in preds:
                ref, diams = _cylinder_root(rule, sign, pred, rank, 9, 1e-9)
                got = pressure_root(rule, sign, pred, rank, 9, 1e-9)
                assert got == ref, (name, sign, rank, pred)
                measure = measure_at_rank(rule, sign, pred, rank, 9)
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
                    assert pressure_root(rule, sign, local, rank, cap, 1e-9) == pressure_root(
                        rule, sign, opaque, rank, cap, 1e-9
                    ), (key, sign)
                    assert measure_at_rank(rule, sign, local, rank, cap) == measure_at_rank(
                        rule, sign, opaque, rank, cap
                    ), (key, sign)


def test_growth_floor_tests_one_digit_per_child():
    # the enumerator asks the opaque form once per child it tests; the
    # built-in form must evaluate psi exactly once per such child, however
    # long the word
    calls = [0, 0]

    def psi(n):
        calls[0] += 1
        return n + 1

    def classify(word):
        calls[1] += 1
        return all(c >= n + 1 for n, c in enumerate(word, start=1))

    local = list(enumerate_compatible_bases(LUROTH, growth_floor(psi), 4, 7))
    opaque = list(enumerate_compatible_bases(LUROTH, DigitPredicate(classify, "g"), 4, 7))
    assert local == opaque and local
    assert calls[0] == calls[1]
