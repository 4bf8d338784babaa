"""Acceptance runs at stated scales, one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete.  Randomness is seeded, so every run checks the same inputs.
"""

import math
import random
import time
import warnings
from fractions import Fraction
from math import factorial

from perron import (
    CapTooSmallWarning,
    DigitRule,
    FamilySet,
    ISPoint,
    QInterval,
    Sign,
    all_digits,
    alphabet_restrict,
    alternating_digits,
    bounded_ratio,
    cover_interval,
    cylinder,
    enumerate_compatible_bases,
    family_set_hull,
    growth_floor,
    moran_dimension,
    partial_sum,
    positive_digits,
    pressure_root,
    ratio_limit_window,
    rule_value,
    split_parameters,
    split_to_finite,
    t_ratio,
    traditional_pierce_digits,
    verify_cover,
    word_diameter,
)

LUROTH = DigitRule.luroth()
ENGEL = DigitRule.engel()
ENGEL_MOD = DigitRule.engel_mod()
PIERCE = DigitRule.pierce()

SYSTEMS = [("luroth", LUROTH), ("engel", ENGEL), ("engel-mod", ENGEL_MOD)]
ALL_SYSTEMS = SYSTEMS + [("pierce", PIERCE)]
SIGNS = [Sign.POSITIVE, Sign.ALTERNATING]


def _line(num, ok, desc):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {desc}")


def _interval(sign, lo, hi):
    if sign is Sign.POSITIVE:
        return QInterval(lo, hi, False, True)
    return QInterval(lo, hi, False, False)


def test_criterion_01_digit_series_roundtrip():
    """10^4 random rationals with q <= 10^6, three systems, 20 digits each:
    the point always lies in its own rank-20 cylinder, in under 30 s."""
    ok = False
    try:
        rng = random.Random(1)
        points = []
        for _ in range(10**4):
            q = rng.randrange(2, 10**6 + 1)
            points.append(Fraction(rng.randrange(1, q + 1), q))
        start = time.perf_counter()
        failures = 0
        for _, rule in SYSTEMS:
            for x in points:
                word = positive_digits(rule, x, 20)
                if not cylinder(rule, word, Sign.POSITIVE).contains(x):
                    failures += 1
        elapsed = time.perf_counter() - start
        ok = failures == 0 and elapsed < 30.0
    finally:
        _line(1, ok, "roundtrip containment, 3x10^4 expansions at 20 digits")
    assert failures == 0
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_criterion_02_known_expansions():
    ok = False
    try:
        a = positive_digits(ENGEL, Fraction(1), 6) == (2,) * 6
        b = positive_digits(ENGEL, Fraction(3, 8), 6) == (3, 9, 9, 9, 9, 9)
        c = cylinder(ENGEL, (3, 9), Sign.POSITIVE).hi == Fraction(3, 8)
        outcome = alternating_digits(PIERCE, Fraction(2, 5), 4)
        d = outcome == ISPoint(rank=2, digits=(3,))
        e = traditional_pierce_digits(Fraction(2, 5)) == (2, 5)
        ok = all([a, b, c, d, e])
    finally:
        _line(2, ok, "known expansions of 1, 3/8, and 2/5, exact")
    assert ok


def test_criterion_03_diameter_equality_and_parity():
    """10^3 random valid words per system: both sign forms give the same
    exact diameter, and alternating partial sums alternate sup/inf."""
    ok = False
    try:
        rng = random.Random(3)
        failures = 0
        for _, rule in ALL_SYSTEMS:
            for _ in range(10**3):
                q = rng.randrange(2, 10**6)
                x = Fraction(rng.randrange(1, q), q)
                word = positive_digits(rule, x, rng.randrange(1, 9))
                pos = cylinder(rule, word, Sign.POSITIVE)
                alt = cylinder(rule, word, Sign.ALTERNATING)
                if not (pos.diameter == alt.diameter == word_diameter(rule, word)):
                    failures += 1
                    continue
                for k in range(1, len(word) + 1):
                    cyl = cylinder(rule, word[:k], Sign.ALTERNATING)
                    value = partial_sum(rule, word[:k], Sign.ALTERNATING)
                    if value != (cyl.hi if k % 2 else cyl.lo):
                        failures += 1
                        break
        ok = failures == 0
    finally:
        _line(3, ok, "diameter equality and sup/inf parity, 4x10^3 words")
    assert failures == 0


def test_criterion_04_three_set_covering_at_scale():
    """10^4 random rational intervals per system and sign: at most 3 sets,
    every diameter at most the target's, coverage verified, zero failures."""
    ok = False
    try:
        rng = random.Random(4)
        failures = 0
        for _, rule in ALL_SYSTEMS:
            for sign in SIGNS:
                for i in range(10**4):
                    den = rng.randrange(2, 10**4 + 1)
                    a, b = rng.randrange(0, den), rng.randrange(1, den + 1)
                    if a == b:
                        b = a + 1
                    a, b = min(a, b), max(a, b)
                    lo = Fraction(0) if i % 20 == 0 else Fraction(a, den)
                    hi = Fraction(b, den)
                    if lo >= hi:
                        hi = lo + Fraction(1, den)
                    U = _interval(sign, lo, hi)
                    sets = cover_interval(rule, sign, U)
                    report = verify_cover(rule, U, sets, 1.0)
                    if (
                        len(sets) > 3
                        or report.max_diameter > U.diameter
                        or not report.covers
                    ):
                        failures += 1
        ok = failures == 0
    finally:
        _line(4, ok, "interval covers, 8x10^4 intervals, <=3 sets each")
    assert failures == 0


def test_criterion_05_cover_cost_within_three_times():
    """Replacing every interval of a sampled finite collection by its cover
    raises the alpha-cost by at most a factor 3, for alpha in
    {0.25, 0.5, 1}, with 1e-12 relative float slack."""
    ok = False
    try:
        rng = random.Random(5)
        rules = [LUROTH, ENGEL, ENGEL_MOD, PIERCE]
        violations = 0
        for _ in range(300):
            rule = rng.choice(rules)
            sign = rng.choice(SIGNS)
            intervals = []
            covers = []
            for _ in range(rng.randrange(1, 7)):
                den = rng.randrange(4, 5000)
                a, b = sorted(rng.sample(range(0, den + 1), 2))
                U = _interval(sign, Fraction(a, den), Fraction(b, den))
                intervals.append(U)
                covers.append(cover_interval(rule, sign, U))
            for alpha in (0.25, 0.5, 1.0):
                cost_u = math.fsum(float(U.diameter) ** alpha for U in intervals)
                cost_m = math.fsum(
                    float(family_set_hull(rule, fs).diameter) ** alpha
                    for sets in covers
                    for fs in sets
                )
                if cost_m > 3.0 * cost_u * (1 + 1e-12):
                    violations += 1
        ok = violations == 0
    finally:
        _line(5, ok, "3x cost bound over 300 interval collections")
    assert violations == 0


def test_criterion_06_splitting_lemma_cost_bound():
    """(alpha, eps) grid x 100 unbounded sets per system: the cost of the
    first 10^3 blocks plus the exact geometric residue bound stays below
    (1+eps) times the set's own cost.  Block costs are evaluated in log
    space from the exact integer boundaries, as the set's log factor
    log(pf_num) - log(pf_den), taken once, plus the logs of each block's
    own small factors; the first block is cross-checked against the exact
    hull diameter."""
    ok = False
    try:
        rng = random.Random(6)
        grid = [(a, e) for a in (0.25, 0.5, 1.0) for e in (0.1, 0.5, 1.0)]
        failures = 0
        for _, rule in ALL_SYSTEMS:
            family = []
            for _ in range(100):
                sign = rng.choice(SIGNS)
                x = Fraction(rng.randrange(1, 2000), 2000)
                prefix = positive_digits(rule, x, rng.randrange(0, 3))
                r = rule_value(rule, prefix)
                family.append(FamilySet(sign, prefix, r + 1 + rng.randrange(0, 6), None))
            for fs in family:
                whole = family_set_hull(rule, fs).diameter
                pf_num = whole.numerator * (fs.start - 1)
                pf_den = whole.denominator
                log_pf = math.log(pf_num) - math.log(pf_den)
                for alpha, eps in grid:
                    s = split_parameters(alpha, eps)
                    geom = 1.0 - (s + 1) ** (-alpha)
                    bound = (1 + eps) * math.exp(
                        alpha * (math.log(pf_num) - math.log(pf_den * (fs.start - 1)))
                    )
                    terms = []
                    expect_start = fs.start
                    bad = False
                    stream = split_to_finite(rule, fs, alpha, eps)
                    for j in range(1000):
                        blk = next(stream)
                        a, b = blk.start, blk.end
                        if a != expect_start:
                            bad = True
                            break
                        expect_start = b + 1
                        term = math.exp(
                            alpha
                            * (log_pf + math.log(b - a + 1) - math.log(a - 1) - math.log(b))
                        )
                        terms.append(term)
                        if j == 0:
                            exact = float(family_set_hull(rule, blk).diameter) ** alpha
                            if abs(term - exact) > 1e-12 * max(term, exact):
                                bad = True
                                break
                        if j in (0, 9, 99, 999):
                            residue = (
                                math.exp(alpha * (log_pf - math.log(expect_start - 1)))
                                / geom
                            )
                            if math.fsum(terms) + residue >= bound:
                                bad = True
                                break
                    if bad:
                        failures += 1
        ok = failures == 0
    finally:
        _line(6, ok, "splitting cost bound, 9-point grid x 400 sets x 10^3 blocks")
    assert failures == 0


def test_criterion_07_shift_ratio_lipschitz_bound():
    """10^4 random repeat-allowed words up to rank 12 keep the diameter
    ratio strictly inside (0, 2); the all-2 ratios match 2^k/(k+1)!."""
    ok = False
    try:
        rng = random.Random(7)
        failures = 0
        for _ in range(10**4):
            digits = []
            c = rng.randrange(2, 50)
            for _ in range(rng.randrange(1, 13)):
                digits.append(c)
                c += rng.randrange(0, 7)
            ratio = t_ratio(tuple(digits))
            if not 0 < ratio < 2:
                failures += 1
        exact_ok = all(
            t_ratio((2,) * k) == Fraction(2**k, factorial(k + 1))
            for k in range(1, 11)
        )
        ok = failures == 0 and exact_ok
    finally:
        _line(7, ok, "ratio in (0,2) on 10^4 words; all-2 closed form exact")
    assert failures == 0
    assert exact_ok


def test_criterion_08_sign_equivalence_bitwise():
    """50 rule/predicate/rank/cap combinations: the positive and alternating
    pressure estimates are identical in every field, bit for bit."""
    ok = False
    try:
        rules = [LUROTH, ENGEL, ENGEL_MOD, PIERCE, DigitRule.oppenheim(2, 1)]
        configs = [
            (all_digits(), 2, 12),
            (alphabet_restrict([2, 3]), 3, 9),
            (alphabet_restrict([2, 4, 7]), 2, 12),
            (alphabet_restrict([3, 5]), 3, 9),
            (bounded_ratio(Fraction(3, 2)), 2, 12),
            (bounded_ratio(2), 3, 8),
            (bounded_ratio(3), 2, 10),
            (growth_floor(lambda n: n), 2, 10),
            (growth_floor(lambda n: n * n), 2, 12),
            (ratio_limit_window(1.0, 0.4), 2, 12),
        ]
        combos = [(rule, pred, rank, cap) for rule in rules for pred, rank, cap in configs]
        assert len(combos) == 50
        mismatches = 0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", CapTooSmallWarning)
            for rule, pred, rank, cap in combos:
                pos = pressure_root(rule, Sign.POSITIVE, pred, rank, cap, 1e-9)
                alt = pressure_root(rule, Sign.ALTERNATING, pred, rank, cap, 1e-9)
                if pos != alt:
                    mismatches += 1
        ok = mismatches == 0
    finally:
        _line(8, ok, "positive vs alternating estimates bitwise equal, 50 combos")
    assert mismatches == 0


def test_criterion_09_estimator_against_independent_oracle():
    """Two-digit alphabet roots match the independent Moran solver to 1e-6
    at ranks 1..8; the unrestricted rank-1 root with cap 10^4 is within
    0.05 of 1.  Both in under 60 s."""
    ok = False
    try:
        start = time.perf_counter()
        oracle = moran_dimension([Fraction(1, 2), Fraction(1, 6)], tol=1e-12)
        worst = 0.0
        for rank in range(1, 9):
            est = pressure_root(
                LUROTH, Sign.POSITIVE, alphabet_restrict([2, 3]), rank, 3, 1e-9
            )
            worst = max(worst, abs(est.s_value - oracle))
        big = pressure_root(LUROTH, Sign.POSITIVE, all_digits(), 1, 10**4, 1e-9)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and abs(big.s_value - 1.0) <= 0.05 and elapsed < 60.0
    finally:
        _line(9, ok, "oracle agreement to 1e-6; cap-10^4 root within 0.05 of 1")
    assert worst <= 1e-6
    assert abs(big.s_value - 1.0) <= 0.05
    assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_10_convergence_table_demo():
    """The exact asymptotic dimensions of the limit-defined digit sets are
    NOT reproducible at desk scale; what is checked instead is the finite
    convergence behavior: a rank-indexed table of pressure roots for a
    log-ratio window predicate, monotone non-increasing, against frozen
    reference values."""
    ok = False
    try:
        print()
        print("exact asymptotic dimensions of limit-defined digit sets are")
        print("not desk-scale reproducible; showing rank-indexed pressure")
        print("roots instead (window |log c_{n+1}/log c_n - 1.0| <= 0.2,")
        print("digits capped at 20):")
        frozen = [0.970864, 0.639576, 0.553852, 0.520242, 0.503942]
        pred = ratio_limit_window(1.0, 0.2)
        roots = []
        for rank in range(1, 6):
            est = pressure_root(LUROTH, Sign.POSITIVE, pred, rank, 20, 1e-9)
            roots.append(est.s_value)
            print(f"  rank {rank}: s = {est.s_value:.6f}  ({est.bases_count} bases)")
        monotone = all(a >= b for a, b in zip(roots, roots[1:]))
        close = all(abs(r - f) <= 1e-4 for r, f in zip(roots, frozen))
        ok = monotone and close
    finally:
        _line(10, ok, "monotone rank-indexed table vs frozen reference values")
    assert monotone
    assert close
