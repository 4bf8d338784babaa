"""Rank-k Hausdorff-dimension estimation for digit-defined sets.

A set of numbers is described by a hereditary digit predicate (any extension
of an incompatible word stays incompatible).  At rank k with digits capped at
C the compatible words give a cylinder cover of the set, and the estimator
solves the pressure equation

    sum over compatible rank-k words of |cylinder|**s = 1

for s by bisection; the root is a computable upper-dimension approximant
whose quality improves with rank and cap.  The true dimensions of the
limit-defined sets these predicates approximate are asymptotic statements
and are not computed here; only cap/rank-indexed approximants are reported,
always together with their rank and cap.

Neither sum lists the bases.  The compatible words are merged level by
level into states that extend alike (the last digit, for the built-in rules
and predicates; the whole word otherwise), as in transfer-operator
dimension algorithms, and the rank-k sum is a recursion over those states.
Exact integer factors feed the floating-point pressure sums; each enters as
exp(s * (log num - log den)), so even astronomically small cylinders
contribute without intermediate underflow, and every sum over states is
compensated (math.fsum).  A state value below the double-precision underflow
threshold is 0.0, and so is every term that passes through it; per-level
rescaling in log space would cover that regime and is out of scope.

The state recursion (_levels, breadth-first) and the base enumeration
(enumerate_compatible_bases, depth-first on an explicit stack) take one
child step (_children): the digits a compatible word is extended by, each
asked of the predicate once, and whether the cap cuts the word off.  Each
walk counts its cuts per position, and _warn_first_cut is the one place that
raises CapTooSmallWarning: _levels once its levels are built, the
enumeration once it is exhausted.  The enumeration does not call _levels, so
the bound on word-keyed states is _levels' alone.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .core import DigitRule, DigitWord, ExactQ, Sign, _positive_r, _step_r
from .errors import CapTooSmallWarning, DomainError

__all__ = [
    "DigitPredicate",
    "DimensionEstimate",
    "all_digits",
    "alphabet_restrict",
    "bounded_ratio",
    "growth_floor",
    "ratio_limit_window",
    "enumerate_compatible_bases",
    "pressure_root",
    "moran_dimension",
    "measure_at_rank",
]

_MAX_BISECT = 200
_MAX_WORD_STATES = 1 << 19  # states of one word-keyed level in _levels
_ROUND = 10 * 2.0**-53  # rounding allowance of one line test (_line)


class DigitPredicate:
    """Hereditary compatibility test on digit words.

    classify(word) returns True (compatible) or False (incompatible); it must
    be hereditary: once a word is incompatible, every extension is too.  The
    enumeration below relies on that to prune whole subtrees.  Such an opaque
    predicate is asked about each whole child word; the built-in predicates
    are local and test only the new digit.
    """

    _alphabet: tuple[int, ...] | None = None  # finite digit set, if declared
    _floor = False  # admits, at each position, every digit from some floor up
    _unrestricted = False  # admits every word

    def __init__(self, classify: Callable[[DigitWord], bool], description: str):
        self.classify = classify
        self.description = description

    def __call__(self, word: DigitWord) -> bool:
        return self.classify(word)

    def __repr__(self):
        return f"DigitPredicate({self.description})"

    def _admits(self, word: DigitWord, c: int) -> bool:
        """Is word + (c,) compatible, given that word is?"""
        return self.classify(word + (c,))


class _LocalPredicate(DigitPredicate):
    """A predicate stated as test(prev, c, n) on each digit c, its
    predecessor prev (None for the first digit) and its 1-based position n.
    A word is compatible when every digit passes, so the predicate is
    hereditary by construction and the enumerator tests one digit per child.
    """

    def __init__(self, test, description, alphabet=None, floor=False, unrestricted=False):
        super().__init__(self._classify, description)
        self._test, self._alphabet = test, alphabet
        self._floor, self._unrestricted = floor, unrestricted

    def _classify(self, word: DigitWord) -> bool:
        padded = (None, *word)  # padded[n - 1] precedes the n-th digit
        return all(self._test(padded[n - 1], c, n) for n, c in enumerate(padded[1:], 1))

    def _admits(self, word: DigitWord, c: int) -> bool:
        return self._test(word[-1] if word else None, c, len(word) + 1)


def all_digits() -> DigitPredicate:
    """No restriction beyond rule validity."""
    return _LocalPredicate(lambda prev, c, n: True, "all", unrestricted=True)


def alphabet_restrict(allowed: Sequence[int]) -> DigitPredicate:
    """Every digit drawn from a fixed finite set of integers."""
    allowed_set = frozenset(allowed)
    if not allowed_set:
        raise DomainError("allowed digit set must be nonempty")
    if not all(isinstance(c, int) for c in allowed_set):
        raise DomainError("allowed digits must be integers")
    alphabet = tuple(sorted(allowed_set))  # the enumerator's candidates
    return _LocalPredicate(
        lambda prev, c, n: c in allowed_set, f"alphabet{list(alphabet)}", alphabet
    )


def bounded_ratio(k: ExactQ) -> DigitPredicate:
    """Consecutive digit ratios c_{n+1}/c_n bounded by k (exact comparison)."""
    k = Fraction(k)
    if k <= 0:
        raise DomainError("ratio bound must be positive")
    num, den = k.numerator, k.denominator

    def test(prev, c, n):
        return prev is None or c * den <= num * prev

    return _LocalPredicate(test, f"ratio<={k}")


def growth_floor(psi: Callable[[int], ExactQ]) -> DigitPredicate:
    """Digit at 1-based position n at least psi(n), for all n."""
    return _LocalPredicate(lambda prev, c, n: c >= psi(n), "growth-floor", floor=True)


def ratio_limit_window(alpha: float, delta: float) -> DigitPredicate:
    """|log c_{n+1} / log c_n - alpha| <= delta for all consecutive pairs.

    A prefix relaxation of sets defined by the limit of log-digit ratios:
    every word of the limit set eventually satisfies the window, and the
    predicate approximates such sets from outside at each rank.  NaN alpha
    or delta would admit every word, so both are rejected.
    """
    if math.isnan(alpha) or math.isnan(delta):
        raise DomainError("alpha and delta must not be NaN")
    if delta < 0:
        raise DomainError("delta must be >= 0")

    def test(prev, c, n):
        return prev is None or abs(math.log(c) / math.log(prev) - alpha) <= delta

    return _LocalPredicate(test, f"ratio-window({alpha},{delta})")


def _check_rank_cap(rule: DigitRule, rank: int, digit_cap: int) -> int:
    """r_0, once rank, then digit_cap, then r_0 itself are checked."""
    if rank < 1:
        raise DomainError("rank must be >= 1")
    if digit_cap < rule.phi0 + 1:
        raise DomainError(f"digit_cap must be >= {rule.phi0 + 1}")
    return _positive_r(rule.phi0, 0)


def _children(predicate: DigitPredicate, word: DigitWord, r: int, digit_cap: int):
    """The digits that extend a compatible word whose rule value is r, and
    whether the cap cuts the word off.

    The candidates are the admissible digits up to the cap, inside the
    alphabet if one is declared; each is tested once (predicate._admits),
    and those that pass are returned in increasing order.  The cap cuts the
    word off when no candidate is left although admissible digits exist
    beyond the cap.  Under a declared floor (growth_floor) it does so too
    when no candidate passes: every digit from the floor up would pass, so
    the floor lies beyond the cap.  So the floor is evaluated once per
    tested digit and no more.
    """
    alphabet = predicate._alphabet
    if alphabet is None:
        candidates, cuts = range(r + 1, digit_cap + 1), r >= digit_cap
    else:
        candidates = [c for c in alphabet if r < c <= digit_cap]
        cuts = not candidates and alphabet[-1] > r
    digits = [c for c in candidates if predicate._admits(word, c)]
    return digits, cuts or predicate._floor and not digits


def _warn_first_cut(digit_cap: int, cuts: Sequence[int], stacklevel: int) -> None:
    """Warn CapTooSmallWarning at the first position the cap cuts, if any:
    cuts[n - 1] counts the compatible prefixes it cuts off at position n.
    stacklevel is the one the caller would pass to warnings.warn."""
    for n, count in enumerate(cuts, 1):
        if count:
            warnings.warn(CapTooSmallWarning(
                f"digit_cap {digit_cap} excludes all digits at position {n}, "
                f"cutting off {count} compatible prefix(es)", n, count), stacklevel=stacklevel + 1)
            return


def _levels(rule: DigitRule, predicate: DigitPredicate, rank: int, digit_cap: int, weigh):
    """The compatible rank-k words, merged into states one position at a time.

    A state at level n stands for compatible length-n words that extend
    alike.  It is keyed by the last digit when the rule is built in (r_n
    depends on c_n alone) and the predicate is local (its test reads only
    (prev, c, n)); otherwise by the whole word, which never repeats, so
    such states never merge and the levels are the enumeration tree.

    A word's diameter phi_0 r_1...r_{k-1} / prod (c_i - 1)c_i is phi_0 times
    one factor r / (c - 1)c per digit, r being the rule value the digit
    leads to, or 1 at the last position, where it drops out.  Each state is
    an expression (sources, num, den): its value is (num/den)**s times the
    sum of the values that sources index, value 0 being the root's,
    phi_0**s.  A state reached from one source extends that source's
    expression by its own factor, so a chain of such states is one
    expression and costs nothing per link.  A state reached from several
    sources is its own factor times the sum of their values, and each of
    those sources becomes a value: weigh(num, den) of its expression.

    Each word's children, and whether the cap cuts it off, come from
    _children, the step that enumerate_compatible_bases takes too.

    Returns (kept, final, bases).  kept holds one list per level that adds
    values, each a list of groups (sources, weights): one new value per
    weight, indexed in order after the earlier ones; a group gathers the
    items that share their sources, in order of first appearance.  final
    holds such groups for the rank-k states, whose values sum to the rank-k
    sum.
    bases counts the compatible rank-k words (an integer count per state,
    carried in the same pass).  When the cap cuts off every admissible
    digit of some compatible prefix, CapTooSmallWarning names the first
    1-based position where it does and how many compatible prefixes it cuts
    off there, raised at the caller's caller once the levels are built.

    A word-keyed level may hold at most _MAX_WORD_STATES states; past that
    it is a DomainError naming the level and the states it reached, so one
    level costs at most that many words times the cap in candidate tests.
    The largest word-keyed level of the benchmark's pressure pools is 808
    states and that of the tests 3375, far below the bound.
    """
    r0 = _check_rank_cap(rule, rank, digit_cap)
    merge = rule.fn is None and isinstance(predicate, _LocalPredicate)
    # the states of the level before: words, rule values, counts, expressions
    words, rs, counts = [()], [r0], [1]
    srcs, fracs = [(0,)], [(1, 1)]
    kept, values, cuts = [], 1, []
    for n in range(1, rank + 1):
        last = n == rank
        state = {} if merge and len(words) > 1 else None  # digit -> target
        t_src, t_srcs, t_frac, t_r, t_word = [], [], [], [], []  # per target
        merged = []
        cuts.append(0)
        for i, (word, r) in enumerate(zip(words, rs)):
            digits, cut = _children(predicate, word, r, digit_cap)
            if cut:
                cuts[-1] += counts[i]
            sources, (num, den) = srcs[i], fracs[i]
            for c in digits:
                t = None if state is None else state.get(c)
                if t is not None:  # one more source of a merged state
                    if t_src[t].__class__ is int:
                        t_src[t] = [t_src[t]]
                        t_frac[t] = weigh(1, (c - 1) * c) if last else (t_r[t], (c - 1) * c)
                        merged.append(t)
                    t_src[t].append(i)
                    continue
                child = word + (c,)
                r_child = _step_r(rule, child, n)
                if r_child < 1:
                    continue  # digit admissible but rule value degenerates: prune
                if state is not None:
                    state[c] = len(t_src)
                t_src.append(i)
                t_srcs.append(sources)
                if last:
                    t_frac.append(weigh(num, den * (c - 1) * c))
                else:
                    t_frac.append((num * r_child, den * (c - 1) * c))
                    t_r.append(r_child)
                    t_word.append(child)
            if not merge and len(t_src) > _MAX_WORD_STATES:
                raise DomainError(
                    f"level {n} has {len(t_src)} word-keyed states, more than the "
                    f"{_MAX_WORD_STATES} allowed")
        # the sources of merged states become values, grouped by their sources
        batch = {}
        for i in sorted({i for t in merged for i in t_src[t]}):
            batch.setdefault(srcs[i], []).append(i)
        order = [i for group in batch.values() for i in group]
        value = dict(zip(order, range(values, values + len(order))))
        values += len(order)
        if batch:
            kept.append([(key, [weigh(*fracs[i]) for i in group]) for key, group in batch.items()])
        for t in merged:
            t_srcs[t] = tuple(map(value.__getitem__, t_src[t]))
        counts = [
            counts[src] if src.__class__ is int else sum(map(counts.__getitem__, src))
            for src in t_src
        ]
        if last:
            _warn_first_cut(digit_cap, cuts, 3)
            final = {}
            for sources, frac in zip(t_srcs, t_frac):
                final.setdefault(sources, []).append(frac)
            return kept, final.items(), sum(counts)
        words, rs, srcs, fracs = t_word, t_r, t_srcs, t_frac


def enumerate_compatible_bases(
    rule: DigitRule,
    predicate: DigitPredicate,
    rank: int,
    digit_cap: int,
) -> Iterator[DigitWord]:
    """All valid rank-`rank` words with digits <= digit_cap passing the predicate.

    Deterministic lexicographic order, one word at a time by a depth-first
    walk on an explicit stack, so any rank is listed.  Each child word the
    walk tests costs one predicate call (_children, the step the state
    recursion takes too).  Warns CapTooSmallWarning (once) when the cap
    cuts off every admissible digit at some position, i.e. when a
    compatible prefix has no rule-admissible child <= digit_cap although
    admissible children exist beyond it.  The warning comes once the
    enumeration is exhausted, so a partial read warns nothing; its
    position and count are the first position where the cap does so and
    how many compatible prefixes it cuts off there.  The arguments are
    checked when the call is made, before any base is asked for.
    """
    r0 = _check_rank_cap(rule, rank, digit_cap)

    def walk() -> Iterator[DigitWord]:
        cuts = [0] * rank  # cuts[n - 1]: compatible prefixes cut off at position n
        stack = [()]  # the words still to visit, the next one last
        while stack:
            word = stack.pop()
            r = _step_r(rule, word, len(word)) if word else r0
            if r < 1:
                continue  # digit admissible but rule value degenerates: prune
            if len(word) == rank:
                yield word
                continue
            digits, cut = _children(predicate, word, r, digit_cap)
            cuts[len(word)] += cut
            stack += [word + (c,) for c in reversed(digits)]
        _warn_first_cut(digit_cap, cuts, 2)

    return walk()


@dataclass(frozen=True)
class DimensionEstimate:
    """Pressure-equation root at a given rank and digit cap.

    residual is |sum |cylinder|**s - 1| at the returned s, a float
    diagnostic: it is <= the requested tolerance whenever at least one base
    exists (for an empty base set s = 0 is reported by convention and the
    residual is the honest 1.0), and its last bits depend on the order of
    float operations in the sum.

    s_value is the first midpoint of the plain bisection of [0, 1.5] whose
    computed residual is within tol, although pressure_root evaluates only
    the midpoints it cannot settle from the sum's convexity.  The sum as
    computed is within a proven bound E of the exact one (see
    pressure_root), so where the bisection's last bracket [lo, hi] has
    f(lo) > E and f(hi) < -E (f = sum - 1, as computed) it encloses the
    exact root of the rank-k, capped sum: an approximant at this rank and
    cap, not the dimension of the limit set.
    """

    rank: int
    digit_cap: int
    s_value: float
    residual: float
    bases_count: int


def pressure_root(
    rule: DigitRule,
    sign: Sign,
    predicate: DigitPredicate,
    rank: int,
    digit_cap: int,
    tol: float,
) -> DimensionEstimate:
    """Bisection root of sum |cylinder|**s = 1 over compatible rank-k bases.

    The sum is strictly decreasing in s; at s=0 it counts the bases (>= 1
    when any exist) and at s=1 it is a capped outer measure, strictly below 1
    because the cap always excludes cylinder mass.  Bisection therefore
    brackets on [0, 1.5] and stops when |sum - 1| <= tol.  One base forces
    s = 0 exactly; no bases reports s = 0 with bases_count 0.

    The bases are not listed one by one.  The compatible words are merged,
    position by position, into states that extend alike: keyed by the last
    digit for the built-in rules and predicates, by the whole word
    otherwise.  That structure is built once, and each f(s) is a recursion
    over it: one compensated sum per group of states sharing their sources,
    and one exp per state with a value of its own.  With the built-in rules
    and predicates a level has at most one state per digit, so the work
    grows with rank times the cap squared, not with the number of bases.
    The diameter r_0...r_{k-1} / prod (c_i - 1)c_i does not depend on the
    sign (the equal-diameter law), so the positive and alternating
    estimates agree bit for bit.

    The bisection is certified (_convex_bisect).  f(s) = sum - 1 is convex
    and decreasing in s, so the points evaluated so far bound f at the next
    midpoint: from above by the chord between the nearest on either side,
    from below by the secant through the two nearest on one side, extended;
    f(0) = bases - 1 counts among them without a call.  A midpoint is
    evaluated only when those bounds, widened by the proven bound
    E = eps (1 + |f|) on the rounding of f (_sum_error: eps is about
    2^-48 (3k ln C + 3k + 3) at rank k and cap C, relative to the sum
    f + 1), leave |f| <= tol possible there; any other takes the branch
    the plain bisection's evaluation would.  So s and residual keep the
    plain bisection's bits, from about a third of its f calls.

    tol must be finite and positive; if the bisection stalls or runs out
    before |sum - 1| <= tol (a tol below float resolution), the plain
    bisection runs in full and its DomainError names the best residual
    over all its midpoints.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    log, exp, fsum = math.log, math.exp, math.fsum
    kept, final, bases = _levels(
        rule, predicate, rank, digit_cap, lambda num, den: log(num) - log(den)
    )
    if not bases:
        return DimensionEstimate(rank, digit_cap, 0.0, 1.0, 0)
    log_phi0 = log(rule.phi0)

    def values(level, get, s):  # one compensated sum per group, one exp per value
        return [
            total * exp(s * lw)
            for sources, lws in level
            for total in [fsum(map(get, sources))]
            for lw in lws
        ]

    def f(s: float) -> float:
        u = [exp(s * log_phi0)]
        get = u.__getitem__
        for level in kept:
            u += values(level, get, s)
        return fsum(values(final, get, s)) - 1.0

    f_lo = float(bases - 1)  # f(0): every term is 1
    if abs(f_lo) <= tol:
        return DimensionEstimate(rank, digit_cap, 0.0, abs(f_lo), bases)
    s, residual = _convex_bisect(f, 1.5, tol, f_lo, _sum_error(rank, digit_cap))
    return DimensionEstimate(rank, digit_cap, s, residual, bases)


def _sum_error(rank: int, digit_cap: int) -> float:
    """eps with |f(s) - F(s)| <= eps (1 + |f(s)|) for s in [0, 1.5]: f is
    pressure_root's computed sum minus 1, F the exact one.

    Assumed: binary64 arithmetic rounding to nearest, u = 2^-53; math.log
    and math.exp within one ulp (relative error <= 2u) at normal results;
    math.fsum correctly rounded; an int below 2^1024 converted to float
    correctly rounded inside math.log (as CPython does).

    Size.  Let k = rank, C = digit_cap and L = 3k ln C.  The weights
    (num, den) on the path of a rank-k word, counting the root's phi_0,
    split its diameter phi_0 r_1...r_{k-1} / prod (c_i - 1)c_i: each
    digit's factor lies in exactly one of them.  A word exists only if
    phi_0 < c_1 and every r_i < c_{i+1} <= C, so the logs of all the nums
    and dens on a path sum to at most (1 + (k - 1) + 2k) ln C = L.

    Range.  A partial product of a path lies in [C^-2k, C^2] and a weight
    num/den in [C^-2k, C^k]; both are raised to s <= 1.5, and a state value
    sums at most C^k partial products.  So every exp, product and sum f
    forms lies in [e^-L, e^(4L/3)].  While L <= 500 all
    are normal doubles, so every rounding is relative and no term
    underflows: the absolute (underflow) part of the bound is 0.  Beyond
    that eps is infinite and every midpoint is evaluated.

    Exponents.  Each num and den is below e^L < 2^1024, so math.log(n) is
    off ln n by at most 1.01u + 2u(ln n + 1.01u) <= 2u(ln n + 1) (the
    conversion, then log), and a weight log num - log den is off by at most
    3u(l + 2), l = ln num + ln den, and its product with s <= 1.5 by at
    most 6u(l + 2).  A path has at most k + 1 weights, so the errors of
    its exponents sum to at most 6u(L + 2k + 2).

    Roundings.  A path passes at most k + 1 exps (2u each), k products
    (u each) and k + 1 math.fsum calls (u each; a sum of positive terms
    keeps their largest relative error).  So each term, each state value
    and the sum S = F + 1 are off by a factor within exp(+-t),
    t = u(6L + 16k + 15), hence relatively by at most 1.01t; subtracting 1
    adds u|f|.  So |f - F| <= 1.01t (1 + |F|) + u|f|
    <= 2(1.01t + u)(1 + |f|) < 2^-48 (L + 3k + 3)(1 + |f|), which leaves
    room for the roundings of eps itself and of the tests that use it.
    """
    spread = 3 * rank * math.log(digit_cap)
    return (spread + 3 * rank + 3) * 2.0**-48 if spread <= 500 else math.inf


def _line(p, q, m: float, eps: float, side: int) -> float:
    """Bound, from above (side 1) or below (side -1), the line through
    (x1, F(x1)) and (x2, F(x2)) at m, given evaluated points p = (x1, y1)
    and q = (x2, y2), x1 < x2, with |y - F| <= eps (1 + |y|).

    The line is sum w_i F(x_i) with w_1 = (x2 - m) / (x2 - x1) and
    w_2 = (m - x1) / (x2 - x1), so it lies within the spread
    sum |w_i| eps (1 + |y_i|) of sum w_i y_i.  Each term of the result
    passes at most six roundings (its difference, its product, two sums,
    the difference x2 - x1 and the quotient), an error below
    6.01u (sum |w_i| |y_i| + spread).  The spread adds 10u (_ROUND) per
    unit of sum |w_i| |y_i|, and eps keeps room (see _sum_error), which
    covers that error and the five roundings of the spread itself.
    """
    (x1, y1), (x2, y2) = p, q
    a, b, span = x2 - m, m - x1, x2 - x1
    spread = abs(a) * (eps + (eps + _ROUND) * abs(y1)) + abs(b) * (eps + (eps + _ROUND) * abs(y2))
    return (y1 * a + y2 * b + side * spread) / span


def _convex_bisect(f, hi: float, tol: float, f0: float, eps: float) -> tuple[float, float]:
    """What _bisect(f, hi, tol, |f0|) returns, from fewer calls of f.

    f is the computed form of a convex decreasing F with
    |f(s) - F(s)| <= eps (1 + |f(s)|) on [0, hi], and f0 > tol is F(0)
    within the same bound, so (0, f0) counts as an evaluated point and
    f(0) is never called.  The midpoints are _bisect's, and one is not
    evaluated when the points evaluated so far settle its branch beyond
    T = tol + eps (1 + tol):

    - chord: F lies below its chord between the nearest evaluated points
      on either side.  If that chord is below -T at the midpoint, then
      f(mid) < -tol (were f >= -tol, F >= f - eps (1 + |f|) would be
      >= -T), and hi = mid as _bisect would set it.
    - secant: F lies above the line through two evaluated points, outside
      the segment between them.  If the line through the two nearest on
      one side, extended to the midpoint, is above T there, then
      f(mid) > tol and lo = mid.

    _line bounds both lines with the rounding of their own arithmetic.  So
    every midpoint where |f| <= tol is possible is evaluated, the first
    such is the one returned, and s and |f(s)| keep _bisect's bits.

    A skipped midpoint is only known to have |f| > tol, so it may hold
    the least residual that _bisect's DomainError names.  When the bracket
    stalls (the midpoint equals one of its ends, so _bisect would repeat
    it) or _MAX_BISECT steps pass, _bisect itself runs from the start, and
    its answer or its DomainError, text included, is the result.
    """
    margin = tol + eps * (1 + tol)
    left, right = [(0.0, f0)], []  # evaluated points beside the bracket, nearest last
    lo, top = 0.0, hi
    for _ in range(_MAX_BISECT):
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if right and _line(left[-1], right[-1], mid, eps, 1) < -margin:
            hi = mid  # the chord settles it
        elif (len(left) > 1 and _line(left[-2], left[-1], mid, eps, -1) > margin
              or len(right) > 1 and _line(right[-1], right[-2], mid, eps, -1) > margin):
            lo = mid  # a secant settles it
        else:
            fm = f(mid)
            if abs(fm) <= tol:
                return mid, abs(fm)
            if fm > 0:
                lo = mid
                left.append((mid, fm))
            else:
                hi = mid
                right.append((mid, fm))
    return _bisect(f, top, tol, abs(f0))


def _bisect(f, hi: float, tol: float, best: float) -> tuple[float, float]:
    """(s, |f(s)|) for the first bisection midpoint s in [0, hi] with
    |f(s)| <= tol, f decreasing with f(0) > 0 > f(hi).

    If _MAX_BISECT steps do not reach tol (a tol below float resolution),
    DomainError names the best residual: the least of best, which the
    caller has reached already, and the midpoints' residuals.
    """
    lo = 0.0
    for _ in range(_MAX_BISECT):
        mid = (lo + hi) / 2
        fm = f(mid)
        if abs(fm) <= tol:
            return mid, abs(fm)
        best = min(best, abs(fm))
        if fm > 0:
            lo = mid
        else:
            hi = mid
    raise DomainError(
        f"tol {tol} not reached in {_MAX_BISECT} bisection steps; best residual {best}"
    )


def moran_dimension(ratios: Sequence[ExactQ], tol: float = 1e-12) -> float:
    """Unique s in [0, 1] with sum ratios**s = 1, by bisection.

    Independent of the pressure machinery on purpose (it is the oracle for
    pressure_root on multiplicative digit restrictions): ratios arrive as a
    plain list, terms are evaluated as float(ratio)**s, and the bracket is
    [0, 1].  Requires every ratio in (0, 1) exactly and sum of ratios <= 1
    (so the root lies in the bracket).  As in pressure_root, tol must be
    finite and positive, and if the bisection runs out before
    |sum - 1| <= tol, DomainError names the best residual it reached.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    ratios = [Fraction(r) for r in ratios]
    if not ratios:
        raise DomainError("need at least one ratio")
    for r in ratios:
        if not 0 < r < 1:
            raise DomainError(f"ratio {r} outside (0, 1)")
    if sum(ratios) > 1:
        raise DomainError("ratios must sum to at most 1")
    floats = [float(r) for r in ratios]

    def f(s: float) -> float:
        return math.fsum(x**s for x in floats) - 1.0

    at_0, at_1 = abs(f(0.0)), abs(f(1.0))
    if at_0 <= tol:
        return 0.0
    if at_1 <= tol:
        return 1.0
    return _bisect(f, 1.0, tol, min(at_0, at_1))[0]


def measure_at_rank(
    rule: DigitRule,
    sign: Sign,
    predicate: DigitPredicate,
    rank: int,
    digit_cap: int | None,
) -> ExactQ:
    """Exact sum of compatible rank-k cylinder diameters (outer measure bound).

    With digit_cap None the sum is only computable in closed form for the
    unrestricted predicate, where rank-k cylinders tile the whole space and
    the telescoped total is exactly 1; any other predicate needs a finite
    cap.  Non-increasing in rank for hereditary predicates (children of a
    compatible word cover at most their parent).  The sum runs over the
    same rank-k states as pressure_root, at s = 1 in exact Fractions, so no
    base is listed and no cylinder is built; the diameters are the same for
    both signs.
    """
    if rank < 1:
        raise DomainError("rank must be >= 1")
    if digit_cap is None:
        if not predicate._unrestricted:
            raise DomainError("digit_cap required for restricted predicates")
        return Fraction(1)
    kept, final, _ = _levels(rule, predicate, rank, digit_cap, Fraction)
    u = [Fraction(rule.phi0)]
    get = u.__getitem__
    for level in kept:
        u += [
            total * w
            for sources, weights in level
            for total in [sum(map(get, sources))]
            for w in weights
        ]
    return sum((sum(map(get, sources)) * sum(weights) for sources, weights in final), Fraction(0))
