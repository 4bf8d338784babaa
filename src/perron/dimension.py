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
child step (_children): the digits a compatible word is extended by, and
whether the cap cuts the word off.  A built-in predicate states the digits
it admits after each word once, with no cap in it: one integer range (for
an alphabet, its members in it), which its classify reads and _children
clips to the candidates up to the cap.  An opaque one is asked about each
candidate once.  Each walk counts its cuts per position, and
_warn_first_cut is the one place that raises CapTooSmallWarning: _levels
once its levels are built, the enumeration once it is exhausted.  The
enumeration does not call _levels, so the bound on word-keyed states is
_levels' alone.

The sources of every state are one slice of the level before (_slices, one
sweep per level), so a merged level is built with one step per state and
none per (source, digit) pair; f(s) sums each slice with one math.fsum,
and measure_at_rank as a difference of exact prefix sums.  The last
digits of one slice are handed over as one run: measure_at_rank sums a run
without gaps in closed form, since its cylinders abut, and f(s) sums one
of at least _SERIES_RUN digits by a series past its first _SERIES_HEAD
(_run_sum), so such a run costs a bounded number of terms whatever its
length.  A slice of a kept level, below rank k, still costs its length.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import warnings
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import _LAZY
from .core import (
    DigitRule, DigitWord, ExactQ, Sign, _check_sign, _integer, _ratio_power, _rational, _Record,
    _shown, _step_r)
from .errors import CapTooSmallWarning, DomainError

__all__ = _LAZY["dimension"]  # declared once, in the package

_MAX_BISECT = 200
_MAX_WORD_STATES = 1 << 19  # states of one word-keyed level in _levels
_ROUND = 10 * 2.0**-53  # rounding allowance of one line test (_line)
_TOP = 1 << 46  # ratio_limit_window's span is its float test's up to here
# pressure_root sums a gapless last-level run of at least _SERIES_RUN (L)
# digits by _run_sum past its first _SERIES_HEAD (M) digits
_SERIES_RUN = 512
_SERIES_HEAD = 64
_BINOMIAL_TERMS = 5
# B_2k(1/2) / (2k)! = (2^(1-2k) - 1) B_2k / (2k)!, k = 1..6: the midpoint
# Euler-Maclaurin coefficients
_EULER_MACLAURIN = (-1 / 24, 7 / 5760, -31 / 967680, 127 / 154828800, -73 / 3503554560,
                    1414477 / 2678117105664000)


class DigitPredicate:
    """Hereditary compatibility test on digit words.

    classify(word) returns True (compatible) or False (incompatible); it must
    be hereditary: once a word is incompatible, every extension is too.  The
    enumeration below relies on that to prune whole subtrees.  Such an opaque
    predicate is asked about each whole child word; the built-in predicates
    are local and state the digits they admit after each word.
    """

    _unrestricted = False  # admits every word

    def __init__(self, classify: Callable[[DigitWord], bool], description: str):
        self.classify = classify
        self.description = description

    def __call__(self, word: DigitWord) -> bool:
        return self.classify(word)

    def __repr__(self):
        return f"DigitPredicate({self.description})"


class _LocalPredicate(DigitPredicate):
    """A predicate stated as the digits it admits after each digit prev
    (None before the first digit) at each 1-based position n, with no cap
    in the statement: span(prev, n) states them as one integer range
    (lo, hi), hi None when it is unbounded above and below lo when it is
    empty.  A declared alphabet, the sorted digits admitted anywhere, keeps
    only its members of that range, its span being its least and greatest.
    A word is compatible when every digit is admitted after its
    predecessor, so the predicate is hereditary by construction, and
    classify and the enumerator (_children) read the same statement.  For
    every built-in span both ends are nondecreasing in prev, which _levels
    relies on.
    """

    def __init__(self, description, span, alphabet=None, unrestricted=False):
        super().__init__(self._classify, description)
        self._span, self._alphabet = span, alphabet
        self._unrestricted = unrestricted

    def _classify(self, word: DigitWord) -> bool:
        spans = map(self._span, (None, *word), range(1, len(word) + 1))
        return all(lo <= c and (hi is None or c <= hi) for c, (lo, hi) in zip(word, spans)) and (
            self._alphabet is None or all(c in self._alphabet for c in word))


def all_digits() -> DigitPredicate:
    """No restriction beyond rule validity."""
    return _LocalPredicate("all", lambda prev, n: (1, None), unrestricted=True)


def alphabet_restrict(allowed: Sequence[int]) -> DigitPredicate:
    """Every digit drawn from a fixed finite set of integers."""
    allowed_set = frozenset(allowed)
    if not allowed_set:
        raise DomainError("allowed digit set must be nonempty")
    if not all(isinstance(c, int) for c in allowed_set):
        raise DomainError("allowed digits must be integers")
    alphabet = tuple(sorted(allowed_set))
    ends = alphabet[0], alphabet[-1]
    return _LocalPredicate(f"alphabet{list(alphabet)}", lambda prev, n: ends, alphabet)


def bounded_ratio(k: ExactQ) -> DigitPredicate:
    """Consecutive digit ratios c_{n+1}/c_n bounded by k (exact comparison)."""
    k = _rational("k", k)
    if k <= 0:
        raise DomainError("ratio bound must be positive")
    num, den = k.numerator, k.denominator

    def span(prev, n):
        return 1, None if prev is None else num * prev // den

    return _LocalPredicate(f"ratio<={k}", span)


def growth_floor(psi: Callable[[int], ExactQ]) -> DigitPredicate:
    """Digit at 1-based position n at least psi(n), for all n."""

    def span(prev, n):
        floor = psi(n)  # no digit passes +inf or NaN
        return (math.ceil(max(floor, 1)), None) if floor < math.inf else (1, 0)

    return _LocalPredicate("growth-floor", span)


def ratio_limit_window(alpha: float, delta: float) -> DigitPredicate:
    """|log c_{n+1} / log c_n - alpha| <= delta for all consecutive pairs.

    A prefix relaxation of sets defined by the limit of log-digit ratios:
    every word of the limit set eventually satisfies the window, and the
    predicate approximates such sets from outside at each rank.  NaN alpha
    or delta would admit every word, so both are rejected.

    The test is made in floats, as written.  Its span after prev takes each
    end from prev ** (alpha -+ delta) and moves it to the test's own
    boundary, evaluating the test there and at the neighbours it steps to.
    That span holds the digits the test passes as long as the computed log
    ratio is nondecreasing in c and nonincreasing in prev.  It is when
    math.log is within one ulp and the digits are below 2^46: there
    log(c + 1) - log(c) exceeds 2^-46, more than the two ulps (at most
    2^-47) that the logs can stray, and a correctly rounded quotient keeps
    their order.  The ends are sought up to 2^46 (_TOP) only, and the span
    admits no digit beyond it.  A prev below 2, whose log is not positive,
    admits no digit either.
    """
    if math.isnan(alpha) or math.isnan(delta):
        raise DomainError("alpha and delta must not be NaN")
    if delta < 0:
        raise DomainError("delta must be >= 0")
    # the exponents of the ends; an infinite delta passes every ratio, and
    # (0, inf) keeps an infinite alpha from making them NaN
    ends = (alpha - delta, alpha + delta) if delta < math.inf else (0.0, math.inf)

    def span(prev, n):
        if prev is None or prev < 2:  # a first digit is free; none passes a log prev <= 0
            return 1, None if prev is None else 0
        log_prev = math.log(prev)

        def gap(c):  # the test is -delta <= gap(c) <= delta
            return math.log(c) / log_prev - alpha

        # the digits in [1, _TOP] nearest prev ** t (e^32 > _TOP)
        lo, hi = (max(1, min(_TOP, round(math.exp(min(t * log_prev, 32.0))))) for t in ends)
        while lo > 1 and gap(lo - 1) >= -delta:
            lo -= 1
        while lo <= _TOP and gap(lo) < -delta:
            lo += 1
        while hi < _TOP and gap(hi + 1) <= delta:
            hi += 1
        while hi and gap(hi) > delta:
            hi -= 1
        return lo, hi

    return _LocalPredicate(f"ratio-window({alpha},{delta})", span)


def _children(predicate: DigitPredicate, word: DigitWord, r: int, digit_cap: int):
    """The digits that extend a compatible word whose rule value is r, in
    increasing order, and whether the cap cuts the word off.

    The candidates are the admissible digits up to the cap, (r, cap].  An
    opaque predicate is asked about each child word once
    (predicate.classify), and its digits come as a list; the cap cuts the
    word off when the rule alone leaves no digit up to it, r >= cap, since
    what the predicate admits beyond the cap is not known.  A local one is
    not asked digit by digit: its statement after the word (its span, one
    call per word, and an alphabet's members) is clipped to the candidates,
    and the cap cuts the word off when that leaves no digit although the
    statement admits one above max(r, cap).
    """
    if not isinstance(predicate, _LocalPredicate):
        digits = [c for c in range(r + 1, digit_cap + 1) if predicate.classify(word + (c,))]
        return digits, r >= digit_cap
    return _local_children(predicate, word[-1] if word else None, len(word) + 1, r, digit_cap)


def _local_children(predicate: _LocalPredicate, prev: int | None, n: int, r: int, digit_cap: int):
    """_children under a local predicate, which reads of the word only its
    last digit prev (None for the empty word) and the position n it leads
    to, one more than its length."""
    lo, hi = predicate._span(prev, n)
    digits = range(max(r + 1, lo), (digit_cap if hi is None else min(digit_cap, hi)) + 1)
    if predicate._alphabet is not None:
        digits = [c for c in predicate._alphabet if c in digits]
    return digits, not digits and (hi is None or max(lo, r + 1, digit_cap + 1) <= hi)


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


def _levels(rule: DigitRule, predicate: DigitPredicate, rank: int, digit_cap: int, weigh, weigh_run):
    """The compatible rank-k words, merged into states one position at a time.

    A state at level n stands for compatible length-n words that extend
    alike.  It is keyed by the last digit when the rule is built in (r_n =
    a c_n + b, a >= 0, depends on c_n alone) and the predicate is local (it
    reads only (prev, c, n)); otherwise by the whole word, which never
    repeats, so such states never merge and the levels are the enumeration
    tree.

    The states of a level are in increasing order, of their last digits
    when merged and of their words otherwise, and each one's children come
    from _children, the step enumerate_compatible_bases takes too.  So the
    sources of a state are one slice [i, j) of the level before: a
    word-keyed child has the one source [i, i + 1).  A merged
    state c is first reached from the state i that first admits it, and
    under the built-in rules and predicates the ends of each state's
    children are nondecreasing along a level (a >= 0, and every span's ends
    are nondecreasing in prev), so the states that admit c run on from i
    without a gap: j is the first state after i whose least child exceeds
    c.  As c increases, j only moves forward, so one sweep of two pointers
    finds every slice, with one step per state and none per (source, digit)
    pair, and prefix sums of the states' counts give each slice's count.
    A run's digits whose rule value is below 1 are admissible but
    degenerate, and pruned.  Under a built-in rule a c + b is nondecreasing
    in c (a >= 0, checked when the rule is made), so every run, merged or
    word-keyed, keeps its tail c >= ceil((1 - b)/a) (all of it or none when
    a = 0), found with one bisection and no step per digit; only a custom
    rule is asked about each child word.

    A word's diameter phi_0 r_1...r_{k-1} / prod (c_i - 1)c_i is phi_0 times
    one factor r / (c - 1)c per digit, r being the rule value the digit
    leads to, or 1 at the last position, where it drops out.  Each state is
    an expression (sources, num, den): its value is (num/den)**s times the
    sum of the values in the index slice sources, value 0 being the root's,
    phi_0**s.  A state with one source extends that source's expression by
    its own factor, so a chain of such states is one expression and costs
    nothing per link.  A state with several sources is its own factor times
    the sum of their values, and each of those sources becomes a value:
    weigh(num, den) of its expression.  The sources that become values do
    so in increasing order, so every slice of them is a slice of values.
    The rank-k states of one run, the digits of one slice that the rule
    keeps, share their sources and their expression (num, den) before the
    last factor 1 / (c - 1)c, and are weighed in one call,
    weigh_run(num, den, digits), with the run's digits in increasing order.

    Returns (kept, final, bases).  kept holds one list per level that adds
    values, each a list of groups (sources, weights): one new value per
    weight, indexed in order after the earlier ones; a group gathers
    consecutive items that share their sources.  final holds such groups
    for the rank-k states, each with the weights weigh_run gave the runs
    it gathers, in order: the rank-k sum adds, per group, the sum of the
    values in its sources times the factor each weight stands for.  bases
    counts the compatible rank-k words (the states' counts, summed in the
    same pass).  When the cap cuts off every admissible digit of some
    compatible prefix, CapTooSmallWarning names the first 1-based position
    where it does and how many compatible prefixes it cuts off there,
    raised at the caller's caller once the levels are built.

    A word-keyed level may hold at most _MAX_WORD_STATES states; past that
    it is a DomainError naming the level and the states it reached, so one
    level costs at most that many words times the cap in candidate tests.
    The largest word-keyed level of the benchmark's pressure pools is 808
    states and that of the tests 3375, far below the bound.  rank and
    digit_cap come checked from the caller (core._integer).
    """
    affine = rule.fn is None
    merge = affine and isinstance(predicate, _LocalPredicate)
    if affine:  # a c + b >= 1 exactly for the digits c >= least
        least = -((rule.b - 1) // rule.a) if rule.a else (0 if rule.b >= 1 else math.inf)
    # the states of the level before: keys (last digits when merged, words
    # otherwise), rule values, counts, expressions
    keys, rs, counts = [None if merge else ()], [rule.phi0], [1]
    srcs, fracs = [(0, 1)], [(1, 1)]
    kept, final, values, cuts, bases = [], [], 1, [], 0
    for n in range(1, rank + 1):
        last = n == rank
        cuts.append(0)
        children = []
        for key, r, count in zip(keys, rs, counts):
            if merge:
                digits, cut = _local_children(predicate, key, n, r, digit_cap)
            else:
                digits, cut = _children(predicate, key, r, digit_cap)
            if cut:
                cuts[-1] += count
            children.append(digits)
        sums = [0, *itertools.accumulate(counts)]
        made = []  # the states of the level before that become values, in order
        t_key, t_r, t_count, t_srcs, t_frac = [], [], [], [], []  # per state below rank k
        states = 0  # rank-k states so far
        covered = shift = 0  # the states made values so far end at covered; i is value i + shift
        for i, j, run in _slices(children, merge):
            # live: the run's digits whose rule value is at least 1
            if affine:  # a >= 0, so they are a tail of the run
                live = run[bisect.bisect_left(run, least):]
                if not last:
                    live_rs = [rule.a * c + rule.b for c in live]
            else:  # a custom rule: asked about each child word
                live, live_rs = [], []
                for c in run:
                    r_child = _step_r(rule, keys[i] + (c,), n)
                    if r_child >= 1:
                        live.append(c)
                        live_rs.append(r_child)
            if not live:
                continue
            count = sums[j] - sums[i]
            if j - i == 1:  # one source: extend its expression
                sources, (num, den) = srcs[i], fracs[i]
            else:  # the sources [i, j) become values [i + shift, j + shift)
                if i >= covered:
                    shift = values - i
                made += range(max(i, covered), j)
                values, covered = j + shift, j
                sources, num, den = (i + shift, j + shift), 1, 1
            if last:  # rank-k states: their weights come from one call
                weights = weigh_run(num, den, live)
                if final and final[-1][0] == sources:
                    final[-1][1].extend(weights)
                else:
                    final.append((sources, weights))
                bases += count * len(live)
                states += len(live)
            else:
                t_key += live if merge else [keys[i] + (c,) for c in live]
                t_r += live_rs
                t_frac += [(num * r, den * (c - 1) * c) for c, r in zip(live, live_rs)]
                t_srcs += [sources] * len(live)
                t_count += [count] * len(live)
            if not merge and len(t_frac) + states > _MAX_WORD_STATES:
                raise DomainError(
                    f"level {n} has {len(t_frac) + states} word-keyed states, more than the "
                    f"{_MAX_WORD_STATES} allowed")
        if made:
            kept.append(_grouped([srcs[i] for i in made], [weigh(*fracs[i]) for i in made]))
        keys, rs, counts, srcs, fracs = t_key, t_r, t_count, t_srcs, t_frac
    _warn_first_cut(digit_cap, cuts, 3)
    return kept, final, bases


def _slices(children: list, merge: bool) -> Iterator[tuple[int, int, Sequence[int]]]:
    """(i, j, run) for each run of the children of a level's states that
    share their sources [i, j): the states of the next level, in order.

    Word-keyed (merge false), the children of state i are states of their
    own, each with the one source [i, i + 1).  Merged, each digit is one
    state, taken where it is first reached (state i) and in increasing
    order: j is the first state after i whose least child exceeds it, or
    that has none.  The ends of the children must be nondecreasing along
    the states (see _levels), and then j only moves forward.
    """
    if not merge:
        yield from ((i, i + 1, digits) for i, digits in enumerate(children))
        return
    firsts = [d[0] if d else math.inf for d in children] + [math.inf]
    top = j = 0  # the last child of the states before i; the end of the slice
    for i, digits in enumerate(children):
        j = max(j, i + 1)
        start = bisect.bisect_right(digits, top)  # digits[start:] are first reached here
        while start < len(digits):
            while firsts[j] <= digits[start]:
                j += 1
            stop = bisect.bisect_left(digits, firsts[j], start)
            yield i, j, digits[start:stop]
            start = stop
        if digits:
            top = digits[-1]


def _grouped(keys: Sequence, weights: Sequence) -> list:
    """(key, its weights) for each run of equal consecutive keys."""
    runs = itertools.groupby(zip(keys, weights), key=operator.itemgetter(0))
    return [(key, [w for _, w in run]) for key, run in runs]


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
    rank, digit_cap = _integer("rank", rank, 1), _integer("digit_cap", digit_cap, rule.phi0 + 1)

    def walk() -> Iterator[DigitWord]:
        cuts = [0] * rank  # cuts[n - 1]: compatible prefixes cut off at position n
        stack = [()]  # the words still to visit, the next one last
        while stack:
            word = stack.pop()
            r = _step_r(rule, word, len(word)) if word else rule.phi0
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


class DimensionEstimate(_Record):
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

    def __init__(self, rank: int, digit_cap: int, s_value: float, residual: float,
                 bases_count: int):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "digit_cap", digit_cap)
        object.__setattr__(self, "s_value", s_value)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "bases_count", bases_count)


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
    which are one slice of the level before, and one exp per state with a
    value of its own.  With the built-in rules and predicates a level has at
    most one state per digit, so the build grows with rank times the cap,
    and each f(s) adds at most rank times the cap squared terms inside
    math.fsum: neither grows with the number of bases.  A run of last
    digits without gaps, p..q, shares its sources and its factor num/den,
    so it adds total * (num/den)**s * sum ((c - 1)c)**-s; from
    _SERIES_RUN digits on, that sum takes the first _SERIES_HEAD digits
    one term each and the rest as one term from a series (_run_sum), so the
    run costs O(1) terms, and a rank-1 root at any cap about 65 per f(s).
    Shorter runs, runs with gaps (an alphabet, a custom rule or an opaque
    predicate leaving digits out) and every config whose eps is infinite
    keep one term per digit.
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
    before |sum - 1| <= tol (a tol below float resolution), DomainError
    names the best residual over f(0) and the midpoints it evaluated.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    _check_sign(sign)
    rank, digit_cap = _integer("rank", rank, 1), _integer("digit_cap", digit_cap, rule.phi0 + 1)
    log, exp, fsum = math.log, math.exp, math.fsum
    eps = _sum_error(rank, digit_cap)
    runs = []  # (lw, tail) per long run: its digits past the head as one term

    def weigh_run(num, den, digits):
        log_num = log(num)
        if (len(digits) >= _SERIES_RUN and eps < math.inf
                and digits[-1] - digits[0] == len(digits) - 1):  # long and without gaps
            runs.append((log_num - log(den), _run_sum(digits[_SERIES_HEAD], digits[-1])))
            return [log_num - log(den * (c - 1) * c) for c in digits[:_SERIES_HEAD]] + runs[-1:]
        return [log_num - log(den * (c - 1) * c) for c in digits]

    kept, final, bases = _levels(
        rule, predicate, rank, digit_cap, lambda num, den: log(num) - log(den), weigh_run)
    if not bases:
        return DimensionEstimate(rank, digit_cap, 0.0, 1.0, 0)
    if runs:  # each (lw, tail) rode in its run's weights; take it out with its group's sources
        runs = [(sources, w) for sources, ws in final for w in ws if type(w) is tuple]
        final = [(sources, [w for w in ws if type(w) is float]) for sources, ws in final]
    log_phi0 = log(rule.phi0)

    def values(level, u, s):  # one compensated sum per group, one exp per value
        return [
            total * exp(s * lw)
            for (lo, hi), lws in level
            for total in [fsum(u[lo:hi])]
            for lw in lws
        ]

    def f(s: float) -> float:
        u = [exp(s * log_phi0)]
        for level in kept:
            u += values(level, u, s)
        terms = values(final, u, s)
        terms += [fsum(u[lo:hi]) * exp(s * lw) * tail(s) for (lo, hi), (lw, tail) in runs]
        return fsum(terms) - 1.0

    f_lo = float(bases - 1)  # f(0): every term is 1
    if abs(f_lo) <= tol:
        return DimensionEstimate(rank, digit_cap, 0.0, abs(f_lo), bases)
    s, residual = _convex_bisect(f, 1.5, tol, f_lo, eps)
    return DimensionEstimate(rank, digit_cap, s, residual, bases)


def _sum_error(rank: int, digit_cap: int) -> float:
    """eps with |f(s) - F(s)| <= eps (1 + |f(s)|) for s in [0, 1.5]: f is
    pressure_root's computed sum minus 1, F the exact one.

    Assumed: binary64 arithmetic rounding to nearest, u = 2^-53; math.log,
    math.exp, math.expm1 and math.log1p within one ulp (relative error
    <= 2u) at normal results;
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

    Runs.  pressure_root sums the digits of a long gapless run of last
    digits past its head as one term, total * exp(s (log num - log den)) *
    S, S the sum of ((c - 1)c)**-s over them (_run_sum).  Its path has the
    weights of its digits' paths, the last one's den without the factor
    (c - 1)c, so its exponents are off by no more, and it takes one
    product more; S is within a relative u (7 ln C + 40) of the exact sum,
    its series' truncation (below 1e-19) and any underflow of its
    corrections included.  So its t is at most u(6L + 16k + 16) +
    u(7 ln C + 40) <= u(9L + 16k + 56), as L >= 3 ln C, and
    2(1.01t + u) <= u(18.2L + 32.4k + 116) is below 2^-48 (L + 3k + 3) =
    u(32L + 96k + 96) by more than a third of it, since such a run needs
    C >= 513, so L >= 18.7: the same eps covers it.
    """
    spread = 3 * rank * math.log(digit_cap)
    return (spread + 3 * rank + 3) * 2.0**-48 if spread <= 500 else math.inf


def _run_sum(p: int, q: int) -> Callable[[float], float]:
    """s -> sum ((c - 1)c)**-s over the digits c = p..q, in O(1) operations,
    for s in [0, 1.5] and q >= p >= _SERIES_HEAD + 2: the tail of a long
    run past its head, the run's first digit being at least 2.

    Series.  (c - 1)c = (c - 1/2)**2 (1 - x), x = 1/(4 (c - 1/2)**2), so
    ((c - 1)c)**-s = sum_j (s)_j / (j! 4**j) (c - 1/2)**-(s_j), s_j = 2s + 2j
    ((s)_j rising), and the sum is sum_j (s)_j / (j! 4**j) Z(s_j) with
    Z(t) = sum_{c=p..q} (c - 1/2)**-t.  The midpoint Euler-Maclaurin
    formula, on P = p - 1 and q, the ends of [p - 1/2, q + 1/2] shifted by
    1/2, gives Z(t) = P**(1-t) E(1 - t) + sum_k B_2k(1/2) / (2k)! (t)_(2k-1)
    (P**(1-t-2k) - q**(1-t-2k)), where E(a) = (e^(a d) - 1)/a (d at a = 0),
    d = ln(q/P), makes the integral of y**-t over [P, q].  Taken out
    P**(1-2s), every term is P**-2j or P**-2k times E or (1 - e^(-m d)),
    so Z costs the same for any run length.

    Truncation, past _BINOMIAL_TERMS = 5 terms in j and
    len(_EULER_MACLAURIN) = 6 in k.  x <= 1/(4 * 65.5**2) < 5.9e-5, so the
    binomial tail is below (1.5)_5 / 5! x**5 < 2e-21 of the sum.  The
    Euler-Maclaurin remainder is below 2 |B_12| / 12! (t)_11 P**(-t-11),
    under 4e-20 of the sum at t <= 3 and far less for j >= 1.

    Rounding (u = 2^-53).  d = log1p((q - P)/P) is within 3u relative,
    so a product a d is within 5u (j = 0) or 7u, and E(a) within
    (1 + max(a d, 0)) 7u + 6u, a d <= ln(q/P).  Every other term of the
    sum taken out P**(1-2s) is below 1e-3 of the j = 0 one, E(1 - 2s) >=
    e^-2 min(d, 1), so with the sums' roundings that sum is within
    7u ln(q/P) + 25u; a term that underflows there is off by less than
    2^-1074, far below u times E(1 - 2s) while P <= e^166 (as eps finite
    requires).  P**(1-2s) = exp((1 - 2s) log P) is within 6u ln P + 7u.
    So the result is within a relative u (7 ln q + 40) of the exact sum,
    which _sum_error allows for.
    """
    big_p = p - 1
    log_p, d, inv_p2 = math.log(big_p), math.log1p((q - big_p) / big_p), 1 / (big_p * big_p)
    bernoulli = [(b * inv_p2 ** k, 2 * k - 1) for k, b in enumerate(_EULER_MACLAURIN, 1)]
    exp, expm1 = math.exp, math.expm1

    def at(s: float) -> float:
        total, coef = 0.0, 1.0  # coef = (s)_j / (j! (4 P**2)**j)
        for j in range(_BINOMIAL_TERMS):
            t = 2 * s + 2 * j
            a = 1 - t
            z = expm1(a * d) / a if a else d
            rising = t  # (t)_(2k-1)
            for b, m in bernoulli:
                z -= b * rising * expm1(-(t + m) * d)
                rising *= (t + m) * (t + m + 1)
            total += coef * z
            coef *= (s + j) / (4 * j + 4) * inv_p2
        return exp((1 - 2 * s) * log_p) * total

    return at


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
    """(s, |f(s)|) for the first midpoint s of the plain bisection of
    [0, hi] with |f(s)| <= tol, evaluating only the midpoints it must.

    f is the computed form of a convex decreasing F with
    |f(s) - F(s)| <= eps (1 + |f(s)|) on [0, hi], and f0 > tol is F(0)
    within the same bound, so (0, f0) counts as an evaluated point and
    f(0) is never called.  The plain bisection evaluates every midpoint
    and sets lo = mid where f(mid) > 0, hi = mid otherwise.  Here a
    midpoint is not evaluated when the points evaluated so far settle its
    branch beyond T = tol + eps (1 + tol):

    - chord: F lies below its chord between the nearest evaluated points
      on either side.  If that chord is below -T at the midpoint, then
      f(mid) < -tol (were f >= -tol, F >= f - eps (1 + |f|) would be
      >= -T), and hi = mid as the plain bisection would set it.
    - secant: F lies above the line through two evaluated points, outside
      the segment between them.  If the line through the two nearest on
      one side, extended to the midpoint, is above T there, then
      f(mid) > tol and lo = mid.

    _line bounds both lines with the rounding of their own arithmetic.  So
    every midpoint where |f| <= tol is possible is evaluated, the first
    such is the one returned, and s and |f(s)| keep the plain bisection's
    bits.  With eps infinite no midpoint is skipped: that is the plain
    bisection itself.

    When the bracket stalls (the midpoint equals one of its ends, so no
    later step moves it) or _MAX_BISECT steps pass, tol is out of reach (a
    tol below float resolution): DomainError names the best residual, the
    least |f| among the points evaluated, f0 included.  A skipped midpoint
    is only known to have |f| > tol and is not among them.
    """
    margin = tol + eps * (1 + tol)
    left, right = [(0.0, f0)], []  # evaluated points beside the bracket, nearest last
    lo = 0.0
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
    raise DomainError(f"tol {tol} not reached in {_MAX_BISECT} bisection steps; "
                      f"best residual {min(abs(fm) for _, fm in left + right)}")


def moran_dimension(ratios: Sequence[ExactQ], tol: float = 1e-12) -> float:
    """Unique s in [0, 1] with sum ratios**s = 1, by bisection.

    Independent of the pressure machinery on purpose (it is the oracle for
    pressure_root on multiplicative digit restrictions): ratios arrive as a
    plain list, each term is core._ratio_power of the ratio's integer pair,
    so a ratio below the float range counts too, and the bracket is
    [0, 1].  Requires every ratio in (0, 1) exactly and sum of ratios <= 1
    (so the root lies in the bracket).  The bisection is _convex_bisect
    with eps infinite, which evaluates every midpoint, from f(0) =
    len(ratios) - 1 without a call.  As in pressure_root, tol must be
    finite and positive, and if the bisection stalls or runs out before
    |sum - 1| <= tol, DomainError names the best residual it reached.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    ratios = [_rational("ratio", r) for r in ratios]
    if not ratios:
        raise DomainError("need at least one ratio")
    for r in ratios:
        if not 0 < r < 1:
            raise DomainError(f"ratio {_shown(r)} outside (0, 1)")
    if sum(ratios) > 1:
        raise DomainError("ratios must sum to at most 1")

    def f(s: float) -> float:
        return math.fsum(_ratio_power(r.numerator, r.denominator, s) for r in ratios) - 1.0

    f0 = len(ratios) - 1.0  # every term is 1 at s = 0
    if f0 <= tol:
        return 0.0
    if abs(f(1.0)) <= tol:
        return 1.0
    return _convex_bisect(f, 1.0, tol, f0, math.inf)[0]


def measure_at_rank(
    rule: DigitRule,
    sign: Sign,
    predicate: DigitPredicate,
    rank: int,
    digit_cap: int | None,
) -> ExactQ:
    """Exact sum of compatible rank-k cylinder diameters (outer measure bound).

    With digit_cap None the total is 1 when the predicate is unrestricted
    and the rule prunes no word of the rank (no rule value below 1), for
    then the rank-k cylinders tile the whole space; it is a DomainError
    otherwise, and so for every custom rule, whose pruned words are not
    known without a cap.  Under a built-in rule (a >= 0) the least rule
    value reachable at position n is m_n = a(m_{n-1} + 1) + b, m_0 = phi_0,
    and no word is pruned when m_n >= 1 for n <= rank.  The map from
    m_{n-1} to m_n is nondecreasing, so the m_n are monotone, and once one
    is at least the one before, none falls below 1 later.

    Non-increasing in rank for hereditary predicates (children of a
    compatible word cover at most their parent).  The sum runs over the
    same rank-k states as pressure_root, at s = 1 in exact Fractions, so no
    base is listed and no cylinder is built; the diameters are the same for
    both signs.  The rank-k words of one run of last digits p..q without
    gaps share their prefix's factor num/den, and their cylinders abut:
    the diameters sum to (num/den)(q - p + 1) / ((p - 1) q), one Fraction
    per run, so a rank-1 measure at cap C makes one Fraction, not C.  A
    run with gaps (an alphabet, a custom rule) makes one per digit.
    """
    _check_sign(sign)
    rank = _integer("rank", rank, 1)
    if digit_cap is None:
        if not predicate._unrestricted:
            raise DomainError("digit_cap required for restricted predicates")
        if rule.fn is not None:
            raise DomainError("digit_cap required for a rule other than a*c + b with a >= 0")
        m = rule.phi0
        for n in range(1, rank + 1):
            m, before = rule.a * (m + 1) + rule.b, m
            if m < 1:
                raise DomainError(f"digit_cap required: the rule prunes words at position {n}")
            if m >= before:
                break
        return Fraction(1)
    digit_cap = _integer("digit_cap", digit_cap, rule.phi0 + 1)
    kept, final, _ = _levels(rule, predicate, rank, digit_cap, Fraction, _run_weights)
    sums = [0, Fraction(rule.phi0)]  # sums[i]: the sum of the first i values
    for level in kept:
        for (lo, hi), weights in level:
            total = sums[hi] - sums[lo]
            for w in weights:
                sums.append(sums[-1] + total * w)
    return sum(((sums[hi] - sums[lo]) * sum(weights) for (lo, hi), weights in final), Fraction(0))


def _run_weights(num: int, den: int, digits: Sequence[int]) -> list[Fraction]:
    """Fractions summing to the diameters num / (den (c - 1) c) of the last
    digits c of a run: one for a run without gaps, p..q, whose cylinders
    abut, as 1/((c - 1)c) = 1/(c - 1) - 1/c telescopes to
    (q - p + 1) / ((p - 1) q); one per digit otherwise."""
    p, q = digits[0], digits[-1]
    if q - p + 1 == len(digits):
        return [Fraction(num * len(digits), den * (p - 1) * q)]
    return [Fraction(num, den * (c - 1) * c) for c in digits]
