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

Exact cylinder diameters feed the floating-point pressure sums; diameters
enter as exp(s * (log num - log den)) so even astronomically small cylinders
contribute without intermediate underflow, and summation is compensated
(math.fsum).  Terms below the double-precision underflow threshold contribute
0.0; coverage of that regime is out of scope.
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


class DigitPredicate:
    """Hereditary compatibility test on digit words.

    classify(word) returns True (compatible) or False (incompatible); it must
    be hereditary: once a word is incompatible, every extension is too.  The
    enumeration below relies on that to prune whole subtrees.  Such an opaque
    predicate is asked about each whole child word; the built-in predicates
    are local and test only the new digit.
    """

    _alphabet: tuple[int, ...] | None = None  # finite digit set, if declared
    _unrestricted = False  # admits every word

    def __init__(self, classify: Callable[[DigitWord], bool], description: str):
        self.classify = classify
        self.description = description

    def __call__(self, word: DigitWord) -> bool:
        return self.classify(word)

    def __repr__(self):
        return f"DigitPredicate({self.description})"

    def _admits(self, child: DigitWord) -> bool:
        """Is child compatible, given that child[:-1] is?"""
        return self.classify(child)


class _LocalPredicate(DigitPredicate):
    """A predicate stated as test(prev, c, n) on each digit c, its
    predecessor prev (None for the first digit) and its 1-based position n.
    A word is compatible when every digit passes, so the predicate is
    hereditary by construction and the enumerator tests one digit per child.
    """

    def __init__(self, test, description, alphabet=None, unrestricted=False):
        super().__init__(self._classify, description)
        self._test, self._alphabet, self._unrestricted = test, alphabet, unrestricted

    def _classify(self, word: DigitWord) -> bool:
        padded = (None, *word)  # padded[n - 1] precedes the n-th digit
        return all(self._test(padded[n - 1], c, n) for n, c in enumerate(padded[1:], 1))

    def _admits(self, child: DigitWord) -> bool:
        n = len(child)
        return self._test(child[-2] if n > 1 else None, child[-1], n)


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

    def test(prev, c, n):
        return prev is None or c <= k * prev

    return _LocalPredicate(test, f"ratio<={k}")


def growth_floor(psi: Callable[[int], ExactQ]) -> DigitPredicate:
    """Digit at 1-based position n at least psi(n), for all n."""
    return _LocalPredicate(lambda prev, c, n: c >= psi(n), "growth-floor")


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


def _bases_with_diameters(
    rule: DigitRule,
    predicate: DigitPredicate,
    rank: int,
    digit_cap: int,
) -> Iterator[tuple[DigitWord, int, int]]:
    """enumerate_compatible_bases, each word with its cylinder diameter.

    The diameter r_0...r_{k-1} / prod (c_i - 1)c_i is the same for both
    signs.  It is carried down the tree as an unreduced pair: a child's
    numerator is its parent's times r, its denominator its parent's times
    (c-1)c.  Each base yields (word, num, den); the caller reduces it.
    """
    if rank < 1:
        raise DomainError("rank must be >= 1")
    if digit_cap < rule.phi0 + 1:
        raise DomainError(f"digit_cap must be >= {rule.phi0 + 1}")
    alphabet, admits = predicate._alphabet, predicate._admits
    warned = [False]

    def warn_once():
        if not warned[0]:
            warned[0] = True
            warnings.warn(
                f"digit_cap {digit_cap} excludes all digits at some position",
                CapTooSmallWarning,
                stacklevel=3,
            )

    def descend(
        word: DigitWord, r: int, num: int, den: int
    ) -> Iterator[tuple[DigitWord, int, int]]:
        lo = r + 1
        if alphabet is None:
            candidates = range(lo, digit_cap + 1)
        else:
            candidates = [c for c in alphabet if lo <= c <= digit_cap]
        if not candidates and (alphabet is None or alphabet[-1] >= lo):
            warn_once()
        num_child = num * r
        for c in candidates:
            child = word + (c,)
            if not admits(child):
                continue
            r_child = _step_r(rule, child, len(child))
            if r_child < 1:
                continue  # digit admissible but rule value degenerates: prune
            den_child = den * (c - 1) * c
            if len(child) == rank:
                yield child, num_child, den_child
            else:
                yield from descend(child, r_child, num_child, den_child)

    yield from descend((), _positive_r(rule.phi0, 0), 1, 1)


def enumerate_compatible_bases(
    rule: DigitRule,
    predicate: DigitPredicate,
    rank: int,
    digit_cap: int,
) -> Iterator[DigitWord]:
    """All valid rank-`rank` words with digits <= digit_cap passing the predicate.

    Deterministic lexicographic order.  Warns CapTooSmallWarning (once) when
    the cap cuts off every admissible digit at some position, i.e. when a
    compatible prefix has no rule-admissible child <= digit_cap although
    admissible children exist beyond it.
    """
    for word, _, _ in _bases_with_diameters(rule, predicate, rank, digit_cap):
        yield word


@dataclass(frozen=True)
class DimensionEstimate:
    """Pressure-equation root at a given rank and digit cap.

    residual is |sum |cylinder|**s - 1| at the returned s; it is <= the
    requested tolerance whenever at least one base exists (for an empty base
    set s = 0 is reported by convention and the residual is the honest 1.0).
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

    Diameters come from the enumeration itself: each base's exact diameter
    r_0...r_{k-1} / prod (c_i - 1)c_i is carried down the tree and reduced
    once.  That diameter does not depend on the sign (the equal-diameter
    law), so the positive and alternating estimates agree bit for bit.
    tol must be finite and positive; if the bisection runs out before
    |sum - 1| <= tol (a tol below float resolution), DomainError names the
    best residual it reached.
    """
    if not 0 < tol < math.inf:
        raise DomainError("tol must be finite and positive")
    logs = []
    for _, num, den in _bases_with_diameters(rule, predicate, rank, digit_cap):
        d = Fraction(num, den)
        logs.append(math.log(d.numerator) - math.log(d.denominator))
    if not logs:
        return DimensionEstimate(rank, digit_cap, 0.0, 1.0, 0)

    def f(s: float) -> float:
        return math.fsum(math.exp(s * ld) for ld in logs) - 1.0

    lo, hi = 0.0, 1.5
    f_lo = f(lo)
    if abs(f_lo) <= tol:
        return DimensionEstimate(rank, digit_cap, 0.0, abs(f_lo), len(logs))
    if f_lo < 0:  # cannot happen: f(0) = bases_count - 1 >= 0
        raise DomainError("pressure sum below 1 at s = 0")
    best = abs(f_lo)
    for _ in range(_MAX_BISECT):
        mid = (lo + hi) / 2
        fm = f(mid)
        if abs(fm) <= tol:
            return DimensionEstimate(rank, digit_cap, mid, abs(fm), len(logs))
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
    (so the root lies in the bracket).
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

    if abs(f(0.0)) <= tol:
        return 0.0
    if abs(f(1.0)) <= tol:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(_MAX_BISECT):
        mid = (lo + hi) / 2
        fm = f(mid)
        if abs(fm) <= tol:
            return mid
        if fm > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


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
    compatible word cover at most their parent).  Each diameter is
    accumulated along the enumeration rather than read off a cylinder; it
    is the same for both signs.
    """
    if rank < 1:
        raise DomainError("rank must be >= 1")
    if digit_cap is None:
        if not predicate._unrestricted:
            raise DomainError("digit_cap required for restricted predicates")
        return Fraction(1)
    total = Fraction(0)
    for _, num, den in _bases_with_diameters(rule, predicate, rank, digit_cap):
        total += Fraction(num, den)
    return total
