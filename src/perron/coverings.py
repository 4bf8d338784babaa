"""Faithful covering families built from unions of consecutive cylinders.

A FamilySet denotes a union of consecutive same-rank cylinders inside one
parent cylinder: prefix + digit range [start, end] (end None = unbounded).
These unions form the covering family the estimators rely on; the operations
here construct covers with certified cardinality/diameter bounds:

  * cover_boundary — cover the piece of a cylinder on one side of a cut,
    either "tight" (<= 2 sets, each of diameter <= the piece width) or
    "single" (1 set of diameter <= 2x the piece width);
  * cover_interval — cover any admissible interval by at most 3 family sets,
    each of diameter <= the interval's;
  * split_to_finite — replace an unbounded set by a stream of bounded blocks
    whose alpha-cost stays below (1+eps) times the original's;
  * verify_cover — exact coverage / diameter / cost oracle.

Geometry used throughout: inside any rank-k cylinder, rescale by the affine
description (off, sc) so the children always look "descending": child digit c
occupies the relative interval (r/c, r/(c-1)], the first child (digit r+1)
sits at the top, and children accumulate toward relative 0.  The alternating
form's rank-parity orientation flip is entirely absorbed by the sign of sc,
so one relative-frame case analysis serves both signs and every parity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .core import (
    DigitRule,
    DigitWord,
    ExactQ,
    ISPoint,
    Sign,
    _Frame,
    alternating_digits,
)
from .errors import DomainError, ValidityError

__all__ = [
    "FamilySet",
    "QInterval",
    "BoundaryCover",
    "CoverReport",
    "family_set_hull",
    "cover_boundary",
    "cover_interval",
    "split_to_finite",
    "split_parameters",
    "verify_cover",
]


@dataclass(frozen=True)
class FamilySet:
    """Union of consecutive child cylinders of one parent.

    Denotes union over i in [start, end] of the cylinders prefix+(i,);
    end None means unbounded (all digits >= start), in which case
    start == r+1 makes the set the whole parent cylinder.
    """

    sign: Sign
    prefix: DigitWord
    start: int
    end: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))


def _validate_family_set(rule: DigitRule, fs: FamilySet) -> _Frame:
    """Check fs against the rule; return the frame of its prefix."""
    frame = _Frame.walk(rule, fs.sign, fs.prefix)
    if fs.start < frame.r + 1:
        raise ValidityError(
            f"start {fs.start} below first admissible digit {frame.r + 1}", index=None
        )
    if fs.end is not None and fs.end < fs.start:
        raise ValidityError(f"end {fs.end} below start {fs.start}", index=None)
    return frame


@dataclass(frozen=True)
class QInterval:
    """A nonempty exact interval with endpoint-inclusion flags."""

    lo: ExactQ
    hi: ExactQ
    lo_included: bool = False
    hi_included: bool = True

    def __post_init__(self):
        object.__setattr__(self, "lo", Fraction(self.lo))
        object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo >= self.hi:
            raise DomainError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def diameter(self) -> ExactQ:
        return self.hi - self.lo


def family_set_hull(rule: DigitRule, fs: FamilySet) -> QInterval:
    """Exact interval hull of a family set.

    With prefix affine data (off, sc, r): the member cylinders tile the
    relative interval (r/end, r/(start-1)] (limit 0 when unbounded), so the
    hull diameter telescopes to |sc| * r * (1/(start-1) - 1/end).  Positive
    hulls are half-open (lo, hi]; alternating hulls are open.
    """
    frame = _validate_family_set(rule, fs)
    top = Fraction(frame.r, fs.start - 1)
    bot = Fraction(0) if fs.end is None else Fraction(frame.r, fs.end)
    a = frame.off + frame.sc * bot
    b = frame.off + frame.sc * top
    lo, hi = (a, b) if a < b else (b, a)
    if fs.sign is Sign.POSITIVE:
        return QInterval(lo, hi, False, True)
    return QInterval(lo, hi, False, False)


# ---------------------------------------------------------------------------
# Boundary covers (one-sided pieces of a cylinder)
# ---------------------------------------------------------------------------

FROM_INF = "from-inf"
TO_SUP = "to-sup"


@dataclass(frozen=True)
class BoundaryCover:
    """Both guaranteed variants for a one-sided piece of width w:

    tight: 1-2 sets, each of diameter <= w;
    single: exactly 1 set of diameter <= 2w.
    When the cut lands exactly on a cylinder junction both variants coincide
    in a single exact set.
    """

    tight: tuple[FamilySet, ...]
    single: FamilySet


def _child_ceil(r: int, t: Fraction) -> tuple[int, bool]:
    """Child whose closure contains t from below: c with r/c <= t < r/(c-1).

    Returns (c, exact) where exact means t == r/c (t is child c's relative
    infimum, a junction).
    """
    num, den = t.numerator, t.denominator
    q, rem = divmod(r * den, num)
    if rem == 0:
        return q, True
    return q + 1, False


def _child_floor(r: int, t: Fraction) -> tuple[int, bool]:
    """Child containing t from above: c with r/c < t <= r/(c-1).

    Returns (c, exact) where exact means t == r/(c-1) (t is child c's
    relative supremum, a junction).
    """
    num, den = t.numerator, t.denominator
    q, rem = divmod(r * den, num)
    if rem == 0:
        return q + 1, True
    return q + 1, False


def _solve_low(sign: Sign, prefix: DigitWord, r: int, t: Fraction) -> BoundaryCover:
    """Cover the relative piece (0, t], 0 < t <= 1, of the prefix cylinder.

    Exact junction t = r/m: the single set {m+1..inf} is the piece exactly.
    Interior t in (r/m, r/(m-1)): tight = {m+1..inf} (diameter r/m < t)
    plus the whole child m (diameter below the previous, monotone
    diameters); single = {m..inf} with diameter r/(m-1) <= 2t.
    """
    m, exact = _child_ceil(r, t)
    if exact:
        fs = FamilySet(sign, prefix, m + 1, None)
        return BoundaryCover((fs,), fs)
    tight = (FamilySet(sign, prefix, m + 1, None), FamilySet(sign, prefix, m, m))
    return BoundaryCover(tight, FamilySet(sign, prefix, m, None))


def _solve_high(sign: Sign, prefix: DigitWord, r: int, t: Fraction) -> BoundaryCover:
    """Cover the relative piece (t, 1] of the prefix cylinder, 0 <= t < r/(r+1).

    Caller guarantees the piece is not strictly inside the first child
    (descent handles that).  Exact junction t = r/m: single exact set
    {r+1..m}.  Interior t in child m (m >= r+2 here): tight = whole child m
    plus {r+1..m-1}; single = {r+1..m}.
    """
    if t == 0:
        fs = FamilySet(sign, prefix, r + 1, None)
        return BoundaryCover((fs,), fs)
    m, exact = _child_ceil(r, t)
    if exact:
        fs = FamilySet(sign, prefix, r + 1, m)
        return BoundaryCover((fs,), fs)
    tight = (FamilySet(sign, prefix, m, m), FamilySet(sign, prefix, r + 1, m - 1))
    return BoundaryCover(tight, FamilySet(sign, prefix, r + 1, m))


def cover_boundary(
    rule: DigitRule,
    sign: Sign,
    prefix: Sequence[int],
    cut: ExactQ,
    side: str,
) -> BoundaryCover:
    """Cover the piece of the prefix cylinder on one side of a cut.

    side FROM_INF covers the piece from the cylinder's infimum up to the cut
    (cut in (inf, sup]); side TO_SUP covers from the cut up to the supremum
    (cut in [inf, sup)).  Alternating pieces are covered modulo the countable
    endpoint set, which the family's open cylinders can never contain.

    For the piece on the non-accumulating side, the construction may first
    descend ranks while the piece sits strictly inside the first child; the
    piece width is invariant, the enclosing cylinder shrinks geometrically,
    so the descent terminates.  For the alternating form the layout parity
    alternates, so that descent happens at most once in a row before the
    relative task flips to the accumulating side.
    """
    if side not in (FROM_INF, TO_SUP):
        raise DomainError(f"unknown side {side!r}")
    cut = Fraction(cut)
    frame = _Frame.walk(rule, sign, prefix)
    lo, hi = frame.lo_hi
    if side == FROM_INF:
        if not lo < cut <= hi:
            raise DomainError(f"cut {cut} outside ({lo}, {hi}]")
    else:
        if not lo <= cut < hi:
            raise DomainError(f"cut {cut} outside [{lo}, {hi})")
    return _cover_boundary(frame, cut, side)


def _cover_boundary(frame: _Frame, cut: Fraction, side: str) -> BoundaryCover:
    """cover_boundary on an already validated frame with the cut inside it."""
    while True:
        u = (cut - frame.off) / frame.sc
        if (side == FROM_INF) == (frame.sc > 0):
            return _solve_low(frame.sign, frame.word, frame.r, u)
        if u > Fraction(frame.r, frame.r + 1):
            # piece (u, 1] strictly inside the first child: descend
            frame = frame.child(frame.r + 1)
            continue
        return _solve_high(frame.sign, frame.word, frame.r, u)


# ---------------------------------------------------------------------------
# The three-set interval cover
# ---------------------------------------------------------------------------


def _interval_conventions(sign: Sign, U: QInterval) -> None:
    if sign is Sign.POSITIVE:
        if U.lo_included or not U.hi_included:
            raise DomainError("positive intervals must be half-open (lo, hi]")
        if not (0 <= U.lo and U.hi <= 1):
            raise DomainError(f"interval {U} not inside (0, 1]")
    else:
        if U.lo_included or U.hi_included:
            raise DomainError("alternating intervals must be open (lo, hi)")
        if not (0 <= U.lo and U.hi <= 1):
            raise DomainError(f"interval {U} not inside (0, 1)")


def cover_interval(rule: DigitRule, sign: Sign, U: QInterval) -> list[FamilySet]:
    """Cover U by at most three family sets, each of diameter <= |U| exactly.

    Positive U is half-open (x1, x2]; alternating U is open and covered
    modulo the countable endpoint set.  The construction descends to the
    first rank where the two endpoints fall into different children (junction
    endpoints resolve toward the target's interior), then splits into the
    piece inside each endpoint's child plus the middle block between them.
    Which child gets the x1 piece depends on the relative orientation, so the
    case analysis below runs in the relative frame:

      * middle block wide (>= |U|/2): both pieces are narrow (<= |U|/2), so
        their "single" boundary covers (<= 2x piece) fit; 3 sets;
      * middle block narrow: merge it with the larger-digit child (whose
        diameter is below the middle's, by monotone diameters) into one set
        <= |U|, and cover the other piece tightly; <= 3 sets;
      * adjacent children (no middle): balance by whichever piece is wide,
        covering it tightly and the other one singly.
    """
    _interval_conventions(sign, U)
    x1, x2 = U.lo, U.hi
    W = x2 - x1
    frame = _Frame.walk(rule, sign, ())

    while True:
        off, sc, r = frame.off, frame.sc, frame.r
        u1 = (x1 - off) / sc
        u2 = (x2 - off) / sc
        t_lo, t_hi = (u1, u2) if u1 < u2 else (u2, u1)
        if t_lo == 0 and t_hi == 1:
            return [FamilySet(sign, frame.word, r + 1, None)]
        if t_lo == 0:
            side = FROM_INF if sc > 0 else TO_SUP
            cut = x2 if sc > 0 else x1
            return list(_cover_boundary(frame, cut, side).tight)
        if t_hi == 1:
            side = TO_SUP if sc > 0 else FROM_INF
            cut = x1 if sc > 0 else x2
            return list(_cover_boundary(frame, cut, side).tight)
        d_lo, lo_exact = _child_ceil(r, t_lo)
        d_hi, hi_exact = _child_floor(r, t_hi)
        if d_lo == d_hi:
            frame = frame.child(d_lo)
            continue
        break

    prefix = frame.word

    # d_lo > d_hi: the lower relative endpoint lies in the larger-digit child.
    scale = abs(sc)
    # piece widths and middle-block hull, all absolute
    w_lo = (Fraction(r, d_lo - 1) - t_lo) * scale
    w_hi = (t_hi - Fraction(r, d_hi)) * scale
    mid_w = (Fraction(r, d_hi) - Fraction(r, d_lo - 1)) * scale  # 0 iff adjacent

    # boundary subtasks, in absolute terms (orientation decides which
    # endpoint is interior to which child)
    if sc > 0:
        lo_side, lo_cut = TO_SUP, x1  # piece inside child d_lo
        hi_side, hi_cut = FROM_INF, x2  # piece inside child d_hi
    else:
        lo_side, lo_cut = FROM_INF, x2
        hi_side, hi_cut = TO_SUP, x1

    def lo_cover() -> BoundaryCover:
        return _cover_boundary(frame.child(d_lo), lo_cut, lo_side)

    def hi_cover() -> BoundaryCover:
        return _cover_boundary(frame.child(d_hi), hi_cut, hi_side)

    # junction endpoints: the exact side's child joins the block between
    # (digits d_hi+1 .. d_lo-1, empty when the children are adjacent)
    if lo_exact and hi_exact:
        return [FamilySet(sign, prefix, d_hi, d_lo)]
    if lo_exact:
        return [FamilySet(sign, prefix, d_hi + 1, d_lo), *hi_cover().tight]
    if hi_exact:
        return [*lo_cover().tight, FamilySet(sign, prefix, d_hi, d_lo - 1)]

    if d_lo == d_hi + 1:
        # adjacent children, no middle block
        if 2 * w_lo >= W:
            return [*lo_cover().tight, hi_cover().single]
        return [lo_cover().single, *hi_cover().tight]

    # middle block present: digits d_hi+1 .. d_lo-1
    if 2 * mid_w >= W:
        return [
            lo_cover().single,
            FamilySet(sign, prefix, d_hi + 1, d_lo - 1),
            hi_cover().single,
        ]
    # narrow middle: its diameter bounds the larger-digit child's (monotone
    # diameters), so block + that child merge into one set of diameter
    # < 2*mid_w <= W
    return [FamilySet(sign, prefix, d_hi + 1, d_lo), *hi_cover().tight]


# ---------------------------------------------------------------------------
# Splitting an unbounded set into bounded blocks
# ---------------------------------------------------------------------------


def split_to_finite(
    rule: DigitRule, fs: FamilySet, alpha: float, eps: float
) -> Iterator[FamilySet]:
    """Stream bounded blocks M_j exhausting an unbounded family set.

    Picks the minimal integer s >= 2 with s**alpha > 1 + 1/eps (so the
    geometric tail sum_j s**(-j*alpha) stays below eps), then cuts at
    t_1 = start, t_{j+1} = (s+1)(t_j - 1) + 2: the minimal digit whose
    unbounded-tail diameter drops strictly below 1/(s+1) of the previous
    one.  Block j is digits [t_j, t_{j+1}-1].

    Consequences (all exact in the diameters): blocks are disjoint,
    consecutive, exhaust fs, and |M_j| < |fs| / (s+1)**(j-1), so for every J

        sum_{j<=J} |M_j|**alpha  +  D(t_{J+1})**alpha / (1 - (s+1)**(-alpha))
            <  (1 + eps) * |fs|**alpha,

    where D(t) is the tail diameter from digit t on.  Callers evaluate the
    costs in floating point; far down the stream the diameters drop below
    the double-precision underflow threshold and such terms contribute 0.0.
    """
    s = split_parameters(alpha, eps)
    if fs.end is not None:
        raise DomainError("split_to_finite needs an unbounded family set")
    _validate_family_set(rule, fs)

    t = fs.start
    while True:
        t_next = (s + 1) * (t - 1) + 2
        yield FamilySet(fs.sign, fs.prefix, t, t_next - 1)
        t = t_next


def split_parameters(alpha: float, eps: float) -> int:
    """The geometric ratio s chosen by split_to_finite (exposed for checks).

    The minimal integer s >= 2 passing the float test s**alpha > 1 + 1/eps:
    the closed-form guess floor((1 + 1/eps)**(1/alpha)) is moved by single
    steps until s passes the test and s - 1 (when >= 2) does not.  A guess
    beyond 2**53, where consecutive integers stop being distinct floats, is a
    DomainError.
    """
    if not (alpha > 0 and eps > 0):
        raise DomainError("alpha and eps must be positive")
    bound = 1 + 1 / eps
    try:
        s = max(2, int(bound ** (1 / alpha)))
    except OverflowError:  # the guess is beyond float range
        s = 2**53
    if s >= 2**53:
        raise DomainError(f"split ratio for alpha={alpha}, eps={eps} exceeds 2**53")
    while s**alpha <= bound:
        s += 1
    while s > 2 and (s - 1) ** alpha > bound:
        s -= 1
    return s


# ---------------------------------------------------------------------------
# Verification oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverReport:
    covers: bool
    max_diameter: ExactQ
    cost: float


def _is_alt_endpoint(rule: DigitRule, x: Fraction, depth: int) -> bool:
    """Exact membership test for alternating cylinder endpoints of rank <= depth."""
    if x <= 0 or x >= 1:
        return True  # 0/1 bound the space; treat as exempt
    probe = alternating_digits(rule, x, depth)
    return isinstance(probe, ISPoint)


def verify_cover(
    rule: DigitRule,
    U: QInterval,
    sets: Sequence[FamilySet],
    alpha: float,
) -> CoverReport:
    """Exact coverage check plus diameter/cost report.

    Coverage is a sweep over the exact hulls.  Positive targets (x1, x2] are
    covered iff the half-open hulls chain across them.  Alternating targets
    are open intervals covered modulo endpoint-set points: the sweep may
    cross a stall point only when alternating_digits certifies it as such.
    Cost is sum |hull|**alpha in floating point (math.fsum of exact-diameter
    floats); coverage and diameters are exact.
    """
    hulls = []
    max_d = Fraction(0)
    sign = None
    # hull endpoints are cylinder endpoints of rank <= len(prefix) + 1, so
    # an endpoint probe terminates within this many digits
    depth = 0
    for fs in sets:
        h = family_set_hull(rule, fs)
        hulls.append(h)
        if h.diameter > max_d:
            max_d = h.diameter
        sign = fs.sign
        depth = max(depth, len(fs.prefix) + 2)
    cost = math.fsum(float(h.diameter) ** alpha for h in hulls)
    if not hulls:
        return CoverReport(False, Fraction(0), 0.0)

    hulls.sort(key=lambda h: (h.lo, h.hi))
    alternating = sign is Sign.ALTERNATING
    reach = U.lo
    while reach < U.hi:
        best = None
        for h in hulls:
            if h.hi <= reach:
                continue
            if h.lo < reach or (h.lo == reach and (not alternating or reach == U.lo)):
                if best is None or h.hi > best:
                    best = h.hi
        if best is None and alternating:
            # allow crossing a stall point that no open hull can contain,
            # provided it is a certified endpoint-set point
            if _is_alt_endpoint(rule, reach, depth) and any(h.lo == reach for h in hulls):
                best = max(h.hi for h in hulls if h.lo == reach)
        if best is None or best <= reach:
            return CoverReport(False, max_d, cost)
        reach = best
    return CoverReport(True, max_d, cost)
