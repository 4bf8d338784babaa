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
A one-sided piece of a cylinder is named in that frame too: low (0, u], on
the side the children accumulate toward, or high (u, 1], on the first
child's side; only the public cover_boundary reads an absolute side
(FROM_INF, TO_SUP) and turns it into a relative one.
Relative positions are unreduced integer pairs, so the descent compares by
cross-multiplication, and the piece widths that choose between covers are
compared on integers too (below).  The descent runs on the remainder step
of digit extraction: each endpoint is mapped into the starting cylinder's
frame once (at the root, a point is its own relative pair; a cut under a
prefix goes through core._Frame.relative).  A level of cover_interval's
descent costs one divmod, a few products and two calls of core._tail, the
one statement of the tail formula, and no other call under a built-in
rule: the divmod gives the low end's child d and its remainder, one
product r*hd - (d-1)*hn gives the high end's remainder at the same
quotient, which is not negative iff the high end lies in child d too, and
each end's position in child d is core._tail of its remainder.  The
descent tracks only the word (a list, made a tuple once), r and the two
positions, with no affine frame: a digit so made is at least r + 1, so a
built-in rule steps r inline to a*c + b and only a custom rule or a value
below 1 goes to the checked step (core._next_r), and an alternating digit
swaps the low and high ends.
A one-sided piece is read once, by _boundary_read: a high piece descends
through the first child on core's own steps, one core._child read and one
core._next_r step per level (a piece is read a few times per op, so only
cover_interval's descent takes the step inline), and the read gives the
child that holds the cut and makes no set.  _tight and _single make the
piece's two variants from the read: cover_interval makes only the variant
it returns, so it makes exactly the sets it returns, and the public
cover_boundary makes both.
The piece widths are compared with |U| in the relative frame, where |U| is
the distance between the two positions: the cylinder diameter |sc| scales
both sides alike, so it is never formed.  The comparisons are on integers:
each end is reduced once by its gcd (the descent's pairs can carry common
factors of thousands of bits, and reduce to a few), and each test
2*width >= |U| is multiplied through by its positive denominators.
verify_cover works in one frame too, that of the sets' longest common
prefix: the hull ends and widths are unreduced integer pairs in its tail
coordinates, compared by cross-multiplication, as are U's ends, and the
one Fraction formed is the widest diameter, at full scale.
A FamilySet checks what holds under every rule when it is made: a Sign,
plain int digits and ends, end >= start.  It has one constructor, so every
set, a boundary cover's and a split block included, is checked and laid
out by the same code.  What depends on the rule (each digit against its r,
start >= r + 1) is checked where a set is read, by core._Frame.extend and
core._Frame.hull, in the prefix's whole word.
"""

from __future__ import annotations

import bisect
import functools
import math
import os
from fractions import Fraction
from typing import Iterator, Sequence

from . import _LAZY
from .core import (
    DigitRule,
    DigitWord,
    ExactQ,
    Sign,
    _check_sign,
    _child,
    _Frame,
    _next_r,
    _POSITIVE,
    _ratio_power,
    _rational,
    _Record,
    _shown,
    _tail,
)
from .errors import DomainError, ValidityError

__all__ = _LAZY["coverings"]  # declared once, in the package


class FamilySet(_Record):
    """Union of consecutive child cylinders of one parent.

    Denotes union over i in [start, end] of the cylinders prefix+(i,);
    end None means unbounded (all digits >= start), in which case
    start == r+1 makes the set the whole parent cylinder.

    A set checks, when it is made, what holds under every rule: sign is a
    Sign member (DomainError otherwise), every prefix digit, start, and an
    end that is not None are plain ints (type int, so neither 3.0 nor
    True), and end >= start; any other failure is a ValidityError, whose
    index names a failing prefix digit (1-based).  So tuple equality and
    hashing of prefixes compare checked ints.  What depends on the rule,
    each digit against its r and start >= r + 1, is checked where a set is
    read (family_set_hull, verify_cover).  This is the one constructor:
    the sets that cover_boundary, cover_interval and split_to_finite make
    are checked by it too.
    """

    sign: Sign
    prefix: DigitWord
    start: int
    end: int | None

    def __init__(self, sign: Sign, prefix: Sequence[int], start: int, end: int | None = None):
        prefix = tuple(prefix)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        _check_sign(sign)
        for i, c in enumerate(prefix, 1):
            if type(c) is not int:
                raise ValidityError(
                    f"digit {_shown(c, repr)} at position {i} is not an integer", index=i)
        if type(start) is not int or end is not None and type(end) is not int:
            raise ValidityError(
                f"start {_shown(start, repr)} or end {_shown(end, repr)} is not an integer")
        if end is not None and end < start:
            raise ValidityError(f"end {_shown(end)} below start {_shown(start)}", index=None)


class QInterval(_Record):
    """A nonempty exact interval with endpoint-inclusion flags."""

    lo: ExactQ
    hi: ExactQ
    lo_included: bool
    hi_included: bool

    def __init__(self, lo: ExactQ, hi: ExactQ, lo_included: bool = False,
                 hi_included: bool = True):
        lo, hi = _rational("lo", lo), _rational("hi", hi)
        if lo >= hi:
            raise DomainError(f"empty interval [{_shown(lo)}, {_shown(hi)}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_included", lo_included)
        object.__setattr__(self, "hi_included", hi_included)

    @property
    def diameter(self) -> ExactQ:
        return self.hi - self.lo


def family_set_hull(rule: DigitRule, fs: FamilySet) -> QInterval:
    """Exact interval hull of a family set.

    With prefix affine data (off, sc, r): the member cylinders tile the
    relative interval (r/end, r/(start-1)] (limit 0 when unbounded), so the
    hull diameter telescopes to |sc| * r * (1/(start-1) - 1/end).  The ends
    are read by the prefix frame's hull(start, end), the same read that
    gives a cylinder (its whole child range, start = r+1), and so is the
    ValidityError for a range that r does not admit.  Positive hulls are
    half-open (lo, hi]; alternating hulls are open.
    """
    lo, hi = _Frame.walk(rule, fs.sign, fs.prefix).hull(fs.start, fs.end)
    return QInterval(Fraction(*lo), Fraction(*hi), False, fs.sign is Sign.POSITIVE)


# ---------------------------------------------------------------------------
# Boundary covers (one-sided pieces of a cylinder)
# ---------------------------------------------------------------------------

FROM_INF = "from-inf"
TO_SUP = "to-sup"


class BoundaryCover(_Record):
    """Both guaranteed variants for a one-sided piece of width w:

    tight: 1-2 sets, each of diameter <= w;
    single: exactly 1 set of diameter <= 2w.
    When the cut lands exactly on a cylinder junction both variants coincide
    in a single exact set.
    """

    tight: tuple[FamilySet, ...]
    single: FamilySet

    def __init__(self, tight: tuple[FamilySet, ...], single: FamilySet):
        object.__setattr__(self, "tight", tight)
        object.__setattr__(self, "single", single)


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

    The side and the cylinder's orientation make the piece a relative low
    piece (0, u] or high piece (u, 1] (module docstring).  A high piece may
    first descend ranks while it sits strictly inside the first child; the
    piece width is invariant, the enclosing cylinder shrinks geometrically,
    so the descent terminates.  An alternating child flips orientation, so
    there one descent turns the high piece into a low one.
    """
    if side not in (FROM_INF, TO_SUP):
        raise DomainError(f"unknown side {side!r}")
    cut = _rational("cut", cut)
    frame = _Frame.walk(rule, sign, prefix)
    low = (side == FROM_INF) == (frame.sc_num > 0)
    u = frame.relative(cut)
    if not (0 < u[0] <= u[1] if low else 0 <= u[0] < u[1]):
        lo, hi = (_shown(Fraction(*end)) for end in frame.hull(frame.r + 1))
        span = f"({lo}, {hi}]" if side == FROM_INF else f"[{lo}, {hi})"
        raise DomainError(f"cut {_shown(cut)} outside {span}")
    read = _boundary_read(rule, sign, list(frame.word), frame.r, u, low)
    return BoundaryCover(_tight(sign, *read), _single(sign, *read))


def _boundary_read(
    rule: DigitRule, sign: Sign, word: list[int], r: int, u: tuple[int, int], low: bool
) -> tuple[DigitWord, int, int, bool, bool]:
    """Where the relative piece (0, u] (low) or (u, 1] (high) of word's
    cylinder is cut: (word, r, c, exact, low) at the end of the descent,
    which _tight and _single make into sets.

    word is a list, which the descent below extends in place, r is the
    rule value after word, and u is an integer pair with 0 < u <= 1 for a
    low piece and 0 <= u < 1 for a high one.  A high piece from u = 0 is
    the whole cylinder, {r+1..inf}, and reads no child: it is returned as
    the low piece (0, 1], whose cut is the exact junction r/r of child
    c = r+1.  Otherwise each level is one core._child read, of u's child
    c, its junction flag and u's position in it: while the piece is high
    and c is the first child r+1, the descent appends c, takes that
    position as u, steps r with core._next_r (the one raiser of rule
    errors) and, after an alternating child, which flips, makes the piece
    low.  The last read gives c, the child whose relative interval
    (r/c, r/(c-1)] holds u, and exact, whether u = r/(c-1).

    The read makes no set, so a caller makes only the variant it takes:
    cover_interval one of the two, the public cover_boundary both.
    """
    if not u[0]:  # a high piece from 0: the whole cylinder
        return tuple(word), r, r + 1, True, True
    c, exact, y = _child(sign, r, *u)
    while not low and c == r + 1:
        word.append(c)
        r = _next_r(rule, r, word, len(word))
        low = sign is not _POSITIVE
        c, exact, y = _child(sign, r, *y)
    return tuple(word), r, c, exact, low


def _tight(
    sign: Sign, word: DigitWord, r: int, c: int, exact: bool, low: bool
) -> tuple[FamilySet, ...]:
    """The tight variant of a boundary read: 1-2 sets, each of diameter at
    most the piece width.

      * low, u interior: {c+1..inf} (diameter r/c < u) plus the whole
        child c (diameter below the previous, monotone diameters);
      * high, u interior (c >= r+2 after the descent): the whole child c
        plus {r+1..c-1};
      * u = r/(c-1), an exact junction: the one set _single makes, which
        is the piece exactly.
    """
    if exact:
        return (_single(sign, word, r, c, exact, low),)
    if low:
        return FamilySet(sign, word, c + 1, None), FamilySet(sign, word, c, c)
    return FamilySet(sign, word, c, c), FamilySet(sign, word, r + 1, c - 1)


def _single(sign: Sign, word: DigitWord, r: int, c: int, exact: bool, low: bool) -> FamilySet:
    """The single variant of a boundary read: one set of diameter at most
    twice the piece width, {c..inf} (low, diameter r/(c-1) < 2u) or
    {r+1..c} (high); at an exact junction the piece itself, the low
    {c..inf} or the high {r+1..c-1}."""
    return FamilySet(sign, word, c, None) if low else FamilySet(sign, word, r + 1, c - exact)


# ---------------------------------------------------------------------------
# The three-set interval cover
# ---------------------------------------------------------------------------


def _interval_conventions(sign: Sign, U: QInterval) -> None:
    """DomainError unless sign is a Sign member and U is (lo, hi] (positive)
    or (lo, hi) (alternating) in [0, 1]."""
    _check_sign(sign)
    positive = sign is Sign.POSITIVE
    form, space = ("half-open (lo, hi]", "(0, 1]") if positive else ("open (lo, hi)", "(0, 1)")
    if U.lo_included or U.hi_included != positive:
        raise DomainError(f"{sign.name.lower()} intervals must be {form}")
    if U.lo.numerator < 0 or U.hi.numerator > U.hi.denominator:  # 0 <= lo, hi <= 1
        raise DomainError(f"interval ({_shown(U.lo)}, {_shown(U.hi)}{space[-1]} not inside {space}")


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
    # the root frame is the identity for both signs, so U's ends are their
    # own relative pairs, the low end (ln, ld) and the high end (hn, hd);
    # each level steps both into the common child, which swaps them when
    # alternating
    prefix, r = [], rule.phi0
    builtin, ra, rb = rule.fn is None, rule.a, rule.b
    ln, ld, hn, hd = U.lo.numerator, U.lo.denominator, U.hi.numerator, U.hi.denominator
    positive = sign is Sign.POSITIVE
    while ln and hn != hd:
        # the low end's child d = q + 1 from q, rem = divmod(r*ld, ln); a
        # junction (rem 0) resolves toward U's interior, into child q, as
        # the remainder ln at quotient q - 1
        rld, rhd = r * ld, r * hd
        q, rem = divmod(rld, ln)
        if not rem:
            q, rem = q - 1, ln
        # the high end's remainder at the same quotient: it lies in child d
        # iff that is not negative (it lies above the low end, so it is
        # below hn)
        m = rhd - q * hn
        if m < 0:
            break
        d = q + 1
        (ln, ld), (hn, hd) = _tail(positive, d, rem, rld), _tail(positive, d, m, rhd)
        if not positive:
            ln, ld, hn, hd = hn, hd, ln, ld
        prefix.append(d)  # d >= r + 1, since the low end lies below 1
        r_next = ra * d + rb if builtin else 0
        r = r_next if r_next >= 1 else _next_r(rule, r, prefix, len(prefix))
    if not ln:
        return list(_tight(sign, *_boundary_read(rule, sign, prefix, r, (hn, hd), True)))
    if hn == hd:
        return list(_tight(sign, *_boundary_read(rule, sign, prefix, r, (ln, ld), False)))
    prefix = tuple(prefix)

    # d_lo > d_hi: the lower relative endpoint lies in the larger-digit child.
    # Its piece lies above it, the other piece below the upper endpoint; a
    # positive child keeps that relative side, an alternating one flips it.
    # y_lo and y_hi are the ends' positions in children d_lo and d_hi (the
    # low end's piece is covered only when it is no junction)
    d_lo, lo_exact = q + 1, rem == ln
    y_lo = _tail(positive, d_lo, rem, rld)
    d_hi, hi_exact, y_hi = _child(sign, r, hn, hd)

    def read(d: int, y: tuple[int, int], low: bool) -> tuple:
        """The boundary read of y's piece of child d (the descent's step)."""
        word = [*prefix, d]
        return _boundary_read(rule, sign, word, _next_r(rule, r, word, len(word)), y, low)

    # junction endpoints: each exact side's whole child joins the block
    # between (digits d_hi+1 .. d_lo-1, empty when the children are
    # adjacent), and the other side's piece is covered tightly
    if lo_exact or hi_exact:
        before = () if lo_exact else _tight(sign, *read(d_lo, y_lo, not positive))
        after = () if hi_exact else _tight(sign, *read(d_hi, y_hi, positive))
        return [*before, FamilySet(sign, prefix, d_hi + 1 - hi_exact, d_lo - 1 + lo_exact), *after]

    # the widths of the d_lo piece and of the middle block, against |U|,
    # decide which pieces are covered tightly.  All three are compared in
    # the relative frame (|sc| > 0 scales them alike), on integers: with
    # the ends reduced once, lo = ln/ld and hi = hn/hd, |U| = hi - lo, and
    # each test below is 2*width >= |U| times its positive denominators
    g, h = math.gcd(ln, ld), math.gcd(hn, hd)
    ln, ld, hn, hd = ln // g, ld // g, hn // h, hd // h
    if d_lo == d_hi + 1:
        # adjacent children, no middle block: the d_lo piece is
        # r/(d_lo-1) - lo, so the test is 2r/(d_lo-1) >= hi + lo
        if 2 * r * ld * hd >= (d_lo - 1) * (hn * ld + ln * hd):
            return [*_tight(sign, *read(d_lo, y_lo, not positive)),
                    _single(sign, *read(d_hi, y_hi, positive))]
        return [_single(sign, *read(d_lo, y_lo, not positive)),
                *_tight(sign, *read(d_hi, y_hi, positive))]

    # middle block present: digits d_hi+1 .. d_lo-1, of width
    # r/d_hi - r/(d_lo-1) = r*(d_lo-1-d_hi) / (d_hi*(d_lo-1))
    if 2 * r * (d_lo - 1 - d_hi) * ld * hd >= (hn * ld - ln * hd) * d_hi * (d_lo - 1):
        return [
            _single(sign, *read(d_lo, y_lo, not positive)),
            FamilySet(sign, prefix, d_hi + 1, d_lo - 1),
            _single(sign, *read(d_hi, y_hi, positive)),
        ]
    # narrow middle: its diameter bounds the larger-digit child's (monotone
    # diameters), so block + that child merge into one set of diameter
    # below twice the block's, which is below |U|
    return [FamilySet(sign, prefix, d_hi + 1, d_lo), *_tight(sign, *read(d_hi, y_hi, positive))]


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
    costs in floating point.  verify_cover forms each term from the exact
    diameter (core._ratio_power), so a term stays representable after the
    diameter's own float has underflowed, and contributes 0.0 only far
    down the stream, where |M_j|**alpha itself is below 2**-1075.
    The arguments are checked when the call is made, before any block is
    asked for; each block is made by the FamilySet constructor, which
    checks fs's sign and prefix again for it.
    """
    s = split_parameters(alpha, eps)
    if fs.end is not None:
        raise DomainError("split_to_finite needs an unbounded family set")
    _Frame.walk(rule, fs.sign, fs.prefix).hull(fs.start)  # checks the prefix and the start

    def blocks() -> Iterator[FamilySet]:
        t = fs.start
        while True:
            t_next = (s + 1) * (t - 1) + 2
            yield FamilySet(fs.sign, fs.prefix, t, t_next - 1)
            t = t_next

    return blocks()


def split_parameters(alpha: float, eps: float) -> int:
    """The geometric ratio s chosen by split_to_finite (exposed for checks).

    The minimal integer s >= 2 passing the float test
    float(s)**alpha > 1 + 1/eps, where a power beyond float range passes a
    finite bound (an integer alpha is tested in floats too, never as an
    exact power).  The test is nondecreasing in s, so one bisection over
    [2, 2**53] (bisect.bisect_left) finds s in 53 tests.  When 2**53, past
    which consecutive integers stop being distinct floats, fails the test,
    the minimal s exceeds it: a DomainError.
    """
    if not (alpha > 0 and eps > 0):
        raise DomainError("alpha and eps must be positive")
    bound = 1 + 1 / eps

    def passes(s: int) -> bool:
        try:
            return float(s) ** alpha > bound
        except OverflowError:  # beyond float range, so above a finite bound
            return bound < math.inf

    s = bisect.bisect_left(range(2**53 + 1), True, lo=2, key=passes)
    if s > 2**53:
        raise DomainError(f"split ratio for alpha={alpha}, eps={eps} exceeds 2**53")
    return s


# ---------------------------------------------------------------------------
# Verification oracle
# ---------------------------------------------------------------------------


class CoverReport(_Record):
    """What verify_cover found: covers, whether the sets cover U;
    max_diameter, the largest exact hull diameter among them (0 for no
    sets); cost, the float sum (math.fsum) of each hull's diameter**alpha,
    each term formed from the exact diameter by core._ratio_power, so a
    term is 0.0 only where the power itself is below the float range."""

    covers: bool
    max_diameter: ExactQ
    cost: float

    def __init__(self, covers: bool, max_diameter: ExactQ, cost: float):
        object.__setattr__(self, "covers", covers)
        object.__setattr__(self, "max_diameter", max_diameter)
        object.__setattr__(self, "cost", cost)


def verify_cover(
    rule: DigitRule,
    U: QInterval,
    sets: Sequence[FamilySet],
    alpha: float,
) -> CoverReport:
    """Exact coverage check plus diameter/cost report.

    The sets must share one sign, alpha must be > 0, and U must follow that
    sign's conventions as in cover_interval: positive targets are half-open
    (x1, x2] inside (0, 1], alternating ones open inside (0, 1)
    (DomainError otherwise).  Everything runs in the frame of the sets'
    longest common prefix P (the root frame when P is empty), found by
    os.path.commonprefix, which compares the prefixes digit by digit: a
    FamilySet holds plain int digits, so equal digits are equal ints.  P's
    affine frame is walked once; each distinct set prefix is framed once
    relative to it, as P's frame with off = 0, sc = 1 and den = 1 extended
    by the prefix's digits beyond P, so every hull end is an unreduced
    integer pair in P's tail coordinates, as _Frame.hull reads it, and no
    end is reduced.  Coverage is one sort of these relative hulls plus one
    greedy pass (_chains_across), which maps U's ends into P's frame once
    as unreduced integer pairs, swapped when P's sc is negative (an
    odd-length alternating P).  Positive targets (x1, x2] are covered iff
    the half-open hulls chain across them.  Alternating targets are open
    intervals covered modulo endpoint-set points, and abutting open hulls
    meet at a cylinder endpoint, so the same pass decides them.  Each
    diameter is |sc| of P times a relative width w = hi - lo, an unreduced
    pair (wn, wd).  Each cost term is core._ratio_power(|sc_num|*wn,
    den*wd, alpha): where the exact diameter's correctly rounded float (int
    true division, whatever common factor the pair holds, as float() of its
    Fraction gives) is a normal double, that float**alpha, and below
    2**-1022, where the float keeps fewer bits or none, exp of alpha times
    the diameter's log, read from a correctly rounded rescaled quotient
    of the same pair, within the relative error _ratio_power states; so
    a term depends on the diameter alone, not on the pair.  math.fsum adds the terms.  The widest w is picked
    by cross-multiplication, and max_diameter is the one Fraction formed.
    Coverage and diameters are exact.
    """
    if not alpha > 0:
        raise DomainError(f"alpha must be positive, got {alpha}")
    sets = list(sets)  # read twice below; an iterator of sets stays accepted
    signs = {fs.sign for fs in sets}
    if len(signs) > 1:
        raise DomainError("the sets of a cover must all have one sign")
    if not sets:
        return CoverReport(False, Fraction(0), 0.0)
    (sign,) = signs
    _interval_conventions(sign, U)
    common = os.path.commonprefix([fs.prefix for fs in sets])
    base = _Frame.walk(rule, sign, common)
    rel = base._replace(off_num=0, sc_num=1, den=1)  # base relative to itself
    frames, spans = {}, []
    for fs in sets:  # in order, so the first invalid set decides the error
        if fs.prefix not in frames:
            frames[fs.prefix] = rel.extend(fs.prefix[len(common) :])
        spans.append(frames[fs.prefix].hull(fs.start, fs.end))
    # each width hi - lo as an unreduced pair (num, den), den > 0
    widths = [(hn * ld - ln * hd, ld * hd) for (ln, ld), (hn, hd) in spans]
    sc, den = abs(base.sc_num), base.den
    cost = math.fsum(_ratio_power(sc * wn, den * wd, alpha) for wn, wd in widths)
    wn, wd = widths[0]
    for n, d in widths:
        if n * wd > wn * d:
            wn, wd = n, d
    covers = _chains_across(base, U, spans)
    return CoverReport(covers, Fraction(sc * wn, den * wd), cost)


def _chains_across(frame: _Frame, U: QInterval, spans: list) -> bool:
    """Whether the hulls in spans, given in frame's tail coordinates as
    unreduced pairs (num, den), den > 0, chain across U.

    U's ends are mapped into the frame once (relative()) and stay unreduced
    pairs too, and every comparison is a cross-multiplication; when frame's
    sc is negative the map reverses the line, so the ends swap.  The pass
    asks whether the closed hulls cover the closed target, which reads the
    same mirrored.  It is one greedy pass over the hulls sorted by lo, with
    reach the furthest hull end so far, that stops once reach passes U.hi:
    a hull starting past reach leaves a gap, and one starting at reach
    continues the chain, for both signs (so hulls with one lo may come in
    any order).  At U.lo, which
    U excludes, nothing is missed.  Past it, a positive reach is held by
    the earlier half-open hull that ends there.  An alternating reach lies
    inside (U.lo, U.hi), so inside (0, 1), and is some hull's endpoint
    off + sc*r/c: a cylinder endpoint, which has no alternating expansion,
    so the open hulls meeting there miss only an endpoint-set point.
    """
    ends = frame.relative(U.lo), frame.relative(U.hi)
    (rn, rd), (hn, hd) = ends if frame.sc_num > 0 else ends[::-1]
    by_lo = functools.cmp_to_key(lambda s, t: s[0][0] * t[0][1] - t[0][0] * s[0][1])
    for (an, ad), (bn, bd) in sorted(spans, key=by_lo):
        if an * rd > rn * ad:
            return False
        if bn * rd > rn * bd:
            rn, rd = bn, bd
            if rn * hd >= hn * rd:
                return True
    return False
