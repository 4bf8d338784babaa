"""A textbook reference for the differential tests: each public operation
written again, on Fractions, from the series and the affine maps.

The digit rule gives r_0 = phi_0 and r_n = phi_n(c_1, ..., c_n), and digit c
after the value r maps the tail space into its parent's by

    y |-> r/c + y r/((c-1)c)          (positive, tail space (0, 1])
    y |-> r/(c-1) - y r/((c-1)c)      (alternating, tail space (0, 1))

so child c covers the relative interval (r/c, r/(c-1)], a word's cylinder is
the image of the tail space under its digits' maps composed, and the digit
of a point y is c = floor(r/y) + 1, its tail y's preimage under the map of c.
A partial sum is the series itself, summed term by term, and not the image
of 0 under the maps, which is how the library reads it.
Nothing here carries integer pairs, reduces lazily or steps a rule value
inline: every point and end is a Fraction, and every rule value comes from
the rule's definition.  The arguments are taken as the library accepts
them, and only the errors the differential tests compare are modelled:
public validation (rule_value, validate_word) raises the rule errors, so
their texts and indices are the library's, and the digit bound and a start
below r + 1 are raised with the library's texts.

The floats are formed as the library's docstrings state them: a cover's
cost is math.fsum of ratio_power(diameter, alpha), the pressure sum adds
exp(s (log num - log den)) per base, and a root is the first midpoint of
the plain bisection (bisect) within tol.  The 50-digit decimal forms of
the pressure sum and of the Moran equation are the exact oracles for the
library's float ones.

Only fractions, decimal, math and itertools are imported, with perron's
public names; no private perron name is read.
"""

import itertools
import math
from decimal import Context, Decimal, localcontext
from fractions import Fraction

from perron import (
    FROM_INF,
    BoundaryCover,
    CoverReport,
    DimensionEstimate,
    DomainError,
    FamilySet,
    ISPoint,
    Sign,
    ValidityError,
    rule_value,
    validate_word,
)

DIGIT_BITS = 1 << 16  # the library's digit bound
PRECISION = 50  # decimal digits of the exact oracles

# ---------------------------------------------------------------------------
# outcomes, rule values, the child step and digits
# ---------------------------------------------------------------------------


def outcome(f, *args):
    """f(*args), or the type, text and index of the DomainError or
    ValidityError it raises: how a call is compared with its reference."""
    try:
        return f(*args)
    except (DomainError, ValidityError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def next_value(rule, word):
    """r_k = phi_k(c_1, ..., c_k) for a nonempty tuple word of valid digits:
    a*c_k + b under a built-in rule, fn(word) under a custom one.  A value
    that is not a positive int goes to rule_value, which raises the
    library's error or reads an integer-like value."""
    r = rule.a * word[-1] + rule.b if rule.fn is None else rule.fn(word)
    return r if type(r) is int and r >= 1 else rule_value(rule, word)


def child(sign, r, y):
    """(c, at_junction, tail) for the point y in (0, 1] under the value r.

    c = floor(r/y) + 1 is the digit whose relative interval
    (r/c, r/(c-1)] holds y, at_junction says that y is its top r/(c-1), and
    tail is y's preimage under the map of c."""
    c = r // y + 1
    if sign is Sign.POSITIVE:
        tail = (y - Fraction(r, c)) * (c - 1) * c / r
    else:
        tail = (Fraction(r, c - 1) - y) * (c - 1) * c / r
    return c, y == Fraction(r, c - 1), tail


def digits(rule, sign, x, n, max_bits=DIGIT_BITS):
    """positive_digits or alternating_digits of x in the sign's tail space:
    the first n digits, or the ISPoint of an alternating junction.

    A digit longer than max_bits bits is the library's DomainError naming
    its position, and a rule value below 1 its ValidityError."""
    x = Fraction(x)
    word, r = (), rule.phi0
    for i in range(1, n + 1):
        c, at_junction, x = child(sign, r, x)
        if at_junction and sign is Sign.ALTERNATING:
            return ISPoint(rank=i, digits=word)
        if c.bit_length() > max_bits:
            raise DomainError(f"digit at position {i} has {c.bit_length()} bits, beyond the "
                              f"{max_bits}-bit digit bound")
        word += (c,)
        r = next_value(rule, word)
    return word


# ---------------------------------------------------------------------------
# cylinders, partial sums and family-set hulls
# ---------------------------------------------------------------------------


def cylinder_map(rule, sign, word):
    """(off, sc, r): word's cylinder is the image of the tail space under
    y |-> off + sc*y, the maps of its digits composed, and r is the rule
    value after word.  An invalid word is validate_word's error."""
    word = tuple(word)
    validate_word(rule, word)
    off, sc, r = Fraction(0), Fraction(1), rule.phi0
    for i, c in enumerate(word, 1):
        if sign is Sign.POSITIVE:
            off, sc = off + sc * Fraction(r, c), sc * Fraction(r, (c - 1) * c)
        else:
            off, sc = off + sc * Fraction(r, c - 1), -sc * Fraction(r, (c - 1) * c)
        r = next_value(rule, word[:i])
    return off, sc, r


def cylinder_ends(rule, sign, word):
    """(lo, hi) of word's cylinder; (0, 1) for the empty word."""
    off, sc, _ = cylinder_map(rule, sign, word)
    return min(off, off + sc), max(off, off + sc)


def partial_sum(rule, word, sign):
    """The first k terms of the series of a rank-k word, as the core module
    states it: the sum over n < k of

        r_0 ... r_n / ((c_1-1)c_1 ... (c_n-1)c_n * c_{n+1})              (positive)
        (-1)^n r_0 ... r_n / ((c_1-1)c_1 ... (c_n-1)c_n * (c_{n+1}-1))   (alternating)

    An empty word is the library's ValidityError, an invalid one
    validate_word's."""
    word = tuple(word)
    if not word:
        raise ValidityError("word must be nonempty", index=None)
    validate_word(rule, word)
    total, num, den = Fraction(0), rule.phi0, 1  # r_0 ... r_n, prod (c_i-1)c_i for i <= n
    for n, c in enumerate(word):
        if n:
            num *= next_value(rule, word[:n])
        if sign is Sign.POSITIVE:
            total += Fraction(num, den * c)
        else:
            total += (-1) ** n * Fraction(num, den * (c - 1))
        den *= (c - 1) * c
    return total


def hull(rule, fs):
    """(lo, hi) of the family set fs: its children start..end cover the
    relative (r/end, r/(start-1)], from 0 when end is None."""
    off, sc, r = cylinder_map(rule, fs.sign, fs.prefix)
    if fs.start < r + 1:
        raise ValidityError(f"start {fs.start} below first admissible digit {r + 1}", index=None)
    low = 0 if fs.end is None else Fraction(r, fs.end)
    ends = off + sc * low, off + sc * Fraction(r, fs.start - 1)
    return min(ends), max(ends)


def diameter(rule, fs):
    """The exact diameter of fs's hull."""
    lo, hi = hull(rule, fs)
    return hi - lo


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------


def cover_boundary(rule, sign, prefix, cut, side):
    """cover_boundary: the piece of prefix's cylinder below the cut
    (FROM_INF) or above it (TO_SUP), as a relative piece of the cylinder."""
    off, sc, r = cylinder_map(rule, sign, prefix)
    low = (side == FROM_INF) == (sc > 0)
    return piece_cover(rule, sign, tuple(prefix), r, (Fraction(cut) - off) / sc, low)


def piece_cover(rule, sign, word, r, u, low):
    """The BoundaryCover of the relative piece (0, u] (low) or (u, 1] (high)
    of word's cylinder, r the value after word.

    A high piece from 0 is the whole cylinder.  A high piece inside the
    first child, u > r/(r+1), is that child's high piece above u's tail, or
    its low piece below it when the child flips (alternating).  Otherwise
    u's child c decides: a low piece is {c+1..} and the whole child c
    (single {c..}), a high one the whole child c and {r+1..c-1} (single
    {r+1..c}), and one set when u is c's top."""
    if u == 0:
        whole = FamilySet(sign, word, r + 1, None)
        return BoundaryCover((whole,), whole)
    while not low and u > Fraction(r, r + 1):
        u = child(sign, r, u)[2]
        word += (r + 1,)
        r = next_value(rule, word)
        low = sign is Sign.ALTERNATING
    c, at_junction, _ = child(sign, r, u)
    if low:
        one = FamilySet(sign, word, c, None)
        tight, single = (FamilySet(sign, word, c + 1, None), FamilySet(sign, word, c, c)), one
    else:
        one = FamilySet(sign, word, r + 1, c - 1)
        tight, single = (FamilySet(sign, word, c, c), one), FamilySet(sign, word, r + 1, c)
    return BoundaryCover((one,), one) if at_junction else BoundaryCover(tight, single)


def cover_interval(rule, sign, U):
    """cover_interval: U's relative ends lo < hi descend, one child step
    each per level, while they share a child (a low end at a junction
    counts in the child above it); then each end's piece of its child is
    covered by piece_cover, and the block between them joins the cover as
    the piece widths against |U| decide."""
    positive = sign is Sign.POSITIVE
    word, r, lo, hi = (), rule.phi0, U.lo, U.hi
    while lo and hi != 1:
        d_lo, lo_exact, y_lo = child(sign, r, lo)
        d_lo -= lo_exact
        d_hi, hi_exact, y_hi = child(sign, r, hi)
        if d_lo != d_hi:
            break
        if lo_exact:  # y in the child below, 1 - y in this one
            y_lo = 1 - y_lo
        lo, hi = (y_lo, y_hi) if positive else (y_hi, y_lo)
        word += (d_lo,)
        r = next_value(rule, word)
    if not lo:
        return list(piece_cover(rule, sign, word, r, hi, True).tight)
    if hi == 1:
        return list(piece_cover(rule, sign, word, r, lo, False).tight)

    def cover(d, y, low):
        return piece_cover(rule, sign, word + (d,), next_value(rule, word + (d,)), y, low)

    if lo_exact or hi_exact:
        before = () if lo_exact else cover(d_lo, y_lo, not positive).tight
        after = () if hi_exact else cover(d_hi, y_hi, positive).tight
        return [*before, FamilySet(sign, word, d_hi + 1 - hi_exact, d_lo - 1 + lo_exact), *after]
    W = hi - lo
    if d_lo == d_hi + 1:
        if 2 * (Fraction(r, d_lo - 1) - lo) >= W:
            return [*cover(d_lo, y_lo, not positive).tight, cover(d_hi, y_hi, positive).single]
        return [cover(d_lo, y_lo, not positive).single, *cover(d_hi, y_hi, positive).tight]
    if 2 * (Fraction(r, d_hi) - Fraction(r, d_lo - 1)) >= W:
        return [cover(d_lo, y_lo, not positive).single, FamilySet(sign, word, d_hi + 1, d_lo - 1),
                cover(d_hi, y_hi, positive).single]
    return [FamilySet(sign, word, d_hi + 1, d_lo), *cover(d_hi, y_hi, positive).tight]


def verify_cover(rule, U, sets, alpha):
    """verify_cover: every hull from the root, and a sweep that rescans all
    hulls at each advance of reach.

    A hull continues the chain past reach when it starts below reach, or
    at reach where reach is held already: at U.lo, which U excludes; in
    the positive form, by the half-open hull that ends there; in the
    alternating form, where reach is a cylinder endpoint (its alternating
    digits end in an ISPoint within the sets' depth), which no cover needs.
    The cost is math.fsum of ratio_power(diameter, alpha)."""
    if not sets:
        return CoverReport(False, Fraction(0), 0.0)
    sign = sets[0].sign
    hulls = [hull(rule, fs) for fs in sets]
    widths = [b - a for a, b in hulls]
    cost = math.fsum(ratio_power(w, alpha) for w in widths)
    depth = max(len(fs.prefix) for fs in sets) + 2
    reach = U.lo
    while reach < U.hi:
        further = [b for a, b in hulls if a < reach < b]
        starting = [b for a, b in hulls if a == reach]
        if starting and (reach == U.lo or sign is Sign.POSITIVE
                         or isinstance(digits(rule, sign, reach, depth), ISPoint)):
            further += starting
        if not further:
            return CoverReport(False, max(widths), cost)
        reach = max(further)
    return CoverReport(True, max(widths), cost)


# ---------------------------------------------------------------------------
# float powers of exact ratios and the plain bisection
# ---------------------------------------------------------------------------


def ratio_power(d, s):
    """d ** s as a float for a positive Fraction d: float(d) ** s where
    float(d), the correctly rounded quotient, is a normal double, and below
    2**-1022, where that float keeps fewer bits or none, exp(s ln d) with
    ln d = ln m + e ln 2 for d = m 2**e, m in [1/2, 1), read from the float
    of d 2**k, k putting it in (1, 4)."""
    x = float(d)
    if x >= 2.0**-1022:
        return x**s
    k = d.denominator.bit_length() - d.numerator.bit_length() + 1
    m, e = math.frexp(float(d * 2**k))
    return math.exp(s * (math.log(m) + (e - k) * math.log(2)))


def bisect(f, hi, tol, best):
    """(s, |f(s)|) for the first midpoint s of the plain bisection of
    [0, hi] with |f(s)| <= tol, f decreasing with f(0) > 0 > f(hi): every
    midpoint is evaluated, lo = mid where f(mid) > 0 and hi = mid
    otherwise.  If 200 steps do not reach tol, the library's DomainError
    names the best residual: the least of best and the midpoints'."""
    lo = 0.0
    for _ in range(200):
        mid = (lo + hi) / 2
        fm = f(mid)
        if abs(fm) <= tol:
            return mid, abs(fm)
        best = min(best, abs(fm))
        lo, hi = (mid, hi) if fm > 0 else (lo, mid)
    raise DomainError(f"tol {tol} not reached in 200 bisection steps; best residual {best}")


# ---------------------------------------------------------------------------
# the pressure sum and the Moran equation
# ---------------------------------------------------------------------------


def bases(rule, predicate, rank, cap):
    """The compatible rank-k words with digits up to cap, in lexicographic
    order: the words itertools.product lists that are valid under the rule,
    every value r_1..r_k at least 1, and whose every prefix the predicate
    admits."""
    words = []
    for word in itertools.product(range(2, cap + 1), repeat=rank):
        try:
            validate_word(rule, word)
        except ValidityError:
            continue
        if all(predicate(word[:i]) for i in range(1, rank + 1)):
            words.append(word)
    return words


def diameters(rule, sign, predicate, rank, cap):
    """The exact cylinder diameter of each base, in the order of bases."""
    ends = (cylinder_ends(rule, sign, word) for word in bases(rule, predicate, rank, cap))
    return [hi - lo for lo, hi in ends]


def decimal_pressure_sum(ds):
    """F(s), the sum of d**s minus 1 in PRECISION-digit decimal arithmetic."""
    with localcontext(Context(prec=PRECISION)):
        logs = [Decimal(d.numerator).ln() - Decimal(d.denominator).ln() for d in ds]

    def F(s):
        with localcontext(Context(prec=PRECISION)):
            return sum((Decimal(s) * lw).exp() for lw in logs) - 1

    return F


def pressure_root(rule, sign, predicate, rank, cap, tol):
    """pressure_root's estimate from the listed bases: the first midpoint
    of the plain bisection of [0, 1.5] where |f| <= tol, f(s) being the sum
    of d**s over their diameters d minus 1, each term exp(s (log num -
    log den)) and the sum math.fsum (bisect, whose DomainError is the
    library's where tol is out of reach); s = 0 with residual 1.0 for no
    base."""
    ds = diameters(rule, sign, predicate, rank, cap)
    if not ds:
        return DimensionEstimate(rank, cap, 0.0, 1.0, 0)
    logs = [math.log(d.numerator) - math.log(d.denominator) for d in ds]

    def f(s):
        return math.fsum(math.exp(s * lw) for lw in logs) - 1.0

    f0 = abs(f(0.0))
    if f0 <= tol:
        return DimensionEstimate(rank, cap, 0.0, f0, len(ds))
    return DimensionEstimate(rank, cap, *bisect(f, 1.5, tol, f0), len(ds))


def moran_dimension(ratios):
    """The root s in [0, 1] of sum r**s = 1 over the exact ratios, a Decimal
    from 120 halvings (to 10**-36) in PRECISION-digit arithmetic, each term
    exp(s ln r), so a ratio far below the float range counts too."""
    with localcontext(Context(prec=PRECISION)):
        logs = [Decimal(r.numerator).ln() - Decimal(r.denominator).ln()
                for r in map(Fraction, ratios)]
        lo, hi = Decimal(0), Decimal(1)
        for _ in range(120):
            mid = (lo + hi) / 2
            if sum((mid * lw).exp() for lw in logs) > 1:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2
