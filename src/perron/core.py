"""Digit rules, digit extraction, series evaluation, and exact cylinder geometry.

Two series representations of numbers are handled, both driven by a "digit
rule": a sequence of functions phi_n mapping a digit prefix (c_1, ..., c_n) to
a positive integer r_n (with r_0 = phi_0 a constant).  Digits must satisfy
c_n >= r_{n-1} + 1.

Positive form, representing x in (0, 1]:

    x = r_0/p_1 + sum_{n>=1} (r_0 r_1 ... r_n) /
                             ((p_1-1)p_1 (p_2-1)p_2 ... (p_n-1)p_n * p_{n+1})

Alternating form, representing x in (0, 1):

    x = r_0/(q_1-1) - r_0 r_1 / ((q_1-1)q_1 (q_2-1)) + ...
      = sum_{n>=0} (-1)^n (r_0 ... r_n) /
                   ((q_1-1)q_1 ... (q_n-1)q_n * (q_{n+1}-1))

The set of numbers sharing a digit prefix w = (c_1, ..., c_k) is an interval
("cylinder"): half-open (a, b] in the positive form, open (a, b) minus the
countable endpoint set in the alternating form.  Both have the same exact
diameter

    r_0 r_1 ... r_{k-1} / ((c_1-1)c_1 (c_2-1)c_2 ... (c_k-1)c_k).

Everything in this module is exact rational arithmetic, but for
_ratio_power, the one float power of an exact ratio, which coverings and
dimension share.
Cylinder geometry runs on integers: a word's affine frame (see _Frame) keeps
off and sc as numerators over one common denominator, updated per digit with
a few integer products and no gcd.  A frame takes digits in one place,
_Frame.extend, and the frame of a word is the root frame extended by it
(_Frame.walk).  Every range's ends are read through one method,
_Frame.hull(start, end), the hull of a range of children, as unreduced
integer pairs: a cylinder is the hull of its whole child range, and a
family set (see coverings) the hull of its digit range, each reduced to
lowest-terms Fractions once, by the reader that needs them.  partial_sum
reads the one end that is the image of 0, the frame's offset.  The frame is
geometry only.  A rule is a plain value that
checks r_0 = phi_0 >= 1 once, when it is made, so every walk starts from
phi_0 as it is.  Validation is one walk over the rule values, rule_value,
which checks each digit against the value before it and each later value
against 1 (_next_r); code that needs only a word and its r steps r the same
way, and word_diameter multiplies along that one walk.
The per-digit loops (_Frame.extend, digit extraction and cover_interval's
descent) take a built-in rule's step a*c + b inline and leave everything
else, and every error, to _next_r; the boundary descent of coverings steps
with _next_r itself.

Digit extraction is a derived recursion (obtained by factoring the series into
affine self-similar form; see positive_digits / alternating_digits).  Both
forms run one loop (_digits) that names its sign: the sign picks the domain,
the remainder step and what a junction means (an included supremum in the
positive form, an ISPoint in the alternating one), and the next digit, the
junction and the remainder all come from one divmod per digit, taken inline:
the quotient gives the digit, a zero remainder the junction, and the
remainder the tail pair through _tail, the one statement of the tail
formula.  The same step moves a point's position relative to a frame down
one digit: _Frame.relative maps a point into a frame once, and the pair is
then stepped with one divmod and a product per level.  _child is that step
as a function, for the cover's reads outside cover_interval's descent.
Extraction and membership do no Fraction arithmetic: extraction reads x as
its integer pair (making a Fraction only of an x that is not one, by
_rational, which makes NaN and the infinities a DomainError), the domain test
(_check_domain) compares that pair, and CylinderInterval.contains
cross-multiplies integers.  Every extraction
bounds its digits by the one fixed _MAX_DIGIT_BITS (2**16 bits): it raises
DomainError naming the position rather than grow one digit past it.

The remainder pair of extraction is carried unreduced, like the frame.  A
positive junction sets it to (1, 1) with no gcd; otherwise it is reduced at
each doubling of its bits while it is small (_REDUCE_GATE_BITS), and past
that only while each reduction takes back at least half of what the pair
grew since the one before.  Digits, ISPoints and errors read only the
ratio of the pair, so this changes the cost and no output.  The cost is at
worst that of a loop that never reduces: for x = p/q and rule values
r_0, ..., r_{n-1}, n divmods on a pair of bits(q) + sum bits(r_i) bits,
O(n (bits(q) + sum bits(r_i))) for digits of a few machine words.
"""

from __future__ import annotations

import enum
import operator
from decimal import Decimal
from fractions import Fraction
from math import exp, frexp, gcd, inf, log
from typing import Callable, NamedTuple, Sequence

from .errors import DomainError, ValidityError

# The universal exact value type: arbitrary-precision rationals in lowest terms.
ExactQ = Fraction

# A digit word is a plain tuple of digits (c_1, ..., c_k); () is the whole space.
DigitWord = tuple

# Digit extraction refuses a digit longer than this many bits.  Digits can
# roughly square at each step (the engel alternating digit of 61/215 at
# position 31 has 126835 bits, and about 2**21 by position 40), so without a
# bound a short request can run for hours; digits of practical cylinders are
# far below it.
_MAX_DIGIT_BITS = 1 << 16

# Up to this many bits, digit extraction reduces its remainder pair at every
# doubling, whatever a reduction takes back (see _digits).
_REDUCE_GATE_BITS = 512

__all__ = [
    "ExactQ",
    "DigitWord",
    "Sign",
    "DigitRule",
    "CylinderInterval",
    "ISPoint",
    "rule_value",
    "validate_word",
    "positive_digits",
    "alternating_digits",
    "partial_sum",
    "cylinder",
    "word_diameter",
    "pierce_notation_convert",
    "traditional_pierce_digits",
]


class Sign(enum.Enum):
    """Which of the two series forms an object refers to."""

    POSITIVE = "P"
    ALTERNATING = "P-"


# Module-level aliases for the per-call paths (_check_domain, _child, the
# loops' set-up): reading Sign.POSITIVE is an enum class attribute lookup,
# several times slower than a global (CPython 3.11).
_POSITIVE, _ALTERNATING = Sign.POSITIVE, Sign.ALTERNATING


def _check_sign(sign) -> None:
    """DomainError unless sign is a Sign member: code that branches on
    `sign is Sign.POSITIVE` would read any other value as the alternating
    form."""
    if not isinstance(sign, Sign):
        raise DomainError(f"sign must be Sign.POSITIVE or Sign.ALTERNATING, got {sign!r}")


class _Record:
    """Base of the public result types: frozen value classes.

    A subclass annotates two or more fields and sets them in its own
    __init__ with object.__setattr__, which keeps CPython's compact
    per-instance values (a write through self.__dict__ would make a dict
    per instance, 64 bytes more on CPython 3.11, and slower reads).  The
    field names are the class's own annotations, in declaration order
    (__match_args__), and _values is the tuple of the fields.  A record
    equals only a record of the same class with equal fields, hashes as
    the tuple of its fields, reprs as Name(field=value, ...) with each
    value through _shown (a long one prints its size), and raises
    AttributeError on setting or deleting an attribute.
    """

    def __init_subclass__(cls):
        cls.__match_args__ = tuple(cls.__annotations__)
        cls._values = property(operator.attrgetter(*cls.__match_args__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        pairs = zip(self.__match_args__, self._values)
        return f"{type(self).__qualname__}({', '.join(f'{k}={_shown(v, repr)}' for k, v in pairs)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class DigitRule(_Record):
    """A digit rule: phi_0 plus the map from digit prefixes to r_n.

    Every built-in rule is affine in the digit, r_n = a*c_n + b with a >= 0,
    so nondecreasing in it, and has fn None; a custom rule has r_n =
    fn(prefix), and states any other rule, a decreasing one included.  kind
    names the rule.  Use the constructors below, which set a and b, rather
    than instantiating directly.

      luroth:    a = 0, b = 1    r_n = 1 for all n
      engel:     a = 1, b = -1   r_n = c_n - 1  (digits may repeat)
      engel-mod: a = 1, b = 0    r_n = c_n      (digits strictly increase)
      pierce:    same rule as engel-mod; conventionally used with the
                 alternating form
      oppenheim: r_n = a*c_n + b for the given integers a >= 0 and b (must
                 stay >= 1)
      custom:    r_n = fn(prefix), any pure total function of the prefix
                 whose values are integers (what operator.index accepts);
                 any other value is a ValidityError naming its position.
                 fn is kept as given, with no cache: a walk asks it about
                 each prefix once.

    phi_0 is 1 unless oppenheim or custom is given another.  a, b and phi_0
    are read as operator.index reads them, and a must be >= 0 and phi_0
    >= 1, however the rule is made; anything else is a DomainError, raised
    here, so no walk checks phi_0 again and no walk asks for the sign of a.
    """

    kind: str
    phi0: int
    a: int
    b: int
    fn: Callable[[DigitWord], int] | None

    def __init__(self, kind: str, phi0: int = 1, a: int = 0, b: int = 0,
                 fn: Callable[[DigitWord], int] | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "phi0", _integer("phi0", phi0))
        object.__setattr__(self, "a", _integer("a", a, 0))
        object.__setattr__(self, "b", _integer("b", b))
        object.__setattr__(self, "fn", fn)
        if self.phi0 < 1:
            raise DomainError(f"phi0 must be >= 1, got {_shown(self.phi0)}")

    @classmethod
    def luroth(cls) -> "DigitRule":
        return cls("luroth", a=0, b=1)

    @classmethod
    def engel(cls) -> "DigitRule":
        return cls("engel", a=1, b=-1)

    @classmethod
    def engel_mod(cls) -> "DigitRule":
        return cls("engel-mod", a=1, b=0)

    @classmethod
    def pierce(cls) -> "DigitRule":
        return cls("pierce", a=1, b=0)

    @classmethod
    def oppenheim(cls, a: int, b: int, phi0: int = 1) -> "DigitRule":
        return cls("oppenheim", phi0=phi0, a=a, b=b)

    @classmethod
    def custom(cls, fn: Callable[[DigitWord], int], phi0: int = 1) -> "DigitRule":
        return cls("custom", phi0=phi0, fn=fn)


def _integer(name: str, value, least: int | None = None) -> int:
    """value as operator.index reads it, or DomainError naming the parameter;
    with least given, DomainError "name must be >= least" below it.  It
    reads a, b and phi0 of a rule, n of digit extraction, and every rank
    and digit_cap."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {_shown(value, repr)}") from None
    if least is not None and value < least:
        raise DomainError(f"{name} must be >= {_shown(least)}")
    return value


def _rational(name: str, value) -> Fraction:
    """Fraction(value), or DomainError naming the parameter when value is NaN
    or an infinity: a float or a Decimal that Fraction refuses is one of
    those, since every finite one has an integer ratio.  Any other value
    Fraction refuses keeps Fraction's own error."""
    try:
        return Fraction(value)
    except (ValueError, OverflowError):
        if isinstance(value, (float, Decimal)):
            raise DomainError(f"{name} must be a finite number, got {value!r}") from None
        raise


def _shown(value, form=str) -> str:
    """form(value), str or repr, for an error message or a record's repr.

    An int or a Fraction past the interpreter's limit on decimal conversion
    (sys.get_int_max_str_digits, 4300 digits by default) would raise
    ValueError from inside the message; it is shown by its size in bits
    instead, as <int of n bits> or <fraction of n/d bits>, signed.  Every
    other value is form(value) as it was.  The CLI lifts the limit, so its
    messages print every digit.
    """
    try:
        return form(value)
    except ValueError:  # an int or a Fraction past the limit; an int is n/1
        num, den = value.numerator.bit_length(), value.denominator.bit_length()
        size = f"int of {num}" if den == 1 else f"fraction of {num}/{den}"
        return f"{'-' * (value < 0)}<{size} bits>"


def _ratio_power(num: int, den: int, s: float) -> float:
    """r**s as a float for the ratio r = num/den of positive ints num and
    den, and s >= 0: the one float power of an exact ratio, which a cover's
    cost terms and the Moran sum take.

    While the correctly rounded quotient x = num / den (int true division)
    is a normal double (x >= 2**-1022) this is x**s: x is within a relative
    u = 2**-53 of r, so x**s is within s*u of r**s plus the rounding of the
    power.  Below that, x keeps fewer bits (a subnormal) or none (0.0 below
    2**-1075), and the power is exp(s ln r) with ln r = ln m + e ln 2 from
    r = m 2**e, m in [1/2, 1): m is the mantissa of the correctly rounded
    quotient num 2**k / den, which k puts in (1, 4), so m and e depend on r
    alone and not on the pair that states it, and no int is converted to a
    float.  Their logs are off by at most 2.4u (m) and 3u |e| ln 2 (e), the
    sum and the product by s add u of their results, and exp one ulp, so
    this is within a relative 2u (1 + s (3 ln(1/r) + 3)) of r**s, to first
    order (below 7e-13 for r = 10**-400 at s <= 1), and within 2**-1074
    more where the result is itself below 2**-1022.
    """
    x = num / den
    if x >= 2.0**-1022:
        return x**s
    k = den.bit_length() - num.bit_length() + 1
    m, e = frexp((num << k) / den)
    return exp(s * (log(m) + (e - k) * log(2)))


def _step_r(rule: DigitRule, word: DigitWord, i: int) -> int:
    """r_i, the rule value after the 1-based position i of word, not checked
    against 1.

    For the built-in rules this is a*c_i + b; custom rules see the whole
    prefix word[:i], always as a tuple, and a value that operator.index
    does not read as an integer is a ValidityError naming position i.
    """
    if rule.fn is None:
        return rule.a * word[i - 1] + rule.b
    value = rule.fn(tuple(word[:i]))
    try:
        return operator.index(value)
    except TypeError:
        raise ValidityError(
            f"rule value {_shown(value, repr)} after position {i} is not an integer", index=i
        ) from None


def _next_r(rule: DigitRule, r: int, word: DigitWord, i: int) -> int:
    """Check digit i of word against r = r_{i-1}; return r_i, checked >= 1.

    The one place a walk raises a rule error.  The hot loops (_Frame.extend,
    _digits and cover_interval's descent) take a built-in rule's step
    a*c + b inline and call this only for what the inline step does not
    take: a custom rule, a value below 1, and in extend a digit that is not
    a plain int or is below r + 1.  So each error keeps its text and index.
    """
    c = word[i - 1]
    if not isinstance(c, int) or c < r + 1:
        why = f"violates c >= {_shown(r + 1)}" if isinstance(c, int) else "is not an integer"
        raise ValidityError(f"digit {_shown(c, repr)} at position {i} {why}", index=i)
    r = _step_r(rule, word, i)
    if r < 1:
        raise ValidityError(
            f"rule value {_shown(r)} after position {i} is not a positive integer", index=i
        )
    return r


def rule_value(rule: DigitRule, prefix: Sequence[int]) -> int:
    """r_k for the given valid prefix of length k (r_0 = phi_0 for ()).

    The one validation walk: from r_0 = phi_0, which the rule checked when
    it was made, each digit is checked against the rule value before it
    (_next_r), so an invalid prefix is a ValidityError naming the first
    failing position.
    """
    word = tuple(prefix)
    r = rule.phi0
    for i in range(1, len(word) + 1):
        r = _next_r(rule, r, word, i)
    return r


def validate_word(rule: DigitRule, word: Sequence[int]) -> None:
    """Raise ValidityError (with 1-based .index) unless every digit obeys c_i >= r_{i-1}+1."""
    rule_value(rule, word)


class _Frame(NamedTuple):
    """Affine description of a valid word's cylinder, plus r.

    The rank-k cylinder is the image of the tail space under y |-> off + sc*y
    (tail space (0, 1] positive, (0, 1) alternating); sc is signed for the
    alternating form (sign (-1)^k) and |sc| is the cylinder diameter.  r is
    the rule value after the word.

    off and sc are carried as integers over one common denominator,
    off = off_num/den and sc = sc_num/den with den > 0, and are never reduced
    along the walk: each digit is a few integer products and no gcd.  Points
    are read through hull(), the read of every range, which gives the ordered
    ends of a range of children as unreduced pairs (the cylinder itself is
    hull(r + 1)), and relative(), which maps a point back into the
    unreduced relative frame; partial_sum reads the offset off/den, the
    image of 0.  Only the callers that need a lowest-terms value reduce a
    pair (cylinder, partial_sum, family_set_hull, cover_boundary's
    message); verify_cover compares and subtracts the pairs as they are.
    relative() multiplies two numbers that both grow with the rank, so a
    descent calls it once and then steps the pair down one digit at a time
    (one divmod and _tail), which needs only the sign and r.
    extend(digits) is the one step by which a frame takes digits, checking
    each against r as it composes it (a built-in rule's step inline, the
    rest through _next_r); walk(word) is the root frame extended by word.
    A frame is geometry: code that needs only the word and r steps r with
    _next_r (rule_value is that walk).
    """

    rule: DigitRule
    sign: Sign
    word: DigitWord
    off_num: int
    sc_num: int
    den: int
    r: int

    @classmethod
    def walk(cls, rule: DigitRule, sign: Sign, word: Sequence[int]) -> "_Frame":
        """The frame of word: the root frame (off 0, sc 1, r_0) extended by word."""
        _check_sign(sign)
        return cls(rule, sign, (), 0, 1, 1, rule.phi0).extend(word)

    def extend(self, digits: Sequence[int]) -> "_Frame":
        """The frame of self.word + digits, each digit checked before its step.

        Digit c, under the rule value r before it, composes the map
        y |-> r/c + y*r/((c-1)c) (positive) or y |-> r/(c-1) - y*r/((c-1)c)
        (alternating) onto y |-> (a + s*y)/d, over the common denominator
        d*(c-1)c.  A plain int digit above r under a built-in rule steps r
        inline to a*c + b; any other digit, a custom rule, or a value below
        1 goes to _next_r, which checks c against r before any arithmetic,
        so an invalid digit is the ValidityError naming its position in the
        whole word.
        """
        word = self.word + tuple(digits)
        a, s, d, r = self.off_num, self.sc_num, self.den, self.r
        positive = self.sign is _POSITIVE
        builtin, ra, rb = self.rule.fn is None, self.rule.a, self.rule.b
        for i in range(len(self.word) + 1, len(word) + 1):
            c = word[i - 1]
            r_next = ra * c + rb if builtin and type(c) is int and c > r else 0
            if r_next < 1:
                r_next = _next_r(self.rule, r, word, i)
            block = (c - 1) * c
            s *= r
            if positive:
                a = a * block + s * (c - 1)
            else:
                a, s = a * block + s * c, -s
            d, r = d * block, r_next
        return _Frame(self.rule, self.sign, word, a, s, d, r)

    def relative(self, x: ExactQ) -> tuple[int, int]:
        """(x - off)/sc as an unreduced pair (num, den) with den > 0."""
        num = x.numerator * self.den - self.off_num * x.denominator
        den = self.sc_num * x.denominator
        return (num, den) if den > 0 else (-num, -den)

    def hull(self, start: int, end: int | None = None) -> tuple[tuple[int, int], tuple[int, int]]:
        """(lo, hi), in increasing order, of the union of children start..end,
        each end an unreduced pair (num, den) with den > 0.

        Child c occupies the relative interval (r/c, r/(c-1)], so the union
        is (r/end, r/(start-1)], with lower end 0 when end is None
        (unbounded).  start = r+1 reaches the top, relative 1: the cylinder
        is the hull of its whole child range.  The relative point v = p/q is
        off + sc*v = (off_num*q + sc_num*p) / (den*q).  ValidityError unless
        start >= r+1; end, when given, is at least start (a family set
        checks that where it is made).
        """
        off, sc, den, r = self.off_num, self.sc_num, self.den, self.r
        if start < r + 1:
            raise ValidityError(
                f"start {_shown(start)} below first admissible digit {_shown(r + 1)}", index=None)
        a = (off, den) if end is None else (off * end + sc * r, den * end)
        b = (off + sc, den) if start == r + 1 else (off * (start - 1) + sc * r, den * (start - 1))
        return (a, b) if sc > 0 else (b, a)


class ISPoint(_Record):
    """Signalling outcome: x is an endpoint of an alternating cylinder.

    Such numbers have no alternating representation.  `rank` is the position
    at which the recursion terminated; `digits` are the digits found before
    termination (length rank-1).
    """

    rank: int
    digits: DigitWord

    def __init__(self, rank: int, digits: DigitWord):
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "digits", digits)


class CylinderInterval(_Record):
    """Exact endpoints and openness flags of a cylinder.

    Positive cylinders are (lo, hi]; alternating cylinders are (lo, hi) with
    the countable set of cylinder endpoints implicitly excluded (represented
    by the both-open flags, never materialized).
    """

    lo: ExactQ
    hi: ExactQ
    lo_included: bool
    hi_included: bool
    sign: Sign
    word: DigitWord

    def __init__(self, lo: ExactQ, hi: ExactQ, lo_included: bool, hi_included: bool,
                 sign: Sign, word: DigitWord):
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_included", lo_included)
        object.__setattr__(self, "hi_included", hi_included)
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "word", word)

    @property
    def diameter(self) -> ExactQ:
        return self.hi - self.lo

    def contains(self, x: ExactQ) -> bool:
        """Whether x lies in the interval, decided exactly.

        x is an int, a Fraction, a float or a Decimal, read as its exact
        integer ratio and compared with lo and hi by cross-multiplication;
        NaN and the infinities are in no cylinder.  Anything else is a
        TypeError.
        """
        try:
            num, den = x.as_integer_ratio()
        except (ValueError, OverflowError):  # NaN, +-inf
            return False
        except AttributeError:
            raise TypeError(f"membership of {type(x).__name__!r} is not defined") from None
        ln, ld = self.lo.as_integer_ratio()
        hn, hd = self.hi.as_integer_ratio()
        below, above = num * ld - ln * den, num * hd - hn * den  # signs of x - lo, x - hi
        if below < 0 or above > 0:
            return False
        if not below:
            return self.lo_included
        if not above:
            return self.hi_included
        return True


def _check_domain(sign: Sign, num: int, den: int) -> None:
    """DomainError unless x = num/den (den > 0) lies in sign's tail space,
    (0, 1] or (0, 1): compared on the integer pair, 0 < num <= den or
    0 < num < den, with x formed as a Fraction only for the message."""
    if sign is _POSITIVE:
        if not 0 < num <= den:
            raise DomainError(f"x = {_shown(Fraction(num, den))} outside (0, 1]")
    elif not 0 < num < den:
        raise DomainError(f"x = {_shown(Fraction(num, den))} outside (0, 1)")


def _child(sign: Sign, r: int, num: int, den: int) -> tuple[int, bool, tuple[int, int]]:
    """(c, at_junction, tail) for the point num/den > 0 (den > 0) under rule
    value r.

    c = floor(r*den/num) + 1 is the digit whose relative interval
    (r/c, r/(c-1)] contains the point, and at_junction says that the point
    is that interval's supremum r/(c-1), i.e. a cylinder junction.  tail is
    the point's position y in child c, unreduced: the remainder step of
    digit extraction.  With q, rem the quotient and remainder of r*den by
    num, c = q + 1, so one divmod gives all three; the tail is
    _tail(c, rem).  The pair may be unreduced: the quotient and the zero
    remainder do not depend on a common factor.  Applied to a position
    relative to a frame (_Frame.relative), the tail is the position
    relative to the child frame of digit c; at a junction the same point is
    y in child c and 1 - y in child c - 1, the child whose closure contains
    it from below.  This function serves the cover's reads outside
    cover_interval's descent: the high end where that descent stops, and
    every level of coverings._boundary_read, its first-child descent and
    its last read; the per-digit loops, digit extraction and
    cover_interval's descent, take the same divmod inline and call only
    _tail.
    """
    rd = r * den
    q, rem = divmod(rd, num)
    return q + 1, rem == 0, _tail(sign is _POSITIVE, q + 1, rem, rd)


def _tail(positive: bool, c: int, rem: int, rd: int) -> tuple[int, int]:
    """The position y in child c, as an unreduced pair over rd = r*den, of
    the point num/den whose remainder at quotient c - 1 is
    rem = r*den - (c-1)*num, 0 <= rem <= num.

    Positive x = r/c + y*r/((c-1)c) gives y = (num*c - r*den)(c-1)/(r*den)
    = (r*den - rem*c)/(r*den); alternating x = r/(c-1) - y*r/((c-1)c) gives
    y = (r*den - num*(c-1))*c/(r*den) = rem*c/(r*den).  The one statement of
    the tail: _child and digit extraction read it at their divmod's
    remainder, and cover_interval's descent at the remainder one product
    gives (rem = num is the junction r/(c-1) taken in child c from below,
    y = 0 positive, 1 alternating).
    """
    t = rem * c
    return (rd - t if positive else t), rd


def positive_digits(rule: DigitRule, x: ExactQ, n: int) -> DigitWord:
    """First n digits of x in (0, 1] under the positive form.

    Derivation: if x has first digit p and tail value y in (0, 1], the series
    factors as x = r/p + y * r/((p-1)p), so y = (x - r/p)(p-1)p/r and p is the
    unique digit with r/p < x <= r/(p-1), i.e. p = floor(r/x) + 1 (when r/x is
    an integer, x is the included supremum of the digit-(r/x + 1) cylinder).
    Rationals never terminate: an exact supremum leaves remainder exactly 1,
    after which digits stay minimal.  A digit longer than _MAX_DIGIT_BITS
    bits is a DomainError naming its position.
    """
    return _digits(rule, _POSITIVE, x, n)


def alternating_digits(rule: DigitRule, x: ExactQ, n: int) -> DigitWord | ISPoint:
    """First n digits of x in (0, 1) under the alternating form, or ISPoint.

    Analogous factoring: x = r/(q-1) - y * r/((q-1)q) with tail y in (0, 1),
    so y = (r/(q-1) - x)(q-1)q/r and q = floor(r/x) + 1.  When r/x is an
    integer, x is an endpoint of a cylinder (it has no representation); the
    ISPoint outcome reports the rank and the digits found so far.  A digit
    longer than _MAX_DIGIT_BITS bits is a DomainError naming its position.
    """
    return _digits(rule, _ALTERNATING, x, n)


def _digits(rule: DigitRule, sign: Sign, x: ExactQ, n: int) -> DigitWord | ISPoint:
    """The extraction loop of both forms, digits bounded by _MAX_DIGIT_BITS bits.

    The forms differ only in the domain, the remainder step (_tail) and the
    junction rule: a positive junction is the included supremum of its
    child, an alternating one is an ISPoint.  x is made a Fraction only if
    it is not one, and is read as its integer pair from then on.

    Each digit is the child step taken inline, with no call but _tail:
    with q, rem = divmod(r*b, a) for the remainder a/b, the digit is
    c = q + 1, the point is a junction iff rem is 0, and the next
    remainder is the tail _tail(positive, c, rem, r*b), as _child gives
    them (see there).

    The remainder pair (a, b) is carried unreduced.  Nothing the loop reads
    depends on a common factor: the digit, the junction test and the digit
    bound come from the quotient and the zero remainder, which read only
    the ratio a/b, so when the pair is reduced changes the cost and no
    output.  The step is homogeneous (a pair k times another steps to k
    times its next pair), so the carried pair is never larger than that of
    a loop that never reduces, whose denominator after n digits is
    q r_0 ... r_{n-1} for x = p/q.  At worst, then, the loop does that
    loop's work: n divmods on a pair of bits(q) + sum bits(r_i) bits,
    O(n (bits(q) + sum bits(r_i))) for digits of a few machine words.
    When to reduce:

    - At a positive junction (rem 0) the tail is the top of (0, 1],
      exactly 1, and every later point is a junction again, so the pair is
      set to (1, 1) with no gcd.
    - Otherwise the pair is reduced by its gcd once b reaches the square of
      its value at the last reduction, about twice its bits then, so one
      gcd pays for a doubling rather than for one digit.  The bound must
      double the bits: with a fixed slack, a pair whose common factor grows
      by many bits per digit would be reduced every few digits, each time
      by a gcd of the whole pair.
    - Past _REDUCE_GATE_BITS bits, a reduction must also take back at least
      half of what b grew since the one before; after the first that does
      not, the pair is carried unreduced to the end.  Under a rule whose
      digits must grow (pierce, engel-mod, oppenheim with a >= 1) a
      reduction takes back a few percent of the pair, and its gcd, which
      is quadratic in the pair's bits, is a large share of the loop; under
      oppenheim(0, 3) one takes back most of the growth (61/215 at 20000
      digits: 9441 -> 5553 bits, against about 31700 never reduced), and
      reducing goes on.  Below the gate a gcd is cheap.

    A digit so made is at least r + 1 (the point lies at most at 1), so a
    built-in rule's next value is a*c + b inline, and only a custom rule or
    a value below 1 goes to _next_r.
    """
    a, b = (x if type(x) is Fraction else _rational("x", x)).as_integer_ratio()
    _check_domain(sign, a, b)
    n = _integer("n", n, 0)
    bound, reduced = b * b, b.bit_length()  # reduced: b's bits at the last reduction
    digits: list[int] = []
    r = rule.phi0
    positive = sign is _POSITIVE
    builtin, ra, rb = rule.fn is None, rule.a, rule.b
    for i in range(1, n + 1):
        rd = r * b
        q, rem = divmod(rd, a)
        c = q + 1
        if rem:
            a, b = _tail(positive, c, rem, rd)  # in the tail space again
            if b >= bound:
                bits = b.bit_length()
                g = gcd(a, b)
                a //= g
                b //= g
                grown, reduced = bits - reduced, b.bit_length()
                if bits > _REDUCE_GATE_BITS and 2 * (bits - reduced) < grown:
                    bound = inf  # reducing no longer pays: carry the pair as it is
                else:
                    bound = b * b
        elif positive:
            a = b = 1  # a junction: the tail is the top, 1, and stays there
        else:
            return ISPoint(rank=i, digits=tuple(digits))
        if c.bit_length() > _MAX_DIGIT_BITS:
            raise DomainError(
                f"digit at position {i} has {c.bit_length()} bits, beyond the "
                f"{_MAX_DIGIT_BITS}-bit digit bound"
            )
        digits.append(c)
        r_next = ra * c + rb if builtin else 0  # c >= r + 1 by construction
        r = r_next if r_next >= 1 else _next_r(rule, r, digits, i)
    return tuple(digits)


def partial_sum(rule: DigitRule, word: Sequence[int], sign: Sign) -> ExactQ:
    """Exact value of the first k series terms for the rank-k word.

    The image of y = 0 under the composed maps of the word's digits, which
    is the frame's offset: each map sends 0 to its digit's term over the
    prefix's factor, r/c (positive) or r/(c-1) (alternating).  Positive:
    equals the infimum of the word's cylinder.  Alternating: equals the
    supremum for odd k and the infimum for even k (orientation flips each
    rank).  Read from the word's frame (_Frame.walk), which checks each
    digit with _next_r, as cylinder() does; the series summed term by
    term is left to the tests, as the oracle of both.
    """
    frame = _Frame.walk(rule, sign, word)
    if not frame.word:
        raise ValidityError("word must be nonempty", index=None)
    return Fraction(frame.off_num, frame.den)


def cylinder(rule: DigitRule, word: Sequence[int], sign: Sign) -> CylinderInterval:
    """Exact cylinder of a nonempty valid word.

    Endpoints come from composing the rank-wise affine maps
    y |-> r/p + y*r/((p-1)p)   (positive, orientation kept) and
    y |-> r/(q-1) - y*r/((q-1)q)   (alternating, orientation flipped),
    so the diameter is exactly r_0...r_{k-1} / prod (c_i - 1)c_i for both.
    """
    frame = _Frame.walk(rule, sign, word)
    if not frame.word:
        raise ValidityError("word must be nonempty", index=None)
    lo, hi = frame.hull(frame.r + 1)
    return CylinderInterval(Fraction(*lo), Fraction(*hi), False, sign is Sign.POSITIVE, sign,
                            frame.word)


def word_diameter(rule: DigitRule, word: Sequence[int]) -> ExactQ:
    """Exact cylinder diameter of a valid nonempty word (same for both signs).

    r_0 ... r_{k-1} / prod (c_i - 1)c_i, multiplied along the one validating
    walk over the rule values.
    """
    word = tuple(word)
    r = rule.phi0
    if not word:
        raise ValidityError("word must be nonempty", index=None)
    num = den = 1
    for i, c in enumerate(word, start=1):
        num *= r
        r = _next_r(rule, r, word, i)
        den *= (c - 1) * c
    return Fraction(num, den)


def pierce_notation_convert(word: Sequence[int], direction: str) -> DigitWord:
    """Shift between the two digit notations for the alternating strictly-
    increasing-rule expansion.

    direction "perron-to-traditional" subtracts 1 from every digit (input
    must be a valid word for the pierce rule: strictly increasing, first
    digit >= 2); "traditional-to-perron" adds 1 (input must be strictly
    increasing with first digit >= 1).
    """
    word = tuple(word)
    if direction == "perron-to-traditional":
        validate_word(DigitRule.pierce(), word)
        return tuple(c - 1 for c in word)
    if direction == "traditional-to-perron":
        prev = 0
        for i, c in enumerate(word, start=1):
            if not isinstance(c, int) or c < 1 or c <= prev:
                raise ValidityError(f"traditional digit {_shown(c, repr)} at position {i} "
                                    f"must exceed {_shown(prev)}", index=i)
            prev = c
        return tuple(c + 1 for c in word)
    raise DomainError(f"unknown direction {direction!r}")


def traditional_pierce_digits(x: ExactQ) -> DigitWord:
    """Finite greedy alternating-expansion digits of a rational x in (0, 1).

    a_1 = floor(1/x), x <- 1 - a_1 x, repeated until the remainder is 0;
    rationals always terminate and the digits strictly increase.  With
    x = a/b, 1 - (b//a)*(a/b) = (b mod a)/b: b stays fixed and a strictly
    decreases, and the unreduced pair is never reduced, since b//a does
    not depend on a common factor.
    """
    a, b = (x if type(x) is Fraction else _rational("x", x)).as_integer_ratio()
    _check_domain(_ALTERNATING, a, b)
    digits = []
    while a:
        digits.append(b // a)
        a = b % a
    return tuple(digits)
