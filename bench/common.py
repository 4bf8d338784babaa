"""Rules, signs and random inputs shared by the workloads."""

from __future__ import annotations

from fractions import Fraction

from perron import DigitRule, Sign

BUILTIN_RULES = {
    "luroth": DigitRule.luroth(),
    "engel": DigitRule.engel(),
    "engel-mod": DigitRule.engel_mod(),
    "pierce": DigitRule.pierce(),
    "oppenheim:2,1": DigitRule.oppenheim(2, 1),
}
SIGNS = (Sign.POSITIVE, Sign.ALTERNATING)


def _parity_rule(prefix) -> int:
    # depends on the whole prefix, so no last-digit shortcut applies
    return 1 + sum(prefix) % 2


def rule(name: str) -> DigitRule:
    """The named rule; "custom" is built fresh on every call because
    ``DigitRule.custom`` memoizes its function on the rule object, and a
    reused rule would turn repeated work into cache hits."""
    if name == "custom":
        return DigitRule.custom(_parity_rule)
    return BUILTIN_RULES[name]


def rational(rng, max_den: int = 10**6) -> Fraction:
    """A random rational strictly inside (0, 1)."""
    den = rng.randrange(3, max_den)
    return Fraction(rng.randrange(1, den), den)


def criterion04_bounds(rng, index: int) -> tuple[Fraction, Fraction]:
    """Relative interval drawn as in acceptance criterion 04 (1 in 20 from 0)."""
    den = rng.randrange(2, 10**4 + 1)
    a, b = rng.randrange(0, den), rng.randrange(1, den + 1)
    if a == b:
        b = a + 1
    a, b = min(a, b), max(a, b)
    lo = Fraction(0) if index % 20 == 0 else Fraction(a, den)
    hi = Fraction(b, den)
    if lo >= hi:
        hi = lo + Fraction(1, den)
    return lo, hi
