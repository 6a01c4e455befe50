"""Exact rational helpers.

All level arithmetic in the ladder construction must stay exact: the level
recursion is conjugate to the doubling map, which amplifies any rounding
exponentially.  ``fractions.Fraction`` already guarantees reduced form with a
positive denominator, so it is used directly as the rational type.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import RuleError


def as_rational(x) -> Fraction:
    """Coerce an int, string ("p/q" or decimal) or Fraction to an exact Fraction.

    Floats are rejected: a float argument usually means a value that was
    already rounded, which silently breaks exactness guarantees downstream.
    So are bools, so that true cannot stand for the level 1.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise RuleError(f"cannot parse rational from {x!r}: {exc}") from exc
    raise RuleError(f"expected int, str or Fraction, got {type(x).__name__}")


def is_dyadic(q: Fraction) -> bool:
    """True iff q has a power-of-two denominator in lowest terms (integers count)."""
    d = q.denominator  # at least 1: Fraction keeps the sign in the numerator
    return d & (d - 1) == 0
