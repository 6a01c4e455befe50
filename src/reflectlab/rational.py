"""Exact rational helpers.

All level arithmetic in the ladder construction must stay exact: the level
recursion is conjugate to the doubling map, which amplifies any rounding
exponentially.  ``fractions.Fraction`` already guarantees reduced form with a
positive denominator, so it is used directly as the rational type.

Every count, index, length and power is checked by ``_as_int``, and the
suites' real parameters and the fixed and functional times by ``_is_real``.
"""

from __future__ import annotations

import numbers
import operator
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
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise RuleError(f"cannot parse rational from {x!r}: {exc}") from exc
    try:  # ints by the integer rule, NumPy integers included
        return Fraction(_as_int("x", x, TypeError))
    except TypeError:
        raise RuleError("expected int, str or Fraction, "
                        f"got {type(x).__name__}") from None


def _as_int(what: str, value, error: type,
            nonnegative: bool = False) -> int:
    """value as an int, the one rule for every count, index and length:
    ``error`` unless operator.index takes it and it is not a bool (and, with
    nonnegative set, it is not negative), so 2.5 cannot end in a TypeError
    and True cannot run as 1.  NumPy integers pass."""
    if value.__class__ is int:  # the common case, and never a bool
        count = value
    else:
        try:
            count = None if isinstance(value, bool) else operator.index(value)
        except TypeError:
            count = None
    if count is None or nonnegative and count < 0:
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise error(f"{what} must be {kind}, got {value!r}")
    return count


def _is_real(value) -> bool:
    """Whether value is a real number other than a bool, the rule for float
    parameters and times: "0.1", None and [2] are not, so they cannot end in
    a TypeError after a comparison, and True cannot stand for 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_dyadic(q: Fraction) -> bool:
    """True iff q has a power-of-two denominator in lowest terms (integers count)."""
    d = q.denominator  # at least 1: Fraction keeps the sign in the numerator
    return d & (d - 1) == 0
