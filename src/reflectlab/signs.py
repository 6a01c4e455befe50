"""Sign words of ladder increments and their reflection combinatorics.

The n-th entry of a path's sign word is +1 or -1 according to whether the
path's move over the n-th ladder window agrees or disagrees in direction with
the level sequence step c_n - c_{n-1}, and 0 when the ladder step is not
observed within the horizon.  Once a 0 appears every later entry is 0 (the
ladder times are nondecreasing), so valid words live in the zero-absorbing
subset of {-1, 0, +1}^n.

Three word maps mirror path transformations:

* negation mirrors the sign flip of the whole path;
* ``reflect_word`` mirrors the reflection pivoted at the two-sided exit time:
  entries up to and including the first -1 are kept, later ones flip;
* ``advance_word`` (negate, then reflect) mirrors the path map
  "flip the whole path, then reflect at the exit time".

``advance_word`` acts on words that start with k >= 0 leading plus signs like
a binary odometer: starting from the all-plus word and advancing N times
yields the word whose entries are (-1)**digit over the base-2 digits of N,
least significant first.  ``word_after_steps`` is that closed form, and
``exit_alignment_power`` inverts it: for a word e it returns the number of
advance steps (negative means rewind) after which the two-sided exit time
coincides with ladder step n on the event that the observed word equals e.

Every ``SignWord`` is validated when it is built, the word maps' results
included, so the exhaustive suites build hundreds of thousands of them.
The two rules are checked in whole-tuple passes (set membership, then no
nonzero entry after the first 0); only a word that breaks one is read entry
by entry, to name the first bad entry.  The maps build their tuples the same
way: ``map(operator.neg, ...)``, ``tuple.index`` and, in
``word_after_steps``, the binary digits of ``steps`` as a string.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import RuleError
from .path import Path, negate, reflect_at_rule
from .stopping import LadderTrace, StoppingRule

_CHARS = {1: "+", -1: "-", 0: "0"}
_VALUES = {"+": 1, "-": -1, "0": 0}
_SIGNS = frozenset((-1, 0, 1))
_DIGIT_SIGNS = {"0": 1, "1": -1}


@dataclass(frozen=True)
class SignWord:
    """Word over {-1, 0, +1} with zeros absorbing."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        try:
            valid = _SIGNS.issuperset(entries) and (
                0 not in entries or not any(entries[entries.index(0):]))
        except TypeError:  # an unhashable entry, named by the loop below
            valid = False
        if not valid:
            self._reject(entries)
        object.__setattr__(self, "entries", entries)

    def _reject(self, entries: tuple) -> None:
        """Raise RuleError naming the first entry, left to right, that
        breaks a rule.  An unhashable entry equal to a sign breaks none."""
        seen_zero = False
        for e in entries:
            if e not in (-1, 0, 1):
                raise RuleError(f"sign entries must be in -1, 0, 1; got {e!r}")
            if seen_zero and e != 0:
                raise RuleError(
                    f"entry after a 0 must be 0: {self.entries}")
            seen_zero = seen_zero or e == 0

    @classmethod
    def from_string(cls, s: str) -> "SignWord":
        try:
            return cls(tuple(_VALUES[ch] for ch in s))
        except KeyError as exc:
            raise RuleError(f"bad sign character in {s!r}") from exc

    def to_string(self) -> str:
        return "".join(_CHARS[e] for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i) -> int:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"SignWord({self.to_string()!r})"


def first_down_index(e: SignWord) -> Optional[int]:
    """1-based index of the first -1, or None."""
    return e.entries.index(-1) + 1 if -1 in e.entries else None


def first_zero_index(e: SignWord) -> Optional[int]:
    """1-based index of the first 0, or None."""
    return e.entries.index(0) + 1 if 0 in e.entries else None


def negate_word(e: SignWord) -> SignWord:
    return SignWord(tuple(map(operator.neg, e.entries)))


def reflect_word(e: SignWord) -> SignWord:
    """Keep entries up to and including the first -1, flip the rest.

    This is the action on sign words of reflecting the path at the two-sided
    exit time.  Without a -1 the word is unchanged (the exit never happens, so
    the reflection is the identity).  It is an involution.
    """
    m = first_down_index(e)
    if m is None:
        return e
    return SignWord(e.entries[:m] + tuple(map(operator.neg, e.entries[m:])))


def advance_word(e: SignWord) -> SignWord:
    """One odometer step: negate, then reflect.  A bijection of the
    zero-absorbing words of each length."""
    return reflect_word(negate_word(e))


def rewind_word(e: SignWord) -> SignWord:
    """Inverse of :func:`advance_word` (reflect, then negate)."""
    return negate_word(reflect_word(e))


def _check_length(n: int) -> None:
    if n < 0:
        raise RuleError(f"word length n must be nonnegative, got {n}")


def all_words(n: int) -> Iterator[SignWord]:
    """All zero-absorbing words of length n (there are 2**(n+1) - 1).

    A negative n raises here, not at the first word."""
    _check_length(n)

    def rec(prefix: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if len(prefix) == n:
            yield prefix
            return
        for x in (1, -1):
            yield from rec(prefix + (x,))
        yield prefix + (0,) * (n - len(prefix))
    return map(SignWord, rec(()))


def word_after_steps(n: int, steps: int, suffix: tuple = ()) -> SignWord:
    """Closed form for advancing the all-plus word of length n ``steps``
    times: entry i is (-1)**a_i over the base-2 digits a_0..a_{n-1} of
    ``steps`` (least significant first), followed by the untouched suffix.

    Requires n >= 0 and 0 <= steps < 2**n.
    """
    _check_length(n)
    if not 0 <= steps < 2 ** n:
        raise RuleError(f"steps must be in [0, 2**{n}), got {steps}")
    # the binary digits of steps, least significant first, padded to n;
    # [:n] drops the one digit of steps = 0 when n is 0
    digits = f"{steps:b}"[::-1].ljust(n, "0")[:n]
    head = tuple(map(_DIGIT_SIGNS.__getitem__, digits))
    return SignWord(head + suffix)


def exit_alignment_power(e: SignWord) -> int:
    """Number of advance steps aligning the two-sided exit with ladder step n.

    For a word e of length n with d nonzero entries and digits a_i defined by
    e_{i+1} = (-1)**a_i:

    * d == n: 2**(n-1) - sum a_i 2**i  (aligns the exit with tau_n);
    * d < n:  -(a_0 + ... + a_{d-1} 2**(d-1))  (aligns on "never exits", so
      both sides are unobserved).

    Negative values mean rewinding (applying the inverse path map).
    """
    n = len(e)
    d = first_zero_index(e)
    d = n if d is None else d - 1
    digits = [0 if x == 1 else 1 for x in e.entries[:d]]
    low = sum(a << i for i, a in enumerate(digits))
    if d == n:
        if n == 0:
            return 0
        return (1 << (n - 1)) - low
    return -low


# ---------------------------------------------------------------------------
# extraction from paths and the conjugate path maps
# ---------------------------------------------------------------------------

def trace_sign_word(tr: LadderTrace) -> SignWord:
    """Sign word of a ladder trace's increments.

    Entry k is +1 when the move over [tau_{k-1}, tau_k] has the same sign as
    c_k - c_{k-1}, -1 when opposite, 0 when tau_k is not observed.  Hits are
    tracked as exact rationals, so the comparison never touches rounded path
    values.
    """
    entries = tuple(d * tr.ladder.step_direction(k + 1)
                    for k, d in enumerate(tr.directions))
    return SignWord(entries)


def advance_path(p: Path, rule: StoppingRule) -> Path:
    """Flip the whole path, then reflect at the rule.  Its action on sign
    words (for the matching two-sided rule) is exactly advance_word."""
    return reflect_at_rule(negate(p), rule)


def rewind_path(p: Path, rule: StoppingRule) -> Path:
    """Inverse of :func:`advance_path`: reflect at the rule, then flip."""
    return negate(reflect_at_rule(p, rule))


def advance_path_power(p: Path, rule: StoppingRule, power: int) -> Path:
    step = advance_path if power >= 0 else rewind_path
    for _ in range(abs(power)):
        p = step(p, rule)
    return p
