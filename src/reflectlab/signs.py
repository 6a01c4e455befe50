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

A ``SignWord`` is held packed, as its length n, its number d of nonzero
entries and a mask m with bit i set when entry i + 1 is -1, so each word map
is one bit operation that allocates one packed result: ``advance_word`` adds
1 to m modulo 2**d, ``rewind_word`` subtracts 1, with no word built in
between.  Words are validated only where they enter: the tuple constructor
(behind ``from_string``) and ``word_after_steps``'s suffix, which is checked
once per distinct suffix and reused (an invalid one is never kept, so it
raises on every call).  ``all_words`` keeps its order with one generator
and an explicit stack, not a generator per prefix.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional

from .errors import RuleError
from .path import Path, negate, reflect_at_rule
from .rational import _as_int
from .stopping import LadderTrace, StoppingRule

_VALUES = {"+": 1, "-": -1, "0": 0}
_DIGIT_CHARS = str.maketrans("01", "+-")
_new = object.__new__


class SignWord:
    """Word over {-1, 0, +1} with zeros absorbing, held as (n, d, m)."""

    __slots__ = ("_n", "_d", "_m")

    def __init__(self, entries):
        entries = tuple(entries)
        n = len(entries)
        d = n - entries.count(0)
        # valid when the n - d zeros come last and the rest are +1 or -1
        if entries.count(1) + entries.count(-1) != d or any(entries[d:]):
            self._reject(entries)
        m = 0
        for e in reversed(entries[:d]):
            m = m << 1 | (e == -1)
        self._n, self._d, self._m = n, d, m

    @staticmethod
    def _reject(entries: tuple) -> None:
        """Raise RuleError naming the first entry, left to right, that
        breaks a rule.  An entry equal to a sign (1.0, True) breaks none."""
        for i, e in enumerate(entries):
            if e not in (-1, 0, 1):
                raise RuleError(f"sign entries must be in -1, 0, 1; got {e!r}")
            if e != 0 and 0 in entries[:i]:
                raise RuleError(f"entry after a 0 must be 0: {entries}")

    @classmethod
    def from_string(cls, s: str) -> "SignWord":
        try:
            return cls(tuple(_VALUES[ch] for ch in s))
        except KeyError as exc:
            raise RuleError(f"bad sign character in {s!r}") from exc

    @property
    def entries(self) -> tuple[int, ...]:
        return tuple(map(_VALUES.__getitem__, self.to_string()))

    def to_string(self) -> str:
        # the d low bits of m, least significant first (the 1 above is cut)
        digits = format(self._m | 1 << self._d, "b")[:0:-1]
        return digits.translate(_DIGIT_CHARS) + "0" * (self._n - self._d)

    def __eq__(self, other) -> bool:
        return (other.__class__ is self.__class__ and self._m == other._m
                and self._d == other._d and self._n == other._n)

    def __hash__(self) -> int:
        return hash((self._n, self._d, self._m))

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, i) -> int:
        return self.entries[i]

    def __repr__(self) -> str:
        return f"SignWord({self.to_string()!r})"


def _packed(n: int, d: int, m: int) -> SignWord:
    """The word (n, d, m), unchecked: for the maps' results."""
    w = _new(SignWord)
    w._n, w._d, w._m = n, d, m
    return w


def first_down_index(e: SignWord) -> Optional[int]:
    """1-based index of the first -1, or None."""
    return (e._m & -e._m).bit_length() or None


def first_zero_index(e: SignWord) -> Optional[int]:
    """1-based index of the first 0, or None."""
    return e._d + 1 if e._d < e._n else None


def negate_word(e: SignWord) -> SignWord:
    return _packed(e._n, e._d, e._m ^ ((1 << e._d) - 1))


def reflect_word(e: SignWord) -> SignWord:
    """Keep entries up to and including the first -1, flip the rest.

    This is the action on sign words of reflecting the path at the two-sided
    exit time.  Without a -1 the word is unchanged (the exit never happens, so
    the reflection is the identity).  It is an involution.  On the mask it
    flips the bits above the lowest set bit, below bit d.
    """
    low = e._m & -e._m  # the first -1's bit, 0 when there is none
    return _packed(e._n, e._d, e._m ^ ((1 << e._d) - 1 & -(low << 1)))


def advance_word(e: SignWord) -> SignWord:
    """One odometer step: negate, then reflect.  A bijection of the
    zero-absorbing words of each length.

    Negating flips the d low bits of m, and reflecting then flips back those
    above the new lowest set bit, the old lowest clear one: together they
    flip the low ones of m and its lowest 0, which adds 1 modulo 2**d."""
    return _packed(e._n, e._d, e._m + 1 & (1 << e._d) - 1)


def rewind_word(e: SignWord) -> SignWord:
    """Inverse of :func:`advance_word` (reflect, then negate): subtracts 1
    from m modulo 2**d."""
    return _packed(e._n, e._d, e._m - 1 & (1 << e._d) - 1)


def _check_length(n) -> int:
    """n as a nonnegative int (``rational._as_int``), so 2.5 cannot build a
    word whose string raises and True cannot stand for 1."""
    if n.__class__ is not int:
        n = _as_int("word length n", n, RuleError)
    if n < 0:
        raise RuleError(f"word length n must be nonnegative, got {n}")
    return n


def all_words(n: int) -> Iterator[SignWord]:
    """All zero-absorbing words of length n (there are 2**(n+1) - 1), in
    lexicographic order with + before - before 0.

    A negative n raises here, not at the first word."""
    return _words(_check_length(n))


def _words(n: int) -> Iterator[SignWord]:
    """all_words's walk.  Each word of d < n nonzero entries comes right
    after the last word that extends it, the one whose entries d + 1..n are
    all -1.  So after each word without a 0 the walk clears the run of set
    bits at the top of m, from bit n - 1 down, emitting the shorter word
    each clear leaves, then sets the clear bit that stopped the run: the
    next word without a 0.  The stack holds the mask from before each bit
    still set, so clearing the bit pops that int and builds no new one."""
    stack = []
    m = 0
    while True:
        yield _packed(n, n, m)
        k = n - 1
        while k >= 0 and m >> k & 1:
            m = stack.pop()
            yield _packed(n, k, m)
            k -= 1
        if k < 0:
            return
        stack.append(m)
        m |= 1 << k


@lru_cache(maxsize=256)
def _suffix_word(suffix: tuple) -> SignWord:
    """The checked word of a hashable suffix tuple.  A RuleError is not
    cached, so an invalid suffix raises on every call."""
    return SignWord(suffix)


def word_after_steps(n: int, steps: int, suffix: tuple = ()) -> SignWord:
    """Closed form for advancing the all-plus word of length n ``steps``
    times: entry i is (-1)**a_i over the base-2 digits a_0..a_{n-1} of
    ``steps`` (least significant first), followed by the untouched suffix.

    Requires n >= 0 and 0 <= steps < 2**n.
    """
    n = _check_length(n)
    if steps.__class__ is not int:  # a call per word would cost 10%
        steps = _as_int("steps", steps, RuleError)
    if not 0 <= steps < 1 << n:
        raise RuleError(f"steps must be in [0, 2**{n}), got {steps}")
    suffix = tuple(suffix)  # a tuple is returned as it is
    try:
        tail = _suffix_word(suffix)
    except TypeError:  # an unhashable entry: the constructor names it
        tail = SignWord(suffix)
    return _packed(n + tail._n, n + tail._d, steps | tail._m << n)


def exit_alignment_power(e: SignWord) -> int:
    """Number of advance steps aligning the two-sided exit with ladder step n.

    For a word e of length n with d nonzero entries and digits a_i defined by
    e_{i+1} = (-1)**a_i (so that sum a_i 2**i is the mask m):

    * d == n: 2**(n-1) - sum a_i 2**i  (aligns the exit with tau_n);
    * d < n:  -(a_0 + ... + a_{d-1} 2**(d-1))  (aligns on "never exits", so
      both sides are unobserved).

    Negative values mean rewinding (applying the inverse path map).
    """
    if e._d < e._n:
        return -e._m
    return (1 << (e._n - 1)) - e._m if e._n else 0


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
    return SignWord(d * tr.ladder.step_direction(k + 1)
                    for k, d in enumerate(tr.directions))


def advance_path(p: Path, rule: StoppingRule) -> Path:
    """Flip the whole path, then reflect at the rule.  Its action on sign
    words (for the matching two-sided rule) is exactly advance_word."""
    return reflect_at_rule(negate(p), rule)


def rewind_path(p: Path, rule: StoppingRule) -> Path:
    """Inverse of :func:`advance_path`: reflect at the rule, then flip."""
    return negate(reflect_at_rule(p, rule))


def advance_path_power(p: Path, rule: StoppingRule, power: int) -> Path:
    power = _as_int("power", power, RuleError)
    step = advance_path if power >= 0 else rewind_path
    for _ in range(abs(power)):
        p = step(p, rule)
    return p
