"""Stopping rules, first-passage scans and the exact-rational level ladder.

Rules are immutable descriptors evaluated on a path.  Evaluation returns the
stopping time as a float, with ``NOT_OBSERVED`` (+inf) when the defining event
does not occur before the horizon.  ``observe`` additionally returns an
annotated copy of the path in which the stopping time is a knot, pinned to the
exact target level for passage-type rules.  Reflections pivot on those knots,
which is what makes the pathwise identities in the test suites exact instead
of merely close.

Exit scan
---------
``FirstPassage``, ``TwoSidedHit`` and every ladder step are one operation,
done by one kernel (``_locate_exit``): the first exit of the increment sum
restarted at a knot from an interval whose sides may be unbounded.  It sums
with one rule: increments left to right from 0.0, in blocks that carry the
running sum in as their first summand.  The first block holds ``_BLOCK``
summands and each later one twice as many as the one before, so an early
exit stops early and a long scan makes few numpy calls; where the seams
fall never changes a bit.  From knot 0 these sums are ``Path.values`` bit
for bit, so a level passage and the ladder window that defines the same
stopping time agree to the bit, and a scan from knot 0 reads that cache
when the path already has it.  A window that ends at a knot anchored on one
of its bounds (``_first_anchor``) is summed to that knot in one cumsum.

The kernel only locates the exit (time, knot or segment, side) and leaves the
path alone.  Pinning it (``_pin_exit``), a knot inserted at the exact target
or an anchor written on an existing knot, is paid only where an annotated
path is wanted: by ``observe`` and by the pivot of ``ComposeReflect``.
Level rules and ladder steps share that search and that pin.  ``evaluate``
returns the same float as ``observe`` and never annotates.  Every level scan
(``FirstPassage``, ``TwoSidedHit``), pinned or not, is memoized on the path
it scanned, so every later ``observe``, ``evaluate``, reflection or pivot of
the same rule on the same path object reads it instead of scanning again:
``evaluate`` keeps the located exit, and a later ``observe`` pins from it,
so each copy is made at most once (see ``_passage``).  A ladder trace locates
all of its steps on the input path: a window that starts at a crossing not
inserted yet scans from the next knot, with the crossing's split increment
as the first summand (the kernel's ``lead``), which is the sum the inserted
knot would give.  It then inserts every crossing knot in one copy.

Level ladder
------------
For positive rationals a, b with a/(a+b) not dyadic, levels inside (-a, b) are
driven by the map

    f(x) = 2x + a   if x < (b-a)/2,
    f(x) = 2x - b   if x > (b-a)/2,

which is conjugate (by the affine map sending -a to 0 and b to 1) to the
doubling map x -> 2x mod 1 on the non-dyadic part of (0, 1).  Starting from 0,
the iterates c_0, c_1, ... define step magnitudes |c_n - c_{n-1}|, each equal
to the distance from c_{n-1} to {-a, b}; c_{n-1} is the midpoint of the
interval joining c_n to the nearer barrier.  The recursion is computed in
exact rational arithmetic because the conjugacy to the doubling map makes any
float rounding grow exponentially with n.

The ladder times on a path w are then

    tau_0 = 0,
    tau_n = inf{t >= tau_{n-1} : |w(t) - w(tau_{n-1})| = |c_n - c_{n-1}|},

an increasing sequence of stopping times.  The evaluator tracks the realized
values w(tau_n) as exact rationals (the anchor of step n plus or minus the
step magnitude), so sign extraction and hitting-time identities are decided by
exact comparisons rather than float ones.  Every level and every realized
value lies on the grid (1/lcm(den a, den b))Z, so a trace holds them as
integers over that denominator, ``LevelLadder.den``.
"""

from __future__ import annotations

import math
import operator
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from typing import Optional, Union

import numpy as np

from .errors import (ConfigurationError, DyadicRatioError,
                     MixturePartitionError, RuleError)
from .path import (
    NOT_OBSERVED,
    _MEMO_SIZE,
    Path,
    _KnotInsertion,
    _interpolate,
    insert_knot,
    is_observed,
    reflect_at_time,
    value_at,
)
from .rational import _as_int, _is_real, as_rational, is_dyadic

LevelLike = Union[int, str, Fraction, float]


def _as_level(x: LevelLike) -> tuple[float, Optional[Fraction]]:
    """Float value plus the exact rational when one was given."""
    if isinstance(x, float):
        if not math.isfinite(x):
            raise RuleError(f"level must be finite, got {x!r}")
        return x, None
    q = as_rational(x)
    try:
        return float(q), q
    except OverflowError as exc:
        raise RuleError(f"level {x!r} has no finite float value") from exc


# ---------------------------------------------------------------------------
# exit scan
# ---------------------------------------------------------------------------

_BLOCK = 2048

Bound = tuple[float, Optional[Fraction]]  # (float, exact value or None)
Exit = tuple[float, int, int, bool]  # (time, knot index, side, inside)
Lead = tuple[float, float]  # (start time, increment from it to knot k)
_NO_FLOOR: Bound = (-math.inf, None)
_NO_CEILING: Bound = (math.inf, None)


def _locate_exit(p: Path, k: int, lo: float, hi: float,
                 anchor: Optional[tuple[int, int]] = None,
                 lead: Optional[Lead] = None) -> Optional[Exit]:
    """First exit of the increment sum restarted at the scan start from the
    open interval (lo, hi); an infinite bound leaves that side open.

    The scan starts at knot k, or with a lead (t0, d) at time t0 inside the
    segment that ends at knot k, from where the first summand d reaches
    knot k: the split increment of a knot not inserted yet.  Returns (time,
    knot_index, side, inside), side +1 for an exit through hi and -1
    through lo, or None when the horizon comes first.  The path is not
    touched.  ``inside`` marks a crossing inside the segment that ends at
    knot_index (starting at t0 for the lead's segment), at a time that is
    not a knot yet; otherwise the exit is at knot_index itself.  A start on
    or outside a bound exits at the start.  A hit exactly at a knot counts
    at that knot (inf convention).

    ``anchor`` (j, side) is an anchored knot j after the start whose exact
    value is on the bound of that side: the exit is there unless the float
    sums leave before knot j, so the window up to it is summed in one
    exact-length cumsum.  Without an anchor the sums run in blocks: the
    first of ``_BLOCK`` summands, so an early exit stops early, and each
    later one twice the one before, so a scan of n summands pays the fixed
    cost of a block (the numpy calls) about log2(n / _BLOCK) times instead
    of n / _BLOCK times.

    One summation rule: summands are added left to right from 0.0, a
    block's first summand being the running sum carried in, so the block
    sizes move only the seams, never a sum.  From knot 0 these sums are
    ``p.values`` bit for bit, and that cache, when it exists, is read
    instead.  A reflection pivoted at or before the start negates the sums
    exactly, so a hit on a reflected path mirrors bit for bit.
    """
    t0 = float(p.knots[k]) if lead is None else lead[0]
    if not lo < 0.0 < hi:  # the start is on or past a bound
        return t0, k, 1 if hi <= 0.0 else -1, lead is not None
    knots, inc = p.knots, p.increments
    first = k if lead is None else k - 1  # the sum at knot first + i is u_i
    n = inc.size - first if anchor is None else anchor[0] - 1 - first
    values = p.__dict__.get("values") if first == 0 and lead is None else None
    start, offset, block = 0, 0.0, _BLOCK
    while start < n:
        stop = n if anchor is not None else min(n, start + block)
        block *= 2
        if values is not None:
            u = values[start:stop + 1]
        else:
            u = np.empty(stop - start + 1)  # u[i]: u_(start + i)
            u[0] = offset
            u[1:] = inc[first + start:first + stop]
            if start == 0 and lead is not None:
                u[1] = lead[1]
            np.cumsum(u, out=u)
        out = (u <= lo) | (u >= hi)
        i = int(out.argmax())
        if out[i]:
            j = first + start + i
            ui, u_prev = float(u[i]), float(u[i - 1])
            side = 1 if ui >= hi else -1
            target = hi if side == 1 else lo
            if ui == target:
                return float(knots[j]), j, side, False
            tl = t0 if start + i == 1 else float(knots[j - 1])
            return (_interpolate(u_prev, ui, tl, float(knots[j]), target),
                    j, side, True)
        offset = float(u[-1])
        start = stop
    if anchor is None:
        return None
    return float(knots[anchor[0]]), anchor[0], anchor[1], False


def _first_anchor(anchors, first: int, lo, hi) -> Optional[tuple[int, int]]:
    """``_locate_exit``'s anchor for a scan past knot first: the least knot
    j > first whose exact value in anchors, (j, value) pairs in any order,
    is lo or hi, with its side, +1 for hi and -1 for lo; or None."""
    found = min(((j, x) for j, x in anchors if j > first and x in (lo, hi)),
                default=None)
    return None if found is None else (found[0], 1 if found[1] == hi else -1)


def _pin_exit(knots: _KnotInsertion, hit: Exit, v: float,
              exact: Optional[Fraction]) -> int:
    """Make an exit ``_locate_exit`` found on knots.p a knot: one inserted at
    its time holding v when it crosses inside a segment, else exact recorded
    on the knot it ends at; returns that knot's final index."""
    t, j, _, inside = hit
    return knots.insert(t, v, exact) if inside else knots.pin(j, exact)


# ---------------------------------------------------------------------------
# level ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelLadder:
    """Exact level sequence for barriers -a and b.

    levels:        c_0 .. c_n (c_0 = 0).
    exits:         d_1 .. d_n, the barrier (-a or b) of which c_{k-1} is the
                   midpoint with c_k.
    steps:         |c_k - c_{k-1}|, k = 1 .. n.
    den:           lcm(den a, den b); every level is an integer over den.
    scaled_steps:  the steps times den, integers.
    """

    a: Fraction
    b: Fraction
    levels: tuple[Fraction, ...]
    exits: tuple[Fraction, ...]
    steps: tuple[Fraction, ...]
    den: int
    scaled_steps: tuple[int, ...]

    @cached_property
    def float_steps(self) -> tuple[float, ...]:
        """The steps as floats, which only a trace needs.  RuleError when a
        step has no positive finite float: the scan would treat every window
        as exited at its start, or fail mid-trace."""
        message = "every ladder step needs a positive finite float value"
        try:
            steps = tuple(s / self.den for s in self.scaled_steps)
        except OverflowError as exc:  # int / int past the float range
            raise RuleError(message) from exc
        if 0.0 in steps:
            raise RuleError(message)
        return steps

    def step_direction(self, k: int) -> int:
        """Sign of c_k - c_{k-1} (1-based k)."""
        return 1 if self.levels[k] > self.levels[k - 1] else -1

    def violations(self) -> int:
        """How many steps k = 1 .. n break an invariant of the recursion."""
        a, b = self.a, self.b
        return sum(not (-a < c < b
                        and not is_dyadic((c + a) / (b + a))
                        and step == min(x + a, b - x)  # distance to {-a, b}
                        and 2 * x == c + d)  # x is the midpoint of c and d_k
                   for x, c, d, step in zip(self.levels, self.levels[1:],
                                            self.exits, self.steps))


# typed: an equal bool or float must miss the cache and reach as_rational
@lru_cache(maxsize=256, typed=True)
def ladder_levels(a: LevelLike, b: LevelLike, n: int) -> LevelLadder:
    """Compute the exact level sequence c_0..c_n for barriers -a and b.

    Raises DyadicRatioError when a/(a+b) is dyadic (the recursion would land
    on the midpoint (b-a)/2, where the map is undefined).
    """
    a = as_rational(a)
    b = as_rational(b)
    if a <= 0 or b <= 0:
        raise RuleError("barriers a and b must be positive")
    if _as_int("n", n, RuleError) < 0:
        raise RuleError("n must be nonnegative")
    if is_dyadic(a / (a + b)):
        raise DyadicRatioError(f"a/(a+b) = {a / (a + b)} is dyadic")
    half = (b - a) / 2
    c = [Fraction(0)]
    exits = []
    steps = []
    for _ in range(n):
        x = c[-1]
        assert x != half  # guaranteed by the non-dyadic ratio
        if x < half:
            nxt, exit_ = 2 * x + a, -a
        else:
            nxt, exit_ = 2 * x - b, b
        c.append(nxt)
        exits.append(exit_)
        steps.append(abs(nxt - x))
    den = math.lcm(a.denominator, b.denominator)
    ladder = LevelLadder(a, b, tuple(c), tuple(exits), tuple(steps), den,
                         tuple(int(s * den) for s in steps))
    assert ladder.violations() == 0
    return ladder


def _checked_ladder(a: LevelLike, b: LevelLike, n: int,
                    words: bool = False) -> tuple[Fraction, Fraction]:
    """a and b as rationals, checked with n as a trace of n steps checks
    them, float steps included, before any draw.  With words set, n is a
    word length, and 0, which would check nothing, is rejected first."""
    if words and _as_int("n", n, ConfigurationError) == 0:
        raise ConfigurationError("n must be at least 1, got 0")
    ladder = ladder_levels(a, b, n)
    ladder.float_steps
    return ladder.a, ladder.b


@dataclass(frozen=True)
class LadderTrace:
    """Result of running the ladder on one path.

    times:          tau_0 .. tau_n (inf once not observed, then inf onwards).
    directions:     relative hit directions, +1 up, -1 down, 0 not observed.
    scaled_values:  exact values w(tau_k) times ``ladder.den``, integers,
                    for the observed steps (length = number of finite times).
    path:           annotated copy of the input with every finite tau_k a knot
                    pinned to its exact value.
    """

    ladder: LevelLadder
    times: tuple[float, ...]
    directions: tuple[int, ...]
    scaled_values: tuple[int, ...]
    path: Path

    @cached_property
    def anchor_values(self) -> tuple[Fraction, ...]:
        """Exact values w(tau_k) for the observed steps."""
        return tuple(Fraction(x, self.ladder.den) for x in self.scaled_values)

    def last_finite(self, n: int) -> int:
        """max{k <= n : tau_k observed} (the index the skeleton freezes at)."""
        return min(n, len(self.scaled_values) - 1)

    def skeleton_value(self, n: int) -> Fraction:
        """Exact path value at the last observed ladder time <= n."""
        return self.anchor_values[self.last_finite(n)]


def ladder_trace(a: LevelLike, b: LevelLike, p: Path, n_max: int) -> LadderTrace:
    """Ladder times tau_0..tau_n_max on p, their directions and exact values,
    and the annotated copy of p in which each finite tau_k is a knot pinned
    to its exact level.

    Every step is located on p itself: a window that starts at a crossing
    not inserted yet scans from the next knot of p after the crossing's
    split increment.  The knots are inserted in one copy at the end.
    Inside the trace the exact values are integers over ``LevelLadder.den``,
    and the trace keeps them so (``scaled_values``); an anchor of p off that
    grid can never end a window and is skipped.
    """
    return _trace(ladder_levels(a, b, n_max), p, (0.0,), (), (0,), 0)


def _trace(ladder: LevelLadder, p: Path, times: tuple, directions: tuple,
           scaled: tuple, k: int) -> LadderTrace:
    """The ladder loop: the trace of p to the last step of ladder, from a
    start state in which tau_0 .. tau_m, m = len(directions), are observed,
    with their times, directions and exact values times ``ladder.den``
    given, and tau_m is knot k of p.  From knot 0 that state is (0.0,),
    (), (0,) and k = 0."""
    den, steps, steps_f = ladder.den, ladder.scaled_steps, ladder.float_steps
    grid = [(j, x.numerator * (den // x.denominator))
            for j, x in p.anchors.items() if den % x.denominator == 0]
    knots = _KnotInsertion(p)
    times, directions, scaled = list(times), list(directions), list(scaled)
    base = scaled[-1]  # the exact value at the window start, times den
    lead = None
    m = len(directions)
    for step, step_f in zip(steps[m:], steps_f[m:]):
        hit = None
        if times[-1] != NOT_OBSERVED:  # absorbed: later steps stay unobserved
            anchor = _first_anchor(grid, k if lead is None else k - 1,
                                   base - step, base + step)
            hit = _locate_exit(p, k, -step_f, step_f, anchor, lead)
        if hit is None:
            times.append(NOT_OBSERVED)
            directions.append(0)
            continue
        # every step is pinned: the next window restarts at this knot
        t, _, side, _ = hit
        base += side * step
        k, lead = knots.resume(_pin_exit(knots, hit, base / den,
                                         Fraction(base, den)))
        times.append(t)
        directions.append(side)
        scaled.append(base)
    return LadderTrace(ladder, tuple(times), tuple(directions), tuple(scaled),
                       knots.path())


def _reflected_trace(tr: LadderTrace, n: int) -> LadderTrace:
    """``ladder_trace`` to step n + 1 of tr.path reflected at tau_n, an
    observed ladder time of tr, bit for bit, resumed at tau_n.

    Up to tau_n the reflected path has tr.path's knots, increments and
    anchors, and the windows of steps 1 .. n end there, so its steps 1 .. n
    are tr's: the same times, directions and exact values, each at a knot
    already pinned to its value.  The trace starts from that state at tau_n
    and scans step n + 1 on the reflected path's own negated increments.
    Reflecting here, not taking a path from the caller, is what ties the
    resumed path to tr.
    """
    t = tr.times[n]
    q = reflect_at_time(tr.path, t)
    return _trace(ladder_levels(tr.ladder.a, tr.ladder.b, n + 1), q,
                  tr.times[:n + 1], tr.directions[:n],
                  tr.scaled_values[:n + 1], q.knot_index(t))


# ---------------------------------------------------------------------------
# stopping rules
# ---------------------------------------------------------------------------

class StoppingRule:
    """Base class: a non-anticipating time functional of the path.

    Subclasses implement ``_observe``; two paths that agree up to the rule's
    time receive equal times (checked dynamically by the stability suite).
    """

    def evaluate(self, p: Path) -> float:
        """The rule's time on p, without annotating a copy of p."""
        return self._observe(p, False)[0]

    def observe(self, p: Path) -> tuple[float, Path]:
        """(time, annotated path); the time is a knot of the annotated path
        whenever it is observed."""
        return self._observe(p)

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        """(time, path): with pin set, the path is the annotated copy of
        ``observe``; without it, the path need not be annotated, and callers
        read only the time.  Composite rules pass pin on to their parts."""
        raise NotImplementedError


def _passage(p: Path, bounds: tuple[Bound, Bound],
             pin: bool) -> tuple[float, Path]:
    """First exit from knot 0 through the bounds, pinned when pin is set
    (``_pin_exit``).  A knot anchored at an exact target decides the hit
    there, overriding a float crossing in the segment that ends at it
    (``_first_anchor``); an unanchored path or a float level skips that.

    Every scan, pinned or not, is memoized on p, in its ``__dict__`` beside
    the ``values`` cache, and serves every later call with the same bounds
    object: paths and rules are immutable and the scan is deterministic, so
    the memo returns the bits a new scan would.  Every entry is (bounds,
    time, pinned copy, exit): a scan stores its exit and no copy, and the
    first call with pin pins from that exit and stores the copy, with no
    exit left to pin, in place.  The copy is not stored when it is p
    itself, so a path never refers to itself.  The key is ``id(bounds)``;
    the entry holds bounds, so that id is not reused while the entry lives,
    and a pickled path carries no memo (``Path.__reduce__``).  A memo keeps
    at most ``_MEMO_SIZE`` entries, so however many rules ask about a
    long-lived path, its memo holds at most that many pinned copies.
    """
    memo = p.__dict__.setdefault("_passages", {})
    entry = memo.get(id(bounds))
    if entry is None:
        if len(memo) >= _MEMO_SIZE:
            del memo[next(iter(memo))]
        (lo_f, lo_q), (hi_f, hi_q) = bounds
        anchor = None
        if p.anchors and (lo_q is not None or hi_q is not None):
            anchor = _first_anchor(p.anchors.items(), 0, lo_q, hi_q)
        hit = _locate_exit(p, 0, lo_f, hi_f, anchor)
        entry = memo[id(bounds)] = (
            bounds, NOT_OBSERVED if hit is None else hit[0], None, hit)
    _, t, pinned, hit = entry
    if pin and hit is not None:  # located, not pinned yet
        knots = _KnotInsertion(p)
        _pin_exit(knots, hit, *bounds[hit[2] == 1])  # at the bound crossed
        pinned = knots.path()
        memo[id(bounds)] = bounds, t, None if pinned is p else pinned, None
    return t, (pinned if pin and pinned is not None else p)


class _PassageRule(StoppingRule):
    """A first exit from knot 0 through ``_bounds``, the rule's (floor,
    ceiling) pair of Bounds, on one path or, by ``rows``, on a block."""

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        return _passage(p, self._bounds, pin)

    def rows(self, knots: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The time ``evaluate`` gives on each unanchored path on knots
        whose ``values`` is a row of values, bit for bit: the tests and the
        formula of ``_locate_exit`` from knot 0, applied to the columns."""
        (lo, _), (hi, _) = self._bounds
        out = (values <= lo) | (values >= hi)
        j = out.argmax(axis=1)
        rows = np.flatnonzero(out[np.arange(j.size), j])
        j = j[rows]
        u = values[rows, j]
        target = np.where(u >= hi, hi, lo)
        t = np.full(values.shape[0], NOT_OBSERVED)
        t[rows] = knots[j]
        inside = (u != target) & (j > 0)
        rows, j = rows[inside], j[inside]
        t[rows] = _interpolate(values[rows, j - 1], u[inside], knots[j - 1],
                               knots[j], target[inside])
        return t


@dataclass(frozen=True)
class FixedTime(StoppingRule):
    """Deterministic time r (NOT_OBSERVED when r exceeds the horizon)."""

    r: float

    def __post_init__(self):
        if not (_is_real(self.r) and 0.0 <= self.r <= sys.float_info.max):
            raise RuleError(f"fixed time must be finite and nonnegative, "
                            f"got {self.r!r}")
        # kept as the float it stops at, so a Fraction time finds its knot
        object.__setattr__(self, "r", float(self.r))

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        if self.r > p.horizon:
            return NOT_OBSERVED, p
        if pin and p.knot_index(self.r) is None:
            p, _ = insert_knot(p, self.r, value_at(p, self.r))
        return self.r, p


@dataclass(frozen=True)
class FirstPassage(_PassageRule):
    """First time the path attains a level."""

    level: LevelLike

    def __post_init__(self):
        level = _as_level(self.level)
        object.__setattr__(self, "_bounds",
                           (_NO_FLOOR, level) if level[0] >= 0.0
                           else (level, _NO_CEILING))


@dataclass(frozen=True)
class TwoSidedHit(_PassageRule):
    """First exit from the interval (-a, b): the minimum of the passage times
    at -a and at b, for positive a and b."""

    a: LevelLike
    b: LevelLike

    def __post_init__(self):
        lo_f, lo_q = _as_level(self.a)
        hi = _as_level(self.b)
        if lo_f <= 0 or hi[0] <= 0:
            raise RuleError("two-sided barriers must be positive")
        object.__setattr__(self, "_bounds",
                           ((-lo_f, None if lo_q is None else -lo_q), hi))


@dataclass(frozen=True)
class LadderStep(StoppingRule):
    """The n-th ladder time tau_n for barriers -a, b (tau_0 is always 0)."""

    a: LevelLike
    b: LevelLike
    n: int

    def __post_init__(self):
        n = _as_int("ladder index", self.n, RuleError)
        if n < 0:
            raise RuleError("ladder index must be nonnegative")
        object.__setattr__(self, "n", n)
        _checked_ladder(self.a, self.b, n)

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        # the trace pins every step, with or without pin
        tr = ladder_trace(self.a, self.b, p, self.n)
        return tr.times[self.n], tr.path


@dataclass(frozen=True)
class _PairRule(StoppingRule):
    """The earlier (``_pick = min``) or later (``max``) of two rules' times;
    the left rule wins a tie, and an unobserved pick is unobserved."""

    left: StoppingRule
    right: StoppingRule

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        left = self.left._observe(p, pin)
        right = self.right._observe(p, pin)
        t = self._pick(left[0], right[0])
        if not is_observed(t):
            return NOT_OBSERVED, p
        return left if left[0] == t else right


class MinOf(_PairRule):
    """Earlier of two rules."""

    _pick = min


class MaxOf(_PairRule):
    """Later of two rules (NOT_OBSERVED if either is)."""

    _pick = max


# --- prefix events for mixtures -------------------------------------------
#
# The vocabulary is deliberately closed: comparisons between rule times and
# the sign of the value at a rule time.  Used with branch rules whose own
# times bound the event's defining times, these events are decidable from the
# path up to the branch time, which is the measurability discipline mixtures
# require (violations surface in the non-anticipation checks of the stability
# suite rather than passing silently).

class PrefixEvent:
    def holds(self, p: Path) -> bool:
        raise NotImplementedError


@dataclass(frozen=True)
class TimeCompare(PrefixEvent):
    """Event comparing the times of two rules, e.g. {S <= T}."""

    left: StoppingRule
    right: StoppingRule
    op: str  # lt | le | eq | ge | gt

    _OPS = {"lt": operator.lt, "le": operator.le, "eq": operator.eq,
            "ge": operator.ge, "gt": operator.gt}

    def __post_init__(self):
        if self.op not in self._OPS:
            raise RuleError(f"unknown comparison {self.op!r}")

    def holds(self, p: Path) -> bool:
        return self._OPS[self.op](self.left.evaluate(p),
                                  self.right.evaluate(p))


@dataclass(frozen=True)
class SignAtTime(PrefixEvent):
    """Event on the sign of the path value at a rule's time; an unobserved
    rule matches only when unobserved_matches is set."""

    rule: StoppingRule
    op: str  # neg | zero | pos
    unobserved_matches: bool = False

    _SIGNS = {"neg": -1, "zero": 0, "pos": 1}

    def __post_init__(self):
        if self.op not in self._SIGNS:
            raise RuleError(f"unknown sign op {self.op!r}")

    def holds(self, p: Path) -> bool:
        t = self.rule.evaluate(p)
        if not is_observed(t):
            return self.unobserved_matches
        v = value_at(p, t)
        return (v > 0.0) - (v < 0.0) == self._SIGNS[self.op]


@dataclass(frozen=True)
class Mixture(StoppingRule):
    """Optional mixture: follow the branch whose event holds.

    The events must partition path space; a path on which none or several
    hold raises MixturePartitionError.
    """

    branches: tuple[tuple[StoppingRule, PrefixEvent], ...]

    def __post_init__(self):
        if not self.branches:
            raise RuleError("mixture needs at least one branch")

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        chosen = [rule for rule, event in self.branches if event.holds(p)]
        if len(chosen) != 1:
            raise MixturePartitionError(
                f"{len(chosen)} mixture events hold; expected exactly 1")
        return chosen[0]._observe(p, pin)


@dataclass(frozen=True)
class ComposeReflect(StoppingRule):
    """The rule S evaluated after reflecting at the rule T (S o rho_T)."""

    inner: StoppingRule
    pivot: StoppingRule

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        # pinned even for evaluate: the reflection pivots at an exact knot
        t_piv, p_piv = self.pivot.observe(p)
        if not is_observed(t_piv):
            return self.inner._observe(p, pin)
        reflected = reflect_at_time(p_piv, t_piv)
        t, annotated = self.inner._observe(reflected, pin)
        return t, reflect_at_time(annotated, t_piv) if pin else p


# ---------------------------------------------------------------------------
# spec grammars: the rule grammar, and the call lexer that the law grammar
# (samplers.parse_law) shares with it
# ---------------------------------------------------------------------------

def _parse_call(spec: str, table: dict, what: str, error: type):
    """Lex ``name(arg,...)``, one call of the rule or the law grammar: the
    name, its entry in table and the arguments, split at the commas outside
    inner parentheses and stripped.  error("cannot parse <what> '<spec>'")
    when the parentheses do not balance or an argument is empty, and
    error("unknown <what> '<name>'") for a name not in table."""
    spec = spec.strip()
    m = re.fullmatch(r"([A-Za-z_]+)\((.*)\)", spec, re.S)
    # name() has no argument; the comma appended ends the last one
    inside = m.group(2) + "," if m and m.group(2).strip() else ""
    args, depth, start = [], 0, 0
    for i, ch in enumerate(inside):
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            break
        if ch == "," and depth == 0:
            args.append(inside[start:i].strip())
            start = i + 1
    if not m or depth or "" in args:
        raise error(f"cannot parse {what} {spec!r}")
    name = m.group(1)
    if name not in table:
        raise error(f"unknown {what} {name!r}")
    return name, table[name], args


def _parse_level(s: str) -> LevelLike:
    try:
        return Fraction(s) if re.fullmatch(r"-?\d+(/\d+)?", s) else float(s)
    except (ValueError, ZeroDivisionError) as exc:  # '1/0' is rational-looking
        raise RuleError(f"cannot parse level {s!r}") from exc


def _number(convert, what: str):
    """A parser of one number argument that raises RuleError."""
    def parse(s: str):
        try:
            return convert(s)
        except ValueError as exc:
            raise RuleError(f"cannot parse {what} {s!r}") from exc
    return parse


def parse_rule(spec: str) -> StoppingRule:
    """Parse a rule spec of the CLI grammar:

        rule  := fixed(<num>) | hit(<level>) | Tpm(<level>,<level>)
               | tau(<level>,<level>,<int>) | min(rule,rule)
               | max(rule,rule) | compose(rule,rule)
        level := integer | 'p/q' | decimal

    Rational-looking levels ('1', '1/2') are kept exact; decimals become
    floats.  Every malformed spec raises RuleError; an empty argument
    (``Tpm(1,,2)``) or an unbalanced parenthesis names the whole spec; one
    nested more than ``_MAX_RULE_DEPTH`` calls deep is rejected first.
    """
    depth = max(accumulate((ch == "(") - (ch == ")") for ch in spec),
                default=0)
    if depth > _MAX_RULE_DEPTH:
        raise RuleError(f"rule spec nested {depth} calls deep; at most "
                        f"{_MAX_RULE_DEPTH} are taken")
    name, (cls, parsers), args = _parse_call(spec, _RULES, "rule", RuleError)
    if len(args) != len(parsers):
        raise RuleError(f"{name} expects {len(parsers)} argument(s), "
                        f"got {len(args)}")
    return cls(*(parse(arg) for parse, arg in zip(parsers, args)))


#: The deepest nesting of calls parse_rule takes: a rule's repr recurses
#: three frames a level, so about 330 exhaust the default recursion limit.
_MAX_RULE_DEPTH = 100

#: rule name -> (rule class, one parser per argument)
_RULES = {
    "fixed": (FixedTime, (_number(float, "time"),)),
    "hit": (FirstPassage, (_parse_level,)),
    "Tpm": (TwoSidedHit, (_parse_level, _parse_level)),
    "tau": (LadderStep,
            (_parse_level, _parse_level, _number(int, "ladder index"))),
    "min": (MinOf, (parse_rule, parse_rule)),
    "max": (MaxOf, (parse_rule, parse_rule)),
    "compose": (ComposeReflect, (parse_rule, parse_rule)),
}


def format_time(t: float) -> str:
    return "not_observed" if not is_observed(t) else repr(t)
