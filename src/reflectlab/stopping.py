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
done by one kernel (``_locate_exit``): the first exit, after a knot k, of the
increment sum restarted at k from an interval whose sides may be unbounded.
It sums with one rule: blocks of increments, left to right, with the running
sum carried in as each block's first summand.  From knot 0 these sums are
``Path.values`` bit for bit, so a level passage and the ladder window that
defines the same stopping time agree to the bit.

The kernel only locates the exit (time, knot or segment, side) and leaves the
path alone.  Pinning it, a knot inserted at the exact target or an anchor
written on an existing knot (``_pin``), is paid only where an annotated path
is wanted: by ``observe``, by the pivot of ``ComposeReflect`` and by every
ladder step, since each ladder window restarts at the knot of the last one.
``evaluate`` returns the same float as ``observe`` and never annotates.

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
exact comparisons rather than float ones.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import DyadicRatioError, MixturePartitionError, RuleError
from .path import (
    NOT_OBSERVED,
    Path,
    _fast_path,
    insert_knot,
    is_observed,
    reflect_at_time,
    value_at,
)
from .rational import as_rational, is_dyadic

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
_NO_FLOOR: Bound = (-math.inf, None)
_NO_CEILING: Bound = (math.inf, None)


def _locate_exit(p: Path, k: int, lo: Bound, hi: Bound,
                 base: Fraction = Fraction(0)) -> Optional[Exit]:
    """First exit after knot k of the increment sum restarted at k from the
    open interval (lo, hi); an infinite bound leaves that side open.

    The bounds are relative to the value at knot k, whose exact value is
    ``base``.  Returns (time, knot_index, side, inside), side +1 for an exit
    through hi and -1 through lo, or None when the horizon comes first.  The
    path is not touched: ``_pin`` makes the exit a knot when the caller needs
    one.  ``inside`` marks a crossing inside the segment that ends at
    knot_index, at a time that is not a knot yet; otherwise the exit is at
    knot_index itself.  A start on or outside a bound exits at knot k.  A hit
    exactly at a knot counts at that knot (inf convention).

    One summation rule: each block of increments is summed left to right
    with the running sum carried in as its first summand.  At k = 0 the sums
    therefore equal ``p.values`` bit for bit, and a reflection pivoted at or
    before k negates them exactly, so a hit on a reflected path mirrors bit
    for bit.  A knot anchored at an exact target decides the hit there,
    overriding a float crossing in the segment that ends at it.
    """
    lo_f, lo_q = lo
    hi_f, hi_q = hi
    if not lo_f < 0.0 < hi_f:  # the start is on or past a bound
        return float(p.knots[k]), k, 1 if hi_f <= 0.0 else -1, False
    anchor = None
    if p.anchors and (lo_q is not None or hi_q is not None):
        for j, a in p.anchors.items():
            if j > k and (anchor is None or j < anchor) \
                    and a - base in (lo_q, hi_q):
                anchor = j
    inc = p.increments
    m = inc.size
    start, offset = k, 0.0
    while start < m and (anchor is None or start < anchor):
        stop = min(m, start + _BLOCK)
        u = np.empty(stop - start + 1)  # u[i]: the sum at knot start + i
        u[0] = offset
        u[1:] = inc[start:stop]
        np.cumsum(u, out=u)
        out = (u <= lo_f) | (u >= hi_f)
        i = int(out.argmax())
        if out[i]:
            j = start + i
            if anchor is not None and anchor <= j:
                break
            ui, u_prev = float(u[i]), float(u[i - 1])
            side = 1 if ui >= hi_f else -1
            target_f = hi_f if side == 1 else lo_f
            if ui == target_f:
                return float(p.knots[j]), j, side, False
            tl, tr = float(p.knots[j - 1]), float(p.knots[j])
            return (tl + (target_f - u_prev) * ((tr - tl) / (ui - u_prev)),
                    j, side, True)
        offset = float(u[-1])
        start = stop
    if anchor is None:
        return None
    side = 1 if p.anchors[anchor] - base == hi_q else -1
    return float(p.knots[anchor]), anchor, side, False


def _pin(p: Path, hit: Exit, lo: Bound, hi: Bound,
         base: Fraction = Fraction(0)) -> tuple[Path, int]:
    """p with the located exit made a knot, and that knot's index.

    A crossing inside a segment gets a new knot holding the target; a
    target with an exact part (``base`` plus the bound's exact value) is
    recorded as the knot's anchor, whether the knot is new or not.
    """
    t, j, side, inside = hit
    target_f, target_q = hi if side == 1 else lo
    if target_q is not None:
        target_q = base + target_q
    if inside:
        value = float(base) + target_f if target_q is None else float(target_q)
        return insert_knot(p, t, value, target_q)
    if target_q is not None and p.anchors.get(j) != target_q:
        anchors = dict(p.anchors)
        anchors[j] = target_q
        p = _fast_path(p.knots, p.increments, anchors)
    return p, j


# ---------------------------------------------------------------------------
# level ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LevelLadder:
    """Exact level sequence for barriers -a and b.

    levels:  c_0 .. c_n (c_0 = 0).
    exits:   d_1 .. d_n, the barrier (-a or b) of which c_{k-1} is the
             midpoint with c_k.
    steps:   |c_k - c_{k-1}|, k = 1 .. n.
    """

    a: Fraction
    b: Fraction
    levels: tuple[Fraction, ...]
    exits: tuple[Fraction, ...]
    steps: tuple[Fraction, ...]

    def step_direction(self, k: int) -> int:
        """Sign of c_k - c_{k-1} (1-based k)."""
        return 1 if self.levels[k] > self.levels[k - 1] else -1


@lru_cache(maxsize=256)
def ladder_levels(a: LevelLike, b: LevelLike, n: int) -> LevelLadder:
    """Compute the exact level sequence c_0..c_n for barriers -a and b.

    Raises DyadicRatioError when a/(a+b) is dyadic (the recursion would land
    on the midpoint (b-a)/2, where the map is undefined).
    """
    a = as_rational(a)
    b = as_rational(b)
    if a <= 0 or b <= 0:
        raise RuleError("barriers a and b must be positive")
    if n < 0:
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
        assert -a < nxt < b
        assert not is_dyadic((nxt + a) / (b + a))
        assert steps[-1] == min(x + a, b - x)      # distance to {-a, b}
        assert 2 * x == nxt + exit_                # x is the midpoint
    return LevelLadder(a, b, tuple(c), tuple(exits), tuple(steps))


@dataclass(frozen=True)
class LadderTrace:
    """Result of running the ladder on one path.

    times:          tau_0 .. tau_n (inf once not observed, then inf onwards).
    directions:     relative hit directions, +1 up, -1 down, 0 not observed.
    anchor_values:  exact values w(tau_k) for the observed steps
                    (length = number of finite times).
    path:           annotated copy of the input with every finite tau_k a knot
                    pinned to its exact value.
    """

    ladder: LevelLadder
    times: tuple[float, ...]
    directions: tuple[int, ...]
    anchor_values: tuple[Fraction, ...]
    path: Path

    @property
    def finite_count(self) -> int:
        return len(self.anchor_values)

    def last_finite(self, n: int) -> int:
        """max{k <= n : tau_k observed} (the index the skeleton freezes at)."""
        return min(n, self.finite_count - 1)

    def skeleton_value(self, n: int) -> Fraction:
        """Exact path value at the last observed ladder time <= n."""
        return self.anchor_values[self.last_finite(n)]


def ladder_trace(a: LevelLike, b: LevelLike, p: Path, n_max: int) -> LadderTrace:
    """Ladder times tau_0..tau_n_max on p, their directions and exact values,
    and the annotated copy of p in which each finite tau_k is a knot pinned
    to its exact level."""
    ladder = ladder_levels(a, b, n_max)
    times = [0.0]
    directions = []
    anchors = [Fraction(0)]
    idx = 0
    q = p
    for step in ladder.steps:
        hit = None
        if times[-1] != NOT_OBSERVED:  # absorbed: later steps stay unobserved
            window = (-float(step), -step), (float(step), step)
            hit = _locate_exit(q, idx, *window, anchors[-1])
        if hit is None:
            times.append(NOT_OBSERVED)
            directions.append(0)
            continue
        # every step is pinned: the next window restarts at this knot
        q, idx = _pin(q, hit, *window, anchors[-1])
        times.append(hit[0])
        directions.append(hit[2])
        anchors.append(q.anchors[idx])
    return LadderTrace(ladder, tuple(times), tuple(directions),
                       tuple(anchors), q)


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
    """First exit from knot 0 through the bounds, pinned when pin is set."""
    hit = _locate_exit(p, 0, *bounds)
    if hit is None:
        return NOT_OBSERVED, p
    return hit[0], _pin(p, hit, *bounds)[0] if pin else p


@dataclass(frozen=True)
class FixedTime(StoppingRule):
    """Deterministic time r (NOT_OBSERVED when r exceeds the horizon)."""

    r: float

    def __post_init__(self):
        if not 0.0 <= self.r < math.inf:
            raise RuleError(f"fixed time must be finite and nonnegative, "
                            f"got {self.r!r}")

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        if self.r > p.horizon:
            return NOT_OBSERVED, p
        if pin and p.knot_index(self.r) is None:
            p, _ = insert_knot(p, self.r, value_at(p, self.r))
        return self.r, p


@dataclass(frozen=True)
class FirstPassage(StoppingRule):
    """First time the path attains a level."""

    level: LevelLike

    def __post_init__(self):
        level = _as_level(self.level)
        object.__setattr__(self, "_bounds",
                           (_NO_FLOOR, level) if level[0] >= 0.0
                           else (level, _NO_CEILING))

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        return _passage(p, self._bounds, pin)


@dataclass(frozen=True)
class TwoSidedHit(StoppingRule):
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

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        return _passage(p, self._bounds, pin)


@dataclass(frozen=True)
class LadderStep(StoppingRule):
    """The n-th ladder time tau_n for barriers -a, b (tau_0 is always 0)."""

    a: LevelLike
    b: LevelLike
    n: int

    def __post_init__(self):
        ladder_levels(self.a, self.b, 0)  # validates a, b and the ratio
        if self.n < 0:
            raise RuleError("ladder index must be nonnegative")

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        # the trace pins every step, since each window restarts at the last
        tr = ladder_trace(self.a, self.b, p, self.n)
        return tr.times[self.n], tr.path


@dataclass(frozen=True)
class MinOf(StoppingRule):
    """Earlier of two rules."""

    left: StoppingRule
    right: StoppingRule

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        left = self.left._observe(p, pin)
        right = self.right._observe(p, pin)
        if not is_observed(min(left[0], right[0])):
            return NOT_OBSERVED, p
        return left if left[0] <= right[0] else right


@dataclass(frozen=True)
class MaxOf(StoppingRule):
    """Later of two rules (NOT_OBSERVED if either is)."""

    left: StoppingRule
    right: StoppingRule

    def _observe(self, p: Path, pin: bool = True) -> tuple[float, Path]:
        left = self.left._observe(p, pin)
        right = self.right._observe(p, pin)
        if not (is_observed(left[0]) and is_observed(right[0])):
            return NOT_OBSERVED, p
        return left if left[0] >= right[0] else right


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

    _OPS = {"lt": lambda x, y: x < y, "le": lambda x, y: x <= y,
            "eq": lambda x, y: x == y, "ge": lambda x, y: x >= y,
            "gt": lambda x, y: x > y}

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

    def __post_init__(self):
        if self.op not in ("neg", "zero", "pos"):
            raise RuleError(f"unknown sign op {self.op!r}")

    def holds(self, p: Path) -> bool:
        t = self.rule.evaluate(p)
        if not is_observed(t):
            return self.unobserved_matches
        v = value_at(p, t)
        if self.op == "neg":
            return v < 0.0
        if self.op == "pos":
            return v > 0.0
        return v == 0.0


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
# rule mini-grammar
# ---------------------------------------------------------------------------
#
#   rule := fixed(<num>) | hit(<level>) | Tpm(<level>,<level>)
#         | tau(<level>,<level>,<int>) | min(rule,rule) | max(rule,rule)
#         | compose(rule,rule)
#   level := integer | 'p/q' | decimal
#
# Rational-looking levels ('1', '1/2') are kept exact; decimals become floats.

_CALL = re.compile(r"^([A-Za-z_]+)\((.*)\)$", re.S)


def _split_args(s: str) -> list[str]:
    args, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise RuleError(f"unbalanced parentheses in {s!r}")
        if ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
    if cur or args:
        args.append("".join(cur).strip())
    return [a for a in args if a != ""]


def _parse_level(s: str) -> LevelLike:
    if re.fullmatch(r"-?\d+(/\d+)?", s):
        return Fraction(s)
    try:
        return float(s)
    except ValueError as exc:
        raise RuleError(f"cannot parse level {s!r}") from exc


def parse_rule(spec: str) -> StoppingRule:
    """Parse the CLI rule grammar (see module docstring)."""
    spec = spec.strip()
    m = _CALL.match(spec)
    if not m:
        raise RuleError(f"cannot parse rule {spec!r}")
    name, inside = m.group(1), m.group(2)
    args = _split_args(inside)

    def need(k):
        if len(args) != k:
            raise RuleError(f"{name} expects {k} argument(s), got {len(args)}")

    if name == "fixed":
        need(1)
        return FixedTime(float(args[0]))
    if name == "hit":
        need(1)
        return FirstPassage(_parse_level(args[0]))
    if name == "Tpm":
        need(2)
        return TwoSidedHit(_parse_level(args[0]), _parse_level(args[1]))
    if name == "tau":
        need(3)
        return LadderStep(_parse_level(args[0]), _parse_level(args[1]),
                          int(args[2]))
    if name == "min":
        need(2)
        return MinOf(parse_rule(args[0]), parse_rule(args[1]))
    if name == "max":
        need(2)
        return MaxOf(parse_rule(args[0]), parse_rule(args[1]))
    if name == "compose":
        need(2)
        return ComposeReflect(parse_rule(args[0]), parse_rule(args[1]))
    raise RuleError(f"unknown rule {name!r}")


def format_time(t: float) -> str:
    return "not_observed" if not is_observed(t) else repr(t)
