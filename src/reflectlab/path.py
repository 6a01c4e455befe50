"""Piecewise-linear sample paths and reflections.

A path is stored as knot times plus the increments between consecutive knots,
with w(0) = 0.  Values are reconstructed by prefix sums on demand.  The
increment representation is deliberate: reflecting a path after a pivot is
then a pure sign flip of an increment suffix, so reflecting twice restores the
original increments bit for bit, which no representation based on absolute
values (x -> 2a - x twice) can guarantee in floating point.

Between knots the path is affine; that interpolation convention is the
official semantics, and every stopping time in :mod:`reflectlab.stopping` is
computed exactly for this class of paths.

Knots may carry an exact rational value (an "anchor").  Anchors are written
when a crossing knot is inserted at an exact target level and are consulted
by the scanning code to resolve hits that float comparison alone cannot
decide at the last ulp.  They are refinements, never a second source of
truth: dropping every anchor changes results only at ulp scale.

A path never changes after construction, so it caches what is derived from
it alone, in its ``__dict__``: its prefix-sum ``values``, built on first use,
the level scans that :mod:`reflectlab.stopping` has made on it (time, and the
located exit or the annotated copy) and its reflections, keyed by the pivot
time; at most ``_MEMO_SIZE`` of each, the oldest dropped first.  All of them
return the bits a new computation would; an equal path built anew starts with
none, and a pickled path carries none.  A cache holds only what was derived
from its own path, never the path it was derived from: the reflection of a
reflection at the same time is computed, not handed back as the original, so
an involution check compares two paths built independently, and no path
refers back to one it was built from.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import IO, Mapping, Optional

import numpy as np

from .errors import KnotConflictError, PathError, TimeOutOfRangeError

#: Sentinel for a stopping time that does not occur within the horizon.
#: Compares greater than every finite time, and equal to itself, which is
#: exactly the ordering the stopping-time calculus needs.
NOT_OBSERVED = math.inf

_ZERO = Fraction(0)

#: Relative tolerance for both value checks in insert_knot: a new knot's
#: value against its neighbors, and a value given for an existing knot.
#: Wide enough to absorb prefix-sum rounding, far too tight to mask a logic
#: error that places a knot on the wrong side of a segment.
INSERT_RTOL = 1e-9


#: Entries kept in each memo on one path (its reflections here, its level
#: scans in :mod:`reflectlab.stopping`); a full memo drops its oldest entry.
_MEMO_SIZE = 8


def is_observed(t: float) -> bool:
    return t != NOT_OBSERVED


@dataclass(frozen=True, eq=False)
class Path:
    """Immutable piecewise-linear path.

    knots:      strictly increasing times, ``knots[0] == 0``.
    increments: ``increments[i] = w(knots[i+1]) - w(knots[i])``, all finite.
    anchors:    optional map knot index -> exact rational value at that knot.

    Every operation returns a new path; instances are safe to share across
    workers.
    """

    knots: np.ndarray
    increments: np.ndarray
    anchors: Mapping[int, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=np.float64)
        inc = np.asarray(self.increments, dtype=np.float64)
        if knots.ndim != 1 or inc.ndim != 1:
            raise PathError("knots and increments must be one-dimensional")
        if knots.size == 0 or knots[0] != 0.0:
            raise PathError("first knot must be 0")
        if inc.size != knots.size - 1:
            raise PathError(
                f"{knots.size} knots require {knots.size - 1} increments, "
                f"got {inc.size}"
            )
        if knots.size > 1 and not np.all(np.diff(knots) > 0.0):
            raise PathError("knot times must be strictly increasing")
        if not (np.all(np.isfinite(knots)) and np.all(np.isfinite(inc))):
            raise PathError("knots and increments must be finite")
        knots = knots.copy()
        inc = inc.copy()
        knots.setflags(write=False)
        inc.setflags(write=False)
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "increments", inc)
        object.__setattr__(self, "anchors", dict(self.anchors))

    @classmethod
    def zero(cls, horizon: float) -> "Path":
        return cls(np.array([0.0, float(horizon)]), np.array([0.0]))

    @cached_property
    def values(self) -> np.ndarray:
        v = np.empty(self.knots.size, dtype=np.float64)
        v[0] = 0.0
        np.cumsum(self.increments, out=v[1:])
        v.setflags(write=False)
        return v

    @property
    def horizon(self) -> float:
        return float(self.knots[-1])

    def exact_value(self, index: int) -> Optional[Fraction]:
        """Exact rational value at a knot, if one is on record (knot 0 is 0)."""
        a = self.anchors.get(index)
        if a is None and index == 0:
            return _ZERO
        return a

    def knot_index(self, t: float) -> Optional[int]:
        """Index of the knot at time t exactly, or None."""
        i = int(self.knots.searchsorted(t))
        if i < self.knots.size and self.knots[i] == t:
            return i
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return (np.array_equal(self.knots, other.knots)
                and np.array_equal(self.increments, other.increments))

    __hash__ = None

    def __reduce__(self):
        # only what defines the path, through the validating constructor:
        # the caches in __dict__ are derived from it and would make a pickle
        # many times the path's size
        return Path, (self.knots, self.increments, self.anchors)

    def __repr__(self) -> str:
        return (f"Path({self.knots.size} knots, horizon={self.horizon!r}, "
                f"{len(self.anchors)} anchored)")


def _fast_path(knots: np.ndarray, increments: np.ndarray,
               anchors: dict) -> Path:
    """Construct a Path from arrays known to satisfy the invariants.

    Callers own the guarantee: read-only float64 arrays, strictly increasing
    knots starting at 0, matching lengths, a fresh anchors dict.  Used on the
    hot paths (reflections, knot insertion) where re-validating and re-copying
    arrays built in this module would dominate the runtime.
    """
    p = object.__new__(Path)
    object.__setattr__(p, "knots", knots)
    object.__setattr__(p, "increments", increments)
    object.__setattr__(p, "anchors", anchors)
    return p


def _interpolate(tl: float, tr: float, vl: float, vr: float, t: float) -> float:
    # single interpolation formula used everywhere (level crossing times too,
    # times and values swapped), so equal inputs give bit-equal outputs
    return vl + (t - tl) * ((vr - vl) / (tr - tl))


def value_at(p: Path, t: float) -> float:
    """Value of the piecewise-linear interpolant at time t in [0, horizon]."""
    if not (0.0 <= t <= p.horizon):
        raise TimeOutOfRangeError(f"t={t!r} outside [0, {p.horizon!r}]")
    return float(_values_at(p.knots, p.values, t))


def _values_at(knots: np.ndarray, values: np.ndarray, t: float):
    """Value at time t in [0, knots[-1]] of every path on knots whose
    prefix sums run along the last axis of values (one path, or a matrix
    of them), with the one interpolation formula."""
    i = int(knots.searchsorted(t, side="right")) - 1
    if knots[i] == t:
        return values.T[i]
    return _interpolate(float(knots[i]), float(knots[i + 1]),
                        values.T[i], values.T[i + 1], t)


def insert_knot(p: Path, t: float, v: float,
                exact: Optional[Fraction] = None) -> tuple[Path, int]:
    """A copy of p with a knot at time t holding value exactly v, and the
    index of that knot.

    If t is already a knot with the same value (within INSERT_RTOL), p itself
    is returned, or a copy sharing p's arrays with ``exact`` as that knot's
    anchor when it is not on record yet.  For a new interior knot, v must sit
    between the neighboring knot values (monotone consistency on the
    segment); the exact interpolated value is not required, which is what
    lets crossing knots be pinned to an exact target level instead of the
    rounded interpolant.
    """
    knots = _KnotInsertion(p)
    index = knots.insert(t, v, exact)
    return knots.path(), index


class _KnotInsertion:
    """Knots inserted into p in time order and copied out once.

    Each ``insert`` checks and values its knot exactly as ``insert_knot``
    would on the path that already holds the earlier ones: the new knot's
    increments are ``v - vl`` and ``vr - v`` with vl, vr the prefix sums of
    that path, so two knots can split one original segment.  ``path``
    then builds the result with one copy of the arrays.  Indices returned
    are those of the final path; a later knot never lies before an earlier
    one, so they do not move.
    """

    def __init__(self, p: Path):
        self.p = p
        self.splits: list = []  # (segment, time, left, right) in time order
        self.pins: dict = {}  # final knot index -> exact value
        self._last = 0.0  # value at the last new knot
        # an original knot at or after the last new knot, and its value on
        # the path holding the new knots
        self._known = (0, 0.0)

    def _values(self, i: int, n: int) -> np.ndarray:
        """Values of the original knots i .. i + n - 1 (none of them before
        the last new knot) on the path holding the new knots: p's cached
        values before any new knot, else prefix sums carried on from the
        last known knot, which are the same bits."""
        if not self.splits and "values" in self.p.__dict__:
            return self.p.values[i:i + n]
        a, value = self._known
        u = np.empty(i + n - a)
        u[0] = value
        u[1:] = self.p.increments[a:i + n - 1]
        np.cumsum(u, out=u)
        return u[i - a:]

    def pin(self, j: int, exact: Optional[Fraction]) -> int:
        """Record exact as the anchor of original knot j (not before the last
        new knot); returns j's final index."""
        return self._pin(j + len(self.splits), exact)

    def _pin(self, index: int, exact: Optional[Fraction]) -> int:
        if exact is not None:
            self.pins[index] = exact
        return index

    def insert(self, t: float, v: float,
               exact: Optional[Fraction] = None) -> int:
        """A knot at time t (not before the last new knot) holding value v,
        anchored at exact when given; returns its final index."""
        p = self.p
        if not (0.0 <= t <= p.horizon):
            raise TimeOutOfRangeError(f"t={t!r} outside [0, {p.horizon!r}]")
        t = float(t)  # a Fraction t must find the knot at its float
        splits = self.splits
        i = int(np.searchsorted(p.knots, t))
        if splits and t == splits[-1][1]:  # the last new knot
            _check_knot_value(t, self._last, v)
            return self._pin(splits[-1][0] + len(splits), exact)
        if p.knots[i] == t:
            _check_knot_value(t, float(self._values(i, 1)[0]), v)
            return self.pin(i, exact)
        i -= 1  # a new knot inside original segment (i, i + 1)
        if splits and splits[-1][0] == i:  # it splits the last one's right
            vl, vr = self._last, self._known[1]
        else:
            vl, vr = (float(x) for x in self._values(i, 2))
        span = abs(vr - vl)
        tol = INSERT_RTOL * max(1.0, abs(vl), abs(vr))
        if abs(v - vl) + abs(vr - v) > span + tol:
            raise KnotConflictError(
                f"value {v!r} at t={t!r} is not between neighbors "
                f"({vl!r}, {vr!r})")
        left, right = v - vl, vr - v
        splits.append((i, t, left, right))
        self._last = vl + left
        self._known = (i + 1, self._last + right)
        return self._pin(i + len(splits), exact)

    def resume(self, index: int) -> tuple[int, Optional[tuple[float, float]]]:
        """The knot of a final index, not before the last new knot, as the
        start of a scan of the original path: the original knot k the scan
        reaches first, and for a new knot the (time, increment) that lead
        from it to knot k, else None."""
        splits = self.splits
        if splits and index == splits[-1][0] + len(splits):
            i, t, _, right = splits[-1]
            return i + 1, (t, right)
        return index - len(splits), None

    def path(self) -> Path:
        """p with the new knots and the anchors recorded."""
        p = self.p
        if not self.splits:
            anchors = {**p.anchors, **self.pins}
            if anchors == p.anchors:
                return p
            return _fast_path(p.knots, p.increments, anchors)
        knots = np.empty(p.knots.size + len(self.splits))
        inc = np.empty(knots.size - 1)
        # slot dst of both arrays takes original knot src and the increment
        # that leaves it
        src = dst = 0
        for i, t, left, right in self.splits:
            if i < src:  # a second knot in a segment splits the last right
                dst -= 1
            else:
                knots[dst:dst + i + 1 - src] = p.knots[src:i + 1]
                inc[dst:dst + i - src] = p.increments[src:i]
                dst += i - src
                src = i + 1
            knots[dst + 1] = t
            inc[dst] = left
            inc[dst + 1] = right
            dst += 2
        knots[dst:] = p.knots[src:]
        inc[dst:] = p.increments[src:]
        knots.setflags(write=False)
        inc.setflags(write=False)
        segments = [s[0] for s in self.splits]
        anchors = {j + bisect_left(segments, j): a
                   for j, a in p.anchors.items()}
        anchors.update(self.pins)
        return _fast_path(knots, inc, anchors)


def _check_knot_value(t: float, old: float, v: float) -> None:
    """Refuse v for an existing knot at time t that holds old."""
    tol = INSERT_RTOL * max(1.0, abs(old), abs(v))
    if abs(v - old) > tol:
        raise KnotConflictError(
            f"knot at t={t!r} already holds {old!r}, refusing {v!r}")


def reflect_at_time(p: Path, r: float) -> Path:
    """Reflection pivoted at time r: values before r are kept, increments
    strictly after r are negated, so the value at t >= r becomes
    2 w(r) - w(t).

    A knot is inserted at r if absent (at the interpolated value).  Exact
    anchors after the pivot are remapped through the reflection when the pivot
    itself has an exact value on record, and dropped otherwise.

    The result is memoized on p, in its ``__dict__`` beside ``values``, keyed
    by r, so a later reflection of the same path object at the same time
    returns the same object, with the values and scans already cached on it.
    Paths are immutable and the reflection is deterministic, so the memo
    returns the bits a new reflection would.  Only this forward result is
    stored: the result's own memo never gets p as its reflection at r, so
    reflecting it back at r computes a new path, equal to p with a knot at
    r, and the memo forms no reference cycle.  At most ``_MEMO_SIZE``
    reflections are kept per path, the oldest dropped first.
    """
    if not (0.0 <= r <= p.horizon):
        raise TimeOutOfRangeError(f"r={r!r} outside [0, {p.horizon!r}]")
    r = float(r)  # a Fraction r must find the knot at its float
    memo = p.__dict__.setdefault("_reflections", {})
    q = memo.get(r)
    if q is not None:
        return q
    idx = p.knot_index(r)
    if idx is None:
        p, idx = insert_knot(p, r, value_at(p, r))
    inc = p.increments.copy()
    np.negative(inc[idx:], out=inc[idx:])
    inc.setflags(write=False)
    pivot = p.exact_value(idx)
    anchors = {j: a for j, a in p.anchors.items() if j <= idx}
    if pivot is not None:
        for j, a in p.anchors.items():
            if j > idx:
                anchors[j] = 2 * pivot - a
    q = _fast_path(p.knots, inc, anchors)
    if len(memo) >= _MEMO_SIZE:
        del memo[next(iter(memo))]
    memo[r] = q
    return q


def reflect_at_rule(p: Path, rule) -> Path:
    """Reflection pivoted at the time a stopping rule observes on p.

    When the rule is not observed within the horizon the path is returned
    unchanged; a reflection at an infinite time is the identity.
    """
    t, annotated = rule.observe(p)
    if not is_observed(t):
        return p
    return reflect_at_time(annotated, t)


def negate(p: Path) -> Path:
    """Pathwise sign flip, the reflection pivoted at time 0."""
    return reflect_at_time(p, 0.0)


def max_deviation(p: Path, q: Path) -> float:
    """Largest absolute difference between two paths over the union of their
    knots (for piecewise-linear paths this equals the sup-norm distance).

    The shorter horizon is used; the paths must share it for a full compare.
    Interpolation here may differ from :func:`value_at` in the last ulp,
    which is far below any tolerance this is compared against.
    """
    h = min(p.horizon, q.horizon)
    ts = np.concatenate([p.knots[p.knots <= h], q.knots[q.knots <= h]])
    dp = np.interp(ts, p.knots, p.values)
    dq = np.interp(ts, q.knots, q.values)
    return float(np.max(np.abs(dp - dq)))


_CSV_HEADER = ["t", "dx", "exact"]


def dump_csv(p: Path, fp: IO[str]) -> None:
    """Serialize exactly what p holds as CSV with header ``t,dx,exact``.

    Each knot is one row: its time, the increment that reaches it (``0.0``
    at knot 0) and its anchor as ``p/q`` (empty when it has none).  Floats
    are written with ``repr``, so :func:`load_csv` gives back the same
    knots, increments and anchors bit for bit.
    """
    w = csv.writer(fp)
    w.writerow(_CSV_HEADER)
    for i, (t, dx) in enumerate(zip(p.knots, np.append(0.0, p.increments))):
        a = p.anchors.get(i)
        w.writerow([repr(float(t)), repr(float(dx)),
                    "" if a is None else str(a)])


def load_csv(fp: IO[str]) -> Path:
    """Load a path written by :func:`dump_csv`.

    The file is outside input, so the path is built through the validating
    constructor; a bad header, a malformed number or fraction, a non-zero
    first increment, or an anchor that disagrees with its knot's value
    (beyond INSERT_RTOL) raises :class:`PathError`.
    """
    rows = csv.reader(fp)
    header = next(rows, None)
    if header != _CSV_HEADER:
        raise PathError(f"expected CSV header {','.join(_CSV_HEADER)!r}, "
                        f"got {header!r}")
    knots, inc, anchors = [], [], {}
    for i, row in enumerate(rows):
        if len(row) != 3:
            raise PathError(f"knot {i}: expected 3 fields, got {row!r}")
        try:
            knots.append(float(row[0]))
            inc.append(float(row[1]))
            if row[2]:
                anchors[i] = Fraction(row[2])
        except (ValueError, ZeroDivisionError) as exc:
            raise PathError(f"knot {i}: {exc}") from exc
    if inc and inc[0] != 0.0:
        raise PathError(f"the increment into knot 0 must be 0.0, "
                        f"got {inc[0]!r}")
    p = Path(knots, inc[1:], anchors)
    for i, a in anchors.items():
        _check_knot_value(knots[i], float(p.values[i]), float(a))
    return p
