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
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import IO, Mapping, Optional, Sequence

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
    def from_values(cls, knots: Sequence[float],
                    values: Sequence[float]) -> "Path":
        """Build a path from knot values (values[0] must be 0)."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0 or values[0] != 0.0:
            raise PathError("value at the first knot must be 0")
        return cls(np.asarray(knots, dtype=np.float64), np.diff(values))

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
        i = int(np.searchsorted(self.knots, t))
        if i < self.knots.size and self.knots[i] == t:
            return i
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Path):
            return NotImplemented
        return (np.array_equal(self.knots, other.knots)
                and np.array_equal(self.increments, other.increments))

    __hash__ = None

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
    # single interpolation formula used everywhere, so equal inputs give
    # bit-equal outputs across the code base
    return vl + (t - tl) * ((vr - vl) / (tr - tl))


def value_at(p: Path, t: float) -> float:
    """Value of the piecewise-linear interpolant at time t in [0, horizon]."""
    if not (0.0 <= t <= p.horizon):
        raise TimeOutOfRangeError(f"t={t!r} outside [0, {p.horizon!r}]")
    i = int(np.searchsorted(p.knots, t, side="right")) - 1
    v = p.values
    if p.knots[i] == t:
        return float(v[i])
    return _interpolate(float(p.knots[i]), float(p.knots[i + 1]),
                        float(v[i]), float(v[i + 1]), t)


def insert_knot(p: Path, t: float, v: float,
                exact: Optional[Fraction] = None) -> tuple[Path, int]:
    """A copy of p with a knot at time t holding value exactly v, and the
    index of that knot.

    If t is already a knot with the same value (within INSERT_RTOL), p itself
    is returned, or a copy with ``exact`` as that knot's anchor when it is
    not on record yet.  For a new interior knot, v must sit between the
    neighboring knot values (monotone consistency on the segment); the exact
    interpolated value is not required, which is what lets crossing knots be
    pinned to an exact target level instead of the rounded interpolant.
    """
    if not (0.0 <= t <= p.horizon):
        raise TimeOutOfRangeError(f"t={t!r} outside [0, {p.horizon!r}]")
    existing = p.knot_index(t)
    vals = p.values
    if existing is not None:
        old = float(vals[existing])
        tol = INSERT_RTOL * max(1.0, abs(old), abs(v))
        if abs(v - old) > tol:
            raise KnotConflictError(
                f"knot at t={t!r} already holds {old!r}, refusing {v!r}")
        if exact is not None and p.anchors.get(existing) != exact:
            anchors = dict(p.anchors)
            anchors[existing] = exact
            return Path(p.knots, p.increments, anchors), existing
        return p, existing
    i = int(np.searchsorted(p.knots, t)) - 1
    vl, vr = float(vals[i]), float(vals[i + 1])
    span = abs(vr - vl)
    tol = INSERT_RTOL * max(1.0, abs(vl), abs(vr))
    if abs(v - vl) + abs(vr - v) > span + tol:
        raise KnotConflictError(
            f"value {v!r} at t={t!r} is not between neighbors "
            f"({vl!r}, {vr!r})")
    knots = np.insert(p.knots, i + 1, t)
    inc = np.empty(p.increments.size + 1, dtype=np.float64)
    inc[:i] = p.increments[:i]
    inc[i] = v - vl
    inc[i + 1] = vr - v
    inc[i + 2:] = p.increments[i + 1:]
    knots.setflags(write=False)
    inc.setflags(write=False)
    anchors = {(j if j <= i else j + 1): a for j, a in p.anchors.items()}
    if exact is not None:
        anchors[i + 1] = exact
    return _fast_path(knots, inc, anchors), i + 1


def reflect_at_time(p: Path, r: float) -> Path:
    """Reflection pivoted at time r: values before r are kept, increments
    strictly after r are negated, so the value at t >= r becomes
    2 w(r) - w(t).

    A knot is inserted at r if absent (at the interpolated value).  Exact
    anchors after the pivot are remapped through the reflection when the pivot
    itself has an exact value on record, and dropped otherwise.
    """
    if not (0.0 <= r <= p.horizon):
        raise TimeOutOfRangeError(f"r={r!r} outside [0, {p.horizon!r}]")
    idx = p.knot_index(r)
    if idx is None:
        p, idx = insert_knot(p, r, value_at(p, r))
    inc = p.increments.copy()
    inc[idx:] = -inc[idx:]
    inc.setflags(write=False)
    pivot = p.exact_value(idx)
    anchors = {j: a for j, a in p.anchors.items() if j <= idx}
    if pivot is not None:
        for j, a in p.anchors.items():
            if j > idx:
                anchors[j] = 2 * pivot - a
    return _fast_path(p.knots, inc, anchors)


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


def dump_csv(p: Path, fp: IO[str]) -> None:
    """Serialize as CSV with header ``t,x`` (knot time, knot value)."""
    w = csv.writer(fp)
    w.writerow(["t", "x"])
    for t, x in zip(p.knots, p.values):
        w.writerow([repr(float(t)), repr(float(x))])


def load_csv(fp: IO[str]) -> Path:
    """Load a path serialized by :func:`dump_csv` (values at knots are
    reconstructed through increments)."""
    rows = list(csv.reader(fp))
    if not rows or rows[0] != ["t", "x"]:
        raise PathError("expected CSV header 't,x'")
    ts = [float(r[0]) for r in rows[1:]]
    xs = [float(r[1]) for r in rows[1:]]
    return Path.from_values(ts, xs)
