"""Seeded path samplers.

Each sampler is an immutable law descriptor; ``sample(index)`` returns one
path.  Streams are derived per draw from ``SeedSequence(seed, spawn_key=
(index, ...))``, so draws with equal (law, seed, index) are bit-identical,
distinct indices are independent streams, and workers can draw in parallel
with no shared generator state.

Gaussian increments use NumPy's ziggurat standard-normal generator on top of
the PCG64 stream; any exact-distribution method would do, this one is the
NumPy default and is documented here for reproducibility.

The uniform grid of a (dt, horizon) pair, its steps and their square roots
are built once per process (``_grid`` is cached) and shared read-only by
every draw.  The grid laws draw a block of indices at once (``_rows``): the
Generator of each (seed, index) fills its own row of one increment matrix
(``standard_normal(out=row)`` gives the bits of ``standard_normal(m)``), and
the rows are scaled in place.  ``sample`` is the block of one index, so a
row of any block holds the increments of ``sample`` of its index bit for
bit.  Paths are wrapped without re-validating or copying, since the sampler
built every array itself; parameters are validated once, at construction.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import RuleError, SamplerError
from .path import Path, _fast_path
from .stopping import LevelLike, TwoSidedHit, _parse_level, _split_args

__all__ = [
    "BrownianMotion", "DriftedBM", "DyadicCounterexample", "OconeTimeChange",
    "StoppedSymmetric", "parse_law", "Sampler",
]


def _rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(index, stream)))


@lru_cache(maxsize=16)
def _grid(dt: float, horizon: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (knots, steps, sqrt(steps)) of the uniform grid."""
    if not (0.0 < dt < math.inf and 0.0 < horizon < math.inf):
        raise SamplerError("dt and horizon must be positive and finite")
    n = int(round(horizon / dt))
    if n < 1:
        raise SamplerError("horizon must cover at least one step")
    if abs(n * dt - horizon) > 1e-9 * horizon:
        raise SamplerError(f"dt={dt!r} does not divide the horizon {horizon!r}")
    knots = np.linspace(0.0, horizon, n + 1)
    steps = np.diff(knots)
    grid = knots, steps, np.sqrt(steps)
    for a in grid:
        a.setflags(write=False)
    return grid


def _scaled_normals(seed: int, indices: Sequence[int],
                   scale: np.ndarray) -> np.ndarray:
    """One row of standard normals per index, each from its own stream,
    times scale (one row for all, or one per index), computed in place."""
    z = np.empty((len(indices), scale.shape[-1]))
    for row, index in zip(z, indices):
        _rng(seed, index).standard_normal(out=row)
    z *= scale
    return z


class _GridLaw:
    """A law whose draws share the knots of one uniform grid.

    Subclasses implement ``_rows(indices)``: the grid's knots and the
    (len(indices), steps) matrix whose row r holds the increments of draw
    indices[r].
    """

    def _rows(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def sample(self, index: int) -> Path:
        knots, inc = self._rows((index,))
        inc.setflags(write=False)
        return _fast_path(knots, inc[0], {})


@dataclass(frozen=True)
class BrownianMotion(_GridLaw):
    """Standard Brownian motion on a uniform grid, linearly interpolated."""

    dt: float = 1e-3
    horizon: float = 10.0
    seed: int = 0

    def __post_init__(self):
        _grid(self.dt, self.horizon)

    def _rows(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        knots, _, root_steps = _grid(self.dt, self.horizon)
        return knots, _scaled_normals(self.seed, indices, root_steps)


@dataclass(frozen=True)
class DriftedBM(_GridLaw):
    """Brownian motion plus linear drift; a negative control, since its law
    is not symmetric under the sign flip at time 0."""

    drift: float
    dt: float = 1e-3
    horizon: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if not math.isfinite(self.drift):
            raise SamplerError(f"drift must be finite, got {self.drift!r}")
        _grid(self.dt, self.horizon)

    def _rows(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        knots, steps, root_steps = _grid(self.dt, self.horizon)
        inc = _scaled_normals(self.seed, indices, root_steps)
        inc += self.drift * steps
        return knots, inc


@dataclass(frozen=True)
class DyadicCounterexample:
    """Two-segment process: slope xi on [0, 1], then slope eta afterwards,
    with xi and eta independent uniform signs.

    Its law is invariant under the sign flip and under the reflection at the
    exit time of (-1, 1), which equals 1 on every draw, yet the value at the
    exit of (-2, c) has mean (c-2)/2 for c > 1.  The exactly representable
    three-knot form keeps every hitting computation exact.
    """

    horizon: float = 5.0
    seed: int = 0

    def __post_init__(self):
        if not 1.0 < self.horizon < math.inf:
            raise SamplerError("horizon must be finite and exceed the first "
                               "segment (1.0)")

    def sample(self, index: int) -> Path:
        rng = _rng(self.seed, index)
        xi, eta = 2.0 * rng.integers(0, 2, size=2) - 1.0
        return Path(np.array([0.0, 1.0, self.horizon]),
                    np.array([xi, (self.horizon - 1.0) * eta]),
                    {1: Fraction(int(xi))})


@dataclass(frozen=True)
class StoppedSymmetric:
    """Brownian motion frozen at its first exit from (-level, level)."""

    level: LevelLike = 1
    dt: float = 1e-3
    horizon: float = 10.0
    seed: int = 0

    def __post_init__(self):
        # built once, outside the fields, so repr and equality are the law's
        try:
            exit_rule = TwoSidedHit(self.level, self.level)
        except RuleError as exc:
            raise SamplerError(f"bad stopping level: {exc}") from exc
        object.__setattr__(self, "_exit", exit_rule)
        object.__setattr__(self, "_base",
                           BrownianMotion(self.dt, self.horizon, self.seed))

    def sample(self, index: int) -> Path:
        t, annotated = self._exit.observe(self._base.sample(index))
        if t == np.inf or t == annotated.horizon:
            return annotated
        idx = annotated.knot_index(t)  # observe makes t a knot
        knots = np.append(annotated.knots[:idx + 1], annotated.horizon)
        inc = np.append(annotated.increments[:idx], 0.0)
        knots.setflags(write=False)
        inc.setflags(write=False)
        return _fast_path(
            knots, inc,
            {j: a for j, a in annotated.anchors.items() if j <= idx})


@dataclass(frozen=True)
class OconeTimeChange(_GridLaw):
    """Brownian motion run through an independent nondecreasing clock.

    clock = "identity":     clock(t) = t (the path is plain Brownian motion).
    clock = "random_rate":  piecewise-constant random rates, one per unit of
                            path time, drawn log-uniform on [1/4, 4] from a
                            stream independent of the Gaussian one.
    """

    clock: str = "identity"
    dt: float = 1e-3
    horizon: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.clock not in ("identity", "random_rate"):
            raise SamplerError(f"unknown clock spec {self.clock!r}")
        _grid(self.dt, self.horizon)

    def _rows(self, indices: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        knots, steps, root_steps = _grid(self.dt, self.horizon)
        if self.clock == "random_rate":
            # each draw's own rates, one per unit of path time
            n_units = int(np.ceil(self.horizon))
            mid = (knots[:-1] + knots[1:]) / 2.0
            unit = np.minimum(mid.astype(int), n_units - 1)
            root_steps = np.empty((len(indices), steps.size))
            for row, index in zip(root_steps, indices):
                rates_rng = _rng(self.seed, index, stream=1)
                unit_rates = np.exp(rates_rng.uniform(
                    np.log(0.25), np.log(4.0), size=n_units))
                np.sqrt(steps * unit_rates[unit], out=row)
        return knots, _scaled_normals(self.seed, indices, root_steps)


Sampler = Union[BrownianMotion, DriftedBM, DyadicCounterexample,
                StoppedSymmetric, OconeTimeChange]


# law spec strings, e.g. bm(dt=1e-3,T=10), drift(0.5), counterexample(),
# ocone(clock=random_rate,T=10), stopped(level=1,T=10)
_LAW = re.compile(r"^([a-z_]+)\((.*)\)$", re.S)

_LAW_BUILDERS = {
    "bm": (BrownianMotion, ("dt", "T")),
    "drift": (DriftedBM, ("mu", "dt", "T")),
    "counterexample": (DyadicCounterexample, ("T",)),
    "ocone": (OconeTimeChange, ("clock", "dt", "T")),
    "stopped": (StoppedSymmetric, ("level", "dt", "T")),
}

_KEY_MAP = {"T": "horizon", "mu": "drift"}


def parse_law(spec: str, seed: int = 0) -> Sampler:
    """Parse a law spec string into a sampler with the given seed."""
    m = _LAW.match(spec.strip())
    if not m:
        raise SamplerError(f"cannot parse law {spec!r}")
    name, inside = m.group(1), m.group(2)
    if name not in _LAW_BUILDERS:
        raise SamplerError(f"unknown law {name!r}")
    cls, positional = _LAW_BUILDERS[name]
    kwargs: dict = {"seed": seed}
    for i, arg in enumerate(_split_args(inside)):
        if "=" in arg:
            key, val = arg.split("=", 1)
            key = key.strip()
        else:
            if i >= len(positional):
                raise SamplerError(f"too many positional args in {spec!r}")
            key, val = positional[i], arg
        key = _KEY_MAP.get(key, key)
        val = val.strip()
        try:
            if key == "clock":
                kwargs[key] = val
            elif key == "level":
                kwargs[key] = _parse_level(val)
            else:
                kwargs[key] = float(val)
        except ValueError as exc:
            raise SamplerError(f"bad value {val!r} for {key!r} in "
                               f"{spec!r}") from exc
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise SamplerError(f"bad arguments for {name!r}: {exc}") from exc
