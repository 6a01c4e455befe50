"""Seeded path samplers.

Each sampler is an immutable law descriptor; ``sample(index)`` returns one
path.  The random stream of a draw is, bit for bit, NumPy's
``default_rng(SeedSequence(seed, spawn_key=(index, stream)))`` (stream 0
for the increments, 1 for the random clock's rates), so draws with equal
(law, seed, index) are bit-identical, distinct indices are independent
streams, and workers can draw in parallel with no shared generator state.
The seed is validated at construction: anything ``operator.index`` takes,
except bool, and nonnegative.

SeedSequence's hash is computed here, not by NumPy (``_seed_words``): the
seed's words are hashed once per seed (``_seed_pool`` is cached), and a
block of indices mixes in its spawn-key words elementwise over one index
column, so one pass seeds the whole block; PCG64 then seeds itself from
the four words of each row.  A single index runs the same hash on Python
ints.

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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import RuleError, SamplerError
from .path import Path, _fast_path
from .stopping import _CALL, LevelLike, TwoSidedHit, _parse_level, _split_args

__all__ = [
    "BrownianMotion", "DriftedBM", "DyadicCounterexample", "OconeTimeChange",
    "StoppedSymmetric", "parse_law", "Sampler",
]


# The SeedSequence hash of numpy's bit_generator.pyx (stable since numpy
# 1.19).  Every step masks its result to 32 bits, so the same code runs on
# Python ints and elementwise on uint64 arrays: a product of two 32-bit
# words fits in 64 bits, and a wrapped uint64 difference keeps its low 32.
# Every operand is a uint64 array or a Python int below 2**32, which stays
# uint64 under the legacy and the NEP 50 promotion rules alike.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _words(n) -> list[int]:
    """The uint32 words of a nonnegative int, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise SamplerError(f"expected a nonnegative index, got {n}")
    out = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        out.append(n & _MASK32)
    return out


def _hashmix(value, const: int, mult: int = _MULT_A):
    """A hashed word and the next hash constant."""
    const_next = const * mult & _MASK32
    value = (value ^ const) * const_next & _MASK32
    return value ^ value >> 16, const_next


def _absorb(pool: list, words, const: int, skip: int = -1) -> int:
    """Mix each word into every pool word but pool[skip], in place; returns
    the hash constant after the last word."""
    for w in words:
        for dst in range(_POOL):
            if dst != skip:
                # _hashmix(w, const), inline: this loop is per draw
                const_next = const * _MULT_A & _MASK32
                hashed = (w ^ const) * const_next & _MASK32
                const = const_next
                mixed = (_MIX_MULT_L * pool[dst]
                         - _MIX_MULT_R * (hashed ^ hashed >> 16) & _MASK32)
                pool[dst] = mixed ^ mixed >> 16
    return const


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool and hash constant after the seed's words, which SeedSequence
    pads with zeros to the pool size whenever it has a spawn key."""
    words = _words(seed)
    words += [0] * (_POOL - len(words))
    pool, const = [], _INIT_A
    for w in words[:_POOL]:
        hashed, const = _hashmix(w, const)
        pool.append(hashed)
    for src in range(_POOL):
        # so late words reach early ones
        const = _absorb(pool, [pool[src]], const, skip=src)
    const = _absorb(pool, words[_POOL:], const)
    return tuple(pool), const


def _state(pool: list) -> list:
    """generate_state(4, np.uint64): eight words hashed from the pool read
    twice, joined in (low, high) pairs."""
    out, const = [], _INIT_B
    for j in range(2 * _POOL):
        word, const = _hashmix(pool[j % _POOL], const, _MULT_B)
        out.append(word)
    return [lo | hi << 32 for lo, hi in zip(out[::2], out[1::2])]


def _seed_words(seed: int, indices: Sequence[int],
                stream: int = 0) -> np.ndarray:
    """Row r: SeedSequence(seed, spawn_key=(indices[r], stream))
    .generate_state(4, np.uint64), bit for bit.

    A block of one-word indices is hashed elementwise over its index
    column; a single index, or a block with a wider one, row by row.
    """
    pool, const = _seed_pool(seed)
    tail = _words(stream)
    n = len(indices)
    words = np.empty((n, _POOL), np.uint64)
    if n > 1 and 0 <= min(indices) and max(indices) <= _MASK32:
        columns = [np.asarray(indices, np.uint64)]
        columns += [np.full(n, w, np.uint64) for w in tail]
        rows = [np.full(n, w, np.uint64) for w in pool]
        _absorb(rows, columns, const)
        words.T[:] = _state(rows)
    else:
        for r, index in enumerate(indices):
            row = list(pool)
            _absorb(row, _words(index) + tail, const)
            words[r] = _state(row)
    return words


class _SeedWords(ISeedSequence):
    """Hands PCG64 the four uint64 words it asks its seed sequence for."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _POOL or dtype is not np.uint64:
            raise ValueError("only PCG64's four uint64 words are held")
        return self.words


def _generators(seed: int, indices: Sequence[int], stream: int = 0):
    """default_rng(SeedSequence(seed, spawn_key=(index, stream))) for each
    index, bit for bit; PCG64 still seeds itself from the words."""
    for words in _seed_words(seed, indices, stream):
        yield np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _check_seed(law) -> None:
    """Validate a law's seed at construction, not at its first draw (which
    may run in a helper process), and store it as an int: SamplerError unless
    it is a nonnegative integer."""
    try:
        seed = operator.index(law.seed)
    except TypeError:
        seed = -1
    if seed < 0 or isinstance(law.seed, bool):
        raise SamplerError(
            f"seed must be a nonnegative integer, got {law.seed!r}")
    object.__setattr__(law, "seed", seed)


@lru_cache(maxsize=16)
def _grid(dt: float, horizon: float
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (knots, steps, sqrt(steps)) of the uniform grid;
    SamplerError when its arrays cannot be allocated."""
    if not (0.0 < dt < math.inf and 0.0 < horizon < math.inf):
        raise SamplerError("dt and horizon must be positive and finite")
    n = int(round(horizon / dt))
    if n < 1:
        raise SamplerError("horizon must cover at least one step")
    if abs(n * dt - horizon) > 1e-9 * horizon:
        raise SamplerError(f"dt={dt!r} does not divide the horizon {horizon!r}")
    try:
        knots = np.linspace(0.0, horizon, n + 1)
        steps = np.diff(knots)
        grid = knots, steps, np.sqrt(steps)
    except MemoryError:
        raise SamplerError(f"a grid of {n + 1} knots (dt={dt!r}, horizon="
                           f"{horizon!r}) does not fit in memory") from None
    for a in grid:
        a.setflags(write=False)
    return grid


def _scaled_normals(seed: int, indices: Sequence[int],
                   scale: np.ndarray) -> np.ndarray:
    """One row of standard normals per index, each from its own stream,
    times scale (one row for all, or one per index), computed in place."""
    z = np.empty((len(indices), scale.shape[-1]))
    for row, rng in zip(z, _generators(seed, indices)):
        rng.standard_normal(out=row)
    z *= scale
    return z


class _GridLaw:
    """A law whose draws share the knots of one uniform grid.

    Subclasses implement ``_rows(indices)``: the grid's knots and the
    (len(indices), steps) matrix whose row r holds the increments of draw
    indices[r], a fresh matrix that the caller owns and may write.
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
        _check_seed(self)
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
        _check_seed(self)
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
        _check_seed(self)
        if not 1.0 < self.horizon < math.inf:
            raise SamplerError("horizon must be finite and exceed the first "
                               "segment (1.0)")

    def sample(self, index: int) -> Path:
        rng, = _generators(self.seed, (index,))
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
        _check_seed(self)
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
        _check_seed(self)
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
            for row, rates_rng in zip(
                    root_steps, _generators(self.seed, indices, stream=1)):
                unit_rates = np.exp(rates_rng.uniform(
                    np.log(0.25), np.log(4.0), size=n_units))
                np.sqrt(steps * unit_rates[unit], out=row)
        return knots, _scaled_normals(self.seed, indices, root_steps)


Sampler = Union[BrownianMotion, DriftedBM, DyadicCounterexample,
                StoppedSymmetric, OconeTimeChange]


# law spec strings, e.g. bm(dt=1e-3,T=10), drift(0.5), counterexample(),
# ocone(clock=random_rate,T=10), stopped(level=1,T=10)

#: law name -> (sampler class, its arguments in positional order)
_LAW_BUILDERS = {
    "bm": (BrownianMotion, ("dt", "T")),
    "drift": (DriftedBM, ("mu", "dt", "T")),
    "counterexample": (DyadicCounterexample, ("T",)),
    "ocone": (OconeTimeChange, ("clock", "dt", "T")),
    "stopped": (StoppedSymmetric, ("level", "dt", "T")),
}

#: argument name -> sampler field, for the names that differ
_KEY_MAP = {"T": "horizon", "mu": "drift"}

#: sampler field -> value parser, for the fields that are not floats
_VALUE_PARSERS = {"clock": str, "level": _parse_level}


def parse_law(spec: str, seed: int = 0) -> Sampler:
    """Parse a law spec string into a sampler with the given seed.  An
    argument is named as in the spec or by its field (T or horizon)."""
    m = _CALL.match(spec.strip())
    if not m:
        raise SamplerError(f"cannot parse law {spec!r}")
    name, inside = m.group(1), m.group(2)
    if name not in _LAW_BUILDERS:
        raise SamplerError(f"unknown law {name!r}")
    cls, positional = _LAW_BUILDERS[name]
    fields = [_KEY_MAP.get(key, key) for key in positional]
    try:
        args = _split_args(inside)
    except RuleError as exc:
        raise SamplerError(f"cannot parse law {spec!r}") from exc
    kwargs: dict = {}
    for i, arg in enumerate(args):
        if "=" in arg:
            given, val = (s.strip() for s in arg.split("=", 1))
        elif i < len(positional):
            given, val = positional[i], arg
        else:
            raise SamplerError(f"too many positional args in {spec!r}")
        key = _KEY_MAP.get(given, given)
        if key not in fields:
            raise SamplerError(f"unknown argument {given!r} of {name!r} in "
                               f"{spec!r}")
        if key in kwargs:
            raise SamplerError(f"repeated argument {given!r} in {spec!r}")
        try:
            kwargs[key] = _VALUE_PARSERS.get(key, float)(val)
        except ValueError as exc:
            raise SamplerError(f"bad value {val!r} for {key!r} in "
                               f"{spec!r}") from exc
    try:
        return cls(seed=seed, **kwargs)
    except TypeError as exc:
        raise SamplerError(f"bad arguments for {name!r}: {exc}") from exc
