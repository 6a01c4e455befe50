"""Verification layer: exact rational checks, exhaustive word suites, paired
distributional invariance tests and Monte Carlo expectation bounds.

Statistical tests treat invariance as the null hypothesis, so the suite is a
falsification harness: it can refute a claimed invariance, never prove one.
Exact suites (word formulas, non-dyadic triples, pathwise identities) are
deterministic and their thresholds are zero failures.

Conventions
-----------
* alpha defaults to 0.001 with a Bonferroni correction across functionals.
* mean-zero Monte Carlo checks use a 4 standard-error band; with batteries of
  dozens of checks a 3 SE band would flake too often.
* unobserved hitting times are mapped to horizon + 1 before any two-sample
  comparison; both arms of a paired test receive the same mapping, so the
  null is preserved under invariance.
* every report records seed, sizes, statistics and thresholds; verdicts are
  recomputable from the recorded numbers alone.
* every drawing suite builds its report with ``TestReport.drawn``, which
  records the law (``params.law``) and seed of the sampler it reseeded.

Block draws
-----------
Every Monte Carlo suite runs over index ranges: ``_run_draws`` cuts a run
into consecutive ranges of draws, spreads them in shards over ``workers``
computing processes, and yields one block per range in index order.  A run
has one callable, ``block(indices)``, a module function with the suite's
inputs bound by ``functools.partial``.  The worker count is capped at the
CPUs the process may run on.  The assignment is static: shard j is
computed by process ``j % workers``.  The calling process is process 0; the
others are at most ``workers - 1`` helpers forked for the call, each of
which inherits the callable, moves off the CPU the caller ran on when
another is allowed, and pickles its shards' blocks back through a pipe.
Every helper is killed and reaped before the run returns, and none
outlives its call.  A serial run is the one-worker run, which forks
nothing; it is what a platform without ``os.fork`` runs.  A suite without
a block form takes ranges of one draw and the generic block, the list of
its per-draw rows (``_each_draw``).  ``invariance_test`` takes ranges of
``_block_size`` draws, each block an array indexed by arm, functional and
draw, and joins the blocks in one ``concatenate``.  On a law with a shared
grid (``BrownianMotion``, ``DriftedBM``, ``OconeTimeChange``) a block holds
about ``_BLOCK_INCREMENTS`` increments: the sampler fills one increment
matrix, one row per draw from that draw's own Generator, and one
``cumsum(axis=1)`` gives every row's ``Path.values`` bit for bit, which a
functional with a ``rows`` form reads off its columns; that is the sampled
arm.  The reflected arm takes one of two routes.  When the rule pivots every
draw at one knot of the grid (``_grid_pivot``: a fixed time on a knot, or at
least the horizon), it is the same matrix with the columns from that knot on
negated, summed the same way; negation is exact, so no draw is built as a
path.  Under any other rule each draw is reflected on its own path and read
with ``apply``.  A functional without a rows form (``ValueAtRuleTime``) reads
a matrix through paths built from its rows, and a law without a shared grid
is drawn one path per block, both arms read with ``apply``.  All routes give
the same bits, so the report does not depend on the route or the block size.
"""

from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import os
import pickle
import signal
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, RuleError
from .path import (
    NOT_OBSERVED,
    Path,
    _fast_path,
    _values_at,
    is_observed,
    negate,
    reflect_at_rule,
    reflect_at_time,
    value_at,
)
from .rational import _as_int, _is_real, as_rational, is_dyadic
from .samplers import BrownianMotion, DyadicCounterexample, _GridLaw
from .signs import (
    SignWord,
    _check_length,
    advance_path,
    advance_path_power,
    advance_word,
    all_words,
    exit_alignment_power,
    first_down_index,
    first_zero_index,
    negate_word,
    reflect_word,
    rewind_word,
    trace_sign_word,
    word_after_steps,
)
from .stopping import (
    ComposeReflect,
    FirstPassage,
    FixedTime,
    LadderStep,
    LadderTrace,
    LevelLike,
    MinOf,
    Mixture,
    StoppingRule,
    TimeCompare,
    TwoSidedHit,
    _checked_ladder,
    _reflected_trace,
    ladder_trace,
)

DEFAULT_ALPHA = 1e-3
SE_BAND = 4.0
#: Normalized sup-norm tolerance for pathwise identities where a knot
#: insertion at an interpolated value enters; pure increment flips are exact.
PATH_RTOL = 1e-9


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _judge(value: float, threshold: float, direction: str) -> str:
    if direction == "abs_below":
        ok = abs(value) <= threshold
    elif direction == "above":
        ok = value > threshold
    else:
        raise RuleError(f"unknown direction {direction!r}")
    return "pass" if ok else "fail"


@dataclass
class Statistic:
    name: str
    value: float
    threshold: float
    direction: str
    verdict: str
    se: Optional[float] = None
    detail: dict = field(default_factory=dict)

    @classmethod
    def judged(cls, name: str, value: float, threshold: float,
               direction: str, se: Optional[float] = None,
               **detail) -> "Statistic":
        return cls(name, value, threshold, direction,
                   _judge(value, threshold, direction), se, detail)

    @classmethod
    def skipped(cls, name: str, **detail) -> "Statistic":
        return cls(name, math.nan, math.nan, "abs_below", "skip", None, detail)


@dataclass
class TestReport:
    name: str
    params: dict
    seed: Optional[int]
    sample_size: int
    statistics: list[Statistic]
    notes: list[str] = field(default_factory=list)

    @classmethod
    def drawn(cls, name: str, sampler, n_draws: int,
              statistics: list[Statistic], notes: Sequence[str] = (),
              **params) -> "TestReport":
        """The report of a suite that drew n_draws paths from sampler, as
        reseeded for the run, whose law and seed replay the verdict."""
        return cls(name, {"law": repr(sampler), **params}, sampler.seed,
                   n_draws, statistics, list(notes))

    @property
    def verdict(self) -> str:
        return "fail" if any(s.verdict == "fail" for s in self.statistics) \
            else "pass"

    def recheck(self) -> bool:
        """Verdicts follow from the recorded numbers alone."""
        return all(s.verdict == _judge(s.value, s.threshold, s.direction)
                   for s in self.statistics if s.verdict != "skip")

    def to_dict(self) -> dict:
        return _jsonable({**dataclasses.asdict(self), "verdict": self.verdict})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def csv_rows(self) -> list[dict]:
        return [
            {"test": f"{self.name}/{s.name}", "statistic": _csv_num(s.value),
             "threshold": _csv_num(s.threshold), "verdict": s.verdict,
             "seed": self.seed if self.seed is not None else ""}
            for s in self.statistics
        ]


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, SignWord):
        return x.to_string()
    if isinstance(x, float):
        if math.isnan(x):
            return None
        if x == math.inf:
            return "inf"
        if x == -math.inf:
            return "-inf"
        return x
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        return _jsonable(float(x))
    if x is None or isinstance(x, (bool, int, str)):
        return x
    return repr(x)


def _csv_num(x) -> str:
    j = _jsonable(x)
    return "" if j is None else str(j)


# ---------------------------------------------------------------------------
# parallel sharding
# ---------------------------------------------------------------------------

def _run_draws(block: Callable, n: int, workers: int,
               size: int) -> Iterator:
    """Yield ``block(indices)`` for the consecutive ranges of at most
    ``size`` indices that cover range(n), in index order, computed in shards
    of contiguous ranges spread over ``workers`` computing processes, the
    calling process included.

    Every suite runs over these ranges with one callable, its inputs bound
    with ``functools.partial``: one with a block form computes a range at
    once, the others go through ``_each_draw``.  Every caller reduces the
    blocks in the order they come, so each statistic is bit-identical at any
    worker count.  The assignment is static: shard j is computed by process
    ``j % workers``, the caller being process 0 and each other one a helper
    forked for this call (``_helper``), which sends its shards' blocks back
    through its own pipe, one pickle per shard.  The caller reads each
    helper's shard at its turn and raises a helper's error there, after
    every earlier block.  A consumer may stop reading early; when it does,
    or when a block raises, every helper is killed and reaped on the way
    out, so no process outlives the call.  An empty run is rejected when
    its blocks are first asked for: its reductions would report a pass with
    nothing checked.  A draw or worker count that is a bool or not an
    integer is rejected there too (``rational._as_int``).  The worker count
    is capped at the CPUs this process may run on; a count below 1, or a
    platform without ``os.fork``, is one worker, the caller, which forks
    nothing: a serial run is the one-worker run.
    """
    n = _as_int("a draw count", n, ConfigurationError)
    workers = _as_int("a worker count", workers, ConfigurationError)
    if n < 1:
        raise ConfigurationError(f"a run needs at least one draw, got {n}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = max(1, min(workers, cpus)) if hasattr(os, "fork") else 1
    # a shard is a run of ranges; shards are reduced in index order as they
    # arrive, so a run holds the blocks of a few shards at a time, whatever
    # its size.  No helper is forked that would have no shard to compute
    shard = size * min(1000, -(-n // (size * workers)))
    shards = list(_ranges(range(n), shard))
    getcpu = _sched_getcpu()
    cpu = getcpu() if getcpu is not None else -1
    readers, pids = {}, {}
    try:
        for k in range(1, min(workers, len(shards))):
            r, w = os.pipe()
            readers[k] = os.fdopen(r, "rb")
            _widen_pipe(w)
            try:
                pid = os.fork()
                if pid == 0:
                    _helper(list(readers.values()), w, cpu, block,
                            shards[k::workers], size)
            finally:
                os.close(w)  # the helper never returns here
            pids[k] = pid
        for j, indices in enumerate(shards):
            k = j % workers
            if not k:
                yield from map(block, _ranges(indices, size))
                continue
            try:
                blocks, error = pickle.load(readers[k])
            except (EOFError, pickle.UnpicklingError):
                _, status = os.waitpid(pids.pop(k), 0)
                raise RuntimeError(
                    f"the helper process computing shard {j} of "
                    f"{len(shards)} exited with code "
                    f"{os.waitstatus_to_exitcode(status)} before sending "
                    "it") from None
            if error is not None:
                raise error
            yield from blocks
    finally:
        for pid in pids.values():
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass  # already reaped where SIGCHLD is ignored
        for reader in readers.values():
            reader.close()


#: Bytes a helper may write ahead of the caller's reads: Linux's default
#: limit for an unprivileged process (``fs.pipe-max-size``).
_PIPE_BYTES = 1 << 20


def _widen_pipe(fd: int) -> None:
    """Let the pipe whose write end is fd hold ``_PIPE_BYTES`` where the
    platform allows it.  With the default 64 KiB, a helper whose shard
    pickles to more (a criterion-6 shard of 1000 rows is 193 KB) waits for
    the caller to read it before it can go on, and each read is a
    handshake of the two processes."""
    import fcntl  # POSIX only, as is os.fork

    try:
        fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    except (AttributeError, OSError):  # not Linux, or above the limit
        pass


@cache
def _sched_getcpu() -> Optional[Callable[[], int]]:
    """glibc's ``sched_getcpu`` through ctypes, the way
    ``_set_allocation_thresholds`` reaches ``mallopt``, or None where it or
    ``os.sched_setaffinity`` is missing."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    try:
        getcpu = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    return getcpu


def _helper(inherited: list, out: int, cpu: int, block: Callable,
            shards: list, size: int) -> None:
    """The body of a forked helper; it never returns.  It closes the read
    ends it inherited, leaves the caller's CPU (``cpu``, -1 when unknown)
    to the caller when another is allowed, then computes its shards in
    order and writes each into the pipe ``out`` as one pickle, ``(blocks,
    None)``, or ``(None, error)`` for the first shard that raises, after
    which it stops.  A child that started computing at once would mostly
    stay on the CPU it was forked on and share it with the caller."""
    status = 1
    try:
        for reader in inherited:
            reader.close()
        if cpu >= 0:
            others = os.sched_getaffinity(0) - {cpu}
            if others:
                os.sched_setaffinity(0, others)
        with os.fdopen(out, "wb") as f:
            for indices in shards:
                try:
                    sent = list(map(block, _ranges(indices, size))), None
                except Exception as exc:
                    sent = None, exc
                try:
                    data = pickle.dumps(sent, pickle.HIGHEST_PROTOCOL)
                except Exception as exc:
                    sent = None, RuntimeError(
                        f"cannot send the blocks of draws {indices.start} to "
                        f"{indices.stop - 1} from a helper process: {exc!r}")
                    data = pickle.dumps(sent, pickle.HIGHEST_PROTOCOL)
                f.write(data)
                f.flush()
                if sent[1] is not None:
                    break
        status = 0
    finally:
        os._exit(status)


def _ranges(indices: range, size: int) -> Iterator[range]:
    """The consecutive ranges of at most size indices that cover indices."""
    return (indices[s:s + size] for s in range(0, len(indices), size))


def _each_draw(draw: Callable, n: int, workers: int) -> Iterator:
    """Yield ``draw(i)`` for i in range(n), in index order: the blocks of
    ``_run_draws`` at one draw each, read back row by row."""
    for rows in _run_draws(partial(_per_draw, draw), n, workers, 1):
        yield from rows


def _per_draw(draw: Callable, indices: range) -> list:
    """The generic block: the row ``draw(i)`` of each draw of indices."""
    return list(map(draw, indices))


def _reseeded(sampler, seed: Optional[int]):
    return sampler if seed is None else dataclasses.replace(sampler, seed=seed)


# ---------------------------------------------------------------------------
# functionals (closed vocabulary for invariance testing)
# ---------------------------------------------------------------------------
#
# ``apply(p)`` is a functional's value on one path.  ``rows(knots, values)``,
# where a functional has it, gives the same numbers bit for bit for a matrix
# of unanchored paths on one knot array, one path per row of ``values`` (its
# ``Path.values``).

@dataclass(frozen=True)
class ValueAtTime:
    t: float

    def __post_init__(self):
        # here, not at the first draw (inside a helper process)
        if not (_is_real(self.t) and 0.0 <= self.t < math.inf):
            raise ConfigurationError(
                f"functional time must be finite and nonnegative, "
                f"got {self.t!r}")

    @property
    def name(self) -> str:
        return f"value_at_{float(self.t):g}"

    def _check(self, horizon: float) -> None:
        if self.t > horizon:
            raise ConfigurationError(
                f"functional time {self.t} exceeds horizon {horizon}")

    def apply(self, p: Path) -> float:
        self._check(p.horizon)
        return value_at(p, self.t)

    def rows(self, knots: np.ndarray, values: np.ndarray) -> np.ndarray:
        self._check(float(knots[-1]))
        return _values_at(knots, values, self.t)


@dataclass(frozen=True)
class RunningMax:
    @property
    def name(self) -> str:
        return "running_max"

    def apply(self, p: Path) -> float:
        return float(np.max(p.values))

    def rows(self, knots: np.ndarray, values: np.ndarray) -> np.ndarray:
        return values.max(axis=1)


@dataclass(frozen=True)
class HittingTime:
    """First-passage time of a level, with NOT_OBSERVED mapped to
    horizon + 1 so the statistic is always finite."""

    level: float

    def __post_init__(self):
        # built once; also rejects a non-finite level here, not at a draw
        object.__setattr__(self, "_rule", FirstPassage(self.level))

    @property
    def name(self) -> str:
        return f"hitting_time_{float(self.level):g}"

    def apply(self, p: Path) -> float:
        t = self._rule.evaluate(p)
        return t if is_observed(t) else p.horizon + 1.0

    def rows(self, knots: np.ndarray, values: np.ndarray) -> np.ndarray:
        t = self._rule.rows(knots, values)
        t[t == NOT_OBSERVED] = float(knots[-1]) + 1.0
        return t


@dataclass(frozen=True)
class ValueAtRuleTime:
    """Path value at a rule's time (at the horizon when unobserved, the
    same frozen-at-the-end convention on both arms of a paired test)."""

    rule: StoppingRule
    label: str

    @property
    def name(self) -> str:
        return f"value_at_{self.label}"

    def apply(self, p: Path) -> float:
        t = self.rule.evaluate(p)
        return value_at(p, t if is_observed(t) else p.horizon)


def default_functionals(horizon: float) -> list:
    return [
        ValueAtTime(horizon / 2.0),
        ValueAtTime(horizon),
        RunningMax(),
        HittingTime(1.0),
        HittingTime(-1.0),
    ]


# ---------------------------------------------------------------------------
# invariance test
# ---------------------------------------------------------------------------

#: Increments that one block of draws on a shared grid holds, about.
_BLOCK_INCREMENTS = 2 ** 15


def _block_size(sampler) -> int:
    """Draws per block: enough to fill _BLOCK_INCREMENTS on a shared grid;
    a law without one is drawn one path per block."""
    if not isinstance(sampler, _GridLaw):
        return 1
    return max(1, _BLOCK_INCREMENTS // round(sampler.horizon / sampler.dt))


def _grid_pivot(rule, knots: np.ndarray) -> Optional[int]:
    """The knot index from which ``reflect_at_rule`` negates the increments
    of every unanchored path on knots, or None when that index depends on
    the path or the reflection inserts a knot or an anchor.

    Only a fixed time has one index for all paths: the index of r when r is
    a knot, and knots.size - 1, where nothing is negated, when r is the
    horizon or beyond it (the reflection is then the identity).
    """
    if not isinstance(rule, FixedTime):
        return None
    if rule.r >= knots[-1]:
        return knots.size - 1
    i = int(knots.searchsorted(rule.r))
    return i if knots[i] == rule.r else None


def _invariance_block(sampler, rule: StoppingRule, functionals: Sequence,
                      indices: range):
    """The functionals of the draws of indices and of their reflections, as
    an array indexed by arm, functional and draw."""
    out = np.empty((2, len(functionals), len(indices)))
    if isinstance(sampler, _GridLaw):
        knots, inc = sampler._rows(indices)
        # arm 0 is read in full here, before the pivot route below negates
        # inc under the paths it may have built
        _read_rows(out[0], functionals, knots, inc)
        col = _grid_pivot(rule, knots)
        if col is not None:
            # every row reflects at knot col: the block's own matrix,
            # negated from that column on, is the reflected arm
            np.negative(inc[:, col:], out=inc[:, col:])
            _read_rows(out[1], functionals, knots, inc)
            return out
        paths = _row_paths(knots, inc)
    else:
        paths = [sampler.sample(i) for i in indices]
        out[0] = [[f.apply(p) for p in paths] for f in functionals]
    reflected = [reflect_at_rule(p, rule) for p in paths]
    out[1] = [[f.apply(q) for q in reflected] for f in functionals]
    return out


def _row_paths(knots: np.ndarray, inc: np.ndarray) -> list:
    """The unanchored paths on knots whose increments are the rows of inc,
    each on a read-only view of its row (inc itself stays writable)."""
    rows = inc.view()
    rows.setflags(write=False)
    return [_fast_path(knots, row, {}) for row in rows]


def _read_rows(out: np.ndarray, functionals: Sequence, knots: np.ndarray,
               inc: np.ndarray) -> None:
    """out[j, r] = functionals[j].apply(p_r), bit for bit, where p_r is the
    unanchored path on knots with increments inc[r].

    One cumsum sums the rows, and each functional with a rows form reads
    them off it.  A functional without one applies to the p_r, built here
    from the rows of inc.
    """
    values = np.zeros((inc.shape[0], knots.size))
    np.cumsum(inc, axis=1, out=values[:, 1:])
    paths = None
    for j, f in enumerate(functionals):
        if hasattr(f, "rows"):
            out[j] = f.rows(knots, values)
            continue
        if paths is None:
            paths = _row_paths(knots, inc)
        out[j] = [f.apply(p) for p in paths]


def __getattr__(name: str):
    """``verify.ks_2samp``: scipy's two-sample KS, imported on first use.

    ``scipy.stats`` takes about a second and 60 MB to import, and only
    ``_ks_statistics`` uses it; the bound, the sign-word identities and the
    exhaustive suites never run a KS, so the package does not import it.
    """
    if name != "ks_2samp":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global ks_2samp
    from scipy.stats import ks_2samp
    return ks_2samp


def _ks_statistics(functionals: Sequence, x: np.ndarray, y: np.ndarray,
                   alpha: float) -> list[Statistic]:
    """One paired KS statistic per functional (rows of x and y), Bonferroni
    adjusted across the functionals that are not constant on both arms."""
    live = [not (x[j].min() == x[j].max() == y[j].min() == y[j].max())
            for j in range(len(functionals))]
    n_live = sum(live)
    # the module's binding once there is one: a tracer may have wrapped it
    ks = globals().get("ks_2samp") or __getattr__("ks_2samp")
    stats = []
    for j, f in enumerate(functionals):
        if not live[j]:
            stats.append(Statistic.skipped(
                f.name, reason="constant on both samples"))
            continue
        # asymptotic p-values: exact computation is unavailable under the
        # heavy ties that discrete laws produce, and at these sample sizes
        # the asymptotic form is standard
        res = ks(x[j], y[j], method="asymp")
        p_adj = min(1.0, float(res.pvalue) * n_live)
        stats.append(Statistic.judged(
            f.name, p_adj, alpha, "above",
            ks_statistic=float(res.statistic), p_raw=float(res.pvalue)))
    return stats


def invariance_test(sampler, rule: StoppingRule, functionals: Sequence,
                    n_draws: int, seed: Optional[int] = None,
                    alpha: float = DEFAULT_ALPHA,
                    workers: int = 1) -> TestReport:
    """Paired two-sample KS test of law invariance under one reflection.

    Each functional is computed on every draw and on its reflection (same
    draws on both arms).  The per-functional KS p-value is Bonferroni
    adjusted across the functionals that are not degenerate; the test passes
    iff every adjusted p-value exceeds alpha.
    """
    functionals = list(functionals)  # read once: it may be a generator
    if _as_int("a draw count", n_draws, ConfigurationError) < 1000:
        raise ConfigurationError("invariance test needs at least 10^3 draws")
    if not (_is_real(alpha) and 0 < alpha < 1):  # NaN included
        raise ConfigurationError(f"alpha must lie in (0, 1), got {alpha!r}")
    names = [f.name for f in functionals]
    if not names or len(set(names)) != len(names):
        # with none the test would pass on nothing checked; two of one name
        # would give two statistics and two summary rows of one name
        raise ConfigurationError(
            f"need one or more functionals of distinct names, got {names}")
    sampler = _reseeded(sampler, seed)
    values = np.concatenate(list(_run_draws(  # arm, functional, draw
        partial(_invariance_block, sampler, rule, functionals),
        n_draws, workers, _block_size(sampler))), axis=-1)
    stats = _ks_statistics(functionals, *values, alpha)
    return TestReport.drawn(
        "invariance", sampler, n_draws, stats, rule=repr(rule), alpha=alpha,
        bonferroni=sum(s.verdict != "skip" for s in stats))


# ---------------------------------------------------------------------------
# expectation bound for stopped paths
# ---------------------------------------------------------------------------

def _bound_draw(sampler, rule: StoppingRule, bound_cap: float, i: int):
    """The stopped value of draw i and the running max of |path| up to it."""
    t, annotated = rule.observe(sampler.sample(i))
    if not is_observed(t):
        raise ConfigurationError(
            f"stopping rule unobserved on draw {i}; cap the rule with a "
            "fixed time inside the horizon")
    idx = annotated.knot_index(t)
    running = float(np.max(np.abs(annotated.values[:idx + 1])))
    if running > bound_cap:
        raise ConfigurationError(
            f"draw {i} exceeds bound_cap: |path| reached {running}")
    return annotated.values[idx], running


def bound_check(sampler, a: LevelLike, b: LevelLike, rule: StoppingRule,
                bound_cap: float, n_draws: int, seed: Optional[int] = None,
                workers: int = 1) -> TestReport:
    """Estimate the mean of the path value at a bounded stopping rule and
    compare |mean| against (a + b) plus a 4 SE allowance.

    The rule must be observed on every draw and the stopped path must stay
    within bound_cap; either violation is a configuration error, not a test
    failure.  The bound is only meaningful for laws invariant under the sign
    flip and the exit reflection with a non-dyadic a/(a+b); a dyadic ratio is
    annotated in the report, since the bound can genuinely fail there.
    A run needs at least two draws, and a + b a finite float value.
    """
    a = as_rational(a)
    b = as_rational(b)
    # an infinite cap would turn the cap off, and the paper's bound is for
    # uniformly bounded stopped paths
    if not (a > 0 and b > 0 and _is_real(bound_cap) and bound_cap > 0
            and math.isfinite(bound_cap)):
        raise ConfigurationError(f"a, b and bound_cap must be positive and "
                                 f"bound_cap finite, got {a}, {b} and "
                                 f"{bound_cap!r}")
    try:
        bound = float(a + b)
    except OverflowError:
        raise ConfigurationError("a + b has no finite float value") from None
    if _as_int("a draw count", n_draws, ConfigurationError) < 2:
        raise ConfigurationError(
            f"bound_check needs at least 2 draws, got {n_draws}")
    sampler = _reseeded(sampler, seed)
    xs, sup = [], 0.0
    for x, running in _each_draw(
            partial(_bound_draw, sampler, rule, float(bound_cap)), n_draws,
            workers):
        xs.append(x)
        sup = max(sup, running)
    mean = float(np.mean(xs))
    se = float(np.std(xs, ddof=1) / math.sqrt(len(xs)))
    notes = [] if not is_dyadic(a / (a + b)) else [
        f"a/(a+b) = {a / (a + b)} is dyadic: the invariance hypothesis "
        "behind the bound does not hold, result is informational"]
    stats = [Statistic.judged("stopped_mean", mean, bound + SE_BAND * se,
                              "abs_below", se=se, bound=bound,
                              sup_observed=sup)]
    return TestReport.drawn("bound_check", sampler, n_draws, stats, notes,
                            a=a, b=b, rule=repr(rule), bound_cap=bound_cap)


# ---------------------------------------------------------------------------
# discrete martingale checks along the ladder
# ---------------------------------------------------------------------------

def _skeleton_step(tr: LadderTrace, n: int) -> int:
    """Y_{n+1} - Y_n of the trace to step n + 1, times the ladder's den (an
    integer), read off tr, a trace of the same path to that step or
    further: a trace to a smaller n_max is a prefix of one to a larger,
    since no step looks past its own window."""
    scaled = tr.scaled_values
    return scaled[tr.last_finite(n + 1)] - scaled[tr.last_finite(n)]


def _martingale_draw(sampler, a: Fraction, b: Fraction, n_steps: int,
                     i: int):
    """The sign word of draw i, its skeleton increments Y_{n+1} - Y_n for
    n <= n_steps as floats, and how many fail the exact antisymmetry.

    The antisymmetry at n traces, to step n + 1, the annotated path
    reflected at tau_n, or the annotated path itself when tau_n is
    unobserved.  A reflected path is traced from tau_n on, from the state
    of the first trace there (``_reflected_trace``): its steps 1 .. n are
    the first trace's by construction, and step n + 1 is scanned on its own
    negated increments.  The self-traces of all unobserved tau_n are one
    trace of one path read at different steps, so the annotated path is
    traced once, from knot 0 to n_steps + 1, when the first unobserved
    tau_n comes up, and each such n reads its step from that trace
    (``_skeleton_step``).  The skeleton stays in integers over the ladder's
    den: the comparison is exact, and ``dy / den`` is the correctly rounded
    float of the rational, as ``float(Fraction(dy, den))`` is.
    """
    tr = ladder_trace(a, b, sampler.sample(i), n_steps + 1)
    increments = []
    anti_failures = 0
    self_trace = None
    for n in range(n_steps + 1):
        dy = _skeleton_step(tr, n)
        increments.append(dy / tr.ladder.den)
        if is_observed(tr.times[n]):
            tr_q = _reflected_trace(tr, n)
        else:
            if self_trace is None:
                self_trace = ladder_trace(a, b, tr.path, n_steps + 1)
            tr_q = self_trace
        if _skeleton_step(tr_q, n) != -dy:
            anti_failures += 1
    return trace_sign_word(tr).entries, tuple(increments), anti_failures


def martingale_step_test(sampler, a: LevelLike, b: LevelLike, n_steps: int,
                         n_draws: int, seed: Optional[int] = None,
                         workers: int = 1) -> TestReport:
    """Two checks on the ladder skeleton Y_n (path value at the last observed
    ladder time <= n):

    * for each n <= n_steps and each realized sign-word prefix e, the
      estimate of E[(Y_{n+1} - Y_n) 1{word prefix = e}] lies within 4 SE of 0
      (the martingale property restricted to the prefix events);
    * the exact antisymmetry of the increment under the reflection pivoted at
      the n-th ladder time holds on every draw, as exact rationals.

    A negative n_steps checks no increment and is rejected.
    """
    if _as_int("n_steps", n_steps, ConfigurationError) < 0:
        raise ConfigurationError(f"n_steps must be at least 0, got {n_steps}")
    a, b = _checked_ladder(a, b, n_steps + 1)
    sampler = _reseeded(sampler, seed)
    moments = {}  # (n, word prefix) -> [sum, sum of squares, count]
    anti_failures = 0
    for entries, increments, failures in _each_draw(
            partial(_martingale_draw, sampler, a, b, n_steps), n_draws,
            workers):
        anti_failures += failures
        for n, f in enumerate(increments):
            m = moments.setdefault((n, entries[:n]), [0, 0, 0])
            m[0] += f
            m[1] += f * f
            m[2] += 1
    stats = [Statistic.judged("antisymmetry_failures", anti_failures, 0.0,
                              "abs_below")]
    for (n, prefix), (s, ss, count) in sorted(moments.items()):
        mean = s / n_draws
        var = max(0.0, (ss - s * s / n_draws) / max(1, n_draws - 1))
        se = math.sqrt(var / n_draws)
        label = SignWord(prefix).to_string() or "()"
        stats.append(Statistic.judged(
            f"mean_increment_n{n}_prefix_{label}", mean, SE_BAND * se,
            "abs_below", se=se, count=count))
    return TestReport.drawn("martingale_step_test", sampler, n_draws, stats,
                            a=a, b=b, n_steps=n_steps)


# ---------------------------------------------------------------------------
# pathwise stability suite
# ---------------------------------------------------------------------------

def _cmp(x: float, y: float) -> int:
    return (x > y) - (x < y)


# the rules of the stability battery; one instance serves every draw
_EXIT = TwoSidedHit(1, 2)
_HIT_UP = FirstPassage(Fraction(1))
_HIT_DOWN = FirstPassage(Fraction(-1))
_FIXED_MID = FixedTime(1.0)
_REFLECT_RULES = (_EXIT, _HIT_UP, _FIXED_MID, LadderStep(1, 2, 2),
                  FirstPassage(Fraction(50)))
# (s, t, compose(s, t)) for the reflected-composition formulas
_COMPOSE_PAIRS = tuple((s, t, ComposeReflect(s, t)) for s, t in (
    (_HIT_UP, _EXIT), (_FIXED_MID, _EXIT), (_HIT_UP, _FIXED_MID),
    (_EXIT, _EXIT)))
_MIX = Mixture(((_HIT_UP, TimeCompare(_HIT_UP, _FIXED_MID, "le")),
                (_FIXED_MID, TimeCompare(_HIT_UP, _FIXED_MID, "gt"))))
_MIX_MIN = MinOf(_HIT_UP, _FIXED_MID)


def _splice(big: np.ndarray, small: np.ndarray,
            values: np.ndarray) -> np.ndarray:
    """``np.interp(big, small, values)`` for knots big that hold every knot
    of small, with ``np.interp`` run only at the knots small lacks.

    At a shared knot ``np.interp`` returns the value there, so the result
    is values with the new knots' interpolants spliced in: the same routine
    at the same points, so the same bits.  The new knots are found by
    comparing aligned slices: past m new knots, big[i] is small[i - m]
    until the next new knot.  A knot of small missing from big raises
    ValueError.
    """
    if big.size < small.size:
        raise ValueError(f"{small.size} knots cannot lie in {big.size}")
    new = []
    start = 0  # big[start:] is aligned with small[start - len(new):]
    while start < small.size + len(new):
        differ = big[start:small.size + len(new)] \
            != small[start - len(new):]
        i = int(differ.argmax())
        if not differ[i]:
            break
        if len(new) == big.size - small.size:
            raise ValueError(f"knot {float(small[start - len(new) + i])!r} "
                             f"is missing from the larger grid")
        new.append(start + i)
        start += i + 1
    new += range(small.size + len(new), big.size)  # past small's last knot
    if not new:
        return values
    out = np.empty(big.size)
    src = 0  # next value to copy
    for m, i in enumerate(new):
        out[src + m:i] = values[src:i - m]
        src = i - m
    out[src + len(new):] = values[src:]
    out[new] = np.interp(big[new], small, values)
    return out


def _deviation(p1: Path, p2: Path) -> float:
    """Sup-norm distance of two paths, normalized by their largest absolute
    value (at least 1).  The caller guarantees that p1's knots contain
    p2's, so p1's grid is the union of both: p2's values there are its own
    at its knots, interpolated only at the knots p1 adds (``_splice``)."""
    v1, v2 = p1.values, p2.values
    scale = float(max(1.0, v1.max(), -v1.min(), v2.max(), -v2.min()))
    if p1.knots is not p2.knots:
        v2 = _splice(p1.knots, p2.knots, v2)
    x = v1 - v2
    return float(max(x.max(), -x.min())) / scale


def _stability_draw(sampler, i: int):
    """How often draw i fails each check, and the worst normalized deviation
    of a path identity on it."""
    p = sampler.sample(i)
    fails = {k: 0 for k in
             ["involution_exact", "involution_function", "time_idempotent",
              "formulas_low_branch", "formulas_high_branch",
              "negated_level_chain", "prefix_determinism", "order_consistency",
              "mixture_events", "mixture_min", "mixture_involution"]}
    worst = 0.0
    reflected = {}  # rule -> p reflected at it, for the checks below

    for rule in _REFLECT_RULES:
        t, p1 = rule.observe(p)
        if not is_observed(t):
            reflected[rule] = reflect_at_rule(p, rule)
            if reflected[rule] != p:
                fails["involution_exact"] += 1
            continue
        reflected[rule] = q1 = reflect_at_time(p1, t)
        t2, q1a = rule.observe(q1)
        if t2 != t:
            fails["time_idempotent"] += 1
        if reflect_at_time(q1a, t2 if is_observed(t2) else t) != p1:
            fails["involution_exact"] += 1
        d = _deviation(p1, p)
        worst = max(worst, d)
        if d > PATH_RTOL:
            fails["involution_function"] += 1

    for s_rule, t_rule, composed in _COMPOSE_PAIRS:
        ts, tt = s_rule.evaluate(p), t_rule.evaluate(p)
        lhs = reflect_at_rule(p, composed)
        q = reflected[t_rule]
        if ts <= tt:
            s_on_q = s_rule.evaluate(q)
            d = _deviation(lhs, reflected[s_rule])
            worst = max(worst, d)
            if (is_observed(ts) and s_on_q != ts) or d > PATH_RTOL:
                fails["formulas_low_branch"] += 1
        if ts >= tt:
            qq = reflect_at_rule(q, s_rule)
            t_back = t_rule.evaluate(qq)
            # the right side holds every knot of lhs, which is p itself,
            # without the knot at tt, when s_rule is not observed after the
            # reflection at tt
            d = _deviation(reflect_at_rule(qq, t_rule), lhs)
            worst = max(worst, d)
            if (is_observed(tt) and t_back != tt) or d > PATH_RTOL:
                fails["formulas_high_branch"] += 1

    lhs = reflect_at_rule(p, _HIT_DOWN)
    neg = negate(p)
    rhs = negate(reflect_at_rule(neg, _HIT_UP))
    if lhs != rhs or _HIT_DOWN.evaluate(p) != _HIT_UP.evaluate(neg):
        fails["negated_level_chain"] += 1

    # prefix surgery at a knot: q agrees with p on [0, t0] bit for bit
    t0 = float(p.knots[p.knots.size // 4])
    q = reflect_at_time(p, t0)
    others_p = None
    for rule in (_HIT_UP, _EXIT, _MIX):
        rp, rq = rule.evaluate(p), rule.evaluate(q)
        if min(rp, rq) <= t0:
            if rp != rq:
                fails["prefix_determinism"] += 1
            if others_p is None:
                others_p = [(o.evaluate(p), o.evaluate(q))
                            for o in (_FIXED_MID, _EXIT)]
            for op_, oq_ in others_p:
                if _cmp(op_, rp) != _cmp(oq_, rq):
                    fails["order_consistency"] += 1

    q = reflected[_FIXED_MID]
    for op in ("lt", "eq", "gt"):
        ev = TimeCompare(_HIT_UP, _FIXED_MID, op)
        if ev.holds(p) != ev.holds(q):
            fails["mixture_events"] += 1
    if _MIX.evaluate(p) != _MIX_MIN.evaluate(p):
        fails["mixture_min"] += 1
    d = _deviation(reflect_at_rule(reflect_at_rule(p, _MIX), _MIX), p)
    worst = max(worst, d)
    if d > PATH_RTOL:
        fails["mixture_involution"] += 1
    return fails, worst


def stability_suite(n_paths: int, seed: Optional[int] = None, sampler=None,
                    workers: int = 1) -> TestReport:
    """Pathwise identity battery on random paths, all at zero tolerance on
    increments with a 1e-9 normalized allowance where knot interpolation
    enters: reflections are involutions, reflecting twice is idempotent on
    the stopping time, both branches of the reflected-composition formula,
    the negated-level reflection chain, prefix determinism of rule times,
    order consistency, and mixture stability."""
    if sampler is None:
        sampler = BrownianMotion(dt=1e-3, horizon=10.0)
    sampler = _reseeded(sampler, seed)
    fails, worst = Counter(), 0.0
    for draw_fails, deviation in _each_draw(partial(_stability_draw, sampler),
                                            n_paths, workers):
        fails.update(draw_fails)
        worst = max(worst, deviation)
    stats = [Statistic.judged(k, v, 0.0, "abs_below")
             for k, v in sorted(fails.items())]
    stats.append(Statistic.judged("max_normalized_deviation", worst,
                                  PATH_RTOL, "abs_below"))
    return TestReport.drawn("stability_suite", sampler, n_paths, stats)


# ---------------------------------------------------------------------------
# sign-word identity suite
# ---------------------------------------------------------------------------

def _sign_draw(sampler, rule: TwoSidedHit, n: int, i: int):
    """The sign word of draw i and whether it fails each check."""
    a, b = rule.a, rule.b
    tr = ladder_trace(a, b, sampler.sample(i), n)
    w = trace_sign_word(tr)
    base = tr.path
    fails = {k: 0 for k in ["negation", "reflection", "advance",
                            "hit_identity", "times_preserved"]}

    tr_neg = ladder_trace(a, b, negate(base), n)
    if trace_sign_word(tr_neg) != negate_word(w):
        fails["negation"] += 1
    tr_ref = ladder_trace(a, b, reflect_at_rule(base, rule), n)
    if trace_sign_word(tr_ref) != reflect_word(w):
        fails["reflection"] += 1
    tr_adv = ladder_trace(a, b, advance_path(base, rule), n)
    if trace_sign_word(tr_adv) != advance_word(w):
        fails["advance"] += 1
    if not (tr_neg.times == tr_ref.times == tr_adv.times == tr.times):
        fails["times_preserved"] += 1

    t_exit = rule.evaluate(base)
    m = first_down_index(w)
    if m is not None:
        ok = t_exit == tr.times[m]
    elif first_zero_index(w) is not None:
        ok = not is_observed(t_exit)
    else:
        ok = t_exit > tr.times[n]
    if not ok:
        fails["hit_identity"] += 1
    return w.to_string(), fails


def sign_identity_test(sampler, a: LevelLike, b: LevelLike, n: int,
                       n_draws: int, seed: Optional[int] = None,
                       workers: int = 1) -> TestReport:
    """Exact pathwise checks tying sign words to path transformations:
    negating the path negates the word, reflecting at the exit time applies
    reflect_word, the advance map applies advance_word, ladder times are
    preserved by all three transformations, and the exit time equals the
    ladder time indexed by the word's first -1 (unobserved on both sides
    when the word has no -1 but a 0; strictly later than step n when the
    word is all plus).  Words of length 0 are rejected: every draw would
    give the one empty word and every count would read 0 with nothing
    checked."""
    a, b = _checked_ladder(a, b, n, words=True)
    sampler = _reseeded(sampler, seed)
    fails, words = Counter(), Counter()
    for word, draw_fails in _each_draw(
            partial(_sign_draw, sampler, TwoSidedHit(a, b), n), n_draws,
            workers):
        words[word] += 1
        fails.update(draw_fails)
    stats = [Statistic.judged(k, v, 0.0, "abs_below")
             for k, v in sorted(fails.items())]
    stats.append(Statistic.judged(
        "distinct_words_observed", len(words), 0.0, "above",
        word_counts=dict(sorted(words.items()))))
    return TestReport.drawn("sign_identity_test", sampler, n_draws, stats,
                            a=a, b=b, n=n)


# ---------------------------------------------------------------------------
# exit alignment (word -> power of the advance map)
# ---------------------------------------------------------------------------

def _alignment_draw(sampler, a: Fraction, b: Fraction, n: int, i: int):
    """The sign word of draw i and its ladder trace."""
    tr = ladder_trace(a, b, sampler.sample(i), n)
    return trace_sign_word(tr), tr


def exit_alignment_test(sampler, a: LevelLike, b: LevelLike, n: int,
                        min_per_word: int, n_draws_max: int,
                        seed: Optional[int] = None) -> TestReport:
    """For every zero-absorbing word e of length n, on draws whose observed
    word equals e, the n-th ladder time must coincide exactly with the exit
    time evaluated after exit_alignment_power(e) applications of the advance
    map (rewinding when negative); unobserved on both sides in the truncated
    case.  Draws continue until every word has min_per_word checks or the
    draw cap is reached (falling short is a failure).  n must be at least 1:
    tau_0 = 0 is never an exit time."""
    # a negative n is reported as a word length, before the ladder checks it
    n = _check_length(_as_int("n", n, ConfigurationError))
    a, b = _checked_ladder(a, b, n, words=True)
    if _as_int("min_per_word", min_per_word, ConfigurationError) < 1:
        raise ConfigurationError(
            f"min_per_word must be at least 1, got {min_per_word}")
    sampler = _reseeded(sampler, seed)
    rule = TwoSidedHit(a, b)
    words = short = 2 ** (n + 1) - 1  # all, then those below quota
    counts, failures = Counter(), 0  # checks of each word drawn
    # one worker: a helper would draw past the draw that fills the last quota
    for draws, (w, tr) in enumerate(_each_draw(
            partial(_alignment_draw, sampler, a, b, n), n_draws_max, 1), 1):
        if counts[w] >= min_per_word:
            continue
        counts[w] += 1
        q = advance_path_power(tr.path, rule, exit_alignment_power(w))
        if rule.evaluate(q) != tr.times[n]:
            failures += 1
        if counts[w] == min_per_word:
            short -= 1
            if not short:
                break
    return TestReport.drawn(
        "exit_alignment_test", sampler, draws,
        [Statistic.judged("alignment_failures", failures, 0.0, "abs_below"),
         Statistic.judged("words_below_quota", short, 0.0, "abs_below",
                          min_count=(min(counts.values())
                                     if len(counts) == words else 0),
                          checks_total=counts.total())],
        a=a, b=b, n=n, min_per_word=min_per_word, words=words)


# ---------------------------------------------------------------------------
# exhaustive deterministic suites
# ---------------------------------------------------------------------------

def check_non_dyadic_triple(a, b, c) -> bool:
    """For rationals 0 < a < b < c, whether at least one of a/(a+b), b/(b+c),
    a/(a+c) is non-dyadic (exhaustive sweeps show this always holds).

    The check runs on integers: over a common denominator a, b, c are
    integers x < y < z with the same ratios, and x/(x+y) in lowest terms has
    the denominator (x+y)/gcd(x, y), so it is dyadic exactly when that is a
    power of two."""
    a, b, c = as_rational(a), as_rational(b), as_rational(c)
    m = math.lcm(a.denominator, b.denominator, c.denominator)
    x, y, z = (q.numerator * (m // q.denominator) for q in (a, b, c))
    if not 0 < x < y < z:
        raise RuleError(f"need 0 < a < b < c, got {a}, {b}, {c}")
    return _non_dyadic_ints(x, y, z)


def _non_dyadic_ints(x: int, y: int, z: int) -> bool:
    """check_non_dyadic_triple on integers 0 < x < y < z, its ratios tried
    in the same order."""
    d = (x + y) // math.gcd(x, y)
    if d & (d - 1):
        return True
    d = (y + z) // math.gcd(y, z)
    if d & (d - 1):
        return True
    d = (x + z) // math.gcd(x, z)
    return d & (d - 1) != 0


def non_dyadic_sweep(limit: int) -> TestReport:
    """check_non_dyadic_triple over all integer triples 0 < a < b < c <= limit
    (the exhaustive enumeration is itself the oracle).  A limit below 3
    holds no triple and is rejected: nothing checked would read as a
    pass."""
    limit = _as_int("limit", limit, ConfigurationError)
    if limit < 3:
        raise ConfigurationError(f"limit must be at least 3, got {limit}")
    checked, failures, first_failure = 0, 0, None
    for c in range(3, limit + 1):
        for b in range(2, c):
            for a in range(1, b):
                checked += 1
                if not _non_dyadic_ints(a, b, c):
                    failures += 1
                    if first_failure is None:
                        first_failure = (a, b, c)
    stats = [Statistic.judged("triple_failures", failures, 0.0, "abs_below",
                              checked=checked, first_failure=first_failure)]
    return TestReport(name="non_dyadic_sweep", params={"limit": limit},
                      seed=None, sample_size=checked, statistics=stats)


def _counterexample_draw(sampler, exit_unit: TwoSidedHit,
                         exit_wide: TwoSidedHit, functionals: Sequence,
                         i: int):
    """Whether draw i misses the unit exit time 1, its value at the wide exit,
    and the functionals of it and of its reflections at 0 and at the unit
    exit, one row per arm."""
    p = sampler.sample(i)
    t, annotated = exit_wide.observe(p)
    arms = (p, negate(p), reflect_at_rule(p, exit_unit))
    return (exit_unit.evaluate(p) != 1.0, value_at(annotated, t),
            [[f.apply(q) for f in functionals] for q in arms])


def counterexample_demo(n_draws: int, seed: int = 0,
                        c: LevelLike = Fraction(3),
                        workers: int = 1) -> TestReport:
    """Experiment on the two-segment counterexample law.

    Checks, on the same draws: the exit time of (-1, 1) equals 1 on every
    draw; the mean value at the exit of (-2, c) equals (c-2)/2 within 4 SE
    (that value is uniform on {-2, c}, so the mean grows with c even though
    the law is invariant under the sign flip and the exit reflection of
    (-1, 1), whose barrier ratio 1/2 is dyadic); and the paired invariance
    tests at those two reflections pass.
    """
    # checked before the arrays are sized, not first in _run_draws
    if _as_int("a draw count", n_draws, ConfigurationError) < 1000:
        raise ConfigurationError("invariance test needs at least 10^3 draws")
    c = as_rational(c)
    if c <= 1:
        raise ConfigurationError("c must exceed 1")
    try:  # the exit of (-2, c) is observed
        horizon = max(5.0, 2.0 + float(c))
    except OverflowError:
        raise ConfigurationError("c has no finite float value") from None
    sampler = DyadicCounterexample(horizon=horizon, seed=seed)
    exit_wide = TwoSidedHit(2, c)
    exit_unit = TwoSidedHit(1, 1)
    functionals = [
        ValueAtTime(2.0), ValueAtTime(horizon), RunningMax(),
        HittingTime(2.0), HittingTime(-2.0),
        ValueAtRuleTime(exit_wide, f"exit_m2_{c}"),
    ]
    unit_time_failures = 0
    xs = np.empty(n_draws)
    arms = np.empty((3, len(functionals), n_draws))  # arm, functional, draw
    for i, (missed, xs[i], arms[..., i]) in enumerate(_each_draw(
            partial(_counterexample_draw, sampler, exit_unit, exit_wide,
                    functionals), n_draws, workers)):
        unit_time_failures += missed
    mean = float(np.mean(xs))
    se = float(np.std(xs, ddof=1) / math.sqrt(n_draws))
    expected = float((c - 2) / 2)
    stats = [
        Statistic.judged("unit_exit_time_failures", unit_time_failures, 0.0,
                         "abs_below"),
        Statistic.judged("stopped_mean_vs_expected", mean - expected,
                         SE_BAND * se, "abs_below", se=se, mean=mean,
                         expected=expected),
    ]
    for label, y in (("reflect0", arms[1]), ("exit11", arms[2])):
        for s in _ks_statistics(functionals, arms[0], y, DEFAULT_ALPHA):
            stats.append(dataclasses.replace(s, name=f"{label}_{s.name}"))
    return TestReport(
        name="counterexample_demo",
        params={"c": c, "horizon": horizon},
        seed=sampler.seed,
        sample_size=n_draws,
        statistics=stats,
    )


def advance_formula_check(n_max: int) -> TestReport:
    """Exhaustive check of the closed-form advance formula against brute
    iteration, for every prefix length n <= n_max, every step count below
    2**n, and suffixes headed by +1 and by -1; plus the shifted variant
    starting from (plus^(n-1), -1, suffix) with signed exponents, and
    bijectivity of the advance map on each word space.  A negative n_max
    checks nothing and is rejected."""
    n_max = _as_int("n_max", n_max, ConfigurationError)
    if n_max < 0:
        raise ConfigurationError(f"n_max must be at least 0, got {n_max}")
    mismatches = shifted_mismatches = non_bijective = checked = 0
    for n in range(n_max + 1):
        for suffix in ((1,), (-1,)):
            w = SignWord((1,) * n + suffix)
            for steps in range(2 ** n):
                checked += 1
                if word_after_steps(n, steps, suffix) != w:
                    mismatches += 1
                w = advance_word(w)
            if n >= 1:
                w = base = SignWord((1,) * (n - 1) + (-1,) + suffix)
                for e in range(2 ** (n - 1)):
                    checked += 1
                    if word_after_steps(n, 2 ** (n - 1) + e, suffix) != w:
                        shifted_mismatches += 1
                    w = advance_word(w)
                w = base
                for e in range(1, 2 ** (n - 1) + 1):
                    w = rewind_word(w)
                    checked += 1
                    if word_after_steps(n, 2 ** (n - 1) - e, suffix) != w:
                        shifted_mismatches += 1
    for n in range(min(n_max, 12) + 1):
        words = list(all_words(n))
        image = {advance_word(w) for w in words}
        if len(image) != len(words):
            non_bijective += 1
    stats = [
        Statistic.judged("formula_mismatches", mismatches, 0.0, "abs_below",
                         checked=checked),
        Statistic.judged("shifted_formula_mismatches", shifted_mismatches,
                         0.0, "abs_below"),
        Statistic.judged("non_bijective_lengths", non_bijective, 0.0,
                         "abs_below"),
    ]
    return TestReport(name="advance_formula_check", params={"n_max": n_max},
                      seed=None, sample_size=checked, statistics=stats)
