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

Block draws
-----------
``invariance_test`` runs the draw loop over blocks of draws, each returning
an array indexed by arm, functional and draw.  On a law with a shared grid
(``BrownianMotion``, ``DriftedBM``, ``OconeTimeChange``) a block holds about
``_BLOCK_INCREMENTS`` increments: the sampler fills one increment matrix, one
row per draw from that draw's own Generator, and one ``cumsum(axis=1)`` gives
every row's ``Path.values`` bit for bit.  Each draw is still reflected on its
own path.  The rows of an arm that hold the grid's knot array itself and no
anchor are summed into one matrix, and a functional with a ``rows`` form
reads them off its columns.  Everything else goes through ``apply`` on the
path: a reflected row with an inserted knot, or with an anchor (an exact
value that can override a float verdict), every functional without a rows
form (``ValueAtRuleTime``), and every draw of a law without a shared grid,
which is drawn one path per block.  Both routes give the same bits, so the
report does not depend on the route or the block size.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.stats import ks_2samp

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
from .rational import as_rational, is_dyadic
from .samplers import BrownianMotion, DyadicCounterexample, _GridLaw
from .signs import (
    SignWord,
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
    LevelLike,
    MinOf,
    Mixture,
    StoppingRule,
    TimeCompare,
    TwoSidedHit,
    _exit_rows,
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

    @property
    def verdict(self) -> str:
        return "fail" if any(s.verdict == "fail" for s in self.statistics) \
            else "pass"

    def recheck(self) -> bool:
        """Verdicts follow from the recorded numbers alone."""
        return all(s.verdict == _judge(s.value, s.threshold, s.direction)
                   for s in self.statistics if s.verdict != "skip")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "params": _jsonable(self.params),
            "seed": self.seed,
            "sample_size": self.sample_size,
            "verdict": self.verdict,
            "notes": list(self.notes),
            "statistics": [
                {"name": s.name, "value": _jsonable(s.value),
                 "threshold": _jsonable(s.threshold),
                 "direction": s.direction, "verdict": s.verdict,
                 "se": _jsonable(s.se), "detail": _jsonable(s.detail)}
                for s in self.statistics
            ],
        }

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
    if isinstance(x, (np.floating, np.integer)):
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

def _run_draws(fn: Callable, args: tuple, n: int, workers: int) -> Iterator:
    """Yield ``fn(args, i)`` for i in range(n), in index order, computed on
    contiguous index ranges spread over the workers.

    Every caller reduces the rows in the order they come, so each statistic
    is bit-identical at any worker count.  An empty run is rejected when its
    rows are first asked for: its reductions would report a pass with
    nothing checked.  A consumer may stop reading early; when it does, or
    when a draw raises, the shards that have not started are cancelled
    rather than run on the way out of the pool.
    """
    if n < 1:
        raise ConfigurationError(f"a run needs at least one draw, got {n}")
    if min(n, workers) <= 1:
        yield from (fn(args, i) for i in range(n))
        return
    # shards are reduced as they arrive, so a run holds the rows of a few
    # shards at a time, whatever its size
    size = min(1000, -(-n // workers))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        try:
            shards = deque(ex.submit(_draws, fn, args, s, min(s + size, n))
                           for s in range(0, n, size))
            while shards:
                yield from shards.popleft().result()
        finally:
            ex.shutdown(cancel_futures=True)


def _draws(fn: Callable, args: tuple, start: int, stop: int) -> list:
    return [fn(args, i) for i in range(start, stop)]


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
        # here, not at the first draw (inside a pool worker)
        if not 0.0 <= self.t < math.inf:
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
        (lo, _), (hi, _) = self._rule._bounds
        t = _exit_rows(knots, values, lo, hi)
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


def _invariance_block(args, b):
    """The functionals of the draws of block b and of their reflections, as
    an array indexed by arm, functional and draw."""
    sampler, rule, functionals, n, size = args
    indices = range(b * size, min(n, (b + 1) * size))
    if isinstance(sampler, _GridLaw):
        knots, inc = sampler._rows(indices)
        inc.setflags(write=False)
        paths = [_fast_path(knots, row, {}) for row in inc]
    else:
        knots, paths = None, [sampler.sample(i) for i in indices]
    out = np.empty((2, len(functionals), len(paths)))
    _read_off(out[0], functionals, knots, paths)
    _read_off(out[1], functionals, knots,
              [reflect_at_rule(p, rule) for p in paths])
    return out


def _read_off(out: np.ndarray, functionals: Sequence, knots,
              paths: list) -> None:
    """out[j, r] = functionals[j].apply(paths[r]), bit for bit.

    The paths that hold the knot array ``knots`` itself and carry no
    anchors are summed in one matrix, and each functional with a rows form
    reads them off it.  Every other path (one with an inserted knot, or
    an anchor that can override a float verdict), and every functional
    without a rows form, goes through apply.
    """
    joins = [p.knots is knots and not p.anchors for p in paths]
    rows = [r for r, ok in enumerate(joins) if ok]
    others = [r for r, ok in enumerate(joins) if not ok]
    if rows:
        values = np.zeros((len(rows), knots.size))
        np.cumsum([paths[r].increments for r in rows], axis=1,
                  out=values[:, 1:])
    for j, f in enumerate(functionals):
        scalar = range(len(paths))
        if rows and hasattr(f, "rows"):
            out[j, rows] = f.rows(knots, values)
            scalar = others
        for r in scalar:
            out[j, r] = f.apply(paths[r])


def _ks_statistics(functionals: Sequence, x: np.ndarray, y: np.ndarray,
                   alpha: float) -> list[Statistic]:
    """One paired KS statistic per functional (rows of x and y), Bonferroni
    adjusted across the functionals that are not constant on both arms."""
    live = [not (x[j].min() == x[j].max() == y[j].min() == y[j].max())
            for j in range(len(functionals))]
    n_live = sum(live)
    stats = []
    for j, f in enumerate(functionals):
        if not live[j]:
            stats.append(Statistic.skipped(
                f.name, reason="constant on both samples"))
            continue
        # asymptotic p-values: exact computation is unavailable under the
        # heavy ties that discrete laws produce, and at these sample sizes
        # the asymptotic form is standard
        res = ks_2samp(x[j], y[j], method="asymp")
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
    if n_draws < 1000:
        raise ConfigurationError("invariance test needs at least 10^3 draws")
    names = [f.name for f in functionals]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"functional names collide: {names}")
    sampler = _reseeded(sampler, seed)
    size = _block_size(sampler)
    values = np.empty((2, len(functionals), n_draws))  # arm, functional, draw
    for b, block in enumerate(_run_draws(
            _invariance_block,
            (sampler, rule, list(functionals), n_draws, size),
            -(-n_draws // size), workers)):
        values[..., b * size:(b + 1) * size] = block
    stats = _ks_statistics(functionals, *values, alpha)
    return TestReport(
        name="invariance",
        params={"law": repr(sampler), "rule": repr(rule), "alpha": alpha,
                "bonferroni": sum(s.verdict != "skip" for s in stats)},
        seed=sampler.seed,
        sample_size=n_draws,
        statistics=stats,
    )


# ---------------------------------------------------------------------------
# expectation bound for stopped paths
# ---------------------------------------------------------------------------

def _bound_draw(args, i):
    """The stopped value of draw i and the running max of |path| up to it."""
    sampler, rule, bound_cap = args
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
    """
    a = as_rational(a)
    b = as_rational(b)
    sampler = _reseeded(sampler, seed)
    xs, sup = [], 0.0
    for x, running in _run_draws(
            _bound_draw, (sampler, rule, float(bound_cap)), n_draws, workers):
        xs.append(x)
        sup = max(sup, running)
    mean = float(np.mean(xs))
    se = float(np.std(xs, ddof=1) / math.sqrt(len(xs))) if len(xs) > 1 else 0.0
    notes = []
    if is_dyadic(a / (a + b)):
        notes.append(
            f"a/(a+b) = {a / (a + b)} is dyadic: the invariance hypothesis "
            "behind the bound does not hold, result is informational")
    return TestReport(
        name="bound_check",
        params={"a": a, "b": b, "rule": repr(rule), "bound_cap": bound_cap},
        seed=sampler.seed,
        sample_size=n_draws,
        statistics=[
            Statistic.judged("stopped_mean", mean,
                             float(a + b) + SE_BAND * se, "abs_below", se=se,
                             bound=float(a + b), sup_observed=sup),
        ],
        notes=notes,
    )


# ---------------------------------------------------------------------------
# discrete martingale checks along the ladder
# ---------------------------------------------------------------------------

def _martingale_draw(args, i):
    """The sign word of draw i, its skeleton increments Y_{n+1} - Y_n for
    n <= n_steps as floats, and how many fail the exact antisymmetry."""
    sampler, a, b, n_steps = args
    tr = ladder_trace(a, b, sampler.sample(i), n_steps + 1)
    increments = []
    anti_failures = 0
    for n in range(n_steps + 1):
        dy = tr.skeleton_value(n + 1) - tr.skeleton_value(n)
        increments.append(float(dy))
        t_n = tr.times[n]
        q = reflect_at_time(tr.path, t_n) if is_observed(t_n) else tr.path
        tr_q = ladder_trace(a, b, q, n + 1)
        if tr_q.skeleton_value(n + 1) - tr_q.skeleton_value(n) != -dy:
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
    """
    a = as_rational(a)
    b = as_rational(b)
    sampler = _reseeded(sampler, seed)
    moments = {}  # (n, word prefix) -> [sum, sum of squares, count]
    anti_failures = 0
    for entries, increments, failures in _run_draws(
            _martingale_draw, (sampler, a, b, n_steps), n_draws, workers):
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
        label = "".join("+" if e == 1 else "-" if e == -1 else "0"
                        for e in prefix) or "()"
        stats.append(Statistic.judged(
            f"mean_increment_n{n}_prefix_{label}", mean, SE_BAND * se,
            "abs_below", se=se, count=count))
    return TestReport(
        name="martingale_step_test",
        params={"a": a, "b": b, "n_steps": n_steps},
        seed=sampler.seed,
        sample_size=n_draws,
        statistics=stats,
    )


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


def _deviation(p1: Path, p2: Path) -> float:
    """Sup-norm distance of two paths, normalized by their largest absolute
    value (at least 1).  The caller guarantees that p1's knots contain
    p2's, so p1's grid is the union of both: p2 is interpolated there once,
    or not at all when both hold the same knot array (``np.interp`` returns
    the knot value at a knot)."""
    scale = max(1.0, float(np.max(np.abs(p1.values))),
                float(np.max(np.abs(p2.values))))
    v2 = p2.values if p1.knots is p2.knots else np.interp(
        p1.knots, p2.knots, p2.values)
    return float(np.max(np.abs(p1.values - v2))) / scale


def _stability_draw(args, i):
    """How often draw i fails each check, and the worst normalized deviation
    of a path identity on it."""
    sampler, = args
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
    rhs = negate(reflect_at_rule(negate(p), _HIT_UP))
    if lhs != rhs or _HIT_DOWN.evaluate(p) != _HIT_UP.evaluate(negate(p)):
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
    fails = Counter()
    worst = 0.0
    for draw_fails, deviation in _run_draws(_stability_draw, (sampler,),
                                            n_paths, workers):
        fails.update(draw_fails)
        worst = max(worst, deviation)
    stats = [Statistic.judged(k, v, 0.0, "abs_below")
             for k, v in sorted(fails.items())]
    stats.append(Statistic.judged("max_normalized_deviation", worst,
                                  PATH_RTOL, "abs_below"))
    return TestReport(
        name="stability_suite",
        params={"law": repr(sampler)},
        seed=sampler.seed,
        sample_size=n_paths,
        statistics=stats,
    )


# ---------------------------------------------------------------------------
# sign-word identity suite
# ---------------------------------------------------------------------------

def _sign_draw(args, i):
    """The sign word of draw i and whether it fails each check."""
    sampler, rule, n = args
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
    word is all plus)."""
    a = as_rational(a)
    b = as_rational(b)
    sampler = _reseeded(sampler, seed)
    fails, words = Counter(), Counter()
    for word, draw_fails in _run_draws(
            _sign_draw, (sampler, TwoSidedHit(a, b), n), n_draws, workers):
        words[word] += 1
        fails.update(draw_fails)
    stats = [Statistic.judged(k, v, 0.0, "abs_below")
             for k, v in sorted(fails.items())]
    stats.append(Statistic.judged(
        "distinct_words_observed", len(words), 0.0, "above",
        word_counts=dict(sorted(words.items()))))
    return TestReport(
        name="sign_identity_test",
        params={"a": a, "b": b, "n": n, "law": repr(sampler)},
        seed=sampler.seed,
        sample_size=n_draws,
        statistics=stats,
    )


# ---------------------------------------------------------------------------
# exit alignment (word -> power of the advance map)
# ---------------------------------------------------------------------------

def _alignment_draw(args, i):
    """The sign word of draw i and its ladder trace."""
    sampler, a, b, n = args
    tr = ladder_trace(a, b, sampler.sample(i), n)
    return trace_sign_word(tr).entries, tr


def exit_alignment_test(sampler, a: LevelLike, b: LevelLike, n: int,
                        min_per_word: int, n_draws_max: int,
                        seed: Optional[int] = None) -> TestReport:
    """For every zero-absorbing word e of length n, on draws whose observed
    word equals e, the n-th ladder time must coincide exactly with the exit
    time evaluated after exit_alignment_power(e) applications of the advance
    map (rewinding when negative); unobserved on both sides in the truncated
    case.  Draws continue until every word has min_per_word checks or the
    draw cap is reached (falling short is a failure)."""
    if min_per_word < 1:
        raise ConfigurationError(
            f"min_per_word must be at least 1, got {min_per_word}")
    a = as_rational(a)
    b = as_rational(b)
    sampler = _reseeded(sampler, seed)
    rule = TwoSidedHit(a, b)
    words = list(all_words(n))
    powers = {w.entries: exit_alignment_power(w) for w in words}
    counts = {w.entries: 0 for w in words}
    short = len(words)  # words below quota
    failures = 0
    # one worker: a pool would draw past the draw that fills the last quota
    for draws, (w, tr) in enumerate(_run_draws(
            _alignment_draw, (sampler, a, b, n), n_draws_max, 1), 1):
        if counts[w] >= min_per_word:
            continue
        counts[w] += 1
        q = advance_path_power(tr.path, rule, powers[w])
        if rule.evaluate(q) != tr.times[n]:
            failures += 1
        if counts[w] == min_per_word:
            short -= 1
            if not short:
                break
    return TestReport(
        name="exit_alignment_test",
        params={"a": a, "b": b, "n": n, "min_per_word": min_per_word,
                "words": len(words)},
        seed=sampler.seed,
        sample_size=draws,
        statistics=[
            Statistic.judged("alignment_failures", failures, 0.0, "abs_below"),
            Statistic.judged("words_below_quota", short, 0.0, "abs_below",
                             min_count=min(counts.values()),
                             checks_total=sum(counts.values())),
        ],
    )


# ---------------------------------------------------------------------------
# exhaustive deterministic suites
# ---------------------------------------------------------------------------

def check_non_dyadic_triple(a, b, c) -> bool:
    """For rationals 0 < a < b < c, whether at least one of a/(a+b), b/(b+c),
    a/(a+c) is non-dyadic (exhaustive sweeps show this always holds)."""
    a, b, c = as_rational(a), as_rational(b), as_rational(c)
    if not 0 < a < b < c:
        raise RuleError(f"need 0 < a < b < c, got {a}, {b}, {c}")
    return (not is_dyadic(a / (a + b)) or not is_dyadic(b / (b + c))
            or not is_dyadic(a / (a + c)))


def non_dyadic_sweep(limit: int) -> TestReport:
    """check_non_dyadic_triple over all integer triples 0 < a < b < c <= limit
    (the exhaustive enumeration is itself the oracle)."""
    checked = 0
    failures = 0
    first_failure = None
    for c in range(3, limit + 1):
        for b in range(2, c):
            for a in range(1, b):
                checked += 1
                if not check_non_dyadic_triple(a, b, c):
                    failures += 1
                    if first_failure is None:
                        first_failure = (a, b, c)
    stats = [Statistic.judged("triple_failures", failures, 0.0, "abs_below",
                              checked=checked, first_failure=first_failure)]
    return TestReport(name="non_dyadic_sweep", params={"limit": limit},
                      seed=None, sample_size=checked, statistics=stats)


def _counterexample_draw(args, i):
    """Whether draw i misses the unit exit time 1, its value at the wide exit,
    and the functionals of it and of its reflections at 0 and at the unit
    exit, one row per arm."""
    sampler, exit_unit, exit_wide, functionals = args
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
    if n_draws < 1000:
        raise ConfigurationError("invariance test needs at least 10^3 draws")
    c = as_rational(c)
    if c <= 1:
        raise ConfigurationError("c must exceed 1")
    horizon = max(5.0, 2.0 + float(c))  # the exit of (-2, c) is observed
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
    for i, (missed, xs[i], arms[..., i]) in enumerate(_run_draws(
            _counterexample_draw, (sampler, exit_unit, exit_wide, functionals),
            n_draws, workers)):
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
        seed=seed,
        sample_size=n_draws,
        statistics=stats,
    )


def advance_formula_check(n_max: int) -> TestReport:
    """Exhaustive check of the closed-form advance formula against brute
    iteration, for every prefix length n <= n_max, every step count below
    2**n, and suffixes headed by +1 and by -1; plus the shifted variant
    starting from (plus^(n-1), -1, suffix) with signed exponents, and
    bijectivity of the advance map on each word space."""
    mismatches = 0
    shifted_mismatches = 0
    non_bijective = 0
    checked = 0
    for n in range(n_max + 1):
        for suffix in ((1,), (-1,)):
            w = SignWord((1,) * n + suffix)
            for steps in range(2 ** n):
                checked += 1
                if word_after_steps(n, steps, suffix) != w:
                    mismatches += 1
                w = advance_word(w)
            if n >= 1:
                base = SignWord((1,) * (n - 1) + (-1,) + suffix)
                w = base
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
        image = {advance_word(w).entries for w in words}
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
