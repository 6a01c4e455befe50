"""Verification layer: exact suites, statistical tests, reports."""

import dataclasses
import json
import math
import operator
import os
import pathlib
import platform
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from reflectlab import (
    BrownianMotion,
    ConfigurationError,
    DriftedBM,
    DyadicCounterexample,
    DyadicRatioError,
    FixedTime,
    FirstPassage,
    LadderStep,
    MinOf,
    OconeTimeChange,
    Path,
    RuleError,
    SamplerError,
    StoppedSymmetric,
    TwoSidedHit,
    advance_formula_check,
    bound_check,
    check_non_dyadic_triple,
    counterexample_demo,
    default_functionals,
    exit_alignment_test,
    invariance_test,
    is_dyadic,
    is_observed,
    ladder_levels,
    ladder_trace,
    martingale_step_test,
    max_deviation,
    non_dyadic_sweep,
    parse_rule,
    reflect_at_rule,
    reflect_at_time,
    sign_identity_test,
    stability_suite,
    trace_sign_word,
)
from reflectlab import signs, verify
from reflectlab.samplers import _GridLaw
from reflectlab.stopping import _reflected_trace
from reflectlab.verify import (
    HittingTime,
    RunningMax,
    Statistic,
    ValueAtRuleTime,
    ValueAtTime,
    _grid_pivot,
    _invariance_block,
    _martingale_draw,
    _run_draws,
    _skeleton_step,
)


_POSITIVE_RATIONALS = st.fractions(min_value=Fraction(1, 10 ** 4),
                                   max_value=10 ** 6, max_denominator=10 ** 4)


def _non_dyadic_fractions(a, b, c):
    return (not is_dyadic(a / (a + b)) or not is_dyadic(b / (b + c))
            or not is_dyadic(a / (a + c)))


def _written(q, form):
    """q as an int (when it is whole), a "p/q" string or a Fraction."""
    if form == "int" and q.denominator == 1:
        return q.numerator
    return f"{q.numerator}/{q.denominator}" if form == "str" else q


class TestNonDyadicTriple:
    def test_simple_true(self):
        assert check_non_dyadic_triple(1, 2, 3)  # 1/3 is not dyadic

    def test_two_dyadic_one_not(self):
        # ratios 1/4 and 3/8 are dyadic, 1/6 is not
        assert is_dyadic(Fraction(1, 4))
        assert is_dyadic(Fraction(3, 8))
        assert not is_dyadic(Fraction(1, 6))
        assert check_non_dyadic_triple(1, 3, 5)

    def test_ordering_enforced(self):
        with pytest.raises(RuleError):
            check_non_dyadic_triple(2, 2, 3)
        with pytest.raises(RuleError):
            check_non_dyadic_triple(0, 1, 2)

    @pytest.mark.parametrize("limit", [-1, 0, 2])
    def test_sweep_with_no_triple_rejected(self, limit):
        # it reported a pass with nothing checked
        with pytest.raises(ConfigurationError,
                           match=f"limit must be at least 3, got {limit}"):
            non_dyadic_sweep(limit)

    @pytest.mark.parametrize("limit", [3.5, "60", True])
    def test_sweep_limit_not_an_integer_rejected(self, limit):
        # 3.5 and "60" ended in a bare TypeError
        with pytest.raises(ConfigurationError) as info:
            non_dyadic_sweep(limit)
        assert str(info.value) == f"limit must be an integer, got {limit!r}"

    def test_sweep_small(self):
        rep = non_dyadic_sweep(40)
        assert rep.verdict == "pass"
        count = rep.statistics[0].detail["checked"]
        assert count == 40 * 39 * 38 // 6

    @given(st.lists(_POSITIVE_RATIONALS, min_size=3, max_size=3,
                    unique=True),
           st.tuples(*[st.sampled_from(("int", "str", "Fraction"))] * 3))
    @settings(max_examples=300, deadline=None)
    def test_triple_matches_fraction_formula(self, values, forms):
        a, b, c = (_written(q, form)
                   for q, form in zip(sorted(values), forms))
        assert check_non_dyadic_triple(a, b, c) == _non_dyadic_fractions(
            *sorted(values))

    @given(st.tuples(*[st.integers(1, 64)] * 3))
    def test_integer_core_matches_fraction_formula(self, triple):
        # unordered and repeated entries reach triples whose three ratios
        # are all dyadic, so both answers are checked
        assert verify._non_dyadic_ints(*triple) == _non_dyadic_fractions(
            *map(Fraction, triple))

    @pytest.mark.parametrize("triple, message", [
        ((1, 2, 3.0), "expected int, str or Fraction, got float"),
        ((0.5, 1, 2), "expected int, str or Fraction, got float"),
        (("1/2", "1/3", 1), "need 0 < a < b < c, got 1/2, 1/3, 1"),
        ((Fraction(2, 6), "1/3", 1), "need 0 < a < b < c, got 1/3, 1/3, 1"),
        ((0, 1, 2), "need 0 < a < b < c, got 0, 1, 2"),
        (("-1/2", 1, 2), "need 0 < a < b < c, got -1/2, 1, 2"),
    ])
    def test_rejections(self, triple, message):
        with pytest.raises(RuleError) as info:
            check_non_dyadic_triple(*triple)
        assert str(info.value) == message

    def test_sweep_matches_fraction_loop(self):
        checked, failures, first_failure = 0, 0, None
        for c in range(3, 26):
            for b in range(2, c):
                for a in range(1, b):
                    checked += 1
                    if not _non_dyadic_fractions(*map(Fraction, (a, b, c))):
                        failures += 1
                        first_failure = first_failure or (a, b, c)
        stat = non_dyadic_sweep(25).statistics[0]
        assert (stat.detail["checked"], stat.value,
                stat.detail["first_failure"]) == (
                    checked, failures, first_failure)


class TestAdvanceFormulaCheck:
    def test_small_exhaustive(self):
        rep = advance_formula_check(8)
        assert rep.verdict == "pass"
        assert all(s.value == 0 for s in rep.statistics)

    def test_smallest_run_checks_words(self):
        rep = advance_formula_check(0)
        assert rep.verdict == "pass" and rep.sample_size == 2

    @pytest.mark.parametrize("n_max", [True, 2.5])
    def test_n_max_not_an_integer_rejected(self, n_max):
        # True ran as n_max 1 and recorded "n_max": true; 2.5 ended in a
        # bare TypeError
        with pytest.raises(ConfigurationError) as info:
            advance_formula_check(n_max)
        assert str(info.value) == f"n_max must be an integer, got {n_max!r}"

    @pytest.mark.parametrize("n_max", [-1, -3])
    def test_negative_n_max_rejected(self, n_max):
        # it reported a pass with nothing checked
        with pytest.raises(ConfigurationError,
                           match=f"n_max must be at least 0, got {n_max}"):
            advance_formula_check(n_max)


class TestKsSanity:
    def test_type_one_rate_calibrated(self):
        # two independent batches from the same seeded law: the rejection
        # rate at alpha should match alpha within 3 SE over 500 repetitions
        alpha = 0.05
        reps = 500
        n = 150
        rng = np.random.default_rng(2024)
        rejections = 0
        for _ in range(reps):
            xs = rng.standard_normal(n)
            ys = rng.standard_normal(n)
            if ks_2samp(xs, ys).pvalue <= alpha:
                rejections += 1
        rate = rejections / reps
        se = math.sqrt(alpha * (1 - alpha) / reps)
        assert abs(rate - alpha) <= 3 * se


class TestInvarianceTest:
    def test_brownian_sign_flip_passes(self):
        # the sampled law is exactly symmetric under negation
        sampler = BrownianMotion(dt=0.02, horizon=2.0, seed=41)
        rep = invariance_test(sampler, FixedTime(0.0),
                              [ValueAtTime(1.0), RunningMax(),
                               HittingTime(1.0)], 3000)
        assert rep.verdict == "pass"

    def test_drift_fails(self):
        sampler = DriftedBM(0.5, dt=0.02, horizon=2.0, seed=42)
        rep = invariance_test(sampler, FixedTime(0.0), [ValueAtTime(1.0)],
                              4000)
        assert rep.verdict == "fail"
        assert rep.statistics[0].value < 1e-3

    def test_counterexample_exit_reflection_passes(self):
        sampler = DyadicCounterexample(horizon=5.0, seed=43)
        functionals = [ValueAtTime(2.0), RunningMax(), HittingTime(2.0),
                       ValueAtRuleTime(TwoSidedHit(2, 3), "wide_exit")]
        rep = invariance_test(sampler, TwoSidedHit(1, 1), functionals, 3000)
        assert rep.verdict == "pass"

    def test_degenerate_functional_skipped(self):
        # the value at time 0 is 0 on every draw and every reflection
        sampler = DyadicCounterexample(horizon=5.0, seed=44)
        rep = invariance_test(sampler, TwoSidedHit(1, 1), [ValueAtTime(0.0)],
                              1000)
        assert rep.statistics[0].verdict == "skip"

    def test_minimum_draws_enforced(self):
        with pytest.raises(ConfigurationError):
            invariance_test(BrownianMotion(seed=1), FixedTime(0.0),
                            [ValueAtTime(1.0)], 100)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 2.0, math.nan, "0.1",
                                       None, True])
    def test_bad_alpha_rejected_before_any_draw(self, alpha, monkeypatch):
        # alpha -1 used to pass every statistic, NaN to fail every one, and
        # "0.1" and None ended in a TypeError from the comparison
        def no_draws(self, indices):
            raise AssertionError(f"drew {indices}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        monkeypatch.setattr(BrownianMotion, "_rows", no_draws)
        with pytest.raises(ConfigurationError, match=r"alpha must lie in"):
            invariance_test(BrownianMotion(dt=0.05, horizon=1.0, seed=58),
                            FixedTime(0.0), [ValueAtTime(1.0)], 1000,
                            alpha=alpha)

    @pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
    def test_non_finite_hitting_level_rejected_at_construction(self, level):
        # it used to raise only at the first draw, inside a pool worker
        with pytest.raises(RuleError):
            HittingTime(level)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_functional_time_rejected_at_construction(self, t):
        # it used to raise TimeOutOfRangeError only at the first draw
        with pytest.raises(ConfigurationError):
            ValueAtTime(t)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_functional_time_past_horizon_rejected(self, workers):
        sampler = BrownianMotion(dt=0.05, horizon=2.0, seed=47)
        with pytest.raises(ConfigurationError,
                           match="functional time 2.5 exceeds horizon 2.0"):
            invariance_test(sampler, FixedTime(0.0), [ValueAtTime(2.5)],
                            1000, workers=workers)

    @pytest.mark.parametrize("law", [BrownianMotion(dt=0.1, horizon=1.0),
                                     DyadicCounterexample(horizon=5.0)])
    def test_no_functional_rejected(self, law):
        # it passed with nothing checked
        with pytest.raises(ConfigurationError,
                           match=r"need one or more functionals of distinct "
                                 r"names, got \[\]"):
            invariance_test(law, FixedTime(0.0), [], 1000)

    def test_colliding_functional_names_rejected(self):
        # both print as value_at_1 under :g, which would give two statistics
        # and two summary rows of one name
        functionals = [ValueAtTime(1.0000001), ValueAtTime(1.0000002)]
        assert functionals[0].name == functionals[1].name
        with pytest.raises(ConfigurationError):
            invariance_test(BrownianMotion(dt=0.05, horizon=2.0, seed=46),
                            FixedTime(0.0), functionals, 1000)

    def test_fraction_levels_have_float_names(self):
        # format(Fraction, "g") raised TypeError, so the name check failed
        # although apply and rows take the level
        assert HittingTime(Fraction(1, 2)).name == "hitting_time_0.5"
        assert ValueAtTime(Fraction(1, 2)).name == "value_at_0.5"
        assert HittingTime(-1).name == "hitting_time_-1"
        assert ValueAtTime(2.0).name == "value_at_2"
        sampler = BrownianMotion(dt=0.05, horizon=2.0, seed=48)
        exact, floating = (
            invariance_test(sampler, FixedTime(0.0), [f], 1000)
            for f in (HittingTime(Fraction(1, 2)), HittingTime(0.5)))
        assert exact.to_json() == floating.to_json()

    def test_bad_reseed_rejected_before_any_draw(self):
        sampler = BrownianMotion(dt=0.05, horizon=2.0, seed=0)
        for seed in (-1, 1.5, "3"):
            with pytest.raises(SamplerError, match="seed"):
                invariance_test(sampler, FixedTime(0.0), [ValueAtTime(1.0)],
                                1000, seed=seed, workers=2)

    def test_reseeding_reproducible(self):
        sampler = BrownianMotion(dt=0.05, horizon=2.0, seed=0)
        a = invariance_test(sampler, FixedTime(0.0), [ValueAtTime(1.0)],
                            1200, seed=7)
        b = invariance_test(sampler, FixedTime(0.0), [ValueAtTime(1.0)],
                            1200, seed=7)
        assert a.statistics[0].value == b.statistics[0].value
        assert a.seed == 7

    def test_functionals_from_a_generator(self):
        # the names used the generator up, so every draw read no functional
        # and the KS step raised a TypeError
        sampler = BrownianMotion(dt=0.05, horizon=2.0, seed=0)
        functionals = default_functionals(2.0)
        assert invariance_test(sampler, FixedTime(1.0),
                               (f for f in functionals), 1000).to_json() == \
            invariance_test(sampler, FixedTime(1.0), functionals,
                            1000).to_json()


@dataclasses.dataclass(frozen=True)
class _OneRow(_GridLaw):
    """A grid law whose every draw is the same constructed path."""

    knots: tuple
    increments: tuple
    seed: int = 0

    def _rows(self, indices):
        knots = np.array(self.knots)
        knots.setflags(write=False)
        return knots, np.tile(self.increments, (len(indices), 1))


# values 0, 0.5, 1, 0.75, 1.75: hit(1) and the exit from (-1, 1) are
# exactly at knot 2, so their reflections keep the knot array and anchor
# knot 2
_EXACT_AT_KNOT = _OneRow((0.0, 0.5, 1.0, 1.5, 2.0), (0.5, 0.5, -0.25, 1.0))

# the block routes: a grid law (bm, drift, ocone) sums its draws in a
# matrix, the others (stopped, counterexample) go a path at a time
_BLOCK_LAWS = [
    BrownianMotion(dt=0.05, horizon=2.0),
    DriftedBM(0.5, dt=0.05, horizon=2.0),
    OconeTimeChange("identity", dt=0.05, horizon=2.0),
    OconeTimeChange("random_rate", dt=0.05, horizon=2.0),
    StoppedSymmetric(level=1, dt=0.05, horizon=2.0),
    DyadicCounterexample(horizon=2.0),
    _EXACT_AT_KNOT,
]
# fixed(1.0) and fixed(1.85) are knots of the grid, fixed(2.0) is its
# horizon; fixed(0.37) is not a knot, nor is fixed(1.95), one ulp below the
# knot 1.9500000000000002
_BLOCK_RULES = [parse_rule(spec) for spec in (
    "fixed(0)", "fixed(1.0)", "fixed(1.85)", "fixed(1.95)", "fixed(2.0)",
    "fixed(0.37)", "fixed(3.0)", "hit(1)", "Tpm(1,1)",
    "min(Tpm(1,2),fixed(1))")]
_BLOCK_FUNCTIONALS = [
    ValueAtTime(0.37), ValueAtTime(2.0), RunningMax(), HittingTime(0.0),
    HittingTime(0.5), HittingTime(-0.5),
    ValueAtRuleTime(TwoSidedHit(1, 1), "exit11")]


def _block_reference(sampler, rule, functionals, indices):
    """apply on each draw and on its reflection, indexed by arm, functional
    and draw as a block is."""
    rows = []
    for i in indices:
        p = sampler.sample(i)
        rows.append([[f.apply(q) for f in functionals]
                     for q in (p, reflect_at_rule(p, rule))])
    return np.array(rows).transpose(1, 2, 0)


class TestInvarianceBlocks:
    @given(st.sampled_from(_BLOCK_LAWS), st.sampled_from(_BLOCK_RULES),
           st.integers(0, 2 ** 32), st.integers(1, 9), st.integers(0, 3),
           st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_block_is_apply_bit_for_bit(self, law, rule, seed, size, b,
                                        short):
        sampler = dataclasses.replace(law, seed=seed)
        # a block that starts past 0 and may be cut short
        indices = range(b * size, max(b * size + 1, (b + 1) * size - short))
        block = _invariance_block(sampler, rule, _BLOCK_FUNCTIONALS, indices)
        expected = _block_reference(sampler, rule, _BLOCK_FUNCTIONALS,
                                    indices)
        assert block.shape == expected.shape
        assert block.tobytes() == expected.tobytes()

    def test_fixed_rules_sit_on_and_off_the_grid(self):
        knots = BrownianMotion(dt=0.05, horizon=2.0).sample(0).knots
        assert 1.0 in knots and 0.37 not in knots
        assert knots[37] == 1.85 and knots[-1] == 2.0
        assert 1.95 not in knots and knots[39] == np.nextafter(1.95, 2.0)
        pivots = {spec: _grid_pivot(parse_rule(spec), knots) for spec in (
            "fixed(0)", "fixed(1.0)", "fixed(1.85)", "fixed(2.0)",
            "fixed(3.0)", "fixed(1.95)", "fixed(0.37)", "hit(1)",
            "min(Tpm(1,2),fixed(1))")}
        assert pivots == {
            "fixed(0)": 0, "fixed(1.0)": 20, "fixed(1.85)": 37,
            "fixed(2.0)": 40, "fixed(3.0)": 40, "fixed(1.95)": None,
            "fixed(0.37)": None, "hit(1)": None,
            "min(Tpm(1,2),fixed(1))": None}

    @pytest.mark.parametrize("spec", ["fixed(0)", "fixed(1.0)"])
    @pytest.mark.parametrize("rows_only", [True, False])
    def test_grid_pivot_reflects_the_matrix(self, spec, rows_only,
                                            monkeypatch):
        # a fixed time on a knot reflects the block's matrix: no draw is
        # reflected, and with rows-form functionals alone none is built as
        # a path on either arm; ValueAtRuleTime applies to paths built from
        # the rows of each arm's matrix
        sampler = DriftedBM(0.5, dt=0.05, horizon=2.0, seed=7)
        rule = parse_rule(spec)
        functionals = [f for f in _BLOCK_FUNCTIONALS
                       if hasattr(f, "rows") or not rows_only]
        expected = _block_reference(sampler, rule, functionals, range(9))

        def refuse(*args):
            raise AssertionError("a draw took the per-path route")

        monkeypatch.setattr(verify, "reflect_at_rule", refuse)
        if rows_only:
            monkeypatch.setattr(verify, "_fast_path", refuse)
        block = _invariance_block(sampler, rule, functionals, range(9))
        assert block.tobytes() == expected.tobytes()

    def test_anchored_reflection_goes_through_apply(self, monkeypatch):
        # the reflected rows keep the sampled knot array but carry an
        # anchor, which can override a float verdict: apply reads them
        sampler, rule = _EXACT_AT_KNOT, TwoSidedHit(1, 1)
        p = sampler.sample(0)
        q = reflect_at_rule(p, rule)
        assert q.knots is p.knots and q.anchors == {2: Fraction(1)}
        applied = []

        def spy(self, p):
            applied.append(p)
            return float(np.max(p.values))

        functionals = [RunningMax(), HittingTime(1)]
        expected = _block_reference(sampler, rule, functionals, range(3))
        monkeypatch.setattr(RunningMax, "apply", spy)
        block = _invariance_block(sampler, rule, functionals, range(3))
        # the sampled rows are read off the matrix, the reflected ones not
        assert [p.anchors for p in applied] == [{2: Fraction(1)}] * 3
        assert block.tobytes() == expected.tobytes()


class TestBoundCheck:
    def test_brownian_capped_rule_passes(self):
        rule = MinOf(TwoSidedHit(1, 2), FixedTime(1.0))
        rep = bound_check(BrownianMotion(dt=0.02, horizon=2.0, seed=51),
                          1, 2, rule, bound_cap=2.0, n_draws=3000)
        assert rep.verdict == "pass"
        assert not rep.notes  # 1/3 is not dyadic, no annotation

    def test_stopped_symmetric_within_bound(self):
        sampler = StoppedSymmetric(level=1, dt=0.02, horizon=4.0, seed=52)
        rule = FixedTime(4.0)
        rep = bound_check(sampler, 1, 2, rule, bound_cap=1.0, n_draws=2000)
        assert rep.verdict == "pass"

    def test_dyadic_hypothesis_annotated(self):
        # counterexample family: a/(a+b) = 1/2 is dyadic; the bound still
        # holds numerically here and the report must say the hypothesis fails
        sampler = DyadicCounterexample(horizon=5.0, seed=53)
        rep = bound_check(sampler, 1, 1, TwoSidedHit(2, 3), bound_cap=3.0,
                          n_draws=2000)
        stat = rep.statistics[0]
        assert abs(stat.value - 0.5) <= 4 * stat.se + 1e-12
        assert rep.verdict == "pass"  # |0.5| <= a+b = 2
        assert any("dyadic" in note for note in rep.notes)

    def test_unobserved_rule_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            bound_check(BrownianMotion(dt=0.05, horizon=1.0, seed=54),
                        1, 1, FirstPassage(50), bound_cap=99.0, n_draws=100)

    def test_cap_violation_is_configuration_error(self):
        with pytest.raises(ConfigurationError):
            bound_check(BrownianMotion(dt=0.05, horizon=2.0, seed=55),
                        1, 1, FixedTime(2.0), bound_cap=0.01, n_draws=100)

    @pytest.mark.parametrize("a, b, bound_cap", [
        (0, 0, 1.0), (-1, 2, 1.0), (1, 0, 1.0), (1, 2, 0.0), (1, 2, -1.0),
        (1, 2, math.nan), (1, 2, math.inf), (1, 2, True), (1, 2, "2"),
        (1, 2, None), (1, 2, [2])])
    def test_bad_input_rejected_before_any_draw(self, a, b, bound_cap,
                                                monkeypatch):
        # a = b = 0 used to draw every path and then divide by zero, a = -1
        # ran against a bound of 1, a NaN or infinite cap turned the cap
        # off, True ran as a cap of 1.0, and "2", None and [2] ended in a
        # TypeError from the comparison with 0
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(ConfigurationError, match="must be positive"):
            bound_check(BrownianMotion(dt=0.05, horizon=1.0, seed=56), a, b,
                        FixedTime(1.0), bound_cap=bound_cap, n_draws=100)

    @pytest.mark.parametrize("a, b, n_draws, message", [
        # it drew every path, then raised OverflowError at float(a + b)
        (10 ** 400, 10 ** 400, 5, "a + b has no finite float value"),
        # it judged one value against a + b with se = 0.0
        (1, 2, 1, "bound_check needs at least 2 draws, got 1"),
    ], ids=["overflowing-barrier", "one-draw"])
    def test_rejected_before_any_draw(self, a, b, n_draws, message,
                                      monkeypatch):
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            bound_check(BrownianMotion(dt=0.1, horizon=1.0), a, b,
                        FixedTime(1.0), 10.0, n_draws, seed=1)

    @pytest.mark.parametrize("build", [
        lambda: FirstPassage(True),
        lambda: TwoSidedHit(True, 2),
        lambda: ladder_levels(True, 2, 2),
        lambda: bound_check(BrownianMotion(dt=0.05, horizon=1.0, seed=57),
                            True, 1, FixedTime(1.0), bound_cap=1.0,
                            n_draws=100),
    ], ids=["FirstPassage", "TwoSidedHit", "ladder_levels", "bound_check"])
    def test_bool_level_rejected(self, build, monkeypatch):
        # true used to stand for the level 1: FirstPassage(True) ran at 1,
        # TwoSidedHit(True, 2) at (-1, 2)
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(RuleError, match="got bool"):
            build()


class TestMartingaleStepTest:
    def test_small_run_passes(self):
        rep = martingale_step_test(
            BrownianMotion(dt=1e-3, horizon=3.0, seed=61), 1, 2, 2, 1500)
        assert rep.statistics[0].name == "antisymmetry_failures"
        assert rep.statistics[0].value == 0
        assert rep.verdict == "pass"

    def test_zero_paths_give_zero_increments(self):
        # stopped sampler frozen instantly: level far away, horizon tiny
        rep = martingale_step_test(
            BrownianMotion(dt=0.1, horizon=0.3, seed=62), 1, 2, 1, 1200)
        assert rep.verdict == "pass"

    # (a, b, n_steps, horizon): each case has observed and unobserved steps
    LADDERS = [(1, 2, 6, 2.0), (Fraction(1, 3), Fraction(1, 2), 12, 1.0),
               (2, 3, 6, 4.0)]

    @staticmethod
    def _law(name, horizon):
        if name == "bm":
            return BrownianMotion(dt=1e-3, horizon=horizon, seed=71)
        return OconeTimeChange("random_rate", dt=1e-3, horizon=horizon,
                               seed=72)

    @pytest.mark.parametrize("law", ["bm", "ocone"])
    @pytest.mark.parametrize("a, b, n_steps, horizon", LADDERS)
    def test_self_trace_prefix_reads_match_fresh_traces(
            self, law, a, b, n_steps, horizon):
        # the one trace of tr.path to n_steps + 1 read at step n is the
        # trace to n + 1, at every n: where tau_n is unobserved (the reads
        # the draw makes) and where it is observed, so that a read one step
        # too far differs
        sampler = self._law(law, horizon)
        unobserved = moved = 0
        for i in range(60):
            tr = ladder_trace(a, b, sampler.sample(i), n_steps + 1)
            whole = ladder_trace(a, b, tr.path, n_steps + 1)
            for n in range(n_steps + 1):
                fresh = ladder_trace(a, b, tr.path, n + 1)
                assert whole.times[:n + 2] == fresh.times
                assert whole.directions[:n + 1] == fresh.directions
                assert whole.anchor_values[:n + 2] == fresh.anchor_values
                for m in (n, n + 1):
                    assert whole.skeleton_value(m) == fresh.skeleton_value(m)
                step = fresh.skeleton_value(n + 1) - fresh.skeleton_value(n)
                assert Fraction(_skeleton_step(whole, n),
                                whole.ladder.den) == step
                unobserved += not is_observed(tr.times[n])
                moved += step != 0
        assert unobserved >= 20 and moved >= 20

    @pytest.mark.parametrize("law", ["bm", "ocone"])
    @pytest.mark.parametrize("a, b, n_steps, horizon", LADDERS)
    def test_draw_traces_its_path_once(self, monkeypatch, law, a, b,
                                       n_steps, horizon):
        # each draw gives what fresh traces of every step give, traces the
        # annotated path itself at most once, and resumes the trace of each
        # reflection at an observed tau_n
        calls, resumed = [], []

        def counting(a, b, p, n_max):
            calls.append((p, ladder_trace(a, b, p, n_max)))
            return calls[-1][1]

        def counting_resumed(tr, n):
            resumed.append(n)
            return _reflected_trace(tr, n)

        monkeypatch.setattr(verify, "ladder_trace", counting)
        monkeypatch.setattr(verify, "_reflected_trace", counting_resumed)
        sampler = self._law(law, horizon)
        for i in range(20):
            calls.clear()
            resumed.clear()
            entries, increments, failures = _martingale_draw(
                sampler, a, b, n_steps, i)
            tr = ladder_trace(a, b, sampler.sample(i), n_steps + 1)
            expected = []
            for n in range(n_steps + 1):
                dy = tr.skeleton_value(n + 1) - tr.skeleton_value(n)
                expected.append(float(dy))
                t_n = tr.times[n]
                q = reflect_at_time(tr.path, t_n) if is_observed(t_n) \
                    else tr.path
                fresh = ladder_trace(a, b, q, n + 1)
                assert fresh.skeleton_value(n + 1) \
                    - fresh.skeleton_value(n) == -dy
            assert increments == tuple(expected) and failures == 0
            observed = [n for n in range(n_steps + 1)
                        if is_observed(tr.times[n])]
            retraced = len(observed) < n_steps + 1
            assert resumed == observed
            assert len(calls) == 1 + retraced
            annotated = calls[0][1].path
            assert sum(p is annotated for p, _ in calls[1:]) == retraced


def _fraction_route_draw(sampler, a, b, n_steps, i):
    """``_martingale_draw`` on the Fraction route: every reflected path
    traced from knot 0, and the skeleton steps as Fractions."""
    tr = ladder_trace(a, b, sampler.sample(i), n_steps + 1)
    increments = []
    anti_failures = 0
    self_trace = None
    for n in range(n_steps + 1):
        dy = tr.skeleton_value(n + 1) - tr.skeleton_value(n)
        increments.append(float(dy))
        t_n = tr.times[n]
        if is_observed(t_n):
            tr_q = ladder_trace(a, b, reflect_at_time(tr.path, t_n), n + 1)
        else:
            if self_trace is None:
                self_trace = ladder_trace(a, b, tr.path, n_steps + 1)
            tr_q = self_trace
        if tr_q.skeleton_value(n + 1) - tr_q.skeleton_value(n) != -dy:
            anti_failures += 1
    return trace_sign_word(tr).entries, tuple(increments), anti_failures


class TestMartingaleDrawOracle:
    LAWS = {
        "bm": lambda seed: BrownianMotion(dt=1e-3, horizon=4.0, seed=seed),
        "ocone": lambda seed: OconeTimeChange("random_rate", dt=1e-3,
                                              horizon=4.0, seed=seed),
    }
    # the barriers of the martingale_step_test goldens
    BARRIERS = [(Fraction(1), Fraction(2)), (Fraction(1, 3), Fraction(1, 2)),
                (Fraction(2), Fraction(3))]

    @given(st.sampled_from(sorted(LAWS)), st.sampled_from(BARRIERS),
           st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 40),
           st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_rows_equal_the_fraction_route(self, law, barriers, seed, i,
                                           n_steps):
        args = (self.LAWS[law](seed), *barriers, n_steps)
        entries, increments, failures = _martingale_draw(*args, i)
        old_entries, old_increments, old_failures = \
            _fraction_route_draw(*args, i)
        assert entries == old_entries and failures == old_failures == 0
        assert [x.hex() for x in increments] == \
            [x.hex() for x in old_increments]

    @given(st.integers(-2 ** 1100, 2 ** 1100), st.integers(1, 2 ** 80))
    @example(2 ** 1000 + 1, 3)
    @example(-(10 ** 300) * 7 + 1, 10 ** 9)
    @example(5, 6)
    @example(0, 6)
    def test_scaled_step_float_is_the_fraction_float(self, dy, den):
        # the float increment of a draw, dy / den, is float(Fraction(dy, den))
        try:
            expected = float(Fraction(dy, den)).hex()
        except OverflowError:
            with pytest.raises(OverflowError):
                dy / den
        else:
            assert (dy / den).hex() == expected


class TestStabilitySuite:
    def test_small_run_zero_failures(self):
        rep = stability_suite(60, seed=63,
                              sampler=BrownianMotion(dt=0.01, horizon=4.0))
        assert rep.verdict == "pass"
        fails = {s.name: s.value for s in rep.statistics}
        assert fails["involution_exact"] == 0
        assert fails["negated_level_chain"] == 0
        assert fails["max_normalized_deviation"] <= 1e-9

    def test_given_sampler_keeps_its_seed(self):
        rep = stability_suite(
            1, sampler=BrownianMotion(dt=0.01, horizon=2.0, seed=9))
        assert rep.seed == 9
        assert rep.to_json() == stability_suite(
            1, seed=9, sampler=BrownianMotion(dt=0.01, horizon=2.0)).to_json()


def _bits(x):
    return [float(v).hex() for v in x]


class TestSplice:
    @given(st.lists(st.floats(2.0 ** -20, 8.0), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_splice_is_np_interp(self, steps, data):
        small = np.concatenate([[0.0], np.cumsum(steps)])
        values = np.array(data.draw(st.lists(
            st.floats(-1e6, 1e6), min_size=small.size, max_size=small.size)))
        # one to three new knots; a narrow grid puts two in one segment
        cuts = data.draw(st.lists(st.tuples(
            st.integers(0, small.size - 2),
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            min_size=1, max_size=3))
        new = {float(small[i] + f * (small[i + 1] - small[i]))
               for i, f in cuts} - set(small.tolist())
        big = np.sort(np.concatenate([small, sorted(new)]))
        assert _bits(verify._splice(big, small, values)) == \
            _bits(np.interp(big, small, values))

    @pytest.mark.parametrize("big", [
        [0.0, 0.25, 0.5, 1.0, 2.0, 3.0],  # two in one segment
        [0.0, 0.5, 1.0, 2.0, 2.5, 3.0],  # the first and the last segment
        [0.0, 1.0, 1.5, 2.0, 3.0, 4.0],  # one past the last knot
        [0.0, 1.0, 2.0, 3.0],  # the same knots in another array
    ])
    def test_splice_cases(self, big):
        small = np.array([0.0, 1.0, 2.0, 3.0])
        values = np.array([0.0, -0.0, -1.5, 7.0])
        big = np.array(big)
        assert _bits(verify._splice(big, small, values)) == \
            _bits(np.interp(big, small, values))

    @pytest.mark.parametrize("big", [
        [0.0, 1.0, 2.5, 3.0],  # 2 replaced
        [0.0, 0.5, 1.0, 2.5, 3.0],  # a new knot, and 2 missing
        [0.0, 1.0, 2.0, 2.5],  # the last knot missing
        [0.0, 1.0, 3.0],  # fewer knots
        [0.5, 1.0, 2.0, 3.0],  # 0 missing
    ])
    def test_missing_knot_raises(self, big):
        small = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            verify._splice(np.array(big), small, np.arange(4.0))


class _OnePath:
    """A sampler stub that draws the same path every time."""

    def __init__(self, path):
        self.path = path

    def sample(self, i):
        return self.path


class TestStabilityDraw:
    @pytest.mark.parametrize("sampler", [
        # exits (-1, 2) at -1 inside segment (0, 1), reaches 1 later but
        # never -3: hit(1) is not observed after the reflection at the exit
        _OnePath(Path([0.0, 1.0, 2.0, 3.0], [-1.5, 1.5, 1.5])),
        BrownianMotion(dt=0.01, horizon=10.0, seed=7),
    ], ids=["constructed", "bm"])
    def test_deviations_are_sup_norms_over_the_union(self, sampler,
                                                     monkeypatch):
        deviation = verify._deviation
        calls = []

        def checked(p1, p2):
            # the caller's claim: p1's knots hold p2's
            assert np.isin(p2.knots, p1.knots).all()
            d = deviation(p1, p2)
            scale = max(1.0, float(np.max(np.abs(p1.values))),
                        float(np.max(np.abs(p2.values))))
            assert d == max_deviation(p1, p2) / scale
            # the splice is the full-grid interpolation, and the deviation
            # the formula on it, bit for bit
            v2 = np.interp(p1.knots, p2.knots, p2.values)
            assert verify._splice(p1.knots, p2.knots,
                                  p2.values).tobytes() == v2.tobytes()
            old = float(np.max(np.abs(p1.values - v2))) / scale
            assert d.hex() == old.hex()
            calls.append(d)
            return d

        monkeypatch.setattr(verify, "_deviation", checked)
        for i in range(20):
            fails, _ = verify._stability_draw(sampler, i)
            assert not any(fails.values())
        assert calls

    def test_deviation_needs_the_larger_grid_first(self):
        p = BrownianMotion(dt=0.01, horizon=2.0, seed=7).sample(0)
        p1 = FirstPassage(Fraction(1, 4)).observe(p)[1]
        assert p1.knots.size == p.knots.size + 1
        with pytest.raises(ValueError):
            verify._deviation(p, p1)

    def test_no_cyclic_garbage(self):
        import gc

        sampler = BrownianMotion(dt=0.01, horizon=10.0, seed=7)
        gc.collect()
        gc.disable()
        try:
            for i in range(5):
                verify._stability_draw(sampler, i)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestSignIdentitySuite:
    def test_small_run_zero_failures(self):
        rep = sign_identity_test(BrownianMotion(dt=0.01, horizon=3.0),
                                 1, 2, 5, 150, seed=64)
        assert rep.verdict == "pass"
        stats = {s.name: s for s in rep.statistics}
        counts = stats.pop("distinct_words_observed")
        assert counts.value > 0
        assert sum(counts.detail["word_counts"].values()) == 150
        assert all(s.value == 0 for s in stats.values())

    def test_empty_words_rejected_before_any_draw(self, monkeypatch):
        # every draw gave the empty word and every count read 0, a pass
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(ConfigurationError,
                           match="n must be at least 1, got 0"):
            sign_identity_test(BrownianMotion(dt=0.01, horizon=1.0), 1, 2, 0,
                               50, seed=1)

    def test_negative_word_length_keeps_its_rule_error(self):
        with pytest.raises(RuleError, match="n must be nonnegative"):
            sign_identity_test(BrownianMotion(dt=0.01, horizon=1.0), 1, 2,
                               -1, 50, seed=1)


class TestExitAlignment:
    def test_empty_words_rejected_before_any_draw(self, monkeypatch):
        # tau_0 = 0 never equals an exit time, so every run failed
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(ConfigurationError,
                           match="n must be at least 1, got 0"):
            exit_alignment_test(BrownianMotion(dt=0.01, horizon=3.0), 1, 2,
                                0, 1, 50, seed=1)

    def test_negative_word_length_rejected(self, monkeypatch):
        # all_words(-1) recursed until RecursionError
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(RuleError,
                           match="word length n must be nonnegative, got -1"):
            exit_alignment_test(BrownianMotion(dt=0.05, horizon=1.0), 1, 2,
                                -1, 1, 10)

    def test_words_counted_only_when_drawn(self, monkeypatch):
        # a table over all 2**19 - 1 words took 0.8 s and 150 MB before the
        # first of this run's one draw
        def no_table(n):
            raise AssertionError(f"enumerated the words of length {n}")

        monkeypatch.setattr(verify, "all_words", no_table)
        rep = exit_alignment_test(BrownianMotion(dt=0.5, horizon=1.0), 1, 2,
                                  18, 1, 1, seed=1)
        assert rep.params["words"] == 2 ** 19 - 1
        assert rep.sample_size == 1
        quota = rep.statistics[1]
        assert quota.value == 2 ** 19 - 2
        assert quota.detail == {"min_count": 0, "checks_total": 1}


class TestLadderArguments:
    @pytest.mark.parametrize("run", [
        lambda a, b: martingale_step_test(
            BrownianMotion(dt=0.05, horizon=1.0), a, b, 2, 50, seed=1,
            workers=2),
        lambda a, b: sign_identity_test(
            BrownianMotion(dt=0.05, horizon=1.0), a, b, 2, 50, seed=1,
            workers=2),
        lambda a, b: exit_alignment_test(
            BrownianMotion(dt=0.05, horizon=1.0), a, b, 2, 1, 50, seed=1),
        lambda a, b: LadderStep(a, b, 2),
    ], ids=["martingale", "signs", "alignment", "LadderStep"])
    @pytest.mark.parametrize("a, b, error, message", [
        (1, 1, DyadicRatioError, "a/(a+b) = 1/2 is dyadic"),
        (0, 2, RuleError, "barriers a and b must be positive"),
        (10 ** 400, 2 * 10 ** 400, RuleError,
         "every ladder step needs a positive finite float value"),
    ], ids=["dyadic", "zero", "overflowing"])
    def test_rejected_before_any_draw(self, run, a, b, error, message,
                                      monkeypatch):
        # the suites reported these only at the first draw, after forking
        # their helper processes
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        def no_fork():
            raise AssertionError("forked a helper process")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(RuleError) as info:
            run(a, b)
        assert type(info.value) is error
        assert str(info.value) == message


class TestCounterexampleDemo:
    def test_moderate_run(self):
        rep = counterexample_demo(2000, seed=65)
        assert rep.verdict == "pass"
        names = {s.name for s in rep.statistics}
        assert "unit_exit_time_failures" in names
        assert "stopped_mean_vs_expected" in names

    @pytest.mark.parametrize("n_draws", [1, 999])
    def test_size_rejected_before_any_draw(self, n_draws, monkeypatch):
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(DyadicCounterexample, "sample", no_draws)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError):
                counterexample_demo(n_draws)

    def test_overflowing_barrier_rejected_before_any_draw(self, monkeypatch):
        # float(c) raised a bare OverflowError
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(DyadicCounterexample, "sample", no_draws)
        with pytest.raises(ConfigurationError,
                           match="c has no finite float value"):
            counterexample_demo(1000, c=10 ** 400)

    def test_low_barrier_rejected_before_any_draw(self, monkeypatch):
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(DyadicCounterexample, "sample", no_draws)
        with pytest.raises(ConfigurationError, match="c must exceed 1"):
            counterexample_demo(1000, c=1)

    def test_numpy_seed_recorded_as_an_int(self):
        # the seed was stored as given, and to_json raised a TypeError after
        # every draw had been made
        rep = counterexample_demo(1000, seed=np.int64(3))
        assert type(rep.seed) is int
        assert rep.to_json() == counterexample_demo(1000, seed=3).to_json()


_BROKEN_MAPS = {
    # a map in verify's namespace, a broken stand-in, a run of the battery
    # that reads it and the statistic that must count the breakage
    "negated_level_chain": (
        "negate", lambda p: p,
        lambda: stability_suite(4, seed=71,
                                sampler=BrownianMotion(dt=0.01, horizon=4.0)),
        "negated_level_chain"),
    "sign_reflection": (
        "reflect_word", signs.negate_word,
        lambda: sign_identity_test(BrownianMotion(dt=0.01, horizon=3.0), 1,
                                   2, 4, 10, seed=72),
        "reflection"),
    "alignment": (
        "exit_alignment_power", lambda w: signs.exit_alignment_power(w) + 1,
        lambda: exit_alignment_test(BrownianMotion(dt=0.01, horizon=3.0), 1,
                                    2, 2, 1, 50, seed=73),
        "alignment_failures"),
    "antisymmetry": (
        "_reflected_trace", lambda tr, n: tr,
        lambda: martingale_step_test(BrownianMotion(dt=0.01, horizon=3.0), 1,
                                     2, 2, 10, seed=73),
        "antisymmetry_failures"),
    "non_dyadic_sweep": (
        "_non_dyadic_ints", lambda x, y, z: False,
        lambda: non_dyadic_sweep(5), "triple_failures"),
    "advance_formula": (
        "word_after_steps", lambda n, steps, suffix=():
        signs.word_after_steps(n, (steps + 1) % 2 ** n, suffix),
        lambda: advance_formula_check(3), "formula_mismatches"),
}


class TestBatteriesCanFail:
    @pytest.mark.parametrize("name", sorted(_BROKEN_MAPS))
    def test_broken_map_is_counted(self, monkeypatch, name):
        # no unit test used to reach a failure counter of these batteries
        attr, broken, run, stat = _BROKEN_MAPS[name]
        monkeypatch.setattr(verify, attr, broken)
        rep = run()
        assert {s.name: s.value for s in rep.statistics}[stat] > 0
        assert rep.verdict == "fail"


_SHARDED = {
    # blocks of 819 draws: two blocks a shard on two workers, the last one
    # 543 draws long
    "invariance_test": lambda workers: invariance_test(
        BrownianMotion(dt=0.05, horizon=2.0), FixedTime(0.0),
        default_functionals(2.0), 3000, seed=45, workers=workers),
    "stability_suite": lambda workers: stability_suite(
        20, seed=71, sampler=BrownianMotion(dt=0.01, horizon=4.0),
        workers=workers),
    "sign_identity_test": lambda workers: sign_identity_test(
        BrownianMotion(dt=0.01, horizon=3.0), 1, 2, 4, 100, seed=72,
        workers=workers),
    "martingale_step_test": lambda workers: martingale_step_test(
        BrownianMotion(dt=0.01, horizon=3.0), 1, 2, 2, 100, seed=73,
        workers=workers),
    # non-integer steps: the increment sums are inexact, so they must be
    # added up in one order at every worker count
    "martingale_step_test_fraction": lambda workers: martingale_step_test(
        BrownianMotion(dt=0.01, horizon=3.0), Fraction(1, 3), Fraction(1, 2),
        3, 400, seed=73, workers=workers),
    "bound_check": lambda workers: bound_check(
        BrownianMotion(dt=0.02, horizon=2.0), 1, 2,
        MinOf(TwoSidedHit(1, 2), FixedTime(1.0)), 2.0, 400, seed=74,
        workers=workers),
    "counterexample_demo": lambda workers: counterexample_demo(
        1000, seed=75, workers=workers),
}


def _indices(indices):
    return indices


def _pid_block(indices):
    return os.getpid()


def _pids_block(indices):
    return os.getpid(), os.getppid()


def _affinity_block(indices):
    return os.getpid(), os.sched_getaffinity(0)


def _failing_at(start, indices):
    """The block that starts at draw start raises."""
    if indices.start == start:
        raise ValueError(f"draw {start}")
    return indices.start


def _exiting_in_helper(caller, indices):
    """A block that ends any process but caller without a report."""
    if os.getpid() != caller:
        os._exit(3)
    return indices.start


def _unpicklable_block(indices):
    return lambda: indices


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _failing_block(indices):
    """The block of draw 1000, the first of shard 1 (shards of 1000 blocks
    of one draw), raises."""
    if indices.start == 1000:
        raise ValueError("draw 1000")
    return indices.start


def _failing_last_block(indices):
    """The block of draw 9000, the first of shard 9 (shards of 1000 blocks
    of one draw), raises."""
    if indices.start == 9000:
        raise ValueError("draw 9000")
    return indices.start


def _marking_block(directory, indices):
    """Leave a marker for the shard that starts at the block of indices,
    then fail at the block of draw 0 and sleep at the start of every other
    shard (shards of 1000 blocks of 10 draws)."""
    if indices.start % 10_000 == 0:
        (pathlib.Path(directory) / str(indices.start)).touch()
        if indices.start == 0:
            raise ZeroDivisionError("draw 0")
        time.sleep(0.2)


class TestSharding:
    @pytest.mark.parametrize("name", sorted(_SHARDED))
    def test_report_independent_of_worker_count(self, name):
        run = _SHARDED[name]
        assert run(1).to_json() == run(2).to_json()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n, size", [(1, 1), (1, 7), (5, 7), (2500, 7),
                                         (2500, 1), (20_003, 10)])
    def test_ranges_cover_the_run_in_order(self, workers, n, size):
        # on two workers (2500, 1) and (20_003, 10) are three shards of at
        # most 1000 ranges; the last shard of (20_003, 10) is one range of 3
        ranges = list(_run_draws(_indices, n, workers, size))
        assert all(isinstance(r, range) and r.step == 1 for r in ranges)
        assert all(1 <= len(r) <= size for r in ranges)
        assert [r.start for r in ranges] == [0] + [r.stop for r in ranges[:-1]]
        assert ranges[-1].stop == n
        assert len(ranges) == -(-n // size)

    def test_rows_in_index_order_across_shards(self):
        # 2500 draws on two workers make three shards of at most 1000;
        # the row of draw i is i
        n = 2500
        rows = list(verify._each_draw(partial(operator.getitem, range(n)),
                                      n, workers=2))
        assert rows == list(range(n))

    def test_caller_computes_every_workers_th_shard(self):
        # 5000 draws on two workers are five shards of 1000: the caller
        # computes shards 0, 2 and 4, one helper process shards 1 and 3
        pids = list(_run_draws(_pid_block, 5000, 2, 1))
        shards = [set(pids[s:s + 1000]) for s in range(0, 5000, 1000)]
        assert shards[0] == shards[2] == shards[4] == {os.getpid()}
        assert len(shards[1] | shards[3]) == 1
        assert shards[1] == shards[3] != {os.getpid()}

    def test_last_shard_error_after_every_earlier_block(self):
        # on two workers shard 9 of ten goes to the helper, after shards 1,
        # 3, 5 and 7, and raises; every block of shards 0 to 8 comes out
        # first, then the error
        blocks = []
        with pytest.raises(ValueError, match="draw 9000"):
            for block in _run_draws(_failing_last_block, 10_000, 2, 1):
                blocks.append(block)
        assert blocks == list(range(9000))

    def test_no_idle_processes(self, monkeypatch):
        # 300 draws in blocks of 163 on four workers are two shards: the
        # caller computes one and the one helper forked the other
        forks = []

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        fork = os.fork
        monkeypatch.setattr(os, "fork", counted_fork)
        rows = list(_run_draws(_pids_block, 300, 4, 163))
        helpers = {pid for pid, ppid in rows if ppid == os.getpid()}
        assert len(forks) == 1
        assert helpers == set(forks)
        assert len({pid for pid, _ in rows}) == 2

    def test_caller_shard_yielded_before_a_pooled_error(self):
        # shard 1 raises in the helper; every block of the caller's shard 0
        # comes first, then the error
        blocks = []
        with pytest.raises(ValueError, match="draw 1000"):
            for block in _run_draws(_failing_block, 3000, 2, 1):
                blocks.append(block)
        assert blocks == list(range(1000))

    def test_stopping_cancels_shards_not_started(self, tmp_path):
        # the block of draw 0 raises in the caller, which computes shard 0;
        # the helper's ten shards of 1000 blocks wait 0.2 s at their first
        # block, so if the helper outlived the error all ten would run.  It
        # is killed on the way out, at most one of its shards started
        with pytest.raises(ZeroDivisionError):
            for _ in _run_draws(partial(_marking_block, str(tmp_path)),
                                200_000, workers=2, size=10):
                pass
        started = len(list(tmp_path.iterdir()))
        assert 1 <= started < 10

    @pytest.mark.parametrize("finish", [
        lambda: list(_run_draws(_indices, 5000, 2, 1)),
        lambda: next(_run_draws(_indices, 5000, 2, 1)),
        lambda: list(_run_draws(partial(_failing_at, 2000), 5000, 2, 1)),
        lambda: list(_run_draws(partial(_failing_at, 3000), 5000, 2, 1)),
    ], ids=["normal", "stopped_early", "caller_error", "helper_error"])
    def test_no_process_outlives_a_run(self, finish):
        # 5000 draws on two workers: shards 0, 2 and 4 are the caller's,
        # 1 and 3 the helper's; the generator of the stopped run is dropped
        # after its first block, which closes it
        try:
            finish()
        except ValueError:
            pass
        _assert_no_child_left()

    def test_helper_exiting_without_a_report_raises(self):
        # the helper's first shard ends it with code 3 and no pickle
        blocks = []
        with pytest.raises(RuntimeError,
                           match="shard 1 of 3 exited with code 3"):
            for block in _run_draws(partial(_exiting_in_helper, os.getpid()),
                                    3000, 2, 1):
                blocks.append(block)
        assert blocks == list(range(1000))
        _assert_no_child_left()

    def test_unpicklable_helper_blocks_raise(self):
        # the caller's shard 0 comes out; the helper cannot pickle shard 1
        blocks = []
        with pytest.raises(RuntimeError, match="cannot send the blocks of "
                                               "draws 1000 to 1999"):
            for block in _run_draws(_unpicklable_block, 3000, 2, 1):
                blocks.append(block)
        assert len(blocks) == 1000
        _assert_no_child_left()

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or len(os.sched_getaffinity(0)) < 2,
                        reason="needs Linux and two allowed CPUs")
    def test_helper_leaves_the_callers_cpu(self, monkeypatch):
        # the helper's affinity is every allowed CPU but the one the caller
        # ran on when it forked; the caller's own affinity is untouched
        seen = []

        def recorded():
            seen.append(getcpu())
            return seen[-1]

        getcpu = verify._sched_getcpu()
        monkeypatch.setattr(verify, "_sched_getcpu", lambda: recorded)
        allowed = os.sched_getaffinity(0)
        rows = list(_run_draws(_affinity_block, 300, 2, 163))
        assert len(seen) == 1 and seen[0] in allowed
        assert rows[0] == (os.getpid(), allowed)
        assert rows[1][0] != os.getpid()
        assert rows[1][1] == allowed - {seen[0]}
        assert os.sched_getaffinity(0) == allowed

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="F_SETPIPE_SZ is Linux's")
    def test_helper_pipe_holds_a_mebibyte(self):
        # a helper writes a shard of 1000 rows of 200 bytes without waiting
        # for the caller to read it
        import fcntl

        r, w = os.pipe()
        try:
            verify._widen_pipe(w)
            assert fcntl.fcntl(w, fcntl.F_GETPIPE_SZ) == 1 << 20
        finally:
            os.close(r)
            os.close(w)

    def test_worker_count_capped_at_usable_cpus(self, monkeypatch):
        # six one-draw shards: a run on more workers than CPUs forked five
        # helpers, one per shard but the caller's
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count())
        forks = []

        def counted_fork():
            forks.append(None)
            return fork()

        fork = os.fork
        monkeypatch.setattr(os, "fork", counted_fork)
        law = BrownianMotion(dt=0.1, horizon=1.0)
        rule = MinOf(TwoSidedHit(1, 2), FixedTime(1.0))
        capped = bound_check(law, 1, 2, rule, 2.0, 6, seed=74,
                             workers=cpus + 6)
        assert len(forks) <= cpus - 1
        assert capped == bound_check(law, 1, 2, rule, 2.0, 6, seed=74)

    def test_without_fork_the_run_is_serial(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        assert list(_run_draws(_pid_block, 5000, 2, 1)) == \
            [os.getpid()] * 5000

    @pytest.mark.parametrize("run", [
        lambda s: stability_suite(0, sampler=s),
        lambda s: sign_identity_test(s, 1, 2, 2, 0),
        lambda s: martingale_step_test(s, 1, 2, 2, 0),
        lambda s: bound_check(s, 1, 2, FixedTime(1.0), 99.0, -1),
        lambda s: exit_alignment_test(s, 1, 2, 2, 0, 100),
        lambda s: exit_alignment_test(s, 1, 2, 2, 5, 0),
    ], ids=["stability", "signs", "martingale", "bound", "alignment_quota",
            "alignment_cap"])
    def test_empty_run_rejected(self, run):
        # at zero draws every count is zero, which would read as a pass
        with pytest.raises(ConfigurationError):
            run(BrownianMotion(dt=0.05, horizon=1.0, seed=76))

    @pytest.mark.parametrize("count", [True, 2.5, 1000.5, "5000"])
    @pytest.mark.parametrize("run", [
        lambda s, n: stability_suite(n, sampler=s),
        lambda s, n: sign_identity_test(s, 1, 2, 2, n),
        lambda s, n: martingale_step_test(s, 1, 2, 2, n),
        lambda s, n: bound_check(s, 1, 2, FixedTime(1.0), 99.0, n),
        lambda s, n: exit_alignment_test(s, 1, 2, 2, 5, n),
        lambda s, n: invariance_test(s, FixedTime(0.5),
                                     default_functionals(1.0), n),
        lambda s, n: counterexample_demo(n, seed=76),
    ], ids=["stability", "signs", "martingale", "bound", "alignment",
            "invariance", "counterexample"])
    def test_count_not_an_integer_rejected(self, monkeypatch, run, count):
        # True ran one draw and recorded "sample_size": true; 2.5 ended in a
        # TypeError from range, and "5000" in one from invariance_test's
        # comparison with 1000
        def no_draws(*args):
            raise AssertionError("drew a path")

        monkeypatch.setattr(BrownianMotion, "_rows", no_draws)
        monkeypatch.setattr(DyadicCounterexample, "sample", no_draws)
        with pytest.raises(ConfigurationError):
            run(BrownianMotion(dt=0.05, horizon=1.0, seed=76), count)

    @pytest.mark.parametrize("n_steps", [True, 2.5])
    def test_martingale_steps_not_an_integer_rejected(self, n_steps):
        with pytest.raises(ConfigurationError,
                           match=f"n_steps must be an integer, got "
                                 f"{n_steps!r}"):
            martingale_step_test(BrownianMotion(dt=0.05, horizon=1.0), 1, 2,
                                 n_steps, 5, seed=1)

    @pytest.mark.parametrize("value", [True, 2.5, 1.5])
    @pytest.mark.parametrize("name, run", [
        ("n", lambda s, v: sign_identity_test(s, 1, 2, v, 5, seed=1)),
        ("n", lambda s, v: exit_alignment_test(s, 1, 2, v, 1, 5, seed=1)),
        ("min_per_word",
         lambda s, v: exit_alignment_test(s, 1, 2, 2, v, 5, seed=1)),
    ], ids=["signs_n", "alignment_n", "alignment_quota"])
    def test_word_counts_not_an_integer_rejected(self, monkeypatch, name,
                                                 run, value):
        # n=True ran words of length 1 and min_per_word=True a quota of 1,
        # each recording true; 1.5 ran and 2.5 ended in a TypeError
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(ConfigurationError,
                           match=f"{name} must be an integer, got "
                                 f"{value!r}"):
            run(BrownianMotion(dt=0.05, horizon=1.0), value)

    @pytest.mark.parametrize("workers", [2.5, "2", True])
    def test_worker_count_not_an_integer_rejected(self, monkeypatch,
                                                  workers):
        # 2.5 and "2" ended in a TypeError from _ranges, True ran as 1
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(ConfigurationError,
                           match=f"a worker count must be an integer, got "
                                 f"{workers!r}"):
            stability_suite(4, seed=1, workers=workers)

    @pytest.mark.parametrize("workers", [0, -1, np.int64(1)])
    def test_worker_count_below_two_runs_serially(self, workers):
        law = BrownianMotion(dt=0.05, horizon=1.0)
        assert stability_suite(3, seed=2, sampler=law,
                               workers=workers).to_json() == \
            stability_suite(3, seed=2, sampler=law).to_json()

    def test_numpy_integer_counts_run(self):
        # the reports are those of Python ints, byte for byte: to_json used
        # to raise on a NumPy sample_size and wrote n_steps as 2.0
        law = BrownianMotion(dt=0.05, horizon=1.0)
        assert martingale_step_test(
            law, 1, 2, np.int64(2), np.int64(30), seed=1).to_json() == \
            martingale_step_test(law, 1, 2, 2, 30, seed=1).to_json()
        assert stability_suite(np.int32(3), seed=2, sampler=law).to_json() \
            == stability_suite(3, seed=2, sampler=law).to_json()

    def test_negative_martingale_steps_rejected(self, monkeypatch):
        # it traced each draw to step 0 and passed with no increment checked
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(ConfigurationError,
                           match="n_steps must be at least 0, got -1"):
            martingale_step_test(BrownianMotion(dt=0.05, horizon=1.0), 1, 2,
                                 -1, 5, seed=1)


class TestReports:
    def test_recheck_and_json(self):
        rep = non_dyadic_sweep(20)
        assert rep.recheck()
        payload = json.loads(rep.to_json())
        assert payload["verdict"] == "pass"
        assert payload["name"] == "non_dyadic_sweep"
        assert {s["name"] for s in payload["statistics"]} == \
            {s.name for s in rep.statistics}

    def test_csv_rows_schema(self):
        rep = non_dyadic_sweep(20)
        rows = rep.csv_rows()
        assert all(set(r) == {"test", "statistic", "threshold", "verdict",
                              "seed"} for r in rows)

    def test_skipped_statistic_writes_null(self):
        # the value at time 0 is 0 on both arms, so its KS is skipped
        rep = invariance_test(DyadicCounterexample(horizon=5.0, seed=44),
                              TwoSidedHit(1, 1), [ValueAtTime(0.0)], 1000)
        stat, = json.loads(rep.to_json())["statistics"]
        assert stat["verdict"] == "skip"
        assert stat["value"] is None and stat["threshold"] is None
        assert rep.csv_rows()[0]["statistic"] == ""
        assert rep.recheck()

    def test_drawn_records_law_and_seed(self):
        law = BrownianMotion(dt=0.5, horizon=1.0, seed=9)
        stats = [Statistic.judged("x", 0.0, 1.0, "abs_below")]
        rep = verify.TestReport.drawn("t", law, 7, stats, ["a note"], a=1)
        assert rep == verify.TestReport(
            "t", {"law": "BrownianMotion(dt=0.5, horizon=1.0, seed=9)",
                  "a": 1}, 9, 7, stats, ["a note"])

    def test_numpy_scalars_serialize(self):
        # seed was written raw, so a NumPy seed raised a TypeError
        stats = [Statistic.judged("x", np.float64(0.5), 1.0, "abs_below",
                                  count=np.int64(3))]
        rep = verify.TestReport("t", {"n": np.int32(2)}, np.int64(9),
                                np.int64(7), stats)
        assert json.loads(rep.to_json()) == {
            "name": "t", "params": {"n": 2}, "seed": 9, "sample_size": 7,
            "verdict": "pass", "notes": [],
            "statistics": [{"name": "x", "value": 0.5, "threshold": 1.0,
                            "direction": "abs_below", "verdict": "pass",
                            "se": None, "detail": {"count": 3}}]}

    def test_judgement_directions(self):
        assert Statistic.judged("x", 0.5, 1.0, "abs_below").verdict == "pass"
        assert Statistic.judged("x", -2.0, 1.0, "abs_below").verdict == "fail"
        assert Statistic.judged("x", 0.01, 0.001, "above").verdict == "pass"
        assert Statistic.judged("x", 0.0001, 0.001, "above").verdict == "fail"


def _fresh_python(code: str) -> str:
    """Run code in a new interpreter that imports this reflectlab; its
    stdout."""
    src = str(pathlib.Path(verify.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


class TestImport:
    def test_scipy_loads_on_the_first_ks_only(self):
        out = _fresh_python(
            "import sys\n"
            "import reflectlab, reflectlab.cli\n"
            "from reflectlab import BrownianMotion, FixedTime, "
            "default_functionals, invariance_test, non_dyadic_sweep\n"
            "non_dyadic_sweep(10)\n"
            "print('scipy' in sys.modules)\n"
            "invariance_test(BrownianMotion(dt=0.1, horizon=1.0), "
            "FixedTime(0.5), default_functionals(1.0), 1000, seed=1)\n"
            "print('scipy' in sys.modules)\n")
        assert out.split() == ["False", "True"]

    def test_no_process_pool_imported(self):
        # the draw loop forks its helpers itself
        out = _fresh_python(
            "import sys\n"
            "import reflectlab, reflectlab.cli\n"
            "print('concurrent.futures' in sys.modules, "
            "'multiprocessing' in sys.modules)\n")
        assert out.split() == ["False", "False"]

    def test_ks_2samp_is_scipys(self):
        assert verify.ks_2samp is ks_2samp
        with pytest.raises(AttributeError, match="no attribute 'ks_2'"):
            verify.ks_2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the thresholds are glibc's")
    def test_ladder_draws_do_not_fault_their_arrays_in_again(self):
        # without fixed allocation thresholds each 160 KB array of a draw was
        # mapped and unmapped again, about 80-130 minor faults per draw
        out = _fresh_python(
            "import resource, sys\n"
            "from reflectlab import BrownianMotion, martingale_step_test\n"
            "def run(n, seed):\n"
            "    martingale_step_test(BrownianMotion(dt=1e-4, horizon=2.0),"
            " 1, 2, 4, n, seed=seed)\n"
            "run(5, 1)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "run(50, 2)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "print('scipy' in sys.modules, (after - before) / 50)\n")
        loaded, per_draw = out.split()
        assert loaded == "False"
        assert float(per_draw) < 20
