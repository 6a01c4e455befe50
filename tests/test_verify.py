"""Verification layer: exact suites, statistical tests, reports."""

import dataclasses
import json
import math
import operator
import pathlib
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from reflectlab import (
    BrownianMotion,
    ConfigurationError,
    DriftedBM,
    DyadicCounterexample,
    FixedTime,
    FirstPassage,
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
    exit_alignment_test,
    invariance_test,
    is_dyadic,
    martingale_step_test,
    max_deviation,
    non_dyadic_sweep,
    parse_rule,
    reflect_at_rule,
    sign_identity_test,
    stability_suite,
)
from reflectlab.samplers import _GridLaw
from reflectlab.verify import (
    HittingTime,
    RunningMax,
    Statistic,
    ValueAtRuleTime,
    ValueAtTime,
    _invariance_block,
    _run_draws,
)


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

    def test_sweep_small(self):
        rep = non_dyadic_sweep(40)
        assert rep.verdict == "pass"
        count = rep.statistics[0].detail["checked"]
        assert count == 40 * 39 * 38 // 6


class TestAdvanceFormulaCheck:
    def test_small_exhaustive(self):
        rep = advance_formula_check(8)
        assert rep.verdict == "pass"
        assert all(s.value == 0 for s in rep.statistics)


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

    def test_colliding_functional_names_rejected(self):
        # both print as value_at_1 under :g, which would give two statistics
        # and two summary rows of one name
        functionals = [ValueAtTime(1.0000001), ValueAtTime(1.0000002)]
        assert functionals[0].name == functionals[1].name
        with pytest.raises(ConfigurationError):
            invariance_test(BrownianMotion(dt=0.05, horizon=2.0, seed=46),
                            FixedTime(0.0), functionals, 1000)

    def test_worker_count_invariance(self):
        sampler = BrownianMotion(dt=0.05, horizon=2.0, seed=45)
        kw = dict(functionals=[ValueAtTime(1.0), RunningMax()], n_draws=1500)
        r1 = invariance_test(sampler, FixedTime(0.0), workers=1, **kw)
        r2 = invariance_test(sampler, FixedTime(0.0), workers=2, **kw)
        assert [s.value for s in r1.statistics] == \
            [s.value for s in r2.statistics]

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
# fixed(1.0) is a knot of the grid and fixed(0.37) is not
_BLOCK_RULES = [parse_rule(spec) for spec in (
    "fixed(0)", "fixed(1.0)", "fixed(0.37)", "fixed(3.0)", "hit(1)",
    "Tpm(1,1)", "min(Tpm(1,2),fixed(1))")]
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
        n = max(b * size + 1, (b + 1) * size - short)  # may cut the block
        block = _invariance_block(
            (sampler, rule, _BLOCK_FUNCTIONALS, n, size), b)
        indices = range(b * size, min(n, (b + 1) * size))
        expected = _block_reference(sampler, rule, _BLOCK_FUNCTIONALS,
                                    indices)
        assert block.shape == expected.shape
        assert block.tobytes() == expected.tobytes()

    def test_fixed_rules_sit_on_and_off_the_grid(self):
        knots = BrownianMotion(dt=0.05, horizon=2.0).sample(0).knots
        assert 1.0 in knots and 0.37 not in knots

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
        block = _invariance_block((sampler, rule, functionals, 3, 3), 0)
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
        import reflectlab.verify as verify

        deviation = verify._deviation
        calls = []

        def checked(p1, p2):
            # the caller's claim: p1's knots hold p2's
            assert np.isin(p2.knots, p1.knots).all()
            d = deviation(p1, p2)
            scale = max(1.0, np.max(np.abs(p1.values)),
                        np.max(np.abs(p2.values)))
            assert d == max_deviation(p1, p2) / scale
            calls.append(d)
            return d

        monkeypatch.setattr(verify, "_deviation", checked)
        for i in range(20):
            fails, _ = verify._stability_draw((sampler,), i)
            assert not any(fails.values())
        assert calls

    def test_no_cyclic_garbage(self):
        import gc

        import reflectlab.verify as verify

        sampler = BrownianMotion(dt=0.01, horizon=10.0, seed=7)
        gc.collect()
        gc.disable()
        try:
            for i in range(5):
                verify._stability_draw((sampler,), i)
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


_SHARDED = {
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


def _marking_draw(directory, i):
    """Leave a marker for the shard that starts at draw i, then fail at
    draw 0 and sleep at the start of every other shard."""
    if i % 1000 == 0:
        (pathlib.Path(directory) / str(i)).touch()
        if i == 0:
            raise ZeroDivisionError("draw 0")
        time.sleep(0.2)


class TestSharding:
    @pytest.mark.parametrize("name", sorted(_SHARDED))
    def test_report_independent_of_worker_count(self, name):
        run = _SHARDED[name]
        assert run(1).to_json() == run(2).to_json()

    def test_rows_in_index_order_across_shards(self):
        # 2500 draws on two workers make three shards of at most 1000;
        # getitem(range(n), i) is the row of draw i
        n = 2500
        rows = list(_run_draws(operator.getitem, range(n), n, workers=2))
        assert rows == list(range(n))

    def test_stopping_cancels_shards_not_started(self, tmp_path):
        # draw 0 raises; the 19 other shards of 1000 draws wait 0.2 s at
        # their first draw, so without cancellation all 20 would run.  The
        # pool starts the shards it has queued ahead (5 or 6 in all)
        with pytest.raises(ZeroDivisionError):
            for _ in _run_draws(_marking_draw, str(tmp_path), 20_000,
                                workers=2):
                pass
        started = len(list(tmp_path.iterdir()))
        assert 1 <= started < 10

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

    def test_judgement_directions(self):
        assert Statistic.judged("x", 0.5, 1.0, "abs_below").verdict == "pass"
        assert Statistic.judged("x", -2.0, 1.0, "abs_below").verdict == "fail"
        assert Statistic.judged("x", 0.01, 0.001, "above").verdict == "pass"
        assert Statistic.judged("x", 0.0001, 0.001, "above").verdict == "fail"
