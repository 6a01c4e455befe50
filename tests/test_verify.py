"""Verification layer: exact suites, statistical tests, reports."""

import json
import math
import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from reflectlab import (
    BrownianMotion,
    ConfigurationError,
    DriftedBM,
    DyadicCounterexample,
    FixedTime,
    FirstPassage,
    MinOf,
    RuleError,
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
    non_dyadic_sweep,
    sign_identity_test,
    stability_suite,
)
from reflectlab.verify import (
    HittingTime,
    RunningMax,
    Statistic,
    ValueAtRuleTime,
    ValueAtTime,
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

    def test_reseeding_reproducible(self):
        sampler = BrownianMotion(dt=0.05, horizon=2.0, seed=0)
        a = invariance_test(sampler, FixedTime(0.0), [ValueAtTime(1.0)],
                            1200, seed=7)
        b = invariance_test(sampler, FixedTime(0.0), [ValueAtTime(1.0)],
                            1200, seed=7)
        assert a.statistics[0].value == b.statistics[0].value
        assert a.seed == 7


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
