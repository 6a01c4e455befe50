"""Stopping rules, the exact level ladder and ladder traces."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectlab import (
    ComposeReflect,
    DyadicRatioError,
    FirstPassage,
    FixedTime,
    LadderStep,
    MaxOf,
    MinOf,
    Mixture,
    NOT_OBSERVED,
    Path,
    RuleError,
    SignAtTime,
    StoppingRule,
    TimeCompare,
    TwoSidedHit,
    is_observed,
    ladder_levels,
    ladder_trace,
    negate,
    parse_rule,
    reflect_at_rule,
    reflect_at_time,
    value_at,
)
from reflectlab.errors import MixturePartitionError
from reflectlab.samplers import BrownianMotion

F = Fraction


def line_to(v, horizon):
    return Path(np.array([0.0, float(horizon)]), np.array([float(v)]))


class TestLadderLevels:
    def test_unit_two_alternates(self):
        lad = ladder_levels(1, 2, 6)
        assert lad.levels == (F(0), F(1), F(0), F(1), F(0), F(1), F(0))
        assert lad.steps == (F(1),) * 6

    def test_two_three_period_four(self):
        lad = ladder_levels(2, 3, 8)
        assert lad.levels[:5] == (F(0), F(2), F(1), F(-1), F(0))
        assert lad.levels[4:] == lad.levels[:5]  # period 4
        assert lad.exits[:4] == (F(-2), F(3), F(3), F(-2))
        assert lad.steps[:4] == (F(2), F(1), F(2), F(1))

    def test_dyadic_ratio_rejected(self):
        with pytest.raises(DyadicRatioError):
            ladder_levels(1, 3, 2)  # 1/4 is dyadic

    def test_positivity_required(self):
        with pytest.raises(RuleError):
            ladder_levels(-1, 2, 2)

    @given(st.integers(1, 30), st.integers(1, 30))
    @settings(max_examples=200, deadline=None)
    def test_invariants_on_random_barriers(self, a, b):
        # construction asserts midpoint, distance and membership invariants;
        # here we re-check the distance identity independently
        ratio = F(a, a + b)
        if (ratio.denominator & (ratio.denominator - 1)) == 0:
            with pytest.raises(DyadicRatioError):
                ladder_levels(a, b, 4)
            return
        lad = ladder_levels(a, b, 12)
        for k in range(1, 13):
            c_prev, c = lad.levels[k - 1], lad.levels[k]
            assert -a < c < b
            assert lad.steps[k - 1] == min(c_prev + a, b - c_prev)
            assert lad.exits[k - 1] in (F(-a), F(b))
            assert 2 * c_prev == c + lad.exits[k - 1]


class TestEvaluate:
    def test_first_passage_linear_crossing(self):
        p = line_to(2.0, 1.0)
        assert FirstPassage(1).evaluate(p) == 0.5

    def test_first_passage_at_knot_counts(self):
        p = line_to(1.0, 1.0)
        assert FirstPassage(1).evaluate(p) == 1.0
        assert FirstPassage(0).evaluate(p) == 0.0

    def test_ladder_step_zero_is_zero(self):
        for p in (Path.zero(2.0), line_to(3.0, 3.0)):
            assert LadderStep(1, 2, 0).evaluate(p) == 0.0

    def test_two_sided_unobserved_inside_band(self):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([0.5, -1.0]))
        assert TwoSidedHit(1, 2).evaluate(p) == NOT_OBSERVED

    def test_two_sided_hits_nearest(self):
        p = line_to(-3.0, 3.0)
        assert TwoSidedHit(1, 2).evaluate(p) == 1.0

    def test_fixed_time(self):
        p = line_to(1.0, 2.0)
        assert FixedTime(1.5).evaluate(p) == 1.5
        assert FixedTime(3.0).evaluate(p) == NOT_OBSERVED

    def test_min_max(self):
        p = line_to(2.0, 1.0)
        s, t = FirstPassage(1), FixedTime(0.75)
        assert MinOf(s, t).evaluate(p) == 0.5
        assert MaxOf(s, t).evaluate(p) == 0.75
        never = FirstPassage(5)
        assert MinOf(s, never).evaluate(p) == 0.5
        assert MaxOf(s, never).evaluate(p) == NOT_OBSERVED

    def test_compose_reflect(self):
        # the unit-slope line reflected at T_1 descends as 2 - t afterwards,
        # so the reflected path first reaches -0.5 at t = 2.5
        p = line_to(3.0, 3.0)
        rule = ComposeReflect(FirstPassage(-0.5), FirstPassage(1))
        t = rule.evaluate(p)
        q = reflect_at_rule(p, FirstPassage(1))
        assert t == FirstPassage(-0.5).evaluate(q)
        assert math.isclose(t, 2.5, rel_tol=1e-12)

    def test_mixture_requires_partition(self):
        s, t = FirstPassage(1), FixedTime(0.75)
        always = TimeCompare(s, s, "eq")
        p = line_to(2.0, 1.0)  # s observes at 0.5, before t
        with pytest.raises(MixturePartitionError):
            Mixture(((s, always), (t, always))).evaluate(p)
        with pytest.raises(MixturePartitionError):
            Mixture(((s, TimeCompare(s, t, "gt")),
                     (t, TimeCompare(s, t, "eq")))).evaluate(p)
        ok = Mixture(((s, TimeCompare(s, t, "le")),
                      (t, TimeCompare(s, t, "gt"))))
        assert ok.evaluate(p) == 0.5

    def test_mixture_equals_min(self):
        s, t = FirstPassage(1), FixedTime(0.75)
        mix = Mixture(((s, TimeCompare(s, t, "le")),
                       (t, TimeCompare(s, t, "gt"))))
        sampler = BrownianMotion(dt=0.02, horizon=2.0, seed=8)
        for i in range(50):
            p = sampler.sample(i)
            assert mix.evaluate(p) == MinOf(s, t).evaluate(p)

    def test_sign_at_time_event(self):
        p = line_to(-2.0, 1.0)
        ev = SignAtTime(FixedTime(0.5), "neg")
        assert ev.holds(p)
        assert not SignAtTime(FixedTime(0.5), "pos").holds(p)
        assert SignAtTime(FirstPassage(5), "pos",
                          unobserved_matches=True).holds(p)


class TestReflectAtRule:
    def test_unobserved_is_identity(self):
        p = line_to(1.0, 1.0)
        assert reflect_at_rule(p, FirstPassage(5)) is p

    def test_terminal_value_reflected(self):
        a = 1.0
        p = line_to(3.0, 3.0)
        q = reflect_at_rule(p, FirstPassage(a))
        assert math.isclose(value_at(q, 3.0), 2 * a - 3.0, rel_tol=1e-12)

    def test_negated_level_composition(self):
        # reflection at the passage of -a equals flip, reflect at +a, flip
        sampler = BrownianMotion(dt=0.01, horizon=4.0, seed=12)
        for i in range(25):
            p = sampler.sample(i)
            lhs = reflect_at_rule(p, FirstPassage(F(-1)))
            rhs = negate(reflect_at_rule(negate(p), FirstPassage(F(1))))
            assert lhs == rhs
            assert lhs.anchors == rhs.anchors
            assert (FirstPassage(F(-1)).evaluate(p)
                    == FirstPassage(F(1)).evaluate(negate(p)))

    def test_idempotent_time_on_random_paths(self):
        sampler = BrownianMotion(dt=0.01, horizon=4.0, seed=13)
        rule = TwoSidedHit(1, 2)
        for i in range(25):
            p = sampler.sample(i)
            t = rule.evaluate(p)
            q = reflect_at_rule(p, rule)
            assert rule.evaluate(q) == t


class TestLadderTimes:
    def test_zero_path(self):
        times = ladder_trace(1, 2, Path.zero(5.0), 4).times
        assert times[0] == 0.0
        assert all(t == NOT_OBSERVED for t in times[1:])

    def test_straight_line_unit_steps(self):
        tr = ladder_trace(1, 2, line_to(3.0, 3.0), 3)
        assert tr.times == (0.0, 1.0, 2.0, 3.0)
        for k, t in enumerate(tr.times):
            assert value_at(tr.path, t) == float(k)

    def test_increasing_while_finite_then_absorbed(self):
        sampler = BrownianMotion(dt=0.01, horizon=2.0, seed=3)
        for i in range(40):
            times = ladder_trace(1, 2, sampler.sample(i), 6).times
            finite = [t for t in times if is_observed(t)]
            assert all(x < y for x, y in zip(finite, finite[1:]))
            tail = times[len(finite):]
            assert all(t == NOT_OBSERVED for t in tail)

    def test_preserved_by_ladder_reflections(self):
        sampler = BrownianMotion(dt=0.01, horizon=4.0, seed=21)
        for i in range(15):
            p = sampler.sample(i)
            tr = ladder_trace(1, 2, p, 5)
            for k in (1, 3):
                if not is_observed(tr.times[k]):
                    continue
                q = reflect_at_time(tr.path, tr.times[k])
                assert ladder_trace(1, 2, q, 5).times == tr.times

    def test_window_increments_bounded(self):
        # strictly below the step inside a window, across it at most a + b
        a, b = 1, 2
        sampler = BrownianMotion(dt=0.01, horizon=4.0, seed=30)
        for i in range(20):
            tr = ladder_trace(a, b, sampler.sample(i), 4)
            v = tr.path.values
            knots = tr.path.knots
            for k in range(1, len(tr.times)):
                if not is_observed(tr.times[k]):
                    break
                lo = np.searchsorted(knots, tr.times[k - 1])
                hi = np.searchsorted(knots, tr.times[k])
                window = v[lo:hi + 1] - v[lo]
                step = float(tr.ladder.steps[k - 1])
                assert np.all(np.abs(window[:-1]) < step + 1e-12)
                assert np.max(np.abs(window)) <= float(a + b) + 1e-12
                assert step <= (a + b) / 2


class TestMartingaleTrack:
    def test_zero_path(self):
        tr = ladder_trace(1, 2, Path.zero(4.0), 5)
        assert [tr.skeleton_value(n) for n in range(6)] == [F(0)] * 6
        assert [tr.last_finite(n) for n in range(6)] == [0] * 6

    def test_straight_line(self):
        tr = ladder_trace(1, 2, line_to(3.0, 3.0), 5)
        assert [tr.skeleton_value(n) for n in range(6)] == [
            F(0), F(1), F(2), F(3), F(3), F(3)]
        assert [tr.last_finite(n) for n in range(6)] == [0, 1, 2, 3, 3, 3]

    def test_step_magnitudes_exact(self):
        sampler = BrownianMotion(dt=0.01, horizon=3.0, seed=17)
        for i in range(30):
            tr = ladder_trace(1, 2, sampler.sample(i), 5)
            for n in range(5):
                dy = tr.skeleton_value(n + 1) - tr.skeleton_value(n)
                assert dy in (F(0), tr.ladder.steps[n], -tr.ladder.steps[n])

    def test_increment_antisymmetry_exact(self):
        sampler = BrownianMotion(dt=0.01, horizon=3.0, seed=18)
        for i in range(30):
            tr = ladder_trace(1, 2, sampler.sample(i), 3)
            for n in range(3):
                dy = tr.skeleton_value(n + 1) - tr.skeleton_value(n)
                if is_observed(tr.times[n]):
                    q = reflect_at_time(tr.path, tr.times[n])
                else:
                    q = tr.path
                tr_q = ladder_trace(1, 2, q, n + 1)
                assert (tr_q.skeleton_value(n + 1)
                        - tr_q.skeleton_value(n)) == -dy


class TestPrefixDeterminism:
    RULES = [FirstPassage(F(1)), TwoSidedHit(1, 2),
             MinOf(FirstPassage(F(1)), FixedTime(1.0)),
             ComposeReflect(FirstPassage(F(1)), TwoSidedHit(1, 2))]

    def test_prefix_determinism(self):
        # q agrees with p up to a knot time t0; any rule observed by t0
        # must take the same value on both
        sampler = BrownianMotion(dt=0.01, horizon=4.0, seed=22)
        for i in range(25):
            p = sampler.sample(i)
            t0 = float(p.knots[p.knots.size // 3])
            q = reflect_at_time(p, t0)
            for rule in self.RULES:
                rp, rq = rule.evaluate(p), rule.evaluate(q)
                if min(rp, rq) <= t0:
                    assert rp == rq

    def test_order_consistency(self):
        sampler = BrownianMotion(dt=0.01, horizon=4.0, seed=23)
        s, t = FirstPassage(F(1)), TwoSidedHit(1, 2)
        for i in range(25):
            p = sampler.sample(i)
            t0 = float(p.knots[p.knots.size // 3])
            q = reflect_at_time(p, t0)
            tp, tq = t.evaluate(p), t.evaluate(q)
            if min(tp, tq) <= t0:
                cp = (s.evaluate(p) > tp) - (s.evaluate(p) < tp)
                cq = (s.evaluate(q) > tq) - (s.evaluate(q) < tq)
                assert cp == cq


class TestRuleGrammar:
    @pytest.mark.parametrize("spec,expected", [
        ("fixed(1.5)", FixedTime(1.5)),
        ("hit(1)", FirstPassage(F(1))),
        ("hit(-1/2)", FirstPassage(F(-1, 2))),
        ("Tpm(1,2)", TwoSidedHit(F(1), F(2))),
        ("tau(1,2,8)", LadderStep(F(1), F(2), 8)),
        ("min(hit(1),fixed(2.0))", MinOf(FirstPassage(F(1)), FixedTime(2.0))),
        ("compose(hit(1),Tpm(1,2))",
         ComposeReflect(FirstPassage(F(1)), TwoSidedHit(F(1), F(2)))),
    ])
    def test_round_trip(self, spec, expected):
        assert parse_rule(spec) == expected

    @pytest.mark.parametrize("bad", ["", "frob(1)", "hit()", "min(hit(1))",
                                     "hit(x)", "Tpm(1,2"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(RuleError):
            parse_rule(bad)

    def test_ladder_rule_requires_non_dyadic(self):
        with pytest.raises(DyadicRatioError):
            parse_rule("tau(1,3,2)")


def unit_grid(increments, anchors=None):
    inc = np.asarray(increments, dtype=float)
    return Path(np.arange(inc.size + 1, dtype=float), inc, anchors or {})


class CountingRule(StoppingRule):
    """Wraps a rule and counts the scans made through it."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = 0

    def _observe(self, p):
        self.calls += 1
        return self.rule.observe(p)


class TestExitKernel:
    """Edge cases of the exit scan, driven through the public rules."""

    STEP = 2.0 ** -11  # 2048 steps of this size sum to 1 exactly

    @pytest.mark.parametrize("lead", [0, 1])
    def test_level_hit_at_block_seam(self, lead):
        # the level is reached exactly 2048 + lead knots past knot 0
        p = unit_grid([0.0] * lead + [self.STEP] * 2100)
        t, q = FirstPassage(F(1)).observe(p)
        assert t == 2048.0 + lead
        assert q.anchors == {2048 + lead: F(1)}
        t, q = FirstPassage(F(1) - F(1, 4096)).observe(p)
        assert t == 2047.5 + lead  # crossing inside the seam segment
        assert q.knots.size == p.knots.size + 1

    @pytest.mark.parametrize("lead", [0, 1])
    def test_ladder_hit_at_block_seam(self, lead):
        # tau_1 at knot 1 (value 1); the window restarted there moves by
        # the step 1 exactly 2048 + lead knots later
        p = unit_grid([1.0] + [0.0] * lead + [self.STEP] * 2100)
        tr = ladder_trace(1, 2, p, 2)
        assert tr.times == (0.0, 1.0, 2049.0 + lead)
        assert tr.anchor_values == (F(0), F(1), F(2))
        assert LadderStep(1, 2, 2).evaluate(p) == 2049.0 + lead

    def test_anchor_beyond_first_block_preempts_later_float_hit(self):
        # knot 3000 holds exactly 1 but rounds just below it; the float scan
        # alone would report the crossing near knot 5000
        inc = [0.0] * 6000
        inc[2999] = 1.0 - 2.0 ** -40
        inc[4999] = 1.0
        p = unit_grid(inc, {3000: F(1)})
        t, q = FirstPassage(F(1)).observe(p)
        assert t == 3000.0
        assert q is p
        assert TwoSidedHit(2, 1).evaluate(p) == 3000.0
        assert FirstPassage(1.0).evaluate(p) == 4999.0 + 2.0 ** -40

    def test_anchor_beyond_first_block_preempts_ladder_float_hit(self):
        inc = [0.0] * 6000
        inc[0] = 1.0
        inc[2999] = 1.0 - 2.0 ** -40
        inc[4999] = 1.0
        p = unit_grid(inc, {3000: F(2)})
        tr = ladder_trace(1, 2, p, 2)
        assert tr.times == (0.0, 1.0, 3000.0)
        assert tr.anchor_values == (F(0), F(1), F(2))

    def test_anchor_overrides_crossing_into_anchored_knot(self):
        # knot 1 holds exactly 1 but rounds just above it, which the float
        # scan reads as a crossing inside segment (0, 1)
        over = 1.0 + 2.0 ** -40
        p = unit_grid([over, 1.0], {1: F(1)})
        assert FirstPassage(F(1)).evaluate(p) == 1.0
        assert TwoSidedHit(1, 1).evaluate(p) == 1.0
        q = unit_grid([-1.0, over, 1.0], {2: F(0)})
        assert ladder_trace(1, 2, q, 2).times == (0.0, 1.0, 2.0)
        # without the anchor the same paths cross inside the segment
        assert FirstPassage(F(1)).evaluate(unit_grid([over, 1.0])) < 1.0

    def test_zero_level_pins_knot_zero(self):
        p = line_to(2.0, 1.0)
        t, q = FirstPassage(F(0)).observe(p)
        assert t == 0.0
        assert q.anchors == {0: F(0)}
        t, q = FirstPassage(0.0).observe(p)
        assert t == 0.0
        assert q is p

    def test_one_sided_negative_level(self):
        down = line_to(-2.0, 1.0)
        t, q = FirstPassage(F(-1)).observe(down)
        assert t == 0.5
        assert q.anchors == {1: F(-1)}
        assert value_at(q, 0.5) == -1.0
        # an unbounded upper side: rising paths never exit
        assert FirstPassage(F(-1)).evaluate(line_to(5.0, 1.0)) == NOT_OBSERVED

    @pytest.mark.parametrize("combine", [MinOf, MaxOf])
    def test_ties_keep_left_annotation(self, combine):
        # both branches stop at 0.5, but only the passage pins the knot
        p = line_to(2.0, 1.0)
        hit, fixed = FirstPassage(F(1)), FixedTime(0.5)
        t, q = combine(hit, fixed).observe(p)
        assert t == 0.5 and q.anchors == {1: F(1)}
        t, q = combine(fixed, hit).observe(p)
        assert t == 0.5 and q.anchors == {}

    @pytest.mark.parametrize("combine", [MinOf, MaxOf])
    def test_min_max_scan_each_branch_once(self, combine):
        p = line_to(2.0, 1.0)
        left = CountingRule(FirstPassage(F(1)))
        right = CountingRule(FixedTime(0.75))
        combine(left, right).observe(p)
        assert (left.calls, right.calls) == (1, 1)

    def test_first_ladder_step_is_unit_exit(self):
        # tau_1 of the (1, 2) ladder and the exit time of (-1, 1) are the
        # same stopping time, so they must agree to the bit
        sampler = BrownianMotion(dt=1e-4, horizon=2.0, seed=5)
        observed = 0
        for i in range(600):
            p = sampler.sample(i)
            t = TwoSidedHit(1, 1).evaluate(p)
            assert LadderStep(1, 2, 1).evaluate(p) == t
            observed += is_observed(t)
        assert observed >= 500
