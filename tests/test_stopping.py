"""Stopping rules, the exact level ladder and ladder traces."""

import hashlib
import math
import re
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
from reflectlab.samplers import BrownianMotion, OconeTimeChange
from reflectlab.stopping import _locate_exit, _reflected_trace

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

    @pytest.mark.parametrize("a", [True, 1.0])
    def test_equal_level_of_another_type_misses_the_cache(self, a):
        # after the int call, true and 1.0 used to get its cached ladder
        # and trace, though as_rational rejects both
        p = BrownianMotion(dt=0.01, horizon=1.0, seed=1).sample(0)
        ladder_levels(1, 2, 2)
        ladder_trace(1, 2, p, 2)
        with pytest.raises(RuleError):
            ladder_levels(a, 2, 2)
        with pytest.raises(RuleError):
            ladder_trace(a, 2, p, 2)

    @pytest.mark.parametrize("a, b", [
        (F(1, 3 * 2 ** 1100), F(2, 3 * 2 ** 1100)),
        (10 ** 400, 2 * 10 ** 400),
    ], ids=["steps-round-to-zero", "steps-overflow"])
    def test_steps_need_positive_finite_floats(self, a, b):
        # such steps made every window exit at its start, or raised a bare
        # OverflowError at the first trace
        with pytest.raises(RuleError):
            LadderStep(a, b, 2)
        with pytest.raises(RuleError):
            parse_rule(f"tau({a},{b},2)")
        with pytest.raises(RuleError):
            ladder_trace(a, b, line_to(1.0, 1.0), 4)

    @pytest.mark.parametrize("a, b, den", [
        (1, 2, 1), (2, 3, 1), (F(1, 3), F(1, 2), 6)])
    def test_den_and_scaled_steps(self, a, b, den):
        lad = ladder_levels(a, b, 8)
        assert lad.den == math.lcm(F(a).denominator, F(b).denominator) == den
        assert lad.scaled_steps == tuple(s * den for s in lad.steps)
        assert all(type(s) is int for s in lad.scaled_steps)
        assert lad.float_steps == tuple(float(s) for s in lad.steps)

    def test_steps_past_the_float_range_build_but_do_not_trace(self):
        # the ladder kind prints such a ladder; only a trace needs floats
        lad = ladder_levels(10 ** 400, 2 * 10 ** 400, 2)
        assert lad.scaled_steps == (10 ** 400, 10 ** 400)
        with pytest.raises(RuleError, match="^every ladder step needs a "
                           "positive finite float value$"):
            lad.float_steps

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

    def test_fixed_time_is_kept_as_a_float(self):
        # a Fraction time stops at the knot of its float, not beside it
        p = BrownianMotion(dt=0.1, horizon=1.0, seed=1).sample(0)
        q = reflect_at_rule(p, FixedTime(F(1, 3)))
        Path(q.knots, q.increments, q.anchors)  # strictly increasing knots
        r = reflect_at_rule(p, FixedTime(1 / 3))
        assert q.knots.tobytes() == r.knots.tobytes()
        assert q.increments.tobytes() == r.increments.tobytes()
        assert q.anchors == r.anchors
        assert FixedTime(F(1, 3)) == FixedTime(1 / 3)
        assert type(FixedTime(F(1, 3)).evaluate(p)) is float
        assert repr(FixedTime(np.int64(1))) == "FixedTime(r=1.0)"

    def test_min_max(self):
        p = line_to(2.0, 1.0)
        s, t = FirstPassage(1), FixedTime(0.75)
        assert MinOf(s, t).evaluate(p) == 0.5
        assert MaxOf(s, t).evaluate(p) == 0.75
        never = FirstPassage(5)
        assert MinOf(s, never).evaluate(p) == 0.5
        assert MaxOf(s, never).evaluate(p) == NOT_OBSERVED
        # reports record these reprs
        assert repr(MinOf(s, t)) == \
            "MinOf(left=FirstPassage(level=1), right=FixedTime(r=0.75))"
        assert repr(MaxOf(t, s)) == \
            "MaxOf(left=FixedTime(r=0.75), right=FirstPassage(level=1))"

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

    def test_sign_at_time_zero(self):
        p = line_to(0.0, 1.0)  # 0.0 at every time
        assert SignAtTime(FixedTime(0.5), "zero").holds(p)
        assert not SignAtTime(FixedTime(0.5), "neg").holds(p)
        assert not SignAtTime(FixedTime(0.5), "pos").holds(p)
        assert SignAtTime(FixedTime(0.5), "pos").holds(line_to(1e-300, 1.0))


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


def _assert_same_trace(tr, other):
    """Every output bit of two ladder traces is equal."""
    assert [float(t).hex() for t in tr.times] == \
        [float(t).hex() for t in other.times]
    assert tr.directions == other.directions
    assert (tr.ladder.den, tr.scaled_values) == \
        (other.ladder.den, other.scaled_values)
    assert tr.anchor_values == other.anchor_values
    assert tr.ladder == other.ladder
    assert tr.path.knots.tobytes() == other.path.knots.tobytes()
    assert tr.path.increments.tobytes() == other.path.increments.tobytes()
    assert sorted(tr.path.anchors.items()) == \
        sorted(other.path.anchors.items())


class TestReflectedTrace:
    """``_reflected_trace`` resumes at tau_n; a full trace of the same
    reflected path starts from knot 0."""

    LAWS = {
        "bm": lambda seed: BrownianMotion(dt=1e-3, horizon=4.0, seed=seed),
        "ocone": lambda seed: OconeTimeChange("random_rate", dt=1e-3,
                                              horizon=4.0, seed=seed),
    }
    # the barriers of the martingale_step_test goldens
    BARRIERS = [(F(1), F(2)), (F(1, 3), F(1, 2)), (F(2), F(3))]

    @given(st.sampled_from(sorted(LAWS)), st.sampled_from(BARRIERS),
           st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 40),
           st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_resumed_trace_is_the_full_retrace(self, law, barriers, seed, i,
                                               n_steps):
        a, b = barriers
        tr = ladder_trace(a, b, self.LAWS[law](seed).sample(i), n_steps + 1)
        for n, t in enumerate(tr.times[:n_steps + 1]):
            if is_observed(t):
                _assert_same_trace(
                    _reflected_trace(tr, n),
                    ladder_trace(a, b, reflect_at_time(tr.path, t), n + 1))

    def test_resumes_on_anchored_and_raw_draws(self):
        # parents traced on pinned paths, whose anchors the reflection
        # remaps, and on raw draws; every observed tau_n, 0 included
        sampler = BrownianMotion(dt=1e-3, horizon=4.0, seed=61)
        resumed = 0
        for i in range(10):
            p = sampler.sample(i)
            for q in (p, negate(p), FirstPassage(F(1, 2)).observe(p)[1],
                      TwoSidedHit(1, 2).observe(p)[1]):
                tr = ladder_trace(1, 2, q, 6)
                for n, t in enumerate(tr.times):
                    if is_observed(t):
                        _assert_same_trace(
                            _reflected_trace(tr, n),
                            ladder_trace(1, 2, reflect_at_time(tr.path, t),
                                         n + 1))
                        resumed += n > 0
        assert resumed >= 100

    def test_crossings_in_one_segment(self):
        # every step of the parent is a knot it inserted in segment (0, 1)
        tr = ladder_trace(1, 2, Path(np.array([0.0, 1.0, 2.0]),
                                     np.array([10.0, -3.0])), 6)
        for n, t in enumerate(tr.times):
            _assert_same_trace(
                _reflected_trace(tr, n),
                ladder_trace(1, 2, reflect_at_time(tr.path, t), n + 1))

    def test_scaled_values_are_the_anchor_values_times_den(self):
        tr = ladder_trace(F(1, 3), F(1, 2), line_to(-1.0, 1.0), 4)
        assert tr.ladder.den == 6
        assert tr.anchor_values == tuple(F(x, 6) for x in tr.scaled_values)
        assert tr.skeleton_value(4) == F(tr.scaled_values[-1], 6)


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

    # the error of every malformed spec in the reject lists of this class
    @pytest.mark.parametrize("bad,error,message", [
        ("", RuleError, "cannot parse rule ''"),
        ("frob(1)", RuleError, "unknown rule 'frob'"),
        ("hit()", RuleError, "hit expects 1 argument(s), got 0"),
        ("min(hit(1))", RuleError, "min expects 2 argument(s), got 1"),
        ("hit(x)", RuleError, "cannot parse level 'x'"),
        ("Tpm(1,2", RuleError, "cannot parse rule 'Tpm(1,2'"),
        ("tau(1,3,2)", DyadicRatioError, "a/(a+b) = 1/4 is dyadic"),
        ("hit(nan)", RuleError, "level must be finite, got nan"),
        ("hit(-inf)", RuleError, "level must be finite, got -inf"),
        ("Tpm(1,inf)", RuleError, "level must be finite, got inf"),
        ("fixed(-inf)", RuleError,
         "fixed time must be finite and nonnegative, got -inf"),
        ("min(hit(1),hit(nan))", RuleError, "level must be finite, got nan"),
        (f"tau({10 ** 400},{2 * 10 ** 400},2)", RuleError,
         "every ladder step needs a positive finite float value"),
    ])
    def test_reject_messages(self, bad, error, message):
        with pytest.raises(RuleError) as info:
            parse_rule(bad)
        assert type(info.value) is error
        assert str(info.value) == message

    @pytest.mark.parametrize("bad,message", [
        ("fixed(abc)", "cannot parse time 'abc'"),
        ("tau(1,2,x)", "cannot parse ladder index 'x'"),
        ("tau(1,2,2.5)", "cannot parse ladder index '2.5'"),
        ("hit(1/0)", "cannot parse level '1/0'"),
    ])
    def test_bad_arguments_raise_rule_error(self, bad, message):
        # they used to raise a bare ValueError (ZeroDivisionError for 1/0)
        with pytest.raises(RuleError, match=re.escape(message)):
            parse_rule(bad)

    @pytest.mark.parametrize("bad", ["hit(nan)", "hit(inf)", "hit(-inf)",
                                     "Tpm(nan,1)", "Tpm(1,inf)", "fixed(nan)",
                                     "fixed(inf)", "fixed(-inf)",
                                     "min(hit(1),hit(nan))"])
    def test_rejects_non_finite_levels_and_times(self, bad):
        # a NaN level used to give time 0 on every path
        with pytest.raises(RuleError):
            parse_rule(bad)

    @pytest.mark.parametrize("build, message", [
        (lambda: TwoSidedHit(-1, 2), "two-sided barriers must be positive"),
        (lambda: LadderStep(1, 2, -1), "ladder index must be nonnegative"),
        (lambda: Mixture(()), "mixture needs at least one branch"),
        (lambda: TimeCompare(FixedTime(1.0), FixedTime(2.0), "bogus"),
         "unknown comparison 'bogus'"),
        (lambda: SignAtTime(FixedTime(1.0), "bogus"),
         "unknown sign op 'bogus'"),
    ], ids=["TwoSidedHit", "LadderStep", "Mixture", "TimeCompare",
            "SignAtTime"])
    def test_reject_messages_built_directly(self, build, message):
        with pytest.raises(RuleError) as info:
            build()
        assert str(info.value) == message

    def test_rejects_non_finite_rules_built_directly(self):
        for build in (lambda: FirstPassage(math.nan),
                      lambda: FirstPassage(-math.inf),
                      lambda: TwoSidedHit(math.nan, 1),
                      lambda: TwoSidedHit(1, math.inf),
                      lambda: FirstPassage(10 ** 400),  # overflows a float
                      lambda: FixedTime(math.nan),
                      lambda: FixedTime(math.inf),
                      lambda: FixedTime(10 ** 400),  # no finite float
                      lambda: FixedTime(F(-1, 10 ** 400))):  # float is -0.0
            with pytest.raises(RuleError):
                build()


def unit_grid(increments, anchors=None):
    inc = np.asarray(increments, dtype=float)
    return Path(np.arange(inc.size + 1, dtype=float), inc, anchors or {})


class CountingRule(StoppingRule):
    """Wraps a rule and counts the scans made through it."""

    def __init__(self, rule):
        self.rule = rule
        self.calls = 0

    def _observe(self, p, pin=True):
        self.calls += 1
        return self.rule._observe(p, pin)


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
    def test_level_hit_at_block_seam_read_from_values(self, lead):
        # with the values cache built, a scan from knot 0 reads it in the
        # same blocks
        p = unit_grid([0.0] * lead + [self.STEP] * 2100)
        assert p.values[2048 + lead] == 1.0
        t, q = FirstPassage(F(1)).observe(p)
        assert t == 2048.0 + lead and q.anchors == {2048 + lead: F(1)}
        t, q = FirstPassage(F(1) - F(1, 4096)).observe(p)
        assert t == 2047.5 + lead

    @pytest.mark.parametrize("lead", [0, 1])
    def test_ladder_hit_at_block_seam(self, lead):
        # tau_1 at knot 1 (value 1); the window restarted there moves by
        # the step 1 exactly 2048 + lead knots later
        p = unit_grid([1.0] + [0.0] * lead + [self.STEP] * 2100)
        tr = ladder_trace(1, 2, p, 2)
        assert tr.times == (0.0, 1.0, 2049.0 + lead)
        assert tr.anchor_values == (F(0), F(1), F(2))
        assert LadderStep(1, 2, 2).evaluate(p) == 2049.0 + lead

    @pytest.mark.parametrize("lead", [0, 1])
    def test_ladder_hit_at_block_seam_after_split(self, lead):
        # tau_1 crosses 1 inside segment (0, 1), whose split increment STEP
        # is the next window's first summand; that window reaches the step 1
        # exactly 2048 + lead summands later
        p = unit_grid([1.0 + self.STEP] + [0.0] * lead + [self.STEP] * 2100)
        tr = ladder_trace(1, 2, p, 2)
        assert 0.0 < tr.times[1] < 1.0
        assert tr.times[2] == 2048.0 + lead
        assert tr.anchor_values == (F(0), F(1), F(2))
        assert tr.path.knots.size == p.knots.size + 1
        assert tr.path.anchors == {1: F(1), 2049 + lead: F(2)}

    @pytest.mark.parametrize("rule", [FirstPassage(1), TwoSidedHit(2, 1),
                                      LadderStep(1, 2, 1)])
    def test_earliest_anchor_wins_whatever_the_dict_order(self, rule):
        # the float sums sit one ulp below 1 at knots 1 and 3, both anchored
        # at 1, and the anchors dict lists knot 3 first
        below = math.nextafter(1.0, 0.0)
        anchors = {3: F(1), 1: F(1)}
        p = Path(np.arange(5.0), np.array([below, -0.5, 0.5, 1.0]), anchors)
        assert p.values[1] == p.values[3] == below
        assert rule.evaluate(p) == 1.0
        t, q = rule.observe(Path(p.knots, p.increments, anchors))  # no memo
        assert t == 1.0
        assert q.knots.size == p.knots.size and q.anchors == anchors

    # later seams: the second block holds 4096 summands, the third 8192
    FINE = 2.0 ** -14  # up to 2**14 steps of this size sum exactly
    SEAMS = [2048 + 4096, 2048 + 4096 + 8192]

    @pytest.mark.parametrize("seam", SEAMS)
    @pytest.mark.parametrize("lead", [0, 1])
    @pytest.mark.parametrize("cached", [False, True])
    def test_level_hit_at_later_seam(self, seam, lead, cached):
        # the level is reached exactly seam + lead knots past knot 0, read
        # from the values cache or summed in blocks
        p = unit_grid([0.0] * lead + [self.FINE] * (seam + 50))
        if cached:
            assert p.values[seam + lead] == seam * self.FINE
        level = F(seam, 2 ** 14)
        t, q = FirstPassage(level).observe(p)
        assert t == seam + lead
        assert q.anchors == {seam + lead: level}
        t, q = FirstPassage(level - F(1, 2 ** 15)).observe(p)
        assert t == seam + lead - 0.5  # crossing inside the seam segment
        assert q.knots.size == p.knots.size + 1

    @pytest.mark.parametrize("seam", SEAMS)
    @pytest.mark.parametrize("lead", [0, 1])
    def test_ladder_hit_at_later_seam(self, seam, lead):
        # steps x, x for barriers (x, 2x); tau_1 at knot 1, then the window
        # restarted there moves by x exactly seam + lead knots later
        x = F(seam, 2 ** 14)
        p = unit_grid([float(x)] + [0.0] * lead + [self.FINE] * (seam + 50))
        tr = ladder_trace(x, 2 * x, p, 2)
        assert tr.times == (0.0, 1.0, seam + 1.0 + lead)
        assert tr.anchor_values == (F(0), x, 2 * x)

    @pytest.mark.parametrize("seam", SEAMS)
    @pytest.mark.parametrize("lead", [0, 1])
    def test_ladder_hit_at_later_seam_after_split(self, seam, lead):
        # tau_1 crosses x inside segment (0, 1); the next window starts
        # with the split increment FINE (the kernel's lead) and reaches x
        # exactly seam + lead summands later
        x = F(seam, 2 ** 14)
        p = unit_grid([float(x) + self.FINE] + [0.0] * lead
                      + [self.FINE] * (seam + 50))
        tr = ladder_trace(x, 2 * x, p, 2)
        assert 0.0 < tr.times[1] < 1.0
        assert tr.times[2] == seam + lead
        assert tr.anchor_values == (F(0), x, 2 * x)
        assert tr.path.anchors == {1: x, seam + lead + 1: 2 * x}

    @staticmethod
    def _one_cumsum_exit(p, k, lo, hi, lead):
        """``_locate_exit`` without an anchor, the whole window in one
        cumsum."""
        t0 = float(p.knots[k]) if lead is None else lead[0]
        if not lo < 0.0 < hi:
            return t0, k, 1 if hi <= 0.0 else -1, lead is not None
        first = k if lead is None else k - 1
        u = np.concatenate(([0.0], p.increments[first:]))
        if lead is not None:
            u[1] = lead[1]
        u = np.cumsum(u)
        out = (u <= lo) | (u >= hi)
        if not out.any():
            return None
        i = int(out.argmax())
        j = first + i
        side = 1 if u[i] >= hi else -1
        target = hi if side == 1 else lo
        if u[i] == target:
            return float(p.knots[j]), j, side, False
        tl = t0 if i == 1 else float(p.knots[j - 1])
        return (tl + (target - u[i - 1]) * ((p.knots[j] - tl)
                                            / (u[i] - u[i - 1])),
                j, side, True)

    @given(st.integers(0, 2 ** 32 - 1),
           st.sampled_from([0.0, 1e-9, 0.25, -1e-9]), st.booleans(),
           st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_blocks_match_one_cumsum(self, seed, shave, open_side,
                                     with_lead, cached):
        # exits from the first summands to past the third seam, exactly on a
        # sum or inside a segment, one side open or not, with and without a
        # lead and the values cache; sizes and places come from the seed,
        # so that they spread evenly
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40_001))
        p = Path(np.concatenate(([0.0], np.cumsum(rng.uniform(0.5, 1.5, n)))),
                 rng.standard_normal(n) + rng.normal(0.0, 0.2))
        k = int(rng.random() ** 3 * (n - 1)) + with_lead
        lead = None
        if with_lead:  # start inside segment (k - 1, k), as after a split
            t_l, t_r = p.knots[k - 1], p.knots[k]
            split = rng.uniform(0.01, 0.99)
            lead = (t_l + split * (t_r - t_l),
                    (1.0 - split) * p.increments[k - 1])
        if cached:
            p.values
        # the bound crossed is the running extreme up to a chosen summand m,
        # on the side of the sum there, shaved so that it falls on a sum or
        # inside a segment, or raised a little so that it may not be met
        u = np.cumsum(np.concatenate(([0.0], p.increments[k - with_lead:])))
        if with_lead:
            u[1:] += lead[1] - p.increments[k - 1]
        m = 1 + int(rng.random() * (u.size - 2))
        far = math.inf if open_side else np.abs(u).max() + 1.0
        if u[m] > 0.0:
            lo, hi = -far, u[1:m + 1].max() * (1.0 - shave)
        else:
            lo, hi = u[1:m + 1].min() * (1.0 - shave), far
        got = _locate_exit(p, k, lo, hi, lead=lead)
        want = self._one_cumsum_exit(p, k, lo, hi, lead)
        assert got == want
        if got is not None:
            assert float(got[0]).hex() == float(want[0]).hex()

    def test_ladder_exit_inside_split_segment(self):
        # the window after a split crosses again before the segment's end
        p = unit_grid([3.5, 0.0])
        tr = ladder_trace(1, 2, p, 3)
        for k in (1, 2, 3):
            assert math.isclose(tr.times[k], k / 3.5, rel_tol=1e-15)
        assert tr.path.knots.tolist() == [0.0, *tr.times[1:], 1.0, 2.0]
        assert tr.path.anchors == {1: F(1), 2: F(2), 3: F(3)}
        assert tr.path.increments.tolist() == [1.0, 1.0, 1.0, 0.5, 0.0]

    def test_ladder_exit_at_split_segment_end(self):
        # the split increment 2 - 1 reaches the step exactly at knot 1
        p = unit_grid([2.0, 0.0])
        tr = ladder_trace(1, 2, p, 2)
        assert tr.times == (0.0, 0.5, 1.0)
        assert tr.path.knots.tolist() == [0.0, 0.5, 1.0, 2.0]
        assert tr.path.anchors == {1: F(1), 2: F(2)}

    def test_anchor_before_split_does_not_end_window(self):
        # knot 1 holds exactly 0, which is a bound of the window that starts
        # at the crossing of 1 inside segment (1, 2), but lies before it
        p = unit_grid([0.0, 3.0], {1: F(0)})
        tr = ladder_trace(1, 2, p, 2)
        assert 1.0 < tr.times[1] < tr.times[2] < 2.0
        assert tr.anchor_values == (F(0), F(1), F(2))
        assert tr.path.anchors == {1: F(0), 2: F(1), 3: F(2)}

    def test_trace_inserts_knots_in_one_copy(self, monkeypatch):
        import reflectlab.path
        import reflectlab.stopping

        def refuse(*args, **kwargs):
            raise AssertionError("insert_knot called")

        copies = []

        def counting(*args):
            copies.append(args)
            return fast_path(*args)

        fast_path = reflectlab.path._fast_path
        monkeypatch.setattr(reflectlab.stopping, "insert_knot", refuse)
        monkeypatch.setattr(reflectlab.path, "insert_knot", refuse)
        monkeypatch.setattr(reflectlab.path, "_fast_path", counting)
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([10.0, -3.0]))
        tr = ladder_trace(1, 2, p, 6)
        assert tr.path.knots.size == p.knots.size + 6
        assert len(copies) == 1

    def test_trace_returns_input_when_every_step_is_anchored(self):
        sampler = BrownianMotion(dt=0.01, horizon=4.0, seed=19)
        pinned = 0
        for i in range(10):
            tr = ladder_trace(1, 2, sampler.sample(i), 6)
            pinned += len(tr.scaled_values) - 1
            again = ladder_trace(1, 2, tr.path, 6)
            assert again.path is tr.path
            assert again.times == tr.times
            assert again.anchor_values == tr.anchor_values
        assert pinned >= 30

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
        combine(left, right).evaluate(p)
        assert (left.calls, right.calls) == (2, 2)

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


# --- evaluate is observe without the annotation -----------------------------

def _kernel_paths():
    """Paths of every kind the rules meet: raw draws, reflected, ladder-
    annotated and anchored ones, and the exact-hit and block-seam paths of
    TestExitKernel."""
    step = TestExitKernel.STEP
    sampler = BrownianMotion(dt=0.01, horizon=4.0, seed=31)
    paths = []
    for i in range(3):
        p = sampler.sample(i)
        paths += [p, negate(p), reflect_at_time(p, 1.3),
                  reflect_at_rule(p, TwoSidedHit(1, 1)),
                  ladder_trace(1, 2, p, 4).path,
                  FirstPassage(F(1, 2)).observe(p)[1]]
    for lead in (0, 1):
        paths += [unit_grid([0.0] * lead + [step] * 2100),
                  unit_grid([1.0] + [0.0] * lead + [step] * 2100)]
    inc = [0.0] * 6000
    inc[2999] = 1.0 - 2.0 ** -40
    inc[4999] = 1.0
    paths.append(unit_grid(inc, {3000: F(1)}))
    inc = list(inc)
    inc[0] = 1.0
    paths.append(unit_grid(inc, {3000: F(2)}))
    over = 1.0 + 2.0 ** -40
    paths += [unit_grid([over, 1.0], {1: F(1)}),
              unit_grid([-1.0, over, 1.0], {2: F(0)}),
              unit_grid([over, 1.0]), line_to(2.0, 1.0), line_to(-2.0, 1.0),
              Path.zero(3.0)]
    return paths


KERNEL_PATHS = _kernel_paths()

_LEVELS = st.sampled_from([F(0), F(1), F(-1), F(1, 2), F(-3, 2), F(2),
                           F(1) - F(1, 4096), 0.0, 0.75, -0.5, 1.0])
_BARRIERS = st.sampled_from([F(1), F(2), F(1, 2), F(3), 1.5, 1.0])
_LADDERS = st.sampled_from([(1, 2), (2, 1), (2, 3), (1, 5)])


def _mixtures(rules):
    """Both kinds of partition: a time comparison and the sign at a time."""
    def by_time(s, t):
        return Mixture(((s, TimeCompare(s, t, "le")),
                        (t, TimeCompare(s, t, "gt"))))

    def by_sign(s, t, u):
        return Mixture(((s, SignAtTime(u, "pos", unobserved_matches=True)),
                        (t, SignAtTime(u, "neg")),
                        (s, SignAtTime(u, "zero"))))

    return st.one_of(st.builds(by_time, rules, rules),
                     st.builds(by_sign, rules, rules, rules))


GRAMMAR_RULES = st.recursive(
    st.one_of(
        st.sampled_from([0.0, 0.5, 1.0, 1.3, 2.5, 2048.25, 7.0]).map(FixedTime),
        _LEVELS.map(FirstPassage),
        st.builds(TwoSidedHit, _BARRIERS, _BARRIERS),
        st.builds(lambda ab, n: LadderStep(*ab, n), _LADDERS,
                  st.integers(0, 4))),
    lambda rules: st.one_of(st.builds(MinOf, rules, rules),
                            st.builds(MaxOf, rules, rules),
                            st.builds(ComposeReflect, rules, rules),
                            _mixtures(rules)),
    max_leaves=4)


class TestEvaluateMatchesObserve:
    @given(GRAMMAR_RULES, st.sampled_from(range(len(KERNEL_PATHS))))
    @settings(max_examples=300, deadline=None)
    def test_evaluate_is_observe_time_bit_for_bit(self, rule, k):
        p = KERNEL_PATHS[k]
        t, _ = rule.observe(p)
        # a fresh copy holds no memo, so evaluate scans it
        assert rule.evaluate(_fresh(p)).hex() == float(t).hex()

    @pytest.mark.parametrize("rule", [
        FixedTime(0.25),
        FirstPassage(F(1)),
        FirstPassage(0.75),
        TwoSidedHit(1, 1),
        MinOf(FirstPassage(F(1)), FixedTime(0.75)),
        MaxOf(FirstPassage(F(1)), FixedTime(0.75)),
        Mixture(((FirstPassage(F(1)),
                  TimeCompare(FirstPassage(F(1)), FixedTime(0.75), "le")),
                 (FixedTime(0.75),
                  TimeCompare(FirstPassage(F(1)), FixedTime(0.75), "gt")))),
    ])
    def test_evaluate_inserts_no_knot(self, rule, monkeypatch):
        from reflectlab.path import _KnotInsertion

        def refuse(*args, **kwargs):
            raise AssertionError("knot inserted")

        p = line_to(2.0, 1.0)  # every rule here stops inside the segment
        expected = rule.evaluate(p)
        # every knot insertion, insert_knot's and a passage pin's, goes
        # through this method
        monkeypatch.setattr(_KnotInsertion, "insert", refuse)
        assert rule.evaluate(p) == expected
        with pytest.raises(AssertionError, match="knot inserted"):
            rule.observe(p)  # observe pins, so the patch is live


def _fresh(p):
    """An equal path built anew: no values cache and no pinned passages."""
    return Path(p.knots, p.increments, p.anchors)


def _same_bits(p, q):
    return (p.knots.tobytes() == q.knots.tobytes()
            and p.increments.tobytes() == q.increments.tobytes()
            and sorted(p.anchors.items()) == sorted(q.anchors.items()))


class TestPassageMemo:
    @pytest.mark.parametrize("rule", [FirstPassage(F(1)), FirstPassage(-0.5),
                                      TwoSidedHit(1, 2), FirstPassage(F(50))])
    def test_level_rule_scanned_once_per_path(self, rule, monkeypatch):
        import reflectlab.stopping

        scans = []
        locate = reflectlab.stopping._locate_exit

        def counting(*args):
            scans.append(args[0])
            return locate(*args)

        monkeypatch.setattr(reflectlab.stopping, "_locate_exit", counting)
        p = BrownianMotion(dt=0.01, horizon=4.0, seed=3).sample(0)
        t, q = rule.observe(p)
        assert rule.observe(p) == (t, q) and rule.observe(p)[1] is q
        assert rule.evaluate(p) == t
        assert rule._observe(p, False)[1] is p  # unpinned: the time only
        reflect_at_rule(p, rule)
        ComposeReflect(FixedTime(0.5), rule).observe(p)
        TimeCompare(rule, FixedTime(1.0), "le").holds(p)
        MinOf(rule, FixedTime(3.0)).evaluate(p)
        assert [s is p for s in scans] == [True]
        # evaluate fills the memo with the exit, and observe pins from it
        fresh = _fresh(p)
        assert rule.evaluate(fresh) == rule.evaluate(fresh) == t
        assert len(scans) == 2
        assert _same_bits(rule.observe(fresh)[1], q)
        assert len(scans) == 2

    @given(GRAMMAR_RULES, st.sampled_from(range(len(KERNEL_PATHS))))
    @settings(max_examples=300, deadline=None)
    def test_memo_served_answer_is_a_fresh_scan(self, rule, k):
        # the kernel paths live across examples, so their memos fill up
        p = KERNEL_PATHS[k]
        t0, q0 = rule.observe(_fresh(p))
        for t, q in (rule.observe(p), rule.observe(p)):
            assert float(t).hex() == float(t0).hex()
            assert _same_bits(q, q0)
        assert rule.evaluate(p).hex() == float(t0).hex()

    @given(GRAMMAR_RULES, st.sampled_from(range(len(KERNEL_PATHS))))
    @settings(max_examples=300, deadline=None)
    def test_pin_from_unpinned_entry_is_a_fresh_scan(self, rule, k):
        p = KERNEL_PATHS[k]
        t0, q0 = rule.observe(_fresh(p))
        fresh = _fresh(p)
        assert rule.evaluate(fresh).hex() == float(t0).hex()
        t, q = rule.observe(fresh)  # pinned from the stored exits
        assert float(t).hex() == float(t0).hex()
        assert _same_bits(q, q0)

    def test_pinning_an_entry_evicts_no_other(self):
        from reflectlab.stopping import _MEMO_SIZE

        p = line_to(100.0, 1.0)
        rules = [FirstPassage(F(k, 3)) for k in range(1, _MEMO_SIZE + 1)]
        for rule in rules:
            rule.evaluate(p)
        memo = p.__dict__["_passages"]
        keys = list(memo)
        for rule in rules:  # each pin replaces its own entry in place
            rule.observe(p)
            assert list(memo) == keys
        assert all(isinstance(e[2], Path) for e in memo.values())
        # exits and pinned copies mixed: still at most _MEMO_SIZE entries
        for k in range(1, 41):
            FirstPassage(F(k, 7)).evaluate(p)
            FirstPassage(F(k, 5)).observe(p)
            assert len(memo) <= _MEMO_SIZE

    def test_memo_keeps_few_pinned_copies(self):
        import weakref

        from reflectlab.stopping import _MEMO_SIZE

        p = line_to(100.0, 1.0)
        copies = []
        for k in range(1, 41):  # each rule crosses inside the segment
            t, q = FirstPassage(F(k, 3)).observe(p)
            assert q is not p and t == pytest.approx(k / 300)
            copies.append(weakref.ref(q))
            del q
        alive = [c() is not None for c in copies]
        assert sum(alive) <= _MEMO_SIZE
        assert alive[-1]


# --- ladder traces pinned bit for bit ----------------------------------------

def _fractions(xs):
    return " ".join(f"{x.numerator}/{x.denominator}" for x in xs)


def _update_trace_digest(h, tr):
    """Feed every bit of a trace into h: times, directions and exact values,
    then the annotated path's knots, increments and anchors."""
    h.update(",".join(float(t).hex() for t in tr.times).encode())
    h.update(repr(tr.directions).encode())
    h.update(_fractions(tr.anchor_values).encode())
    h.update(tr.path.knots.tobytes())
    h.update(tr.path.increments.tobytes())
    anchors = sorted(tr.path.anchors.items())
    h.update(" ".join(str(j) for j, _ in anchors).encode())
    h.update(_fractions(x for _, x in anchors).encode())


def _retraces(a, b, p, n):
    """The trace of p, then the re-traces of its reflections at tau_0 .. tau_n
    (the finite ones)."""
    tr = ladder_trace(a, b, p, n)
    yield tr
    for t in tr.times:
        if is_observed(t):
            yield ladder_trace(a, b, reflect_at_time(tr.path, t), n)


class TestLadderTraceDigests:
    """sha256 of every output bit of ladder traces on raw, negated and
    anchored draws and on their reflections at each finite ladder time.

    The first-passage pin at 1/2 leaves an anchor off the ladder's grid for
    the integer barriers, and the pins at 1 and at the two-sided exit leave
    anchors on it, which the ladder windows can end at.
    """

    SAMPLERS = {
        "bm": BrownianMotion(dt=1e-3, horizon=4.0, seed=61),
        "ocone": OconeTimeChange(clock="random_rate", dt=1e-3, horizon=4.0,
                                 seed=62),
    }
    BARRIERS = {"1,2": (F(1), F(2)), "1/3,1/2": (F(1, 3), F(1, 2)),
                "2,3": (F(2), F(3)), "1/5,2/7": (F(1, 5), F(2, 7))}
    DIGESTS = {
        ("bm", "1,2"):
            "1f35a0d0fac903cf35dcdcc8437085b6bbb76b031ed18c51885188810ced5a88",
        ("bm", "1/3,1/2"):
            "31b1783d16dc742d3d02fcaf1448b73e4717012301437f449717427f0143b9e0",
        ("bm", "2,3"):
            "eafa5a88788b0d3764b20096be86a6cac0126555bde913afb6799e53c0921dfa",
        ("bm", "1/5,2/7"):
            "2e212e4c0a3a382cef6e47c8adc795588871b59e2c19a6bdcdb273c2d0a128cc",
        ("ocone", "1,2"):
            "4fcc36b0c9b8273675d291fa5fb599232fdd207fe10335cf76111c058be7123f",
        ("ocone", "1/3,1/2"):
            "051fe62237d3625b3f72053a986003f24de6b29e0c688e9a0a8603e925901aee",
        ("ocone", "2,3"):
            "51f9baa6646c27651a284f65b3e0a4cea8423fb079454d8645d7081b1d8ec607",
        ("ocone", "1/5,2/7"):
            "c2689e337966b7ff30f0d56cf9ea0657e51e484bce9d5bfd0965e605e38e84f3",
    }

    @staticmethod
    def digest(sampler, a, b, draws=10, n=6):
        h = hashlib.sha256()
        for i in range(draws):
            p = sampler.sample(i)
            for q in (p, negate(p), FirstPassage(F(1, 2)).observe(p)[1],
                      FirstPassage(F(1)).observe(p)[1],
                      TwoSidedHit(a, b).observe(p)[1]):
                for tr in _retraces(a, b, q, n):
                    _update_trace_digest(h, tr)
        return h.hexdigest()

    @pytest.mark.parametrize("law,barriers", sorted(DIGESTS))
    def test_pinned(self, law, barriers):
        a, b = self.BARRIERS[barriers]
        assert (self.digest(self.SAMPLERS[law], a, b)
                == self.DIGESTS[law, barriers])

    def test_all_crossings_in_one_segment(self):
        # the path rises by 10 over the first unit, so the six unit ladder
        # steps all cross inside segment (0, 1)
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([10.0, -3.0]))
        tr = ladder_trace(1, 2, p, 6)
        assert tr.directions == (1,) * 6
        assert tr.anchor_values == tuple(F(k) for k in range(7))
        assert tr.path.knots.size == 9
        assert tr.path.anchors == {k: F(k) for k in range(1, 7)}
        for k in range(1, 7):
            assert tr.path.knots[k] == tr.times[k]
        h = hashlib.sha256()
        for t in _retraces(1, 2, p, 6):
            _update_trace_digest(h, t)
        assert h.hexdigest() == ("3a48d9c52f5d2e722099013ec715634e"
                                 "53d3c2fc5840c028921422c22373b32a")
