"""Sign words, the odometer maps and their path conjugations."""

from fractions import Fraction

import numpy as np
import pytest

from reflectlab import (
    NOT_OBSERVED,
    Path,
    RuleError,
    SignWord,
    TwoSidedHit,
    advance_path,
    advance_path_power,
    advance_word,
    all_words,
    exit_alignment_power,
    first_down_index,
    first_zero_index,
    is_observed,
    ladder_trace,
    negate,
    negate_word,
    reflect_at_rule,
    reflect_word,
    rewind_path,
    rewind_word,
    word_after_steps,
)
from reflectlab.samplers import BrownianMotion
from reflectlab.signs import trace_sign_word


def W(*entries):
    return SignWord(entries)


class TestSignWord:
    def test_zero_absorbing_enforced(self):
        with pytest.raises(RuleError):
            SignWord((1, 0, 1))
        with pytest.raises(RuleError):
            SignWord((0, -1))

    def test_entries_domain(self):
        with pytest.raises(RuleError):
            SignWord((1, 2))

    def test_string_round_trip(self):
        w = W(1, -1, 0)
        assert w.to_string() == "+-0"
        assert SignWord.from_string("+-0") == w

    def test_word_space_size(self):
        for n in range(6):
            assert len(list(all_words(n))) == 2 ** (n + 1) - 1


class TestIndexes:
    def test_mixed_word(self):
        assert first_down_index(W(1, -1, 0)) == 2
        assert first_zero_index(W(1, -1, 0)) == 3

    def test_all_plus(self):
        assert first_down_index(W(1, 1, 1)) is None
        assert first_zero_index(W(1, 1, 1)) is None

    def test_down_then_zeros(self):
        assert first_down_index(W(-1, 0, 0)) == 1
        assert first_zero_index(W(-1, 0, 0)) == 2


class TestWordMaps:
    def test_reflect_flips_after_first_down(self):
        assert reflect_word(W(1, -1, 1)) == W(1, -1, -1)

    def test_reflect_identity_without_down(self):
        assert reflect_word(W(1, 1, 0)) == W(1, 1, 0)

    def test_reflect_is_involution(self):
        for w in all_words(6):
            assert reflect_word(reflect_word(w)) == w

    def test_advance_examples(self):
        # one step turns a leading plus into a minus; two steps carry
        for sigma in ((1,), (-1,), (1, 0)):
            e = SignWord((1, 1) + sigma)
            once = advance_word(e)
            assert once == SignWord((-1, 1) + sigma)
            assert advance_word(once) == SignWord((1, -1) + sigma)

    def test_advance_rewind_inverse(self):
        for w in all_words(6):
            assert rewind_word(advance_word(w)) == w
            assert advance_word(rewind_word(w)) == w

    def test_closure_and_bijectivity_exhaustive(self):
        for n in range(8):
            words = list(all_words(n))
            image = {advance_word(w).entries for w in words}
            assert image == {w.entries for w in words}


class TestClosedForm:
    def test_zero_steps_identity(self):
        assert word_after_steps(3, 0, (-1,)) == W(1, 1, 1, -1)

    def test_two_steps_two_digits(self):
        assert word_after_steps(2, 2, (1, 0)) == W(1, -1, 1, 0)

    def test_range_checked(self):
        with pytest.raises(RuleError):
            word_after_steps(2, 4, ())
        with pytest.raises(RuleError):
            word_after_steps(2, -1, ())

    def test_matches_iteration_small(self):
        for n in range(7):
            for sigma in ((1,), (-1,)):
                w = SignWord((1,) * n + sigma)
                for steps in range(2 ** n):
                    assert word_after_steps(n, steps, sigma) == w
                    w = advance_word(w)


class TestAlignmentPower:
    def test_plusses_then_down_is_zero(self):
        for n in (1, 2, 4, 6):
            assert exit_alignment_power(SignWord((1,) * (n - 1) + (-1,))) == 0

    def test_all_zero_word(self):
        assert exit_alignment_power(W(0, 0, 0, 0)) == 0

    def test_single_plus(self):
        assert exit_alignment_power(W(1)) == 1

    def test_full_case_formula(self):
        # digits of the word, least significant first
        assert exit_alignment_power(W(-1, -1)) == 2 - 3
        assert exit_alignment_power(W(1, 1, 1, 1)) == 8

    def test_truncated_case_formula(self):
        assert exit_alignment_power(W(1, 0)) == 0
        assert exit_alignment_power(W(-1, 0)) == -1
        assert exit_alignment_power(W(1, -1, 0)) == -2

    def test_alignment_lands_on_exit_word(self):
        # advancing a full word by its alignment power gives plus^(n-1), -1;
        # a truncated word gives plus^d, zeros
        for w in all_words(5):
            m = exit_alignment_power(w)
            out = w
            step = advance_word if m >= 0 else rewind_word
            for _ in range(abs(m)):
                out = step(out)
            d = first_zero_index(w)
            if d is None:
                assert out == SignWord((1,) * 4 + (-1,))
            else:
                assert out == SignWord((1,) * (d - 1) + (0,) * (6 - d))


class TestExtraction:
    def test_zero_path_all_zero(self):
        tr = ladder_trace(1, 2, Path.zero(3.0), 4)
        assert trace_sign_word(tr) == W(0, 0, 0, 0)

    def test_straight_line_alternating(self):
        p = Path(np.array([0.0, 3.0]), np.array([3.0]))
        assert trace_sign_word(ladder_trace(1, 2, p, 3)) == W(1, -1, 1)

    def test_negation_flips_word(self):
        sampler = BrownianMotion(dt=0.01, horizon=3.0, seed=31)
        for i in range(30):
            tr = ladder_trace(1, 2, sampler.sample(i), 5)
            w = trace_sign_word(tr)
            tr_neg = ladder_trace(1, 2, negate(tr.path), 5)
            assert trace_sign_word(tr_neg) == negate_word(w)

    def test_reflection_applies_reflect_word(self):
        sampler = BrownianMotion(dt=0.01, horizon=3.0, seed=32)
        rule = TwoSidedHit(1, 2)
        for i in range(30):
            tr = ladder_trace(1, 2, sampler.sample(i), 5)
            w = trace_sign_word(tr)
            tr_ref = ladder_trace(1, 2, reflect_at_rule(tr.path, rule), 5)
            assert trace_sign_word(tr_ref) == reflect_word(w)

    def test_advance_conjugation(self):
        sampler = BrownianMotion(dt=0.01, horizon=3.0, seed=33)
        rule = TwoSidedHit(1, 2)
        for i in range(30):
            tr = ladder_trace(1, 2, sampler.sample(i), 5)
            w = trace_sign_word(tr)
            tr_adv = ladder_trace(1, 2, advance_path(tr.path, rule), 5)
            assert trace_sign_word(tr_adv) == advance_word(w)

    def test_advance_rewind_path_inverse(self):
        sampler = BrownianMotion(dt=0.01, horizon=3.0, seed=34)
        rule = TwoSidedHit(1, 2)
        for i in range(10):
            p = sampler.sample(i)
            tr = ladder_trace(1, 2, p, 4)
            round_trip = rewind_path(advance_path(tr.path, rule), rule)
            assert ladder_trace(1, 2, round_trip, 4).times == tr.times


class TestHitIdentity:
    def test_exit_time_is_ladder_time_of_first_down(self):
        sampler = BrownianMotion(dt=0.01, horizon=3.0, seed=35)
        rule = TwoSidedHit(1, 2)
        n = 6
        seen_down = seen_absorbed = False
        for i in range(60):
            tr = ladder_trace(1, 2, sampler.sample(i), n)
            w = trace_sign_word(tr)
            t_exit = rule.evaluate(tr.path)
            m = first_down_index(w)
            if m is not None:
                assert t_exit == tr.times[m]
                seen_down = True
            elif first_zero_index(w) is not None:
                assert t_exit == NOT_OBSERVED
                seen_absorbed = True
            else:
                assert t_exit > tr.times[n]
        assert seen_down and seen_absorbed

    def test_alignment_contract_monte_carlo(self):
        # on each draw, the exit time after advancing by the word's
        # alignment power equals the ladder time of the word's length
        sampler = BrownianMotion(dt=0.02, horizon=3.0, seed=36)
        rule = TwoSidedHit(1, 2)
        n = 3
        for i in range(120):
            tr = ladder_trace(1, 2, sampler.sample(i), n)
            w = trace_sign_word(tr)
            q = advance_path_power(tr.path, rule, exit_alignment_power(w))
            assert rule.evaluate(q) == tr.times[n]
