"""Samplers: reproducibility, law properties, spec strings."""

import dataclasses
import hashlib
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from reflectlab import (
    BrownianMotion,
    DriftedBM,
    DyadicCounterexample,
    OconeTimeChange,
    RuleError,
    SamplerError,
    StoppedSymmetric,
    TwoSidedHit,
    parse_law,
    parse_rule,
    value_at,
)
from reflectlab.samplers import _LAW_BUILDERS, _generators, _seed_words


class TestReproducibility:
    @pytest.mark.parametrize("sampler", [
        BrownianMotion(dt=0.05, horizon=2.0, seed=5),
        DriftedBM(0.3, dt=0.05, horizon=2.0, seed=5),
        DyadicCounterexample(horizon=4.0, seed=5),
        StoppedSymmetric(level=1, dt=0.05, horizon=2.0, seed=5),
        OconeTimeChange(clock="random_rate", dt=0.05, horizon=2.0, seed=5),
    ])
    def test_same_seed_index_bit_identical(self, sampler):
        p, q = sampler.sample(3), sampler.sample(3)
        assert p == q
        assert sampler.sample(4) != p

    @pytest.mark.parametrize("sampler", [
        BrownianMotion(dt=0.05, horizon=2.0, seed=5),
        DriftedBM(0.3, dt=0.05, horizon=2.0, seed=5),
        OconeTimeChange(clock="identity", dt=0.05, horizon=2.0, seed=5),
        OconeTimeChange(clock="random_rate", dt=0.05, horizon=2.5, seed=5),
    ])
    def test_block_rows_are_the_draws_bit_for_bit(self, sampler):
        knots, inc = sampler._rows(range(7, 30))
        for r, row in enumerate(inc):
            p = sampler.sample(7 + r)
            assert p.knots is knots
            assert row.tobytes() == p.increments.tobytes()

    def test_distinct_seeds_differ(self):
        a = BrownianMotion(dt=0.05, horizon=2.0, seed=1).sample(0)
        b = BrownianMotion(dt=0.05, horizon=2.0, seed=2).sample(0)
        assert a != b


class TestSeedHash:
    """The block hash is numpy's SeedSequence, bit for bit."""

    # every bit length up to 200, so seeds of one to seven words (past the
    # pool of four) are all drawn
    @given(seed=st.integers(0, 200).flatmap(
               lambda bits: st.integers(2**bits >> 1, 2**bits - 1)),
           extra=st.lists(st.integers(0, 2**70), max_size=6),
           stream=st.sampled_from([0, 1]))
    @example(seed=2**130 + 64, extra=[], stream=1)
    @settings(max_examples=60, deadline=None)
    def test_rows_are_seed_sequence_states(self, seed, extra, stream):
        # one-word indices go through the elementwise block hash, the
        # wider ones row by row; a lone index is a block of one
        narrow = [0, 7, 2**32 - 1] + [i for i in extra if i < 2**32]
        for indices in (narrow, [0, 2**32 - 1, 2**32, 2**64 + 5, *extra],
                        [extra[0] if extra else 3]):
            words = _seed_words(seed, indices, stream)
            assert words.dtype == np.uint64 and words.shape == (
                len(indices), 4)
            for row, i in zip(words, indices):
                ss = np.random.SeedSequence(seed, spawn_key=(i, stream))
                assert row.tolist() == ss.generate_state(4, np.uint64).tolist()
        for i, rng in zip(narrow, _generators(seed, narrow, stream)):
            ref = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(i, stream)))
            assert (rng.standard_normal(50).tobytes()
                    == ref.standard_normal(50).tobytes())
            assert rng.integers(0, 2, size=2).tolist() == \
                ref.integers(0, 2, size=2).tolist()


_LAWS = [
    lambda seed: BrownianMotion(dt=0.05, horizon=2.0, seed=seed),
    lambda seed: DriftedBM(0.3, dt=0.05, horizon=2.0, seed=seed),
    lambda seed: OconeTimeChange(clock="random_rate", dt=0.05, horizon=2.0,
                                 seed=seed),
    lambda seed: DyadicCounterexample(horizon=4.0, seed=seed),
    lambda seed: StoppedSymmetric(level=1, dt=0.05, horizon=2.0, seed=seed),
]


class TestSeedValidation:
    @pytest.mark.parametrize("law", range(len(_LAWS)))
    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, True, False,
                                      np.float64(2.0)])
    def test_bad_seed_rejected_at_construction(self, law, seed):
        # -1, 1.5 and "3" used to fail only at the first draw (maybe in a
        # pool worker), and None drew fresh OS entropy on every call
        with pytest.raises(SamplerError, match="seed"):
            _LAWS[law](seed)
        with pytest.raises(SamplerError, match="seed"):
            dataclasses.replace(_LAWS[law](0), seed=seed)

    @pytest.mark.parametrize("law", range(len(_LAWS)))
    def test_index_like_seed_stored_as_int(self, law):
        sampler = _LAWS[law](np.uint64(2**63 + 5))
        assert type(sampler.seed) is int
        assert sampler == _LAWS[law](2**63 + 5)
        assert sampler.sample(2) == _LAWS[law](2**63 + 5).sample(2)

    def test_negative_index_rejected(self):
        with pytest.raises(SamplerError):
            BrownianMotion(dt=0.05, horizon=2.0, seed=1).sample(-1)


class TestParameterValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(SamplerError):
            BrownianMotion(dt=0.0, horizon=1.0).sample(0)
        with pytest.raises(SamplerError):
            BrownianMotion(dt=0.1, horizon=-1.0).sample(0)
        with pytest.raises(SamplerError):
            DyadicCounterexample(horizon=0.5)
        with pytest.raises(SamplerError):
            OconeTimeChange(clock="warp")
        with pytest.raises(SamplerError,
                           match="horizon must cover at least one step"):
            BrownianMotion(dt=1.0, horizon=0.4).sample(0)

    @pytest.mark.parametrize("spec", [
        "bm(dt=nan,T=2)", "bm(dt=0.01,T=inf)", "bm(dt=inf,T=2)",
        "drift(nan,dt=0.01,T=2)", "drift(inf,dt=0.01,T=2)",
        "counterexample(T=nan)", "counterexample(T=inf)",
        "ocone(clock=identity,dt=0.01,T=nan)",
        "stopped(level=nan,dt=0.01,T=2)", "stopped(level=inf,dt=0.01,T=2)",
        "stopped(level=1,dt=nan,T=2)",
    ])
    def test_rejects_non_finite_at_construction(self, spec):
        # a NaN stopping level used to give a 2-knot path frozen at 0
        with pytest.raises(SamplerError):
            parse_law(spec)

    def test_rejects_dt_not_dividing_horizon(self):
        # 1 / 0.3 would round to a grid of 1/3, unlike the recorded dt
        with pytest.raises(SamplerError):
            BrownianMotion(dt=0.3, horizon=1.0).sample(0)
        with pytest.raises(SamplerError):
            parse_law("ocone(clock=random_rate,dt=0.3,T=1)").sample(0)
        assert BrownianMotion(dt=0.1, horizon=0.3).sample(0).knots.size == 4

    @pytest.mark.parametrize("build", [
        lambda: BrownianMotion(dt=1e-12, horizon=1.0),
        lambda: parse_law("drift(0.5,dt=1e-12,T=1)"),
        lambda: parse_law("ocone(clock=identity,dt=1e-12,T=1)"),
    ], ids=["bm", "drift", "ocone"])
    def test_grid_too_large_rejected(self, build):
        # NumPy's "Unable to allocate 7.28 TiB" used to escape as a traceback
        with pytest.raises(SamplerError,
                           match="a grid of 1000000000001 knots"):
            build()


class TestBrownianMoments:
    def test_marginal_mean_and_variance(self):
        n = 20_000
        sampler = BrownianMotion(dt=0.1, horizon=2.0, seed=77)
        t = 2.0
        xs = np.array([value_at(sampler.sample(i), t) for i in range(n)])
        se_mean = math.sqrt(t / n)
        assert abs(xs.mean()) <= 4 * se_mean
        var = xs.var(ddof=1)
        se_var = t * math.sqrt(2.0 / (n - 1))
        assert abs(var - t) <= 4 * se_var


class TestCounterexample:
    def test_unit_exit_time_is_one_on_every_draw(self):
        sampler = DyadicCounterexample(horizon=5.0, seed=6)
        rule = TwoSidedHit(1, 1)
        assert all(rule.evaluate(sampler.sample(i)) == 1.0
                   for i in range(300))

    def test_value_at_two_distribution(self):
        # value at t=2 is xi + eta: -2, 0, 2 with probabilities 1/4, 1/2, 1/4
        n = 8000
        sampler = DyadicCounterexample(horizon=5.0, seed=8)
        counts = Counter(value_at(sampler.sample(i), 2.0) for i in range(n))
        assert set(counts) == {-2.0, 0.0, 2.0}
        for v, prob in ((-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)):
            se = math.sqrt(prob * (1 - prob) / n)
            assert abs(counts[v] / n - prob) <= 4 * se

    def test_wide_exit_mean(self):
        # value at the exit of (-2, 3) is uniform on {-2, 3}: mean 1/2
        n = 4000
        sampler = DyadicCounterexample(horizon=5.0, seed=9)
        rule = TwoSidedHit(2, 3)
        xs = []
        for i in range(n):
            p = sampler.sample(i)
            t, annotated = rule.observe(p)
            xs.append(value_at(annotated, t))
        xs = np.array(xs)
        assert set(np.unique(xs)) == {-2.0, 3.0}
        se = xs.std(ddof=1) / math.sqrt(n)
        assert abs(xs.mean() - 0.5) <= 4 * se


class TestStoppedSymmetric:
    def test_frozen_at_barrier(self):
        sampler = StoppedSymmetric(level=1, dt=0.01, horizon=6.0, seed=10)
        for i in range(20):
            p = sampler.sample(i)
            assert np.max(np.abs(p.values)) <= 1.0
            hit = TwoSidedHit(1, 1).evaluate(p)
            if hit < p.horizon:
                assert abs(value_at(p, p.horizon)) == 1.0

    def test_pinned_draws(self):
        # knots, increments and anchors of 200 draws (195 of them stopped
        # before the horizon), pinned so that the stopped-path construction
        # keeps every bit
        sampler = StoppedSymmetric(level=1, dt=0.02, horizon=4.0, seed=52)
        h = hashlib.sha256()
        for i in range(200):
            p = sampler.sample(i)
            h.update(p.knots.tobytes())
            h.update(p.increments.tobytes())
            h.update(repr(sorted(p.anchors.items())).encode())
        assert h.hexdigest() == ("494391adf2d705524db25b739428840a"
                                 "6b9f7cef843c78000b1eac7d3622ff35")


class TestOcone:
    def test_identity_clock_is_brownian(self):
        # same grid, same seed stream: the identity clock reproduces the
        # Brownian sampler draw for draw
        oc = OconeTimeChange(clock="identity", dt=0.05, horizon=2.0, seed=3)
        bm = BrownianMotion(dt=0.05, horizon=2.0, seed=3)
        assert oc.sample(5) == bm.sample(5)

    def test_identity_clock_marginal_ks(self):
        n = 3000
        oc = OconeTimeChange(clock="identity", dt=0.1, horizon=1.0, seed=4)
        bm = BrownianMotion(dt=0.1, horizon=1.0, seed=99)
        xs = np.array([value_at(oc.sample(i), 1.0) for i in range(n)])
        ys = np.array([value_at(bm.sample(i), 1.0) for i in range(n)])
        assert ks_2samp(xs, ys).pvalue > 1e-3

    def test_random_rate_clock_nondecreasing_variance(self):
        oc = OconeTimeChange(clock="random_rate", dt=0.05, horizon=3.0, seed=5)
        p = oc.sample(0)
        assert p.knots.size == 61
        assert np.isfinite(p.values).all()


class TestLawGrammar:
    def test_round_trips(self):
        assert parse_law("bm(dt=1e-3,T=10)", seed=2) == BrownianMotion(
            dt=1e-3, horizon=10.0, seed=2)
        assert parse_law("drift(0.5)", seed=2) == DriftedBM(
            drift=0.5, seed=2)
        assert parse_law("counterexample(T=4)", seed=2) == \
            DyadicCounterexample(horizon=4.0, seed=2)
        assert parse_law("ocone(clock=random_rate,T=3)", seed=2) == \
            OconeTimeChange(clock="random_rate", horizon=3.0, seed=2)
        assert parse_law("stopped(level=1/2,T=4)", seed=2) == \
            StoppedSymmetric(level=Fraction(1, 2), horizon=4.0, seed=2)

    @pytest.mark.parametrize("bad", ["", "bm", "warp(1)", "bm(dt=x)",
                                     "bm(1,2,3,4)"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SamplerError):
            parse_law(bad)

    # the error of every malformed spec in the reject lists of this file
    @pytest.mark.parametrize("bad,message", [
        ("", "cannot parse law ''"),
        ("bm", "cannot parse law 'bm'"),
        ("warp(1)", "unknown law 'warp'"),
        ("bm(dt=x)", "bad value 'x' for 'dt' in 'bm(dt=x)'"),
        ("bm(1,2,3,4)", "too many positional args in 'bm(1,2,3,4)'"),
        ("bm(dt=0.01,T=inf)", "dt and horizon must be positive and finite"),
        ("drift(nan,dt=0.01,T=2)", "drift must be finite, got nan"),
        ("counterexample(T=inf)",
         "horizon must be finite and exceed the first segment (1.0)"),
        ("ocone(clock=identity,dt=0.01,T=nan)",
         "dt and horizon must be positive and finite"),
        ("stopped(level=nan,dt=0.01,T=2)",
         "bad stopping level: level must be finite, got nan"),
        ("stopped(level=1,dt=nan,T=2)",
         "dt and horizon must be positive and finite"),
    ])
    def test_reject_messages(self, bad, message):
        with pytest.raises(SamplerError) as info:
            parse_law(bad)
        assert type(info.value) is SamplerError
        assert str(info.value) == message

    @pytest.mark.parametrize("bad,message", [
        # every unknown key used to be parsed as a float and passed on
        ("bm(seed=3)", "unknown argument 'seed' of 'bm'"),
        ("bm(mu=0.5)", "unknown argument 'mu' of 'bm'"),
        ("counterexample(dt=0.1)", "unknown argument 'dt' of 'counterexample'"),
        # the last one used to win
        ("bm(dt=0.1,T=1,T=2)", "repeated argument 'T'"),
        ("drift(dt=0.1,0.5)", "repeated argument 'dt'"),
        ("bm(dt=0.1))", "cannot parse law 'bm(dt=0.1))'"),
        ("stopped(level=1/0)", "bad value '1/0' for 'level'"),
    ])
    def test_rejects_bad_arguments(self, bad, message):
        with pytest.raises(SamplerError, match=re.escape(message)):
            parse_law(bad)

    def test_accepts_field_names(self):
        assert parse_law("bm(horizon=2,dt=0.5)") == BrownianMotion(
            dt=0.5, horizon=2.0)
        assert parse_law("drift(drift=0.5)") == DriftedBM(drift=0.5)

    def test_empty_call_takes_the_defaults(self):
        assert parse_law("bm()") == BrownianMotion()
        assert parse_law("counterexample( )") == DyadicCounterexample()

    # sampler field -> (its value in a spec, the value parsed), each unlike
    # the field's default
    FIELD_VALUES = {"dt": ("0.5", 0.5), "horizon": ("2", 2.0),
                    "drift": ("0.25", 0.25),
                    "clock": ("random_rate", "random_rate"),
                    "level": ("1/2", Fraction(1, 2))}

    @pytest.mark.parametrize("name", sorted(_LAW_BUILDERS))
    def test_position_spec_name_and_field_name_agree(self, name):
        _, rows = _LAW_BUILDERS[name]
        given = [(arg, field, self.FIELD_VALUES[field][0])
                 for arg, field, _ in rows]
        by_position = ",".join(value for _, _, value in given)
        # the named forms in reverse order, so the names place the values
        by_arg = ",".join(f"{arg}={value}" for arg, _, value in given[::-1])
        by_field = ",".join(f"{field}={value}"
                            for _, field, value in given[::-1])
        laws = [parse_law(f"{name}({args})", seed=3)
                for args in (by_position, by_arg, by_field)]
        assert laws[0] == laws[1] == laws[2]
        for _, field, _ in rows:
            assert getattr(laws[0], field) == self.FIELD_VALUES[field][1]


#: grammar -> (its parser, its error)
_GRAMMARS = {"rule": (parse_rule, RuleError), "law": (parse_law, SamplerError)}


def _assert_names_the_spec(what, spec):
    parse, error = _GRAMMARS[what]
    with pytest.raises(error) as info:
        parse(spec)
    assert str(info.value) == f"cannot parse {what} {spec.strip()!r}"


class TestSpecLexer:
    # each used to run with its empty argument dropped: bm(,2) as bm(dt=2)
    @pytest.mark.parametrize("what, spec", [
        ("law", "bm(,2)"), ("law", "bm(dt=0.1,)"), ("law", "bm(,)"),
        ("rule", "Tpm(1,,2)"), ("rule", "min(hit(1),,fixed(1))"),
        ("rule", "hit(,)"),
    ])
    def test_empty_argument_rejected(self, what, spec):
        _assert_names_the_spec(what, spec)

    @pytest.mark.parametrize("what, spec", [
        ("rule", "hit(1))"),  # named '1)' only
        ("rule", "Tpm(1,2"),
        ("rule", "min(hit(1),hit(2)"),  # named 'hit(2' only
        ("law", "bm(dt=0.1))"),
        ("law", " bm(dt=0.1)) "),
        ("law", "bm(dt=(0.1)"),  # a bad value '(0.1' for 'dt'
    ])
    def test_unbalanced_parentheses_name_the_whole_spec(self, what, spec):
        _assert_names_the_spec(what, spec)


class TestGridSamplers:
    # sha256 of the knots and increments of 50 draws per sampler, taken
    # before the grid was cached and the increments scaled in place
    PINNED = {
        "bm": (BrownianMotion(dt=0.01, horizon=2.0, seed=61),
               "ed84248845e571a9ed5cfae10e9b60be"
               "db822f128647ce927be9d42ba94954b0"),
        "drift": (DriftedBM(0.5, dt=0.01, horizon=2.0, seed=62),
                  "e9589f46ff526e0db9122c6a298a2bd2"
                  "ff4c1a6c9829de5bc56ceb4d609ba67e"),
        "ocone_identity": (
            OconeTimeChange(clock="identity", dt=0.01, horizon=2.0, seed=63),
            "5fde696d01d70757ab0b4a0d8739c46c"
            "00d8ce6964a1ab222fbf78003d4c36ca"),
        "ocone_random_rate": (
            OconeTimeChange(clock="random_rate", dt=0.01, horizon=2.5,
                            seed=64),
            "360fd7b26375b575231d07d43eccc2cf"
            "53887768de7167e827f27384731f857b"),
    }

    # the same, for seeds of two words and of five (more than the hash's
    # pool of four), and for single draws at indices of one and two words
    WIDE = {
        "bm_two_word_seed": (
            BrownianMotion(dt=0.01, horizon=2.0, seed=2**63 + 61), range(50),
            "f033ac00555fddc9ea2a74d37ecc68db"
            "90058d05947a15cecb0d881e62f2763c"),
        "ocone_five_word_seed": (
            OconeTimeChange(clock="random_rate", dt=0.01, horizon=2.5,
                            seed=2**130 + 64), range(50),
            "49e9bc9efc08a6ca6f8b7141bdd56052"
            "11fc046189d3b476e59e4d999c6445f6"),
        "bm_index_2**32-1": (
            BrownianMotion(dt=0.01, horizon=2.0, seed=61), [2**32 - 1],
            "1736c12d5ed3e64cd3db1ca474d4f4cc"
            "bd255ec208571d284ff95cbd69ac67a0"),
        "bm_index_2**32": (
            BrownianMotion(dt=0.01, horizon=2.0, seed=61), [2**32],
            "62a0688fe4a26bdc029e170aaf9d3c68"
            "46c0f1347d8f20334e8b8126bc2b78ae"),
        "ocone_index_2**32-1": (
            OconeTimeChange(clock="random_rate", dt=0.01, horizon=2.5,
                            seed=64), [2**32 - 1],
            "7b144a1ddf4c4491ea690edc3861b1b9"
            "36cbff8f1306c162626bf51eb0b25e5d"),
        "ocone_index_2**32": (
            OconeTimeChange(clock="random_rate", dt=0.01, horizon=2.5,
                            seed=64), [2**32],
            "dc8cd61e6c33685b685c123f81355053"
            "6af0651055a439fe1e21fcfcccd692cb"),
        "counterexample_wide": (
            DyadicCounterexample(horizon=4.0, seed=2**63 + 5),
            [*range(20), 2**32 - 1, 2**32],
            "d14ed23546f0a3edfbc8ea62e7cc6c5c"
            "02d6e0ec311d581cc50a28c8e9a39957"),
    }

    @staticmethod
    def _digest(sampler, indices):
        h = hashlib.sha256()
        for i in indices:
            p = sampler.sample(i)
            h.update(p.knots.tobytes())
            h.update(p.increments.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_draws(self, name):
        sampler, digest = self.PINNED[name]
        assert self._digest(sampler, range(50)) == digest

    @pytest.mark.parametrize("name", sorted(WIDE))
    def test_pinned_wide_draws(self, name):
        sampler, indices, digest = self.WIDE[name]
        assert self._digest(sampler, indices) == digest

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_draws_share_one_read_only_grid(self, name):
        sampler, _ = self.PINNED[name]
        p, q = sampler.sample(0), sampler.sample(1)
        assert p.knots is q.knots
        assert p.increments is not q.increments
        for a in (p.knots, p.increments):
            with pytest.raises(ValueError):
                a[1] = 0.5
