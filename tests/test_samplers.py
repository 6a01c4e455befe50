"""Samplers: reproducibility, law properties, spec strings."""

import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import ks_2samp

from reflectlab import (
    BrownianMotion,
    DriftedBM,
    DyadicCounterexample,
    OconeTimeChange,
    SamplerError,
    StoppedSymmetric,
    TwoSidedHit,
    parse_law,
    value_at,
)


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

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_draws(self, name):
        sampler, digest = self.PINNED[name]
        h = hashlib.sha256()
        for i in range(50):
            p = sampler.sample(i)
            h.update(p.knots.tobytes())
            h.update(p.increments.tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_draws_share_one_read_only_grid(self, name):
        sampler, _ = self.PINNED[name]
        p, q = sampler.sample(0), sampler.sample(1)
        assert p.knots is q.knots
        assert p.increments is not q.increments
        for a in (p.knots, p.increments):
            with pytest.raises(ValueError):
                a[1] = 0.5
