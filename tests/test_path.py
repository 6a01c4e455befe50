"""Path representation, interpolation and reflections."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectlab import (
    KnotConflictError,
    Path,
    PathError,
    TimeOutOfRangeError,
    dump_csv,
    insert_knot,
    load_csv,
    max_deviation,
    negate,
    reflect_at_time,
    value_at,
)


def line(horizon, slope):
    return Path(np.array([0.0, float(horizon)]),
                np.array([slope * float(horizon)]))


@st.composite
def paths(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    dts = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    dxs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    knots = np.concatenate([[0.0], np.cumsum(np.asarray(dts, dtype=float))])
    return Path(knots, np.asarray(dxs, dtype=float))


class TestPathInvariants:
    def test_first_knot_must_be_zero(self):
        with pytest.raises(PathError):
            Path(np.array([1.0, 2.0]), np.array([1.0]))

    def test_knots_strictly_increasing(self):
        with pytest.raises(PathError):
            Path(np.array([0.0, 2.0, 2.0]), np.array([1.0, 1.0]))

    def test_increment_length(self):
        with pytest.raises(PathError):
            Path(np.array([0.0, 1.0]), np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(PathError):
            Path(np.array([0.0, 1.0]), np.array([np.nan]))
        with pytest.raises(PathError):
            Path(np.array([0.0, 1.0]), np.array([np.inf]))

    def test_values_are_prefix_sums(self):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0]))
        assert p.values.tolist() == [0.0, 1.0, 0.0]

    def test_immutability(self):
        p = line(1.0, 1.0)
        with pytest.raises(ValueError):
            p.increments[0] = 7.0


class TestValueAt:
    def test_zero_path_is_zero_everywhere(self):
        p = Path.zero(3.0)
        for t in (0.0, 0.7, 1.5, 3.0):
            assert value_at(p, t) == 0.0

    def test_prefix_sum_at_knot(self):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0]))
        assert value_at(p, 1.0) == 1.0

    def test_linear_interpolation(self):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0]))
        assert value_at(p, 0.5) == 0.5

    def test_out_of_range(self):
        p = line(1.0, 1.0)
        with pytest.raises(TimeOutOfRangeError):
            value_at(p, -0.1)
        with pytest.raises(TimeOutOfRangeError):
            value_at(p, 1.1)


class TestInsertKnot:
    def test_idempotent_at_existing_knot(self):
        p = Path(np.array([0.0, 1.0]), np.array([1.0]))
        q, idx = insert_knot(p, 1.0, 1.0)
        assert q is p and idx == 1

    def test_splits_linearly(self):
        p = Path(np.array([0.0, 2.0]), np.array([2.0]))
        q, idx = insert_knot(p, 1.0, 1.0)
        assert idx == 1
        assert q.knots.tolist() == [0.0, 1.0, 2.0]
        assert q.increments.tolist() == [1.0, 1.0]

    def test_conflicting_value_at_existing_knot(self):
        p = Path(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(KnotConflictError):
            insert_knot(p, 1.0, 0.5)

    def test_inconsistent_interior_value(self):
        p = Path(np.array([0.0, 2.0]), np.array([2.0]))
        with pytest.raises(KnotConflictError):
            insert_knot(p, 1.0, 3.0)

    def test_crossing_knot_reflects_to_exact_level(self):
        # pin a crossing knot to the exact level a, reflect there: the value
        # at the pivot must remain exactly a (2a - a = a)
        a = 0.7
        p = line(1.0, 2.0)  # crosses a at t = 0.35
        t_star = a / 2.0
        q = insert_knot(p, t_star, a)[0]
        r = reflect_at_time(q, t_star)
        assert value_at(r, t_star) == a
        assert value_at(q, t_star) == a


class TestReflectAtTime:
    def test_at_zero_is_negation(self):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5]))
        q = reflect_at_time(p, 0.0)
        assert q.increments.tolist() == [-1.0, -0.5]
        for t in (0.0, 0.3, 1.0, 2.0):
            assert value_at(q, t) == -value_at(p, t)
        assert negate(p) == q

    def test_flips_suffix_at_middle_knot(self):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0]))
        q = reflect_at_time(p, 1.0)
        assert q.increments.tolist() == [1.0, -1.0]

    def test_twice_is_identity_bit_exact(self):
        rng = np.random.default_rng(0)
        knots = np.concatenate([[0.0], np.cumsum(rng.uniform(0.1, 1.0, 50))])
        p = Path(knots, rng.standard_normal(50))
        r = float(knots[17])
        assert reflect_at_time(reflect_at_time(p, r), r) == p

    def test_twice_at_inserted_time_same_function(self):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([2.0, -1.0]))
        q = reflect_at_time(reflect_at_time(p, 0.5), 0.5)
        assert q.horizon == p.horizon
        assert max_deviation(q, p) <= 1e-9
        # and bit-exact against the path with the pivot knot inserted
        p1 = insert_knot(p, 0.5, value_at(p, 0.5))[0]
        assert q == p1

    def test_value_identity_after_pivot(self):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([2.0, -1.0]))
        q = reflect_at_time(p, 1.0)
        pivot = value_at(p, 1.0)
        for t in (1.0, 1.5, 2.0):
            assert math.isclose(value_at(q, t), 2 * pivot - value_at(p, t),
                                rel_tol=1e-12)

    @given(paths(), st.integers(0, 8))
    @settings(max_examples=150, deadline=None)
    def test_involution_property(self, p, k):
        r = float(p.knots[k % p.knots.size])
        assert reflect_at_time(reflect_at_time(p, r), r) == p

    @given(paths(), st.integers(0, 8))
    @settings(max_examples=100, deadline=None)
    def test_prefix_preserved(self, p, k):
        r = float(p.knots[k % p.knots.size])
        q = reflect_at_time(p, r)
        keep = p.knots <= r
        assert np.array_equal(q.values[keep], p.values[keep])


class TestDeviation:
    def test_identical(self):
        p = line(2.0, 1.5)
        assert max_deviation(p, p) == 0.0

    def test_known_difference(self):
        p = Path.zero(2.0)
        q = Path(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0]))
        assert max_deviation(p, q) == 1.0


class TestCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        p = Path(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1, 40))]),
                 rng.standard_normal(40))
        buf = io.StringIO()
        dump_csv(p, buf)
        buf.seek(0)
        q = load_csv(buf)
        assert np.array_equal(q.knots, p.knots)
        assert q.horizon == p.horizon
        scale = max(1.0, float(np.max(np.abs(p.values))))
        assert max_deviation(p, q) <= 1e-12 * scale

    def test_zero_path_exact(self):
        buf = io.StringIO()
        dump_csv(Path.zero(1.0), buf)
        buf.seek(0)
        assert load_csv(buf) == Path.zero(1.0)

    def test_rejects_bad_header(self):
        with pytest.raises(PathError):
            load_csv(io.StringIO("a,b\n0.0,0.0\n"))
