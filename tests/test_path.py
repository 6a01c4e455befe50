"""Path representation, interpolation and reflections."""

import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectlab import (
    BrownianMotion,
    KnotConflictError,
    Path,
    PathError,
    StoppedSymmetric,
    TimeOutOfRangeError,
    TwoSidedHit,
    dump_csv,
    insert_knot,
    ladder_trace,
    load_csv,
    max_deviation,
    negate,
    reflect_at_rule,
    reflect_at_time,
    value_at,
)
from reflectlab.path import _KnotInsertion


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

    def test_anchored_copy_shares_arrays(self):
        p = Path(np.array([0.0, 1.0]), np.array([1.0]))
        q, idx = insert_knot(p, 1.0, 1.0, Fraction(1))
        assert idx == 1 and q.anchors == {1: Fraction(1)} and p.anchors == {}
        assert q.knots is p.knots and q.increments is p.increments
        assert insert_knot(q, 1.0, 1.0, Fraction(1))[0] is q

    def test_conflicting_value_at_existing_knot(self):
        p = Path(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(KnotConflictError):
            insert_knot(p, 1.0, 0.5)

    def test_inconsistent_interior_value(self):
        p = Path(np.array([0.0, 2.0]), np.array([2.0]))
        with pytest.raises(KnotConflictError):
            insert_knot(p, 1.0, 3.0)

    def test_fraction_time_finds_the_knot_at_its_float(self):
        p = BrownianMotion(dt=0.1, horizon=1.0, seed=1).sample(0)
        q, i = insert_knot(p, Fraction(1, 3), value_at(p, 1 / 3))
        r, j = insert_knot(q, Fraction(1, 3), value_at(p, 1 / 3))
        assert r is q and i == j and r.knots.size == 12
        assert q.knots[i] == 1 / 3

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


@st.composite
def insertions(draw):
    """A path with an anchor, and knot insertions in time order: at old
    knots, twice at one time, several in one segment, with values on,
    near and off the segment."""
    p = draw(paths())
    p = Path(p.knots, p.increments, {int(p.knots.size // 2): Fraction(1, 3)})
    cuts = sorted(draw(st.lists(st.integers(0, 16), min_size=1, max_size=6)))
    times = [float(p.horizon) * c / 16 for c in cuts]
    shifts = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-12, 0.5, -3.0]),
                           min_size=len(times), max_size=len(times)))
    exacts = draw(st.lists(st.sampled_from([None, Fraction(1), Fraction(2)]),
                           min_size=len(times), max_size=len(times)))
    return p, list(zip(times, shifts, exacts))


class TestKnotInsertion:
    @given(insertions())
    @settings(max_examples=300, deadline=None)
    def test_matches_chained_insert_knot(self, case):
        # the one-copy insertion against insert_knot applied one at a time
        p, cuts = case
        ref, ins = p, _KnotInsertion(p)
        for t, shift, exact in cuts:
            v = value_at(ref, t) + shift
            try:
                ref, index = insert_knot(ref, t, v, exact)
            except KnotConflictError:
                with pytest.raises(KnotConflictError):
                    ins.insert(t, v, exact)
                return
            assert ins.insert(t, v, exact) == index
        q = ins.path()
        assert q.knots.tobytes() == ref.knots.tobytes()
        assert q.increments.tobytes() == ref.increments.tobytes()
        assert q.anchors == ref.anchors
        assert not q.knots.flags.writeable
        assert not q.increments.flags.writeable


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

    def test_twice_at_fraction_time(self):
        # the second reflection finds the knot the first one inserted
        p = BrownianMotion(dt=0.1, horizon=1.0, seed=1).sample(0)
        q = reflect_at_time(reflect_at_time(p, Fraction(1, 3)), Fraction(1, 3))
        Path(q.knots, q.increments, q.anchors)  # strictly increasing knots
        assert q == reflect_at_time(reflect_at_time(p, 1 / 3), 1 / 3)
        assert q.knots.size == 12

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


@st.composite
def anchored_paths(draw):
    """A path of paths() with exact anchors on some of its knots: its
    values are integers, so each anchor is the knot's value exactly."""
    p = draw(paths())
    marked = draw(st.lists(st.booleans(), min_size=p.knots.size,
                           max_size=p.knots.size))
    anchors = {j: Fraction(int(v)) for j, (v, m)
               in enumerate(zip(p.values, marked)) if j and m}
    return Path(p.knots, p.increments, anchors)


def _pivot(p, where, k):
    """A pivot time of p: a knot, a time between two knots, 0 or the
    horizon."""
    k %= p.knots.size - 1
    if where == "knot":
        return float(p.knots[k + 1])
    if where == "between":
        return float(p.knots[k] + p.knots[k + 1]) / 2
    return 0.0 if where == "zero" else p.horizon


def _same_bits(p, q):
    return (p.knots.tobytes() == q.knots.tobytes()
            and p.increments.tobytes() == q.increments.tobytes()
            and sorted(p.anchors.items()) == sorted(q.anchors.items()))


def _anew(p):
    return Path(p.knots, p.increments, p.anchors)


class TestReflectionMemo:
    @given(anchored_paths(), st.lists(
        st.tuples(st.sampled_from(["knot", "between", "zero", "horizon"]),
                  st.integers(0, 8)), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_memoized_reflection_is_a_fresh_one(self, p, pivots):
        # one path object reflected at up to 12 pivots, so its memo also
        # drops entries; each answer, new or served, is the reflection of
        # an equal path built anew, byte for byte
        for where, k in pivots:
            r = _pivot(p, where, k)
            q = reflect_at_time(p, r)
            assert reflect_at_time(p, r) is q
            fresh = reflect_at_time(_anew(p), r)
            assert _same_bits(q, fresh)
            # an exact pivot (knot 0, or an anchored knot) remaps the
            # anchors after it; an inexact one drops them
            idx = q.knot_index(r)
            after = {j: a for j, a in p.anchors.items() if p.knots[j] > r}
            pivot = p.exact_value(idx) if where != "between" else None
            if pivot is None:
                assert all(q.knots[j] <= r for j in q.anchors)
            else:
                assert {j: q.anchors[j] for j in after} == \
                    {j: 2 * pivot - a for j, a in after.items()}

    @pytest.mark.parametrize("r", [0.0, 0.5, 1.0, 2.0])
    def test_reflecting_back_computes_a_new_path(self, r):
        p = Path(np.array([0.0, 1.0, 2.0]), np.array([2.0, -1.0]),
                 {1: Fraction(2)})
        q = reflect_at_time(p, r)
        back = reflect_at_time(q, r)
        assert back is not p and back is not q
        # the original, with the pivot knot when r was not one
        assert _same_bits(back, reflect_at_time(reflect_at_time(_anew(p), r),
                                                r))
        assert back == (p if p.knot_index(r) is not None
                        else insert_knot(p, r, value_at(p, r))[0])
        assert reflect_at_time(q, r) is back
        assert reflect_at_time(p, r) is q

    def test_memo_keeps_few_reflections(self):
        import weakref

        from reflectlab.path import _MEMO_SIZE

        p = line(100.0, 1.0)
        reflections = []
        for k in range(1, 41):  # each pivot lies inside the segment
            q = reflect_at_time(p, k / 3)
            reflections.append(weakref.ref(q))
            del q
        alive = [r() is not None for r in reflections]
        assert sum(alive) <= _MEMO_SIZE
        assert alive[-1]
        assert len(p.__dict__["_reflections"]) <= _MEMO_SIZE


class TestPickle:
    def test_round_trip_drops_the_caches(self):
        import pickle

        p = BrownianMotion(dt=0.01, horizon=4.0, seed=3).sample(0)
        p1 = TwoSidedHit(1, 2).observe(p)[1]
        assert p1.anchors
        assert p1.values[0] == 0.0  # computes and caches values
        reflect_at_rule(p1, TwoSidedHit(1, 2))
        TwoSidedHit(1, 2).evaluate(negate(p1))
        assert {"values", "_passages", "_reflections"} <= set(p1.__dict__)
        data = pickle.dumps(p1)
        assert len(data) < 3 * (p1.knots.nbytes + p1.increments.nbytes)
        q = pickle.loads(data)
        assert _same_bits(q, p1)
        assert set(q.__dict__) == {"knots", "increments", "anchors"}
        assert not q.knots.flags.writeable
        assert not q.increments.flags.writeable

    def test_unpickling_validates(self):
        import pickle

        from reflectlab.path import _fast_path

        bad = _fast_path(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0]), {})
        with pytest.raises(PathError):
            pickle.loads(pickle.dumps(bad))


class TestDeviation:
    def test_identical(self):
        p = line(2.0, 1.5)
        assert max_deviation(p, p) == 0.0

    def test_known_difference(self):
        p = Path.zero(2.0)
        q = Path(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0]))
        assert max_deviation(p, q) == 1.0


def _reloaded(p):
    buf = io.StringIO()
    dump_csv(p, buf)
    buf.seek(0)
    return load_csv(buf)


class TestCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        p = Path(np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 1, 40))]),
                 rng.standard_normal(40))
        q = _reloaded(p)
        assert np.array_equal(q.knots, p.knots)
        assert np.array_equal(q.increments, p.increments)
        assert q.anchors == p.anchors == {}

    @pytest.mark.parametrize("kind", ["sampled", "reflected", "ladder"])
    def test_round_trip_keeps_anchors_and_ladder_times(self, kind):
        # a path file holds what the path holds: increments bit for bit and
        # the exact anchors, so exact-hit verdicts on a reloaded path agree
        make = {
            "sampled": lambda p: p,
            "reflected": lambda p: reflect_at_rule(p, TwoSidedHit(1, 2)),
            "ladder": lambda p: ladder_trace(1, 2, p, 8).path,
        }[kind]
        anchored = 0
        for sampler in (BrownianMotion(dt=1e-3, horizon=10.0, seed=1),
                        StoppedSymmetric(level=1, dt=0.01, horizon=6.0,
                                         seed=3)):
            for i in range(15):
                p = make(sampler.sample(i))
                q = _reloaded(p)
                assert q == p
                assert q.anchors == p.anchors
                assert (ladder_trace(1, 2, q, 8).times
                        == ladder_trace(1, 2, p, 8).times)
                anchored += bool(p.anchors)
        assert anchored

    def test_zero_path_exact(self):
        assert _reloaded(Path.zero(1.0)) == Path.zero(1.0)

    def test_rejects_bad_header(self):
        # the older t,x value format included: there is one reader
        for text in ("a,b\n0.0,0.0\n", "t,x\n0.0,0.0\n1.0,0.5\n", ""):
            with pytest.raises(PathError, match="t,dx,exact"):
                load_csv(io.StringIO(text))

    @pytest.mark.parametrize("rows", [
        "0.0,0.0,\n1.0,0.5,1/0\n",
        "0.0,0.0,\n1.0,0.5,half\n",
        "0.0,0.0,\n1.0,0.5x,\n",
        "0.0,0.0,\n1.0,0.5\n",
        "0.0,0.25,\n1.0,0.5,\n",
        "0.0,0.0,\n1.0,0.5,1/3\n",
        "0.0,0.0,\n1.0,nan,\n",
        "0.0,0.0,\n0.0,0.5,\n",
    ], ids=["zero_denominator", "bad_fraction", "bad_number", "short_row",
            "nonzero_first_increment", "anchor_off_value", "non_finite",
            "repeated_time"])
    def test_rejects_malformed_rows(self, rows):
        with pytest.raises(PathError):
            load_csv(io.StringIO("t,dx,exact\n" + rows))
