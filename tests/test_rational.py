"""The package's integer rule (``rational._as_int``) and its real-time rule
(``rational._is_real``), at every entry point that takes a count, an index,
a length, a power, a time, an exact level or a law's real field."""

import numpy as np
import pytest

from reflectlab import (
    FirstPassage,
    FixedTime,
    LadderStep,
    RuleError,
    SamplerError,
    TwoSidedHit,
    advance_path_power,
    ladder_levels,
    ladder_trace,
    word_after_steps,
)
from reflectlab.errors import ConfigurationError
from reflectlab.rational import _as_int
from reflectlab.samplers import (
    _LAW_BUILDERS,
    BrownianMotion,
    DriftedBM,
    DyadicCounterexample,
    OconeTimeChange,
    parse_law,
)
from reflectlab.verify import ValueAtTime

_PATH = BrownianMotion(dt=0.05, horizon=2.0, seed=3).sample(0)

#: one small spec per law name of the law grammar
_LAW_SPECS = {
    "bm": "bm(dt=0.05,T=1)",
    "drift": "drift(0.5,dt=0.05,T=1)",
    "counterexample": "counterexample(T=2)",
    "ocone": "ocone(clock=random_rate,dt=0.05,T=2)",
    "stopped": "stopped(level=1,dt=0.05,T=1)",
}

#: id -> (entry point of one argument, the error its module raises, the
#: values it must reject); each must take np.int64(1) as it takes 1
_ROWS = {
    "word_after_steps.steps": (lambda v: word_after_steps(2, v), RuleError,
                               (True, 2.5)),
    "ladder_levels.n": (lambda v: ladder_levels(1, 2, v), RuleError,
                        (True, 2.5)),
    "LadderStep.n": (lambda v: LadderStep(1, 2, v), RuleError, (True, 2.5)),
    "ladder_trace.n_max": (lambda v: ladder_trace(1, 2, _PATH, v), RuleError,
                           (True, 2.5)),
    "advance_path_power.power": (
        lambda v: advance_path_power(_PATH, TwoSidedHit(1, 1), v), RuleError,
        (True, 2.5)),
    **{f"{name}.sample": (parse_law(spec, seed=5).sample, SamplerError,
                          (True, 2.5))
       for name, spec in _LAW_SPECS.items()},
    # times are reals: 2.5 is one, True is not
    "FixedTime.r": (FixedTime, RuleError, (True,)),
    "ValueAtTime.t": (ValueAtTime, ConfigurationError, (True,)),
    # levels are exact through as_rational, or floats where a rule takes them
    "FirstPassage.level": (FirstPassage, RuleError, (True,)),
    "TwoSidedHit.a": (lambda v: TwoSidedHit(v, 2), RuleError, (True,)),
    "ladder_levels.a": (lambda v: ladder_levels(v, 2, 3), RuleError,
                        (True, 2.5)),
    # a law's real fields: True ran as 1.0 and was recorded as true, and a
    # string ended in a TypeError
    "BrownianMotion.dt": (lambda v: BrownianMotion(dt=v, horizon=2.0),
                          SamplerError, (True, "0.1")),
    "BrownianMotion.horizon": (lambda v: BrownianMotion(dt=0.5, horizon=v),
                               SamplerError, (True, "1")),
    "DriftedBM.drift": (lambda v: DriftedBM(v, dt=0.5, horizon=1.0),
                        SamplerError, (True, "1")),
    "OconeTimeChange.dt": (lambda v: OconeTimeChange(dt=v, horizon=2.0),
                           SamplerError, (True, "0.1")),
}


def test_every_law_has_a_row():
    assert set(_LAW_SPECS) == set(_LAW_BUILDERS)


@pytest.mark.parametrize("row", list(_ROWS))
def test_entry_point_rejects_bool_and_non_integer(row):
    call, error, bad = _ROWS[row]
    for value in bad:
        with pytest.raises(error) as info:
            call(value)
        assert type(info.value) is error, value


@pytest.mark.parametrize("row", list(_ROWS))
def test_entry_point_takes_numpy_integer(row):
    call, _, _ = _ROWS[row]
    assert call(np.int64(1)) == call(1)


@pytest.mark.parametrize("value", [True, "3"])
def test_counterexample_horizon_is_real(value):
    with pytest.raises(SamplerError) as info:
        DyadicCounterexample(horizon=value)
    assert type(info.value) is SamplerError


def test_law_fields_kept_as_given():
    # checked, not converted: the counterexample golden records horizon=11
    assert repr(DriftedBM(1, dt=0.5, horizon=1)) == \
        "DriftedBM(drift=1, dt=0.5, horizon=1, seed=0)"


def test_ladder_step_stores_an_int():
    step = LadderStep(1, 2, np.int64(3))
    assert type(step.n) is int
    assert repr(step) == "LadderStep(a=1, b=2, n=3)"


class TestAsInt:
    @pytest.mark.parametrize("value", [0, 7, -3, 2**70, np.int64(4),
                                       np.uint8(9)])
    def test_integers_pass_as_int(self, value):
        count = _as_int("k", value, RuleError)
        assert type(count) is int and count == value

    @pytest.mark.parametrize("value", [True, False, 2.5, 2.0, "3", None,
                                       [1], np.float64(1.0)])
    def test_others_rejected(self, value):
        with pytest.raises(RuleError) as info:
            _as_int("k", value, RuleError)
        assert str(info.value) == f"k must be an integer, got {value!r}"

    @pytest.mark.parametrize("value", [-1, np.int64(-2), True, 1.5])
    def test_nonnegative_message(self, value):
        with pytest.raises(SamplerError) as info:
            _as_int("k", value, SamplerError, nonnegative=True)
        assert str(info.value) == \
            f"k must be a nonnegative integer, got {value!r}"
