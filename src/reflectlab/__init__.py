"""reflectlab: reflection-invariance experiments on piecewise-linear paths.

Exact path reflections pivoted at stopping times, first-passage ladders
driven by exact rational level sequences, the sign-word combinatorics of
ladder increments, seeded path samplers, and statistical verification
suites, with a CLI for reproducible experiment runs.
"""

from .errors import (
    ConfigurationError,
    DyadicRatioError,
    KnotConflictError,
    MixturePartitionError,
    PathError,
    ReflectlabError,
    RuleError,
    SamplerError,
    TimeOutOfRangeError,
)
from .path import (
    NOT_OBSERVED,
    Path,
    dump_csv,
    insert_knot,
    is_observed,
    load_csv,
    max_deviation,
    negate,
    reflect_at_rule,
    reflect_at_time,
    value_at,
)
from .rational import Rational, as_rational, is_dyadic
from .samplers import (
    BrownianMotion,
    DriftedBM,
    DyadicCounterexample,
    OconeTimeChange,
    StoppedSymmetric,
    parse_law,
)
from .signs import (
    SignWord,
    advance_path,
    advance_path_power,
    advance_word,
    all_words,
    exit_alignment_power,
    first_down_index,
    first_zero_index,
    ladder_sign_word,
    negate_word,
    reflect_word,
    rewind_path,
    rewind_word,
    word_after_steps,
)
from .stopping import (
    ComposeReflect,
    FirstPassage,
    FixedTime,
    LadderStep,
    LevelLadder,
    MaxOf,
    MinOf,
    Mixture,
    SignAtTime,
    StoppingRule,
    TimeCompare,
    TwoSidedHit,
    ladder_levels,
    ladder_times,
    ladder_trace,
    parse_rule,
)
from .verify import (
    Statistic,
    TestReport,
    advance_formula_check,
    bound_check,
    check_non_dyadic_triple,
    counterexample_demo,
    default_functionals,
    exit_alignment_test,
    invariance_test,
    martingale_step_test,
    non_dyadic_sweep,
    sign_identity_test,
    stability_suite,
)

__version__ = "0.1.0"
