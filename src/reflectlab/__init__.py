"""reflectlab: reflection-invariance experiments on piecewise-linear paths.

Exact path reflections pivoted at stopping times, first-passage ladders
driven by exact rational level sequences, the sign-word combinatorics of
ladder increments, seeded path samplers, and statistical verification
suites, with a CLI for reproducible experiment runs.
"""


def _set_allocation_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds at 32 MiB and 64 MiB.

    A draw frees all its 80-160 KB arrays when it returns.  Under glibc's
    starting thresholds (128 KiB) each is unmapped, or the heap top given
    back to the OS, and the next draw faults the same pages in again.
    glibc's dynamic rule raises both once a large mapped chunk is freed, as
    importing scipy did; these values are that rule's 64-bit ceiling and
    twice it, set so that a draw's cost does not depend on what was
    imported.  Minor faults per draw (50 serial draws after a warm-up,
    three processes, 2-vCPU x86-64, glibc 2.36), with scipy imported under
    glibc's rule, without scipy under its rule, and without scipy under
    these values: criterion 3 (``stability_suite``, ``bm(dt=1e-3,T=10)``)
    209-423, 315 and 0.7; criterion 8 (``martingale_step_test``,
    ``bm(dt=1e-4,T=2)``) 0.6-0.7, 84 and 0.5.  Off glibc, or when
    ``mallopt`` refuses a value (returns 0), this does nothing.
    """
    import ctypes
    import os

    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    if mallopt(m_mmap_threshold, 32 << 20):
        mallopt(m_trim_threshold, 64 << 20)


_set_allocation_thresholds()

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
from .rational import as_rational, is_dyadic
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
    negate_word,
    reflect_word,
    rewind_path,
    rewind_word,
    trace_sign_word,
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
