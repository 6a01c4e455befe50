"""Acceptance suite.

One test, run once per acceptance criterion: each criterion's run
(``CRITERIA``) is held to its runtime budget, its verdict and its gate
(``GATES``), and a summary line is printed per criterion.  Every Monte
Carlo run but the sequential alignment search (criterion 5) shards its
draws across two workers.  The per-draw rows are reduced in draw-index
order, so every statistic is bit-identical to a serial run (checked in
test_verify).  Each criterion's reports must also be byte-identical to
those of its latest committed record (``RECORDS``).
"""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from reflectlab import (
    BrownianMotion,
    DriftedBM,
    FixedTime,
    MinOf,
    TwoSidedHit,
    advance_formula_check,
    bound_check,
    counterexample_demo,
    exit_alignment_test,
    invariance_test,
    martingale_step_test,
    non_dyadic_sweep,
    sign_identity_test,
    stability_suite,
)
from reflectlab.verify import default_functionals

WORKERS = 2
ROOT = Path(__file__).resolve().parent.parent

#: The latest committed record, ``BENCH_criteria_<name>.json``, of each
#: criterion: every run must give its sha256 of each report's ``to_json()``.
RECORDS = {1: "int-rule", 2: "int-rule", 3: "reflect-memo", 4: "ladder-grid",
           5: "ladder-grid", 6: "forked-helpers", 7: "forked-helpers",
           8: "ladder-grid", 9: "int-rule"}


def _bound_family():
    reports = []
    for c_level in (Fraction(1, 2), Fraction(1), Fraction(2)):
        for t_fixed in (1.0, 5.0):
            rule = MinOf(TwoSidedHit(c_level, c_level), FixedTime(t_fixed))
            reports.append(bound_check(
                BrownianMotion(dt=0.01, horizon=5.0), c_level, c_level, rule,
                bound_cap=float(c_level), n_draws=100_000,
                seed=105 + int(2 * c_level) + int(t_fixed), workers=WORKERS))
    return reports


#: The run behind each criterion, as a list of reports; bench/criteria.py
#: times the same runs.
CRITERIA = {
    1: lambda: [advance_formula_check(12)],
    2: lambda: [non_dyadic_sweep(200)],
    3: lambda: [stability_suite(10_000, seed=101,
                                sampler=BrownianMotion(dt=1e-3, horizon=10.0),
                                workers=WORKERS)],
    4: lambda: [sign_identity_test(BrownianMotion(dt=1e-3, horizon=10.0),
                                   1, 2, 8, 10_000, seed=102,
                                   workers=WORKERS)],
    5: lambda: [exit_alignment_test(BrownianMotion(dt=0.01, horizon=3.0),
                                    1, 2, 4, min_per_word=100,
                                    n_draws_max=150_000, seed=103)],
    6: lambda: [counterexample_demo(100_000, seed=104, c=Fraction(3),
                                    workers=WORKERS)],
    7: _bound_family,
    8: lambda: [martingale_step_test(BrownianMotion(dt=1e-4, horizon=2.0),
                                     1, 2, 4, 100_000, seed=106,
                                     workers=WORKERS)],
    9: lambda: [invariance_test(DriftedBM(0.5, dt=0.01, horizon=2.0),
                                FixedTime(0.0), default_functionals(2.0),
                                100_000, seed=107, workers=WORKERS)],
}


def _stat(rep, name):
    return next(s for s in rep.statistics if s.name == name)


def _worst_ratio(stats):
    """The largest |mean|/SE among stats with a standard error."""
    return max((abs(s.value) / s.se for s in stats if s.se), default=0.0)


def _exact_martingale(*reports):
    # stricter than the generic bound: the sampled law is an exact
    # martingale here, so each mean itself must sit within 4 SE of 0
    worst = _worst_ratio(rep.statistics[0] for rep in reports)
    return worst <= 4.0, f"worst |mean|/SE = {worst:.2f}"


def _quota_detail(rep):
    checks = _stat(rep, "words_below_quota").detail["checks_total"]
    return True, f"{checks} checks over {rep.sample_size} draws"


def _mean_detail(rep):
    mean = _stat(rep, "stopped_mean_vs_expected")
    return True, (f"mean deviation {mean.value:+.5f} "
                  f"(4 SE = {mean.threshold:.5f})")


def _steps_detail(rep):
    anti = _stat(rep, "antisymmetry_failures")
    return True, (f"antisymmetry failures {anti.value:.0f}, "
                  f"worst |mean|/SE = {_worst_ratio(rep.statistics):.2f}")


def _strong_rejection(rep):
    min_p = min(s.value for s in rep.statistics if s.verdict != "skip")
    return min_p < 1e-3, f"min adjusted p = {min_p:.2e}"


#: criterion -> (label, runtime budget in s, the verdict every report must
#: give, gate); a gate maps the reports to (ok, the summary line's detail)
GATES = {
    1: ("advance formula, n <= 12, both suffix heads", 60, "pass",
        lambda rep: (True, f"{rep.sample_size} comparisons")),
    2: ("non-dyadic triples to 200", 60, "pass",
        lambda rep: (True, f"{rep.sample_size} triples")),
    3: ("stability identities on 10^4 Brownian paths", 120, "pass",
        lambda rep: (True, "max normalized deviation "
                     f"{_stat(rep, 'max_normalized_deviation').value:.2e}")),
    4: ("sign-word identities, a=1 b=2 n=8", 120, "pass",
        lambda rep: (True, str({s.name: s.value for s in rep.statistics}))),
    5: ("alignment power contract on every length-4 word", 300, "pass",
        _quota_detail),
    6: ("counterexample mean (c-2)/2 and invariance", 120, "pass",
        _mean_detail),
    7: ("stopped-mean bound, 6 configurations", 300, "pass",
        _exact_martingale),
    8: ("ladder martingale steps, n <= 4", 300, "pass", _steps_detail),
    9: ("drifted negative control must fail", 120, "fail", _strong_rejection),
}


def check_digests(number, reports):
    """Each report of the criterion hashes as in its committed record."""
    record = json.loads(
        (ROOT / f"BENCH_criteria_{RECORDS[number]}.json").read_text())
    assert [hashlib.sha256(r.to_json().encode()).hexdigest()
            for r in reports] == record["criteria"][str(number)]["sha256"]


@pytest.mark.parametrize("number", sorted(CRITERIA),
                         ids="criterion_{}".format)
def test_criterion(number):
    label, budget, verdict, gate = GATES[number]
    t0 = time.time()
    reports = CRITERIA[number]()
    elapsed = time.time() - t0
    verdicts_ok = all(rep.verdict == verdict for rep in reports)
    gate_ok, detail = gate(*reports)
    ok = verdicts_ok and gate_ok and elapsed < budget
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} "
          f"[{elapsed:.1f}s] {detail}")
    assert verdicts_ok, [(s.name, s.value, s.threshold)
                         for rep in reports for s in rep.statistics
                         if s.verdict == "fail"]
    assert gate_ok, detail
    assert elapsed < budget
    check_digests(number, reports)
