"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance and runtime
budget; a summary line is printed per criterion.  Every Monte Carlo run but
the sequential alignment search (criterion 5) shards its draws across two
workers.  The per-draw rows are reduced in draw-index order, so every
statistic is bit-identical to a serial run (checked in test_verify).  Each
criterion's reports must also be byte-identical to those of its latest
committed record (``RECORDS``).
"""

import hashlib
import json
import math
import time
from fractions import Fraction
from pathlib import Path

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


def report_line(number, label, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} ({label}): {status} "
          f"[{elapsed:.1f}s] {detail}")


def check_digests(number, reports):
    """Each report of the criterion hashes as in its committed record."""
    record = json.loads(
        (ROOT / f"BENCH_criteria_{RECORDS[number]}.json").read_text())
    assert [hashlib.sha256(r.to_json().encode()).hexdigest()
            for r in reports] == record["criteria"][str(number)]["sha256"]


def test_criterion_1_exhaustive_advance_formula():
    t0 = time.time()
    rep, = CRITERIA[1]()
    elapsed = time.time() - t0
    ok = rep.verdict == "pass" and elapsed < 60
    report_line(1, "advance formula, n <= 12, both suffix heads", ok, elapsed,
                f"{rep.sample_size} comparisons")
    assert rep.verdict == "pass"
    assert elapsed < 60
    check_digests(1, [rep])


def test_criterion_2_non_dyadic_sweep():
    t0 = time.time()
    rep, = CRITERIA[2]()
    elapsed = time.time() - t0
    ok = rep.verdict == "pass" and elapsed < 60
    report_line(2, "non-dyadic triples to 200", ok, elapsed,
                f"{rep.sample_size} triples")
    assert rep.verdict == "pass"
    assert elapsed < 60
    check_digests(2, [rep])


def test_criterion_3_pathwise_stability():
    t0 = time.time()
    rep, = CRITERIA[3]()
    elapsed = time.time() - t0
    fails = {s.name: s.value for s in rep.statistics}
    ok = rep.verdict == "pass" and elapsed < 120
    report_line(3, "stability identities on 10^4 Brownian paths", ok, elapsed,
                f"max normalized deviation "
                f"{fails['max_normalized_deviation']:.2e}")
    assert rep.verdict == "pass", fails
    assert elapsed < 120
    check_digests(3, [rep])


def test_criterion_4_sign_dynamics_identities():
    t0 = time.time()
    rep, = CRITERIA[4]()
    elapsed = time.time() - t0
    fails = {s.name: s.value for s in rep.statistics}
    ok = rep.verdict == "pass" and elapsed < 120
    report_line(4, "sign-word identities, a=1 b=2 n=8", ok, elapsed,
                str(fails))
    assert rep.verdict == "pass", fails
    assert elapsed < 120
    check_digests(4, [rep])


def test_criterion_5_alignment_contract():
    t0 = time.time()
    rep, = CRITERIA[5]()
    elapsed = time.time() - t0
    stats = {s.name: s for s in rep.statistics}
    ok = rep.verdict == "pass" and elapsed < 300
    report_line(5, "alignment power contract on every length-4 word", ok,
                elapsed,
                f"{stats['words_below_quota'].detail['checks_total']} checks "
                f"over {rep.sample_size} draws")
    assert rep.verdict == "pass", {k: s.value for k, s in stats.items()}
    assert elapsed < 300
    check_digests(5, [rep])


def test_criterion_6_counterexample_reproduction():
    t0 = time.time()
    rep, = CRITERIA[6]()
    elapsed = time.time() - t0
    stats = {s.name: s for s in rep.statistics}
    mean_stat = stats["stopped_mean_vs_expected"]
    ok = rep.verdict == "pass" and elapsed < 120
    report_line(6, "counterexample mean (c-2)/2 and invariance", ok, elapsed,
                f"mean deviation {mean_stat.value:+.5f} "
                f"(4 SE = {mean_stat.threshold:.5f})")
    assert rep.verdict == "pass", {k: s.value for k, s in stats.items()}
    assert elapsed < 120
    check_digests(6, [rep])


def test_criterion_7_bound_family():
    t0 = time.time()
    worst_ratio = 0.0
    all_ok = True
    reports = CRITERIA[7]()
    for rep in reports:
        stat = rep.statistics[0]
        # stricter than the generic bound: the sampled law is an exact
        # martingale here, so the mean itself must sit within 4 SE of 0
        ratio = abs(stat.value) / stat.se if stat.se else 0.0
        worst_ratio = max(worst_ratio, ratio)
        all_ok = all_ok and ratio <= 4.0 and rep.verdict == "pass"
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 300
    report_line(7, "stopped-mean bound, 6 configurations", ok, elapsed,
                f"worst |mean|/SE = {worst_ratio:.2f}")
    assert all_ok
    assert elapsed < 300
    check_digests(7, reports)


def test_criterion_8_martingale_steps():
    t0 = time.time()
    rep, = CRITERIA[8]()
    elapsed = time.time() - t0
    anti = next(s for s in rep.statistics
                if s.name == "antisymmetry_failures")
    worst = max((abs(s.value) / s.se for s in rep.statistics
                 if s.se), default=0.0)
    ok = rep.verdict == "pass" and elapsed < 300
    report_line(8, "ladder martingale steps, n <= 4", ok, elapsed,
                f"antisymmetry failures {anti.value:.0f}, "
                f"worst |mean|/SE = {worst:.2f}")
    assert rep.verdict == "pass", [(s.name, s.value, s.threshold)
                                   for s in rep.statistics
                                   if s.verdict == "fail"]
    assert elapsed < 300
    check_digests(8, [rep])


def test_criterion_9_drift_negative_control():
    t0 = time.time()
    rep, = CRITERIA[9]()
    elapsed = time.time() - t0
    live = [s for s in rep.statistics if s.verdict != "skip"]
    min_p = min(s.value for s in live)
    ok = rep.verdict == "fail" and min_p < 1e-3 and elapsed < 120
    report_line(9, "drifted negative control must fail", ok, elapsed,
                f"min adjusted p = {min_p:.2e}")
    assert rep.verdict == "fail"
    assert min_p < 1e-3
    assert elapsed < 120
    check_digests(9, [rep])
