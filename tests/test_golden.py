"""Golden reports: the sha256 of ``TestReport.to_json()`` for small fixed
configs of every verification entry point.

A refactor of the scan, reflection or reduction code must keep these bytes:
any moved number, count, verdict or key in a report changes its digest.  A
digest changes only together with a CHANGES.md entry that says why.
"""

import hashlib
from fractions import Fraction

import pytest

from reflectlab import (
    BrownianMotion,
    DriftedBM,
    DyadicCounterexample,
    FirstPassage,
    FixedTime,
    MinOf,
    OconeTimeChange,
    TwoSidedHit,
    advance_formula_check,
    bound_check,
    counterexample_demo,
    default_functionals,
    exit_alignment_test,
    invariance_test,
    martingale_step_test,
    non_dyadic_sweep,
    sign_identity_test,
    stability_suite,
)
from reflectlab.verify import (
    HittingTime,
    RunningMax,
    ValueAtRuleTime,
    ValueAtTime,
)

# name -> (report factory, sha256 of its JSON)
GOLDEN = {
    # 10,001-knot paths: level scans cross several 2048-knot blocks
    "stability_suite": (
        lambda: stability_suite(
            40, seed=7, sampler=BrownianMotion(dt=1e-3, horizon=10.0)),
        "526d381f83f08a2cbba1cd5f2c983ad0df8bfa72e1db5d3e795b1c8ba5b06dab"),
    "sign_identity_test": (
        lambda: sign_identity_test(
            BrownianMotion(dt=1e-3, horizon=4.0), 1, 2, 4, 200, seed=8),
        "a78ded9fb6fbd64a2884cb9da7ed9b63cc9833606ff9b492b70c042884f9bf46"),
    # 20,001-knot paths: ladder windows run past the first block
    "martingale_step_test": (
        lambda: martingale_step_test(
            BrownianMotion(dt=1e-4, horizon=2.0), 1, 2, 4, 200, seed=9),
        "5b02c04ab8e32cc15d21c1faf858877708ec2a83b42fc6ceed57914fe32c8ded"),
    # every tau_n observed: each step runs the reflected re-trace
    "martingale_step_test_thirds": (
        lambda: martingale_step_test(
            BrownianMotion(dt=1e-3, horizon=4.0), Fraction(1, 3),
            Fraction(1, 2), 8, 200, seed=17),
        "6e460b014faf1442338b7d5e697d641b8debc0db62a58e0de02b704ef1b8a123"),
    # observed and unobserved tau_n mixed, on a time-changed law
    "martingale_step_test_ocone": (
        lambda: martingale_step_test(
            OconeTimeChange("random_rate", dt=1e-3, horizon=4.0), 2, 3, 6,
            200, seed=18),
        "d2bad981f36eac26bbccd640a2ea6db06e7589d0fcd8987328100ec1b7c6d97a"),
    "exit_alignment_test": (
        lambda: exit_alignment_test(
            BrownianMotion(dt=0.01, horizon=3.0), 1, 2, 4, 3, 2000, seed=10),
        "7e15a0ad0eb8e24d044be6708f291ca9fe82c5db5dbab84ef615433bb50b9d44"),
    "bound_check_min": (
        lambda: bound_check(
            BrownianMotion(dt=0.01, horizon=3.0), 1, 2,
            MinOf(TwoSidedHit(1, 2), FixedTime(2.5)), 10.0, 300, seed=11),
        "714f97c8aba04101017fa6d047d9977a361efcc87c795abd06dd5c8d05b0158d"),
    "bound_check_fraction": (
        lambda: bound_check(
            BrownianMotion(dt=0.01, horizon=3.0), Fraction(1, 2), 1,
            MinOf(TwoSidedHit(Fraction(1, 2), 1), FixedTime(2.5)), 10.0, 100,
            seed=14),
        "0efc146d7798f723dd5cc621dbeb6eabb735420c17d0fddcc86f89a163a7f21e"),
    "invariance_test": (
        lambda: invariance_test(
            BrownianMotion(dt=0.02, horizon=2.0), TwoSidedHit(1, 1),
            default_functionals(2.0), 1000, seed=12),
        "11f52918512bb887f33687301cb8bda7d9c7b2f71d1d4bb435893699c95b5b9b"),
    # the sign flip keeps every reflected row on the sampler's knots
    "invariance_test_drift": (
        lambda: invariance_test(
            DriftedBM(0.5, dt=0.02, horizon=2.0), FixedTime(0.0),
            default_functionals(2.0), 1000, seed=15),
        "6beb94eb0554a625d4a462b7d00a50fe9be4cf94b1988f8c3ee5a380cd5ac074"),
    # a passage rule: over half the draws are unobserved and reflect to
    # themselves, the others gain a pinned knot
    "invariance_test_passage": (
        lambda: invariance_test(
            BrownianMotion(dt=0.02, horizon=2.0), FirstPassage(1),
            default_functionals(2.0), 1000, seed=19),
        "e10298589f7d417e01ee9f41b28c80f31b47833540d9f949c3871a4bdac81e49"),
    # a two-word seed, as the benchmark's sub-seeds are
    "invariance_test_drift_wide_seed": (
        lambda: invariance_test(
            DriftedBM(0.5, dt=0.02, horizon=2.0), FixedTime(0.0),
            default_functionals(2.0), 1000, seed=2**63 + 15),
        "77f2aeaeb2d8ea4065cb61a070f32a348b3947e0f8bc054b691711e49b9b0557"),
    # a per-draw scale, a pivot inside the grid, a value between knots and
    # a functional read off the path of each row
    "invariance_test_ocone": (
        lambda: invariance_test(
            OconeTimeChange("random_rate", dt=0.02, horizon=2.0),
            FixedTime(1.0),
            [ValueAtTime(0.37), RunningMax(), HittingTime(0.5),
             ValueAtRuleTime(TwoSidedHit(1, 1), "exit11")], 1000, seed=16),
        "941e3a0b615f5ff8f9f0f0e8244b12476fd84349116f795269b4fb0917c546a5"),
    # the paper's counterexample refutes the bound: a/(a+b) = 1/2 is
    # dyadic, and the stopped mean 3.324 fails its threshold 2.49, so the
    # non-dyadic hypothesis cannot be dropped
    "bound_check_counterexample": (
        lambda: bound_check(
            DyadicCounterexample(horizon=11, seed=53), 1, 1, TwoSidedHit(2, 9),
            bound_cap=9, n_draws=2000),
        "f77ff40e255e44ebf490730bbd896571e99ae10697f6bd174d0d79e557f174b8"),
    "counterexample_demo": (
        lambda: counterexample_demo(1000, seed=13),
        "81b87f271ac65c90e09089a7dae74fb0238b7d4876a68564661c17d95cc7e584"),
    "non_dyadic_sweep": (
        lambda: non_dyadic_sweep(20),
        "dd7b757b08be2a97152e539ba3f8f74301ba2d9908e1c0a11cccd50ffcedb6dd"),
    "advance_formula_check": (
        lambda: advance_formula_check(6),
        "e9b3bb58c280acd27ea0d998b622a15399300e50a57bc7b6136086b573993ec9"),
    # the exhaustive benchmark workload's sizes
    "non_dyadic_sweep_60": (
        lambda: non_dyadic_sweep(60),
        "be4bb7570918596fe2e1207d7320ed593f51169922db017ed3306c28e8c0a7fa"),
    "advance_formula_check_12": (
        lambda: advance_formula_check(12),
        "e4ae5849fc87a2e80199a399971381ae8f577eb78a3550376d0f42fc6f439c37"),
}


# name -> the law its report records in params.law, a key these reports
# gained after their digests were pinned; each digest is of the report
# without it
RECORDED_LAW = {
    "bound_check_fraction":
        "BrownianMotion(dt=0.01, horizon=3.0, seed=14)",
    "bound_check_min": "BrownianMotion(dt=0.01, horizon=3.0, seed=11)",
    "exit_alignment_test": "BrownianMotion(dt=0.01, horizon=3.0, seed=10)",
    "martingale_step_test": "BrownianMotion(dt=0.0001, horizon=2.0, seed=9)",
    "martingale_step_test_ocone":
        "OconeTimeChange(clock='random_rate', dt=0.001, horizon=4.0, "
        "seed=18)",
    "martingale_step_test_thirds":
        "BrownianMotion(dt=0.001, horizon=4.0, seed=17)",
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name):
    make, expected = GOLDEN[name]
    report = make()
    if name in RECORDED_LAW:
        assert report.params.pop("law") == RECORDED_LAW[name]
    text = report.to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == expected
