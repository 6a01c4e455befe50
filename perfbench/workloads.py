"""The four benchmark workloads and the output check applied to every call.

A workload is one experiment call through a public ``reflectlab.verify``
entry point at a fixed input size.  The benchmark makes one call after
another (a closed loop with a single client), each on a fresh sub-seed
derived from the workload seed, so the library only ever sees generated
inputs.  Importing this module imports reflectlab, so it is only imported by
the child processes that ``run.py`` starts with ``src`` on the path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from reflectlab.samplers import BrownianMotion, DriftedBM
from reflectlab.stopping import FixedTime
from reflectlab import verify


def sub_seed(workload: str, seed: int, index: int) -> int:
    """Seed of the index-th call of a run; index -1 is the warm-up call."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class Workload:
    name: str
    #: (sub_seed, workers, warm) -> reports; warm makes the smallest call
    #: that still runs every code path, used to warm caches and lazy imports.
    call: Callable[[int, int, bool], list]
    workers: int
    #: Verdict the call must reach.
    expected: str
    #: Statistics that are exact counts and must be zero.
    exact: Callable[[str], bool]
    #: Statistical checks whose verdict is recorded but not gated (see check).
    ungated: Callable[[str], bool] = lambda name: False


def _pathwise(seed: int, workers: int, warm: bool) -> list:
    return [verify.stability_suite(
        1 if warm else 40, seed=seed,
        sampler=BrownianMotion(dt=1e-3, horizon=10.0), workers=workers)]


def _ladder(seed: int, workers: int, warm: bool) -> list:
    return [verify.martingale_step_test(
        BrownianMotion(dt=1e-4, horizon=2.0), 1, 2, 4, 1 if warm else 200,
        seed=seed, workers=workers)]


def _short_paths(seed: int, workers: int, warm: bool) -> list:
    # 1000 draws is the smallest size invariance_test accepts
    return [verify.invariance_test(
        DriftedBM(0.5, dt=0.01, horizon=2.0), FixedTime(0.0),
        verify.default_functionals(2.0), 1000 if warm else 4000, seed=seed,
        workers=workers)]


def _exhaustive(seed: int, workers: int, warm: bool) -> list:
    # deterministic: the seed and the worker count do not enter
    return [verify.non_dyadic_sweep(3 if warm else 60),
            verify.advance_formula_check(1 if warm else 12)]


WORKLOADS = {w.name: w for w in (
    Workload("pathwise", _pathwise, workers=1, expected="pass",
             exact=lambda name: name != "max_normalized_deviation"),
    # Each call runs about 55 mean-increment checks at 4 standard errors,
    # so about one call in 300 rejects one of them by chance under the
    # exact null; their verdicts are recorded as stat_rejections instead.
    Workload("ladder", _ladder, workers=1, expected="pass",
             exact=lambda name: name == "antisymmetry_failures",
             ungated=lambda name: name.startswith("mean_increment_")),
    Workload("short-paths", _short_paths, workers=2, expected="fail",
             exact=lambda name: False),
    Workload("exhaustive", _exhaustive, workers=1, expected="pass",
             exact=lambda name: True),
)}


def digest(reports: list) -> str:
    """sha256 of the call's reports as the CLI would write them."""
    text = "\n".join(r.to_json() for r in reports)
    return hashlib.sha256(text.encode()).hexdigest()


def items(reports: list) -> int:
    """Paths, draws, triples or word comparisons the call completed."""
    return sum(r.sample_size for r in reports)


def check(w: Workload, reports: list) -> tuple[list[str], int]:
    """Problems that make the call count as failed, and the number of
    ungated statistical rejections."""
    problems = []
    gated_fail = False
    stat_rejections = 0
    for r in reports:
        if not r.recheck():
            problems.append(f"{r.name}: verdicts do not follow from the "
                            "recorded statistics")
        for s in r.statistics:
            if w.exact(s.name) and s.value != 0:
                problems.append(f"{r.name}/{s.name} = {s.value}, expected 0")
            if s.verdict == "fail":
                if w.ungated(s.name):
                    stat_rejections += 1
                else:
                    gated_fail = True
    verdict = "fail" if gated_fail else "pass"
    if verdict != w.expected:
        problems.append(f"verdict {verdict}, expected {w.expected}")
    return problems, stat_rejections


def pvalues(reports: list) -> dict:
    """Adjusted p-values of the KS statistics, recorded and not gated."""
    return {f"{r.name}/{s.name}": s.value for r in reports
            for s in r.statistics if "p_raw" in s.detail}
