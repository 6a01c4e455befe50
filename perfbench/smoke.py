"""Smoke run of the benchmark at its smallest run length.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload in BENCHMARK.json it
runs ``run.py --seconds 1`` untraced and traced on one seed and checks that:

* both runs end with a correct result line that has exactly the keys
  correct, attempted, failed and metrics, and that names every end-to-end
  (untraced) or per-layer (traced) metric of BENCHMARK.json with its unit;
* the summary line prints fail_ratio with its unit;
* the per-layer self times, verify.loop.self_s included, add up to the
  traced wall time within the clock's resolution;
* calls on the same sub-seed have the same statistics digest in both runs;
* perfbench/layer_map.json maps exactly the per-layer metrics.

Exits with 0 when every check holds and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 7


def run(workload: str, trace: int) -> tuple[str, dict, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=180, check=True).stdout
    summary, record, result = out.splitlines()[-3:]
    return summary, json.loads(record), json.loads(result)


def check_result(result: dict, wanted: list) -> list[str]:
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append("run not correct")
    metrics = result.get("metrics", {})
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} missing or without unit "
                            f"{m['unit']!r}: {got}")
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layer_map.json").read_text())["metrics"]
    failures = []
    per_layer = {m["name"] for m in spec["per_layer"]}
    if set(layer_map) != per_layer:
        failures.append("layer_map.json and BENCHMARK.json per_layer differ: "
                        f"{sorted(set(layer_map) ^ per_layer)}")
    resolution = time.get_clock_info("perf_counter").resolution
    for w in (w["name"] for w in spec["workloads"]):
        summary, plain, result = run(w, 0)
        problems = check_result(result, spec["end_to_end"])
        if "fail_ratio=" not in summary or " ratio " not in summary:
            problems.append(f"summary line lacks fail_ratio: {summary!r}")

        _, traced, result = run(w, 1)
        problems += check_result(result, spec["per_layer"])
        self_s = [v["value"] for k, v in result["metrics"].items()
                  if k.endswith(".self_s")]
        wall = traced["traced_wall_ns"] / 1e9
        if abs(sum(self_s) - wall) > resolution * len(self_s):
            problems.append(f"layer self times add up to {sum(self_s)!r} s, "
                            f"traced wall time is {wall!r} s")
        digests = {c["seed"]: c["digest"] for c in plain["calls"]}
        shared = [c for c in traced["calls"] if c["seed"] in digests]
        if not shared:
            problems.append("the two runs share no sub-seed")
        for c in shared:
            if c["digest"] != digests[c["seed"]]:
                problems.append(f"digest of sub-seed {c['seed']} differs "
                                "between the two runs")
        print(f"{w}: {'ok' if not problems else 'FAILED'}")
        failures += [f"{w}: {p}" for p in problems]
    for f in failures:
        print(f, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
