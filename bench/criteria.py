"""Wall time, peak memory and report digests of the nine acceptance criteria.

    python3 bench/criteria.py --label NAME [--src DIR]

Each criterion runs exactly as ``tests/test_acceptance.py`` runs it (its
``CRITERIA`` table: same config, seed and worker count), in a fresh
interpreter of its own with DIR on the path, by default the ``src`` of the
checkout that holds this script.  Pointing --src at another checkout's
``src`` (say, the parent commit's) times the same runs on that library.

The record, ``BENCH_criteria_<NAME>.json`` in the checkout root, holds the
environment and, per criterion, its wall time; that time scaled to the
host's full speed by the reference kernel of ``perfbench/bench.py``
(``REF_NOMINAL_NS`` over the mean of the reference times measured right
before and right after the run), as the benchmark scales its times; the peak
RSS of the interpreter plus its largest pool worker; and the verdict and the
sha256 of ``to_json()`` of each report.  A changed digest is a changed
statistic.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Limit on one criterion's interpreter; the slowest budget is 300 s.
CHILD_TIMEOUT_S = 900


def run_criterion(number: int) -> dict:
    """Run one criterion in this interpreter and describe the run."""
    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]
    import bench
    from test_acceptance import CRITERIA

    bench.reference_ns()  # its first call pays one-time costs
    before = bench.reference_ns()
    t0 = time.perf_counter_ns()
    reports = CRITERIA[number]()
    ns = time.perf_counter_ns() - t0
    after = bench.reference_ns()
    return {"wall_s": ns / 1e9,
            "scaled_s": ns * 2 * bench.REF_NOMINAL_NS / (before + after) / 1e9,
            "peak_rss_mb": bench.peak_rss_mb(),
            "verdicts": [r.verdict for r in reports],
            "sha256": [hashlib.sha256(r.to_json().encode()).hexdigest()
                       for r in reports]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="record name: BENCH_criteria_<label>.json")
    ap.add_argument("--src", type=Path, default=ROOT / "src",
                    help="directory holding the reflectlab package to time")
    ap.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.child is not None:
        import reflectlab

        src = args.src.resolve()
        if Path(reflectlab.__file__).resolve().parent.parent != src:
            print(f"criteria.py: imported reflectlab from "
                  f"{reflectlab.__file__}, not from {src}", file=sys.stderr)
            return 2
        print(json.dumps(run_criterion(args.child)), flush=True)
        return 0
    if not args.label:
        ap.error("--label is required")

    src = str(args.src.resolve())
    sys.path[:0] = [str(ROOT / "perfbench"), src]  # bench imports reflectlab
    import bench

    record = {"label": args.label, "environment": bench.environment(),
              "ref_nominal_ns": bench.REF_NOMINAL_NS, "criteria": {}}
    for number in range(1, 10):
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(number), "--src", src],
            stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
            text=True, timeout=CHILD_TIMEOUT_S, check=True)
        row = json.loads(done.stdout.splitlines()[-1])
        record["criteria"][str(number)] = row
        print(f"criterion {number}: {row['wall_s']:.1f} s "
              f"(scaled {row['scaled_s']:.1f} s), "
              f"{row['peak_rss_mb']:.0f} MB, {', '.join(row['verdicts'])}",
              flush=True)
    out = ROOT / f"BENCH_criteria_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
