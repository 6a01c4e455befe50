"""Wall time, peak memory and report digests of the nine acceptance criteria.

    python3 bench/criteria.py --label NAME [CRITERION[:K] ...]
                              [--src DIR [--src-label NAME]]

Each criterion runs exactly as ``tests/test_acceptance.py`` runs it (its
``CRITERIA`` table: same config, seed and worker count), in a fresh
interpreter of its own with the ``src`` of the checkout that holds this
script on the path.  The criterion numbers pick which to run (by default
all nine).  ``N:K`` runs criterion N K times and a bare ``N`` runs it once,
so one record can hold five runs of a short criterion beside one of a long
one.  With ``--src DIR``
(say, the parent commit's ``src``) each criterion also runs K times on that
library, the two libraries taking turns run by run, so that both see the
same phases of the host's speed.  Both libraries are byte-compiled
before the first run, so that no run pays for compiling a module.

The record, ``BENCH_criteria_<NAME>.json`` in the checkout root, holds the
environment and, per criterion and library, the median and quartiles of its
wall time and every run's wall time in run order; the largest peak RSS of
the interpreter plus its largest forked helper, each helper reaped at the
end of its call (``RUSAGE_CHILDREN``); and the verdict and the sha256
of ``to_json()`` of each report, which every repeat must reproduce.  A
changed digest is a changed statistic.  The ``--src`` library's rows go
under ``against``.  Wall times are not scaled: a reference kernel timed
only around a run misses the host's speed phases during it, so alternating
runs of the two libraries are the comparison.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
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

    t0 = time.perf_counter_ns()
    reports = CRITERIA[number]()
    ns = time.perf_counter_ns() - t0
    return {"wall_s": ns / 1e9,
            "peak_rss_mb": bench.peak_rss_mb(),
            "verdicts": [r.verdict for r in reports],
            "sha256": [hashlib.sha256(r.to_json().encode()).hexdigest()
                       for r in reports]}


def run_child(number: int, src: str) -> dict:
    """Run one criterion in a fresh interpreter on the library in src."""
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(number), "--src", src],
        stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
        text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def summarize(number: int, runs: list[dict]) -> dict:
    """One criterion's runs on one library: median, quartiles and every
    run of the wall time, the largest peak RSS, and the verdicts and
    digests, which every run must repeat."""
    first = runs[0]
    for run in runs[1:]:
        if (run["verdicts"], run["sha256"]) != (first["verdicts"],
                                                first["sha256"]):
            raise RuntimeError(f"criterion {number}: a repeat changed a "
                               f"report: {first['sha256']} then "
                               f"{run['sha256']}")
    row = {"verdicts": first["verdicts"], "sha256": first["sha256"],
           "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
           "repeat": len(runs)}
    times = [r["wall_s"] for r in runs]
    row["wall_s"] = statistics.median(times)
    row["wall_s_quartiles"] = (
        statistics.quantiles(times, n=4, method="inclusive")[::2]
        if len(times) > 1 else [times[0], times[0]])
    row["wall_s_runs"] = times
    return row


def criterion_spec(text: str) -> tuple[int, int]:
    """``N`` or ``N:K``: criterion N, run once or K times."""
    number, _, repeat = text.partition(":")
    return int(number), int(repeat) if repeat else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("specs", nargs="*", type=criterion_spec,
                    metavar="CRITERION[:K]",
                    help="criteria to run, 1 to 9 (default: all nine), "
                         "each K times if given, else once")
    ap.add_argument("--label", help="record name: BENCH_criteria_<label>.json")
    ap.add_argument("--src", type=Path,
                    help="directory holding a reflectlab package to run "
                         "against this checkout's, run for run")
    ap.add_argument("--src-label",
                    help="name recorded for the --src library (say, its "
                         "commit)")
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
    repeats = dict(args.specs or [(n, 1) for n in range(1, 10)])
    if len(repeats) < len(args.specs):
        ap.error("a criterion is given twice")
    if not all(1 <= n <= 9 for n in repeats):
        ap.error("criteria are numbered 1 to 9")
    if not all(k >= 1 for k in repeats.values()):
        ap.error("every criterion must run at least once")

    own = str((ROOT / "src").resolve())
    libraries = {"own": own}
    if args.src is not None:
        libraries["against"] = str(args.src.resolve())
    # byte-compile both libraries once, so no timed child pays for a stale
    # or missing __pycache__ entry on one side only
    for name, src in libraries.items():
        if not compileall.compile_dir(src, quiet=1):
            print(f"criteria.py: the {name} src {src} does not compile",
                  file=sys.stderr)
            return 1
    sys.path[:0] = [str(ROOT / "perfbench"), own]  # bench imports reflectlab
    import bench

    record = {"label": args.label, "environment": bench.environment(),
              "criteria": {}}
    if args.src is not None:
        record["against"] = {"label": args.src_label, "criteria": {}}
    for number, repeat in sorted(repeats.items()):
        runs = {name: [] for name in libraries}
        for r in range(repeat):
            # take turns, each library first in every other round
            order = list(libraries) if r % 2 else list(libraries)[::-1]
            for name in order:
                row = run_child(number, libraries[name])
                runs[name].append(row)
                print(f"criterion {number} [{name}] run {r + 1}: "
                      f"{row['wall_s']:.1f} s, {row['peak_rss_mb']:.0f} MB, "
                      f"{', '.join(row['verdicts'])}", flush=True)
        record["criteria"][str(number)] = summarize(number, runs["own"])
        if args.src is not None:
            against = summarize(number, runs["against"])
            record["against"]["criteria"][str(number)] = against
            if against["sha256"] != record["criteria"][str(number)]["sha256"]:
                print(f"criterion {number}: the --src library's digests "
                      "differ", flush=True)
    out = ROOT / f"BENCH_criteria_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
