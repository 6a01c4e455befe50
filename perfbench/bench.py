"""Child process of run.py, started with the checkout's ``src`` on the path.

    bench.py setup   --workload W --seed S
        import, build and make one small warm-up call, then print "ready";
        run.py times this from process start (setup_s).  Then print the
        host's speed factor (see REF_NOMINAL_NS).
    bench.py measure --workload W --seed S --seconds T
        closed loop of full-size calls for T seconds, untraced; prints one
        JSON record.
    bench.py trace   --workload W --seed S --seconds T
        a fixed number of calls (set by T), each run serially untraced,
        serially traced and, for a sharding workload, sharded untraced;
        prints one JSON record with the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, check, digest, items, pvalues, sub_seed

#: Wall seconds one trace-mode call takes at the parent commit on a 2-core
#: Xeon (untraced, traced and, for short-paths, sharded passes together);
#: the trace pass makes seconds / this many calls, so its counts are fixed
#: for a given --seconds.
TRACE_SECONDS_PER_CALL = {"pathwise": 0.9, "ladder": 1.0,
                          "short-paths": 3.2, "exhaustive": 2.5}

#: Time reference_ns takes on a 2-vCPU Xeon host when it runs at full speed.
#: Other tenants of such a host slow it by up to a third, in phases from a
#: second to minutes long, which moves every wall time alike.  End-to-end
#: times are therefore scaled by REF_NOMINAL_NS / (the reference time
#: measured around them), so that runs made in different phases stay
#: comparable; the unscaled wall figures are reported beside them.
REF_NOMINAL_NS = 10_000_000


def reference_ns() -> int:
    """Wall time of a fixed kernel that runs no reflectlab code; like the
    workloads, it mixes interpreted loops, Fraction arithmetic and small
    numpy operations."""
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(50_000):
        acc += i * i % 7
    for i in range(1, 1_000):
        acc += (Fraction(i) / (Fraction(i) + Fraction(i + 1))).denominator
    a = np.arange(20_000, dtype=np.float64)
    for _ in range(200):
        np.cumsum(a[:2048])
        np.flatnonzero(a > 19_000.0)
    return time.perf_counter_ns() - t0


def environment() -> dict:
    import scipy

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": model, "caches": caches}


def timed_call(w, fn, seed: int, workers: int) -> dict:
    """One call, its wall time, its output check and the reference time
    measured right after it."""
    t0 = time.perf_counter_ns()
    try:
        reports = fn(seed, workers, False)
    except Exception as exc:  # a raising call is a failed call, not a crash
        ns = time.perf_counter_ns() - t0
        out = {"items": 0, "digest": None, "problems": [f"raised {exc!r}"],
               "stat_rejections": 0, "pvalues": {}}
    else:
        ns = time.perf_counter_ns() - t0
        problems, rejections = check(w, reports)
        out = {"items": items(reports), "digest": digest(reports),
               "problems": problems, "stat_rejections": rejections,
               "pvalues": pvalues(reports)}
    return {"seed": seed, "ns": ns, "ref_ns": reference_ns(), **out}


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest pool child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def measure(w, seed: int, seconds: int) -> dict:
    calls = []
    before = reference_ns()
    scaled_ns = 0.0
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        c = timed_call(w, w.call, sub_seed(w.name, seed, len(calls)),
                       w.workers)
        # the host's speed during the call: the mean of the reference
        # times measured right before and right after it
        scaled_ns += c["ns"] * 2 * REF_NOMINAL_NS / (before + c["ref_ns"])
        before = c["ref_ns"]
        calls.append(c)
    # total over total rather than a median of per-call rates: the host's
    # speed switches between phases, and a median jumps between them
    done = sum(c["items"] for c in calls)
    wall_s = sum(c["ns"] for c in calls) / 1e9
    return {"calls": calls,
            "metrics": {"items_per_s": done / (scaled_ns / 1e9),
                        "peak_rss_mb": peak_rss_mb()},
            "unscaled": {"items_per_s": done / wall_s}}


def trace(w, seed: int, seconds: int) -> dict:
    from tracer import Tracer

    n = max(1, round(seconds / TRACE_SECONDS_PER_CALL[w.name]))
    tracer = Tracer()
    root = tracer.root(w.call)
    serial, traced, sharded = [], [], []
    # the passes alternate call by call, so drift in the host's speed
    # cancels out of the overhead and speed-up ratios
    for i in range(n):
        s = sub_seed(w.name, seed, i)
        serial.append(timed_call(w, w.call, s, 1))
        with tracer.installed():
            traced.append(timed_call(w, root, s, 1))
        if w.workers > 1:
            sharded.append(timed_call(w, w.call, s, w.workers))
    calls = serial + traced + sharded
    for c, twin in [*zip(traced, serial), *zip(sharded, serial)]:
        if c["digest"] != twin["digest"]:
            c["problems"].append("statistics digest differs from the serial "
                                 "untraced run of the same seed")
    serial_ns = sum(c["ns"] for c in serial)
    metrics = tracer.metrics()
    metrics["verify.shard.speedup"] = (
        serial_ns / sum(c["ns"] for c in sharded) if sharded else 0.0)
    metrics["trace.overhead_ratio"] = tracer.root_ns / serial_ns
    return {"calls": calls, "metrics": metrics,
            "self_sum_ns": tracer.self_sum_ns(),
            "traced_wall_ns": tracer.root_ns}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "measure", "trace"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args(argv)

    import reflectlab

    src = Path.cwd() / "src"
    if Path(reflectlab.__file__).resolve().parent.parent != src.resolve():
        print(f"bench.py: imported reflectlab from {reflectlab.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench.py: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    w.call(sub_seed(w.name, args.seed, -1), w.workers, True)
    if args.mode == "setup":
        print("ready", flush=True)
        refs = sorted(reference_ns() for _ in range(3))
        print(REF_NOMINAL_NS / refs[1], flush=True)
        return 0
    run = (measure if args.mode == "measure" else trace)(
        w, args.seed, args.seconds)
    run["environment"] = environment()
    print(json.dumps(run), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
