"""reflectlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload pathwise --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/reflectlab``.  The
workloads are defined in ``perfbench/workloads.py``; metric names and units
come from ``BENCHMARK.json``.

With ``--trace 0`` the run times ``SETUP_PROBES`` fresh interpreters from
start to the end of their warm-up call (``setup_s`` is their median), then
starts one measuring process that makes full-size calls for ``--seconds``
seconds and reports the items it completed per second of call time and its
peak memory.  Both times are scaled to the host's full speed by a reference
kernel timed right after each of them (see ``bench.REF_NOMINAL_NS``); the
unscaled wall figures are printed and recorded beside them.  With ``--trace 1`` it starts one process that runs a fixed
number of calls serially untraced and traced and reports the per-layer
metrics.

Every call's output is checked (see ``workloads.check``); a call that fails
the check counts in ``failed``.  The output is a summary line, one JSON line
recording the environment and every call (seed, wall time, items, sha256 of
the reports), and last the result line.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
#: Limit on one child process; a run must end within 180 s.
CHILD_TIMEOUT_S = 150


def child(mode: str, args) -> list[str]:
    return [sys.executable, str(HERE / "bench.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds)]


def setup_seconds(args, env) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter to its "ready" line, and
    the host's speed factor that the interpreter measured afterwards."""
    t0 = time.perf_counter()
    with subprocess.Popen(child("setup", args), stdout=subprocess.PIPE,
                          env=env, text=True) as proc:
        timer = threading.Timer(CHILD_TIMEOUT_S / 2, proc.kill)
        timer.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            rest = proc.stdout.read()
            proc.wait()
        finally:
            timer.cancel()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return elapsed, float(rest)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="reflectlab benchmark run")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "reflectlab" / "__init__.py").is_file():
        print("run.py: no src/reflectlab in the current directory; run from "
              "the root of a reflectlab checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # the Python "build": byte-compile once so no probe pays for it
    if not compileall.compile_dir(root / "src", quiet=1):
        print("run.py: src does not compile", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=str(root / "src"))

    try:
        setup = ([setup_seconds(args, env) for _ in range(SETUP_PROBES)]
                 if args.trace == 0 else [])
        done = subprocess.run(child("trace" if args.trace else "measure",
                                    args), stdout=subprocess.PIPE, env=env,
                              text=True, timeout=CHILD_TIMEOUT_S, check=True)
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    run = json.loads(done.stdout.splitlines()[-1])

    values = run.pop("metrics")
    if args.trace == 0:
        values["setup_s"] = statistics.median(t * f for t, f in setup)
        run["unscaled"]["setup_s"] = statistics.median(t for t, _ in setup)
        run["setup_probes"] = [{"s": t, "speed_factor": f} for t, f in setup]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    attempted = len(run["calls"])
    failed = sum(1 for c in run["calls"] if c["problems"])

    shown = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                      for k, v in metrics.items())
    unscaled = ", ".join(f"{k}={v:.6g} {metrics[k]['unit']}"
                         for k, v in run.get("unscaled", {}).items())
    print(f"{args.workload} seed={args.seed}: {shown}, "
          f"fail_ratio={failed / attempted:.6g} ratio "
          f"({failed} of {attempted} calls failed)"
          + (f"; unscaled wall figures: {unscaled}" if unscaled else ""))
    run.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
               trace=args.trace)
    print(json.dumps(run))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
