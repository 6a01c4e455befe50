"""Experiment runner.

Subcommands:

* ``run <config.json>``       execute one experiment described by a JSON
                              config; flags override config keys.
* ``ladder``                  print the exact level sequence and a per-path
                              table of ladder times.
* ``lemmas``                  deterministic exhaustive suites (non-dyadic
                              triples, advance-formula check).
* ``demo-counterexample``     the dyadic-ratio counterexample experiment.

Each run writes ``report.json`` and ``summary.csv`` into the output
directory, and optional path dumps.  Exit status: 0 when every verdict
passes, 2 when any verdict fails, 1 on configuration or runtime errors.
The environment variable ``REFLECTLAB_SEED`` overrides the config seed
(an explicit ``--seed`` flag wins over both).

Config keys (kind selects the experiment; the rest as needed):

    kind        invariance | bound | ladder | signs | suite | lemmas
    law         law spec string, e.g. "bm(dt=1e-3,T=10)"
    rule        rule spec string, e.g. "Tpm(1,2)"
    a, b        exact rationals as strings "p/q"
    n           ladder depth / word length
    N           number of draws
    seed        base seed (64-bit int)
    alpha       significance level for invariance tests
    bound_cap   uniform bound that stopped paths must respect
    functionals list of functional specs (see parse_functional)
    limit       sweep bound for the non-dyadic triple check
    n_max       maximal word length for the advance-formula check
    workers     parallel workers (default 1; draws are sharded by index,
                so results do not depend on the worker count)
    paths_csv   list of path CSV files to load for the ladder table
                (alongside or instead of sampled draws)
    out_dir     output directory (default "out")
    dump_paths  dump the first k sampled paths as CSV
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import json
import os
import sys
from fractions import Fraction
from pathlib import Path as FsPath

from . import verify
from .errors import ConfigurationError, ReflectlabError
from .path import dump_csv, load_csv
from .rational import is_dyadic
from .samplers import parse_law
from .stopping import format_time, ladder_levels, ladder_trace, parse_rule
from .verify import (
    HittingTime,
    RunningMax,
    Statistic,
    TestReport,
    ValueAtRuleTime,
    ValueAtTime,
)

DEFAULT_LAW = "bm(dt=1e-3,T=10)"


def _law_from(cfg: dict, key: str = "law", default: str = None):
    """Build the sampler from the law string; top-level "dt" and "horizon"
    keys override the values inside the law string when the law has them."""
    spec = cfg.get(key, default)
    if spec is None:
        raise ConfigurationError(f"config is missing {key!r}")
    sampler = parse_law(spec, seed=cfg["seed"])
    overrides = {k: float(cfg[k]) for k in ("dt", "horizon")
                 if k in cfg and hasattr(sampler, k)}
    return dataclasses.replace(sampler, **overrides) if overrides else sampler


def parse_functional(spec: str):
    """Functional specs: value_at:<t> | running_max | hitting_time:<level> |
    value_at_rule:<rule spec>."""
    if spec == "running_max":
        return RunningMax()
    if spec.startswith("value_at_rule:"):
        rule_spec = spec.split(":", 1)[1]
        return ValueAtRuleTime(parse_rule(rule_spec), rule_spec)
    if spec.startswith("value_at:"):
        return ValueAtTime(float(spec.split(":", 1)[1]))
    if spec.startswith("hitting_time:"):
        return HittingTime(float(spec.split(":", 1)[1]))
    raise ConfigurationError(f"cannot parse functional {spec!r}")


def _build_functionals(cfg: dict, sampler) -> list:
    specs = cfg.get("functionals")
    if specs:
        return [parse_functional(s) for s in specs]
    horizon = getattr(sampler, "horizon", 10.0)
    return verify.default_functionals(horizon)


def _require(cfg: dict, *keys):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigurationError(
            f"config for kind {cfg.get('kind')!r} is missing {missing}")


def _run_invariance(cfg: dict) -> TestReport:
    _require(cfg, "law", "rule", "N")
    sampler = _law_from(cfg)
    rule = parse_rule(cfg["rule"])
    return verify.invariance_test(
        sampler, rule, _build_functionals(cfg, sampler), int(cfg["N"]),
        alpha=float(cfg.get("alpha", verify.DEFAULT_ALPHA)),
        workers=int(cfg.get("workers", 1)))


def _run_bound(cfg: dict) -> TestReport:
    _require(cfg, "law", "rule", "a", "b", "N", "bound_cap")
    sampler = _law_from(cfg)
    return verify.bound_check(
        sampler, Fraction(cfg["a"]), Fraction(cfg["b"]),
        parse_rule(cfg["rule"]), float(cfg["bound_cap"]), int(cfg["N"]),
        workers=int(cfg.get("workers", 1)))


def _run_ladder(cfg: dict) -> TestReport:
    _require(cfg, "a", "b", "n")
    a, b, n = Fraction(cfg["a"]), Fraction(cfg["b"]), int(cfg["n"])
    ladder = ladder_levels(a, b, n)
    violations = 0
    for k in range(1, n + 1):
        c_prev, c = ladder.levels[k - 1], ladder.levels[k]
        ok = (-a < c < b
              and not is_dyadic((c + a) / (b + a))
              and ladder.steps[k - 1] == min(c_prev + a, b - c_prev)
              and 2 * c_prev == c + ladder.exits[k - 1])
        violations += 0 if ok else 1
    print("levels:", ", ".join(str(c) for c in ladder.levels))
    print("steps:", ", ".join(str(s) for s in ladder.steps))
    table = []
    sources = []
    n_paths = int(cfg.get("N", 0))
    if n_paths:
        sampler = _law_from(cfg, default=DEFAULT_LAW)
        sources = [(str(i), sampler.sample(i)) for i in range(n_paths)]
    for fname in cfg.get("paths_csv", []):
        with open(fname) as fp:
            sources.append((fname, load_csv(fp)))
    if sources:
        header = ["path"] + [f"tau_{k}" for k in range(n + 1)]
        print("\t".join(header))
        for label, path in sources:
            times = ladder_trace(a, b, path, n).times
            row = [label] + [format_time(t) for t in times]
            table.append(row)
            print("\t".join(row))
    return TestReport(
        name="ladder",
        params={"a": a, "b": b, "n": n,
                "levels": [str(c) for c in ladder.levels],
                "steps": [str(s) for s in ladder.steps],
                "tau_table": table},
        seed=cfg["seed"], sample_size=len(table),
        statistics=[Statistic.judged("ladder_invariant_violations",
                                     violations, 0.0, "abs_below")],
    )


def _run_signs(cfg: dict) -> TestReport:
    _require(cfg, "law", "a", "b", "n", "N")
    sampler = _law_from(cfg)
    return verify.sign_identity_test(
        sampler, Fraction(cfg["a"]), Fraction(cfg["b"]), int(cfg["n"]),
        int(cfg["N"]), workers=int(cfg.get("workers", 1)))


def _run_suite(cfg: dict) -> TestReport:
    _require(cfg, "N")
    sampler = _law_from(cfg) if "law" in cfg else None
    return verify.stability_suite(int(cfg["N"]), seed=cfg["seed"],
                                  sampler=sampler,
                                  workers=int(cfg.get("workers", 1)))


def _run_lemmas(cfg: dict) -> TestReport:
    limit = int(cfg.get("limit", 200))
    n_max = int(cfg.get("n_max", 12))
    sweep = verify.non_dyadic_sweep(limit)
    formula = verify.advance_formula_check(n_max)
    return TestReport(
        name="lemmas",
        params={"limit": limit, "n_max": n_max},
        seed=None,
        sample_size=sweep.sample_size + formula.sample_size,
        statistics=sweep.statistics + formula.statistics,
    )


_KINDS = {
    "invariance": _run_invariance,
    "bound": _run_bound,
    "ladder": _run_ladder,
    "signs": _run_signs,
    "suite": _run_suite,
    "lemmas": _run_lemmas,
}


def _dump_paths(cfg: dict, out_dir: FsPath) -> None:
    k = int(cfg.get("dump_paths", 0))
    if k <= 0:
        return
    sampler = _law_from(cfg, default=DEFAULT_LAW)
    for i in range(k):
        name = "paths.csv" if i == 0 else f"paths_{i:03d}.csv"
        with open(out_dir / name, "w", newline="") as fp:
            dump_csv(sampler.sample(i), fp)


def write_outputs(report: TestReport, out_dir: FsPath) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    # timestamp isolated to this single key; everything else is a pure
    # function of config and seed
    payload["generated_at"] = datetime.datetime.now(
        datetime.timezone.utc).isoformat()
    with open(out_dir / "report.json", "w") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")
    with open(out_dir / "summary.csv", "w", newline="") as fp:
        writer = csv.DictWriter(
            fp, fieldnames=["test", "statistic", "threshold", "verdict",
                            "seed"])
        writer.writeheader()
        writer.writerows(report.csv_rows())


def run_config(cfg: dict) -> int:
    kind = cfg.get("kind")
    if kind not in _KINDS:
        raise ConfigurationError(
            f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    cfg.setdefault("seed", 0)
    report = _KINDS[kind](cfg)
    out_dir = FsPath(cfg.get("out_dir", "out"))
    write_outputs(report, out_dir)
    _dump_paths(cfg, out_dir)
    print(f"{report.name}: {report.verdict} "
          f"({len(report.statistics)} statistics) -> {out_dir}/report.json")
    return 0 if report.verdict == "pass" else 2


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    env_seed = os.environ.get("REFLECTLAB_SEED")
    if env_seed is not None:
        cfg["seed"] = int(env_seed)
    for key in ("seed", "N", "workers", "out_dir"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="reflectlab",
        description="reflection-invariance experiments on sampled paths")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to the config file")
    common(p_run)

    p_ladder = sub.add_parser("ladder", help="print the exact level ladder")
    p_ladder.add_argument("--a", default="1")
    p_ladder.add_argument("--b", default="2")
    p_ladder.add_argument("--n", type=int, default=16)
    p_ladder.add_argument("--law", default=None)
    common(p_ladder)

    p_lemmas = sub.add_parser("lemmas", help="exhaustive deterministic suites")
    p_lemmas.add_argument("--limit", type=int, default=200)
    p_lemmas.add_argument("--n-max", dest="n_max", type=int, default=12)
    common(p_lemmas)

    p_demo = sub.add_parser("demo-counterexample",
                            help="dyadic-ratio counterexample experiment")
    p_demo.add_argument("--c", default="3")
    common(p_demo)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config) as fp:
                cfg = json.load(fp)
            return run_config(_apply_overrides(cfg, args))
        if args.command == "ladder":
            cfg = {"kind": "ladder", "a": args.a, "b": args.b, "n": args.n,
                   "N": 0}
            if args.law:
                cfg["law"] = args.law
                cfg["N"] = 3
            return run_config(_apply_overrides(cfg, args))
        if args.command == "lemmas":
            cfg = {"kind": "lemmas", "limit": args.limit, "n_max": args.n_max}
            return run_config(_apply_overrides(cfg, args))
        if args.command == "demo-counterexample":
            cfg = _apply_overrides({"seed": 0}, args)
            report = verify.counterexample_demo(
                n_draws=int(cfg.get("N") or 100_000), seed=cfg["seed"],
                c=Fraction(args.c), workers=int(cfg.get("workers") or 1))
            out_dir = FsPath(cfg.get("out_dir", "out"))
            write_outputs(report, out_dir)
            print(f"{report.name}: {report.verdict} -> {out_dir}/report.json")
            return 0 if report.verdict == "pass" else 2
    except (ReflectlabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
