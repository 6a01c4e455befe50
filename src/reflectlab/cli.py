"""Experiment runner.

Subcommands, each of which runs a config through ``run_config``:

* ``run <config.json>``       execute one experiment described by a JSON
                              config; flags override config keys.
* ``ladder``                  print the exact level sequence and a per-path
                              table of ladder times (kind ladder).
* ``lemmas``                  deterministic exhaustive suites (non-dyadic
                              triples, advance-formula check; kind lemmas).
* ``demo-counterexample``     the dyadic-ratio counterexample experiment
                              (kind counterexample, N = 100000 by default).

Each run writes ``report.json`` and ``summary.csv`` into the output
directory, and optional path dumps.  A path file holds exactly what the path
holds: header ``t,dx,exact``, one row per knot with its time, the increment
that reaches it (``0.0`` at knot 0) and its exact anchor as ``p/q`` (empty
when it has none), floats written with ``repr``, so a reloaded path is the
dumped one bit for bit.  Exit status: 0 when every verdict
passes, 2 when any verdict fails, 1 on configuration or runtime errors.
The environment variable ``REFLECTLAB_SEED`` overrides the config seed
(an explicit ``--seed`` flag wins over both).

Config keys (``_KINDS`` lists the keys each kind requires and takes; a
config that lacks a required key or holds any other key is rejected):

    kind        invariance | bound | ladder | signs | suite | lemmas
                | counterexample
    law         law spec, e.g. "bm(dt=1e-3,T=10)"; it alone sets the grid
    rule        rule spec string, e.g. "Tpm(1,2)"
    a, b        exact rationals as strings "p/q"
    c           the counterexample's upper barrier, a rational
    n           ladder depth / word length
    N           number of draws
    seed        base seed (64-bit int)
    alpha       significance level for invariance tests
    bound_cap   uniform bound that stopped paths must respect
    functionals functional specs (see parse_functional); [] for the defaults
    limit       sweep bound for the non-dyadic triple check
    n_max       maximal word length for the advance-formula check
    workers     computing processes, the calling one included; results do
                not depend on it (draws are sharded by index)
    paths_csv   list of path files (as written by dump_paths) to load for
                the ladder table (alongside or instead of sampled draws)
    out_dir     output directory
    dump_paths  dump the first k sampled paths as path files

``_KEYS`` gives each key its check and, where a kind may leave the key
out, its default; every key of a config is checked before anything is
parsed, drawn or written.  A count is a nonnegative integer by the
library's own rule (``rational._as_int``), a rational an integer or a
string, a real a number or a string that float() reads, and none of them
true/false, so that none is rounded or read as 1 or 0.  Then
the law of every kind that takes one, the default law included, is built
once, so that a bad law exits 1 before anything runs or is written; the
runners read it from ``cfg["law"]``.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path as FsPath

from . import verify
from .errors import ConfigurationError, ReflectlabError, RuleError
from .path import dump_csv, load_csv
from .rational import _as_int, as_rational
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


def parse_functional(spec: str):
    """Functional specs: value_at:<t> | running_max | hitting_time:<level> |
    value_at_rule:<rule spec>."""
    if spec == "running_max":
        return RunningMax()
    if spec.startswith("value_at_rule:"):
        rule_spec = spec.split(":", 1)[1]
        return ValueAtRuleTime(parse_rule(rule_spec), rule_spec)
    if spec.startswith("value_at:"):
        return ValueAtTime(_real("value_at time", spec.split(":", 1)[1]))
    if spec.startswith("hitting_time:"):
        return HittingTime(_real("hitting_time level", spec.split(":", 1)[1]))
    raise ConfigurationError(f"cannot parse functional {spec!r}")


def _run_invariance(cfg: dict) -> TestReport:
    sampler, specs = cfg["law"], cfg["functionals"]
    return verify.invariance_test(
        sampler, parse_rule(cfg["rule"]),
        [parse_functional(s) for s in specs] if specs
        else verify.default_functionals(sampler.horizon),
        cfg["N"], alpha=cfg["alpha"], workers=cfg["workers"])


def _run_bound(cfg: dict) -> TestReport:
    return verify.bound_check(
        cfg["law"], cfg["a"], cfg["b"], parse_rule(cfg["rule"]),
        cfg["bound_cap"], cfg["N"], workers=cfg["workers"])


def _run_ladder(cfg: dict) -> TestReport:
    a, b, n = cfg["a"], cfg["b"], cfg["n"]
    ladder = ladder_levels(a, b, n)
    print("levels:", ", ".join(str(c) for c in ladder.levels))
    print("steps:", ", ".join(str(s) for s in ladder.steps))
    params = {"a": a, "b": b, "n": n,
              "levels": [str(c) for c in ladder.levels],
              "steps": [str(s) for s in ladder.steps]}
    table, sources = [], []
    if cfg["N"]:
        law = cfg["law"]
        params["law"] = repr(law)
        sources = [(str(i), law.sample(i)) for i in range(cfg["N"])]
    for fname in cfg["paths_csv"]:
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
    params["tau_table"] = table
    return TestReport(
        name="ladder", params=params, seed=cfg["seed"],
        sample_size=len(table),
        statistics=[Statistic.judged("ladder_invariant_violations",
                                     ladder.violations(), 0.0, "abs_below")])


def _run_signs(cfg: dict) -> TestReport:
    return verify.sign_identity_test(
        cfg["law"], cfg["a"], cfg["b"], cfg["n"], cfg["N"],
        workers=cfg["workers"])


def _run_suite(cfg: dict) -> TestReport:
    return verify.stability_suite(cfg["N"], seed=cfg["seed"],
                                  sampler=cfg["law"], workers=cfg["workers"])


def _run_lemmas(cfg: dict) -> TestReport:
    limit, n_max = cfg["limit"], cfg["n_max"]
    sweep = verify.non_dyadic_sweep(limit)
    formula = verify.advance_formula_check(n_max)
    return TestReport(
        name="lemmas", params={"limit": limit, "n_max": n_max}, seed=None,
        sample_size=sweep.sample_size + formula.sample_size,
        statistics=sweep.statistics + formula.statistics)


def _run_counterexample(cfg: dict) -> TestReport:
    return verify.counterexample_demo(cfg["N"], seed=cfg["seed"], c=cfg["c"],
                                      workers=cfg["workers"])


#: kind -> (runner, required keys, optional keys); every kind also takes
#: the _COMMON_KEYS.  run_config builds the law of every kind that takes
#: one before the runner; dump_paths draws it, so only those kinds take
#: dump_paths.
_KINDS = {
    "invariance": (_run_invariance, ("law", "rule", "N"),
                   ("functionals", "alpha", "workers", "dump_paths")),
    "bound": (_run_bound, ("law", "rule", "a", "b", "N", "bound_cap"),
              ("workers", "dump_paths")),
    "ladder": (_run_ladder, ("a", "b", "n"),
               ("law", "N", "paths_csv", "dump_paths")),
    "signs": (_run_signs, ("law", "a", "b", "n", "N"),
              ("workers", "dump_paths")),
    "suite": (_run_suite, ("N",), ("law", "workers", "dump_paths")),
    "lemmas": (_run_lemmas, (), ("limit", "n_max")),
    "counterexample": (_run_counterexample, ("N",), ("c", "workers")),
}
_COMMON_KEYS = ("kind", "seed", "out_dir")


#: a count key's check: a nonnegative integer, so 2.9 or true cannot run as
#: 2 or 1
_count = partial(_as_int, error=ConfigurationError, nonnegative=True)


def _real(key: str, value) -> float:
    """A float key's value as a float: ConfigurationError unless float()
    takes it and it is not a bool, so true cannot run as 1.0."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ConfigurationError(f"{key} must be a real number, got {value!r}")


def _rational(key: str, value) -> Fraction:
    try:
        return as_rational(value)
    except RuleError as exc:
        raise ConfigurationError(
            f"{key} must be an exact rational, got {value!r}: {exc}") from None


def _string(key: str, value) -> str:
    if isinstance(value, str):
        return value
    raise ConfigurationError(f"{key} must be a string, got {value!r}")


def _strings(key: str, value) -> list:
    if isinstance(value, list) and all(isinstance(s, str) for s in value):
        return value
    raise ConfigurationError(
        f"{key} must be a list of strings, got {value!r}")


#: key -> (check, default): check(key, value) returns what the runners
#: read or raises ConfigurationError; a key left out reads as its default
#: (None where every kind that takes the key requires it).
_KEYS = {
    "kind": (_string, None),
    "law": (_string, "bm(dt=1e-3,T=10)"),
    "rule": (_string, None),
    "a": (_rational, None),
    "b": (_rational, None),
    "c": (_rational, Fraction(3)),
    "n": (_count, None),
    "N": (_count, 0),
    "seed": (_count, 0),
    "alpha": (_real, verify.DEFAULT_ALPHA),
    "bound_cap": (_real, None),
    "functionals": (_strings, ()),
    "limit": (_count, 200),
    "n_max": (_count, 12),
    "workers": (_count, 1),
    "paths_csv": (_strings, ()),
    "out_dir": (_string, "out"),
    "dump_paths": (_count, 0),
}


def _dump_paths(cfg: dict, out_dir: FsPath) -> None:
    for i in range(cfg["dump_paths"]):
        name = "paths.csv" if i == 0 else f"paths_{i:03d}.csv"
        with open(out_dir / name, "w", newline="") as fp:
            dump_csv(cfg["law"].sample(i), fp)


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
    # every value first, the kind's too: a list there cannot be looked up
    checked = {key: check(key, cfg[key]) if key in cfg else default
               for key, (check, default) in _KEYS.items()}
    kind = checked["kind"]
    if kind not in _KINDS:
        raise ConfigurationError(
            f"unknown kind {kind!r}; expected one of {sorted(_KINDS)}")
    run, required, optional = _KINDS[kind]
    missing = [k for k in required if k not in cfg]
    if missing:
        raise ConfigurationError(
            f"config for kind {kind!r} is missing {missing}")
    known = required + optional + _COMMON_KEYS
    unknown = sorted(set(cfg).difference(known))
    if unknown:
        raise ConfigurationError(
            f"config for kind {kind!r} has unknown keys {unknown}; it "
            f"takes {sorted(known)}")
    if "law" in known:
        # built once, here: a bad law exits before anything is run or written
        checked["law"] = parse_law(checked["law"], seed=checked["seed"])
    report = run(checked)
    out_dir = FsPath(checked["out_dir"])
    write_outputs(report, out_dir)
    _dump_paths(checked, out_dir)
    print(f"{report.name}: {report.verdict} "
          f"({len(report.statistics)} statistics) -> {out_dir}/report.json")
    return 0 if report.verdict == "pass" else 2


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    env_seed = os.environ.get("REFLECTLAB_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ConfigurationError(f"REFLECTLAB_SEED must be an integer, "
                                     f"got {env_seed!r}") from None
    for key, val in vars(args).items():
        if key in _KEYS and val is not None:
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
    p_lemmas.add_argument("--limit", type=int, default=None)
    p_lemmas.add_argument("--n-max", dest="n_max", type=int, default=None)
    common(p_lemmas)

    p_demo = sub.add_parser("demo-counterexample",
                            help="dyadic-ratio counterexample experiment")
    p_demo.add_argument("--c", default=None)
    common(p_demo)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # 2, argparse's status for a usage error, means a verdict failed
        return 1 if exc.code else 0
    try:
        if args.command == "run":
            with open(args.config) as fp:
                cfg = json.load(fp)
            if not isinstance(cfg, dict):
                raise ConfigurationError(
                    f"{args.config} does not hold a JSON object")
        elif args.command == "ladder":
            cfg = {"kind": "ladder"}
            if args.law:
                cfg["N"] = 3
        elif args.command == "lemmas":
            cfg = {"kind": "lemmas"}
        else:
            cfg = {"kind": "counterexample", "N": 100_000}
        return run_config(_apply_overrides(cfg, args))
    except (ReflectlabError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
