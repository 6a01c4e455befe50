"""CLI: config execution, outputs, exit codes, determinism."""

import csv
import hashlib
import json
import re

import pytest

from reflectlab import BrownianMotion
from reflectlab.cli import (
    _COMMON_KEYS,
    _KEYS,
    _KINDS,
    _real,
    main,
    parse_functional,
    run_config,
)
from reflectlab.errors import ConfigurationError, RuleError
from reflectlab.stopping import _MAX_RULE_DEPTH
from reflectlab.verify import (
    HittingTime,
    RunningMax,
    ValueAtTime,
    default_functionals,
)


def write_config(tmp_path, **cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json") as fp:
        return json.load(fp)


class TestRun:
    def test_invariance_pass_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="invariance", law="counterexample()",
            rule="Tpm(1,1)", N=1500, seed=3, out_dir=str(tmp_path / "out"),
            functionals=["value_at:2.0", "running_max"])
        assert main(["run", cfg]) == 0
        report = read_report(tmp_path / "out")
        assert report["verdict"] == "pass"
        assert report["seed"] == 3
        with open(tmp_path / "out" / "summary.csv") as fp:
            rows = list(csv.DictReader(fp))
        assert [r["verdict"] for r in rows] == ["pass", "pass"]

    def test_negative_control_exit_two(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="invariance", law="drift(0.5,dt=0.02,T=2)",
            rule="fixed(0)", N=3000, seed=1, out_dir=str(tmp_path / "out"),
            functionals=["value_at:1.0"])
        assert main(["run", cfg]) == 2
        assert read_report(tmp_path / "out")["verdict"] == "fail"

    def test_bad_config_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, kind="nonsense")
        assert main(["run", cfg]) == 1
        assert main(["run", str(tmp_path / "missing.json")]) == 1
        bad_rational = write_config(
            tmp_path, kind="ladder", a="1.5x", b="2", n=4,
            out_dir=str(tmp_path / "out"))
        assert main(["run", bad_rational]) == 1

    def test_string_seed_exit_one(self, tmp_path, capsys):
        # it used to raise TypeError at the first draw, past the CLI's
        # error handling
        cfg = write_config(
            tmp_path, kind="invariance", law="bm(dt=0.1,T=1)",
            rule="fixed(0)", N=1000, seed="3", out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 1
        assert "seed must be a nonnegative integer, got '3'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("cfg, message", [
        ({"kind": "ladder", "a": "1", "b": "2", "n": 4, "seed": "3"},
         "got '3'"),
        ({"kind": "lemmas", "limit": 10, "n_max": 4, "seed": -4},
         "got -4"),
    ], ids=["ladder-string", "lemmas-negative"])
    def test_seed_checked_for_kinds_without_sampler(self, tmp_path, capsys,
                                                    cfg, message):
        # such kinds used to write the seed into report.json unchecked
        path = write_config(tmp_path, out_dir=str(tmp_path / "out"), **cfg)
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert f"seed must be a nonnegative integer, {message}" in err
        assert not (tmp_path / "out").exists()

    def test_seed_checked_after_overrides(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, kind="ladder", a="1", b="2", n=4,
                            seed="3", out_dir=str(tmp_path / "out"))
        assert main(["run", path, "--seed", "4"]) == 0
        assert read_report(tmp_path / "out")["seed"] == 4
        monkeypatch.setenv("REFLECTLAB_SEED", "5")
        assert main(["run", path]) == 0
        assert read_report(tmp_path / "out")["seed"] == 5

    def test_dyadic_ladder_exit_one(self, tmp_path):
        cfg = write_config(tmp_path, kind="ladder", a="1", b="3", n=4,
                           out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 1

    def test_ladder_kind_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, kind="ladder", a="1", b="2", n=6,
                           N=2, law="bm(dt=0.01,T=4)", seed=5,
                           out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "levels: 0, 1, 0, 1, 0, 1, 0" in out
        assert "tau_6" in out
        report = read_report(tmp_path / "out")
        assert len(report["params"]["tau_table"]) == 2

    def test_signs_kind(self, tmp_path):
        cfg = write_config(tmp_path, kind="signs", law="bm(dt=0.02,T=2)",
                           a="1", b="2", n=3, N=120, seed=6,
                           out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0

    def test_suite_kind(self, tmp_path):
        cfg = write_config(tmp_path, kind="suite", law="bm(dt=0.02,T=3)",
                           N=30, seed=7, out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0

    def test_bound_kind(self, tmp_path):
        cfg = write_config(
            tmp_path, kind="bound", law="bm(dt=0.02,T=2)",
            rule="min(Tpm(1,1),fixed(1.0))", a="1", b="1", N=1200,
            bound_cap=1.0, seed=8, out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0

    def test_path_dumps(self, tmp_path):
        cfg = write_config(tmp_path, kind="ladder", a="1", b="2", n=2,
                           law="bm(dt=0.1,T=1)", N=1, seed=9,
                           dump_paths=2, out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0
        assert (tmp_path / "out" / "paths.csv").exists()
        assert (tmp_path / "out" / "paths_001.csv").exists()
        header = (tmp_path / "out" / "paths.csv").read_text().splitlines()[0]
        assert header == "t,dx,exact"

    def test_ladder_dumps_the_draws_it_tabulates(self, tmp_path,
                                                 monkeypatch):
        import io

        from reflectlab import BrownianMotion, dump_csv
        law = BrownianMotion(dt=0.01, horizon=2.0, seed=21)
        expected = []
        for i in range(3):
            fp = io.StringIO(newline="")
            dump_csv(law.sample(i), fp)
            expected.append(fp.getvalue())
        drawn = []
        sample = BrownianMotion.sample

        def counted(self, index):
            drawn.append(index)
            return sample(self, index)

        monkeypatch.setattr(BrownianMotion, "sample", counted)
        cfg = write_config(tmp_path, kind="ladder", a="1", b="2", n=4,
                           law="bm(dt=0.01,T=2)", N=3, seed=21, dump_paths=3,
                           out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0
        assert set(drawn) == {0, 1, 2}
        names = ["paths.csv", "paths_001.csv", "paths_002.csv"]
        written = [(tmp_path / "out" / name).read_bytes().decode()
                   for name in names]
        assert written == expected

    def test_dumped_paths_reload_to_the_same_tau_table(self, tmp_path):
        # dump sampled paths, then read them back in a second ladder run:
        # the reloaded paths give the sampled run's ladder times exactly
        # (a file of rounded knot values moves the times of draws 4 and 5)
        cfg = write_config(tmp_path, kind="ladder", a="1", b="2", n=6,
                           law="bm(dt=0.01,T=3)", N=6, seed=13, dump_paths=6,
                           out_dir=str(tmp_path / "sampled"))
        assert main(["run", cfg]) == 0
        names = ["paths.csv"] + [f"paths_{i:03d}.csv" for i in range(1, 6)]
        cfg = write_config(tmp_path, kind="ladder", a="1", b="2", n=6,
                           paths_csv=[str(tmp_path / "sampled" / name)
                                      for name in names],
                           out_dir=str(tmp_path / "reloaded"))
        assert main(["run", cfg]) == 0
        sampled = read_report(tmp_path / "sampled")["params"]["tau_table"]
        reloaded = read_report(tmp_path / "reloaded")["params"]["tau_table"]
        assert [row[1:] for row in reloaded] == [row[1:] for row in sampled]


class TestDeterminism:
    def _run_twice(self, tmp_path, seed_flags_a, seed_flags_b):
        cfg = write_config(
            tmp_path, kind="invariance", law="counterexample()",
            rule="fixed(0)", N=1000, seed=11,
            functionals=["value_at:2.0", "running_max"])
        assert main(["run", cfg, "--out-dir", str(tmp_path / "a")]
                    + seed_flags_a) == 0
        assert main(["run", cfg, "--out-dir", str(tmp_path / "b")]
                    + seed_flags_b) == 0
        strip = re.compile(r'^\s*"generated_at".*$', re.M)
        a = strip.sub("", (tmp_path / "a" / "report.json").read_text())
        b = strip.sub("", (tmp_path / "b" / "report.json").read_text())
        return a, b

    def test_byte_identical_modulo_timestamp(self, tmp_path):
        a, b = self._run_twice(tmp_path, [], [])
        assert a == b

    def test_seed_changes_report(self, tmp_path):
        a, b = self._run_twice(tmp_path, [], ["--seed", "12"])
        assert a != b

    def test_env_seed_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REFLECTLAB_SEED", "12")
        a, _ = self._run_twice(tmp_path, [], [])
        assert json.loads(a.replace(",\n\n", ",\n"))["seed"] == 12


def report_digest(out_dir):
    """sha256 of report.json without its generated_at line, and for a
    ladder or bound report without its params.law line: neither recorded
    a law when the digests below were pinned."""
    lines = (out_dir / "report.json").read_text().splitlines(keepends=True)
    no_law = {'  "name": "ladder",\n', '  "name": "bound_check",\n'}
    law_added = not no_law.isdisjoint(lines)
    kept = [line for line in lines
            if not line.startswith('  "generated_at": ')
            and not (law_added and line.startswith('    "law": '))]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


# name -> (config, or CLI arguments before --out-dir; exit status; report
# digest).  Every report-writing config of this file, run in a fresh
# directory that holds line.csv (a straight line from 0 to 3 at time 3).
# The digests were taken before the config keys were checked, the
# demo-counterexample subcommand ran through run_config and the ladder
# recorded its law; those changes must keep every byte of these reports.
REPORTS = {
    "invariance": (
        {"kind": "invariance", "law": "counterexample()", "rule": "Tpm(1,1)",
         "N": 1500, "seed": 3, "functionals": ["value_at:2.0", "running_max"]},
        0,
        "fecafd1fac7ea4f43a5ba813053de512a1c75e91d4548b4840631372f3294fc2"),
    "invariance-seed-11": (
        {"kind": "invariance", "law": "counterexample()", "rule": "fixed(0)",
         "N": 1000, "seed": 11,
         "functionals": ["value_at:2.0", "running_max"]},
        0,
        "98c6364c504895b9e79cbcc70349250626ac640719756fdbb4800018f6cb6cea"),
    "negative-control": (
        {"kind": "invariance", "law": "drift(0.5,dt=0.02,T=2)",
         "rule": "fixed(0)", "N": 3000, "seed": 1,
         "functionals": ["value_at:1.0"]},
        2,
        "5ee4f16ee44bded0c8eddd4475da6305fbc8153006e35bf5f348967e0fae7698"),
    "bound": (
        {"kind": "bound", "law": "bm(dt=0.02,T=2)",
         "rule": "min(Tpm(1,1),fixed(1.0))", "a": "1", "b": "1", "N": 1200,
         "bound_cap": 1.0, "seed": 8},
        0,
        "b8dce68e427f4de80d628dd156193f6cc3cd3ec439c710572164619707ba9418"),
    "signs": (
        {"kind": "signs", "law": "bm(dt=0.02,T=2)", "a": "1", "b": "2",
         "n": 3, "N": 120, "seed": 6},
        0,
        "50616ba397ba9474f840d946a10c48d48f39213eb1021cef0d63226bed57485a"),
    "suite": (
        {"kind": "suite", "law": "bm(dt=0.02,T=3)", "N": 30, "seed": 7},
        0,
        "f2af3f784118074864242300e5a38b1c0e654c05270d8d4282d84a8241ffecd9"),
    "suite-default-law": (
        {"kind": "suite", "N": 3, "seed": 7}, 0,
        "fd6dac284799056ff9ebc68437cf7299414f61989c4caf69067870d2b5d268cd"),
    "ladder-no-draws": (
        {"kind": "ladder", "a": "1", "b": "2", "n": 4, "seed": 4}, 0,
        "b11e6c0aea68ff2a9d6212bf573a4dd5f89f2be0d16e2e3aacfa82f71576610b"),
    "ladder-draws": (
        {"kind": "ladder", "a": "1", "b": "2", "n": 6, "N": 2,
         "law": "bm(dt=0.01,T=4)", "seed": 5},
        0,
        "d6cebd638574d9d31d768d82ec4e351b5a175bcacdb27a807f0e58e6d7a31f5c"),
    "ladder-dumps": (
        {"kind": "ladder", "a": "1", "b": "2", "n": 4, "N": 3,
         "law": "bm(dt=0.01,T=2)", "seed": 21, "dump_paths": 3},
        0,
        "e3c6b52bc680b2f82c951f8097f6f024708ca7a925d4d8277214f2cedb867455"),
    "ladder-default-law": (
        {"kind": "ladder", "a": "1", "b": "2", "n": 2, "N": 1, "seed": 9},
        0,
        "5eb4f3e2e215533b3d50551ccda3ed8d05007d900ccfe1ac0e0e7c313392a496"),
    "ladder-csv": (
        {"kind": "ladder", "a": "1", "b": "2", "n": 3,
         "paths_csv": ["line.csv"], "seed": 0},
        0,
        "3d7e918a32dc5f09bbab4c56b53890e8185e00b5b21007b64eefed333ee18eae"),
    "lemmas-subcommand": (
        ["lemmas", "--limit", "25", "--n-max", "6"], 0,
        "bfb1283f5ab02de7108bff6f0c3e0972cac7cf02b218ff953e78856a2cd7b7f9"),
    "ladder-subcommand": (
        ["ladder", "--a", "2", "--b", "3", "--n", "8"], 0,
        "d32cfaa0ac2d59cd267e8e2bcb1ae9b9d1952af9f10a77f4d2509e1adcfc3995"),
    "ladder-subcommand-law": (
        ["ladder", "--a", "1", "--b", "2", "--n", "4",
         "--law", "bm(dt=0.1,T=2)", "--seed", "2"],
        0,
        "aa08fb382b916da4ac4f19a6d6142c056169a2f8064f275ce5fc905473498749"),
    "demo-subcommand": (
        ["demo-counterexample", "--N", "1500"], 0,
        "5f9f8e7390bf50799bca753fb86e219cc1f0c48880347e3a30f2516854c3afe4"),
}


def run_in(directory, monkeypatch, args):
    """main's exit status for a config dict or CLI arguments, run in
    directory (which gets line.csv) with output to its out/."""
    import numpy as np
    from reflectlab import Path, dump_csv
    monkeypatch.chdir(directory)
    with open("line.csv", "w", newline="") as fp:
        dump_csv(Path(np.array([0.0, 3.0]), np.array([3.0])), fp)
    if isinstance(args, dict):
        args = ["run", write_config(directory, **args)]
    return main(args + ["--out-dir", "out"])


class TestReportDigests:
    @pytest.mark.parametrize("name", sorted(REPORTS))
    def test_report_digest(self, name, tmp_path, monkeypatch):
        args, status, digest = REPORTS[name]
        assert run_in(tmp_path, monkeypatch, args) == status
        assert report_digest(tmp_path / "out") == digest

    def test_ladder_records_its_law_when_it_draws(self, tmp_path,
                                                  monkeypatch):
        for name, law in (("ladder-draws", "BrownianMotion(dt=0.01, "
                           "horizon=4.0, seed=5)"),
                          ("ladder-default-law", "BrownianMotion(dt=0.001, "
                           "horizon=10.0, seed=9)"),
                          ("ladder-no-draws", None),
                          ("ladder-csv", None)):
            assert run_in(tmp_path, monkeypatch, REPORTS[name][0]) == 0
            assert read_report(tmp_path / "out")["params"].get("law") == law

    def test_bound_records_its_law(self, tmp_path, monkeypatch):
        assert run_in(tmp_path, monkeypatch, REPORTS["bound"][0]) == 0
        assert read_report(tmp_path / "out")["params"]["law"] == \
            "BrownianMotion(dt=0.02, horizon=2.0, seed=8)"

    def test_counterexample_config_gives_the_subcommand_report(
            self, tmp_path, monkeypatch):
        cfg = {"kind": "counterexample", "N": 1500}
        assert run_in(tmp_path, monkeypatch, cfg) == 0
        assert report_digest(tmp_path / "out") == \
            REPORTS["demo-subcommand"][2]


# a valid config of each kind; none of them runs in the tests below
KINDS = {
    "invariance": REPORTS["invariance"][0],
    "bound": REPORTS["bound"][0],
    "ladder": REPORTS["ladder-draws"][0],
    "signs": REPORTS["signs"][0],
    "suite": REPORTS["suite"][0],
    "lemmas": {"kind": "lemmas", "limit": 25, "n_max": 6},
    "counterexample": {"kind": "counterexample", "N": 1500, "c": "3"},
}


class TestConfigKeys:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_unknown_key_exit_one(self, kind, tmp_path, capsys):
        path = write_config(tmp_path, **KINDS[kind], colour="blue",
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        err = capsys.readouterr().err
        assert f"config for kind '{kind}' has unknown keys ['colour']" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind in sorted(KINDS) for key in _KINDS[kind][1]])
    def test_missing_key_exit_one(self, kind, key, tmp_path, capsys):
        cfg = {k: v for k, v in KINDS[kind].items() if k != key}
        path = write_config(tmp_path, **cfg, out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert f"is missing ['{key}']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind in ("bound", "ladder", "signs")
        for key in ("a", "b")])
    def test_float_barrier_exit_one(self, kind, key, tmp_path, capsys):
        # a JSON float used to run on its binary value, recorded as such
        path = write_config(tmp_path, **{**KINDS[kind], key: 0.1},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "expected int, str or Fraction, got float" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key", [
        (kind, key) for kind in ("bound", "ladder", "signs")
        for key in ("a", "b")] + [("counterexample", "c")])
    @pytest.mark.parametrize("value", [True, False])
    def test_bool_barrier_exit_one(self, kind, key, value, tmp_path, capsys):
        # a JSON true used to run as the barrier 1, recorded as "1"
        path = write_config(tmp_path, **{**KINDS[kind], key: value},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert f"{key} must be an exact rational, got {value!r}" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, key, value", [
        ("ladder", "N", 2.9),  # used to run 2 draws
        ("ladder", "N", True),  # used to run 1 draw
        ("signs", "n", True),
        ("suite", "workers", True),
        ("lemmas", "limit", 25.0),
        ("lemmas", "n_max", -1),
        ("ladder", "dump_paths", True),
    ], ids=["N-float", "N-bool", "n-bool", "workers-bool", "limit-float",
            "n_max-negative", "dump_paths-bool"])
    def test_count_not_an_integer_exit_one(self, kind, key, value, tmp_path,
                                           capsys):
        path = write_config(tmp_path, **{**KINDS[kind], key: value},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert f"{key} must be a nonnegative integer, got {value!r}" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("law", ["nope(1)", "bm(dt=0.3,T=1)"])
    @pytest.mark.parametrize("dumps", [{"dump_paths": 1}, {}],
                             ids=["dumps", "no-dumps"])
    def test_bad_ladder_law_exit_one(self, law, dumps, tmp_path, capsys):
        # with dumps the law was built after report.json and summary.csv
        # were written; without, a run that draws nothing never built it
        # and exited 0
        path = write_config(tmp_path, kind="ladder", a="1", b="2", n=4,
                            law=law, **dumps, out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", sorted(
        kind for kind, (_, required, optional) in _KINDS.items()
        if "law" in required + optional))
    def test_bad_law_exit_one(self, kind, tmp_path, capsys):
        path = write_config(tmp_path, **{**KINDS[kind], "law": "nope(1)"},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "unknown law 'nope'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("limit", [0, 2])
    def test_lemmas_with_no_triple_exit_one(self, limit, tmp_path, capsys):
        # a sweep of no triple used to report a pass and exit 0
        path = write_config(tmp_path, **{**KINDS["lemmas"], "limit": limit},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert f"limit must be at least 3, got {limit}" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_signs_of_empty_words_exit_one(self, tmp_path, capsys):
        # words of length 0 used to report a pass with every count 0
        path = write_config(tmp_path, **{**KINDS["signs"], "n": 0},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "error: n must be at least 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["ladder", "signs"])
    def test_grid_too_large_exit_one(self, kind, tmp_path, capsys):
        # a grid of 10^12 + 1 knots ended in NumPy's allocation traceback
        path = write_config(tmp_path, **{**KINDS[kind],
                                         "law": "bm(dt=1e-12,T=1)"},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "error: a grid of 1000000000001 knots" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bound_zero_barrier_exit_one(self, tmp_path, capsys):
        # it drew every path, then raised ZeroDivisionError as a traceback
        path = write_config(tmp_path, **{**KINDS["bound"], "a": "0"},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "error: a, b and bound_cap must be positive" in \
            capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind, keys, message", [
        ("bound", ("a", "b"), "a + b has no finite float value"),
        ("counterexample", ("c",), "c has no finite float value"),
    ], ids=["bound", "counterexample"])
    def test_overflowing_barrier_exit_one(self, kind, keys, message,
                                          tmp_path, capsys):
        # a Python traceback from float() used to end the run
        big = str(10 ** 400)
        path = write_config(tmp_path,
                            **{**KINDS[kind], **dict.fromkeys(keys, big)},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    def test_bound_infinite_cap_exit_one(self, tmp_path, capsys):
        # it ran with the cap turned off and passed with |path| above a + b
        path = write_config(tmp_path, **{**KINDS["bound"], "bound_cap": "inf"},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "error: a, b and bound_cap must be positive and bound_cap " \
            "finite, got 1, 1 and inf" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("kind, key", [
        ("invariance", "alpha"),  # used to run at alpha 1.0
        ("bound", "bound_cap"),  # used to run with the cap 1.0
    ])
    def test_bool_float_key_exit_one(self, kind, key, tmp_path, capsys):
        path = write_config(tmp_path, **{**KINDS[kind], key: True},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert f"{key} must be a real number, got True" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value", [1, 0.2, "0.01", "1e-3"])
    def test_float_key_takes_what_float_reads(self, value):
        assert _real("alpha", value) == float(value)

    @pytest.mark.parametrize("key, kind, value", [
        ("kind", "suite", ["suite"]),  # used to end in a traceback
        ("law", "suite", None),  # a traceback
        ("rule", "invariance", 5),  # a traceback
        ("a", "ladder", None),
        ("b", "signs", [2]),
        ("c", "counterexample", None),
        ("n", "signs", "3"),
        ("N", "suite", "30"),
        ("seed", "lemmas", None),
        ("alpha", "invariance", [0.1]),
        ("bound_cap", "bound", None),
        ("functionals", "invariance", [1]),  # a traceback
        ("functionals", "invariance", None),  # used to run the defaults
        ("limit", "lemmas", "25"),
        ("n_max", "lemmas", None),
        ("workers", "suite", "1"),
        # opened a file named after its first character
        ("paths_csv", "ladder", "line.csv"),
        ("out_dir", "ladder", 5),  # a traceback after the whole run
        ("dump_paths", "ladder", "1"),
    ], ids=lambda v: v if isinstance(v, str) else json.dumps(v))
    def test_wrong_json_type_exit_one(self, key, kind, value, tmp_path,
                                      monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, **{**KINDS[kind], key: value})
        assert main(["run", "config.json"]) == 1
        assert f"error: {key} must be " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_every_key_has_a_check(self):
        taken = set(_COMMON_KEYS).union(
            *(required + optional for _, required, optional
              in _KINDS.values()))
        assert set(_KEYS) == taken

    @pytest.mark.parametrize("alpha", [-1, "nan"])
    def test_alpha_outside_unit_interval_exit_one(self, alpha, tmp_path,
                                                  capsys):
        # -1 used to pass every statistic, "nan" to fail every one
        path = write_config(tmp_path, **{**KINDS["invariance"],
                                         "alpha": alpha},
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "error: alpha must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_functionals_mean_the_defaults(self, tmp_path):
        path = write_config(tmp_path, kind="invariance", law="bm(dt=0.1,T=1)",
                            rule="fixed(0)", N=1000, functionals=[],
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 0
        names = [s["name"] for s in
                 read_report(tmp_path / "out")["statistics"]]
        assert names == [f.name for f in default_functionals(1.0)]

    def test_misspelled_alpha_exit_one(self, tmp_path, capsys):
        # it used to run at the default alpha, 0.001, and record that
        path = write_config(tmp_path, **KINDS["invariance"], aplha=0.2,
                            out_dir=str(tmp_path / "out"))
        assert main(["run", path]) == 1
        assert "unknown keys ['aplha']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_not_an_object_exit_one(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["run", str(path)]) == 1

    def test_flag_the_kind_does_not_take_exit_one(self, tmp_path, capsys):
        assert main(["lemmas", "--N", "5",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "unknown keys ['N']" in capsys.readouterr().err


class TestLemmasAndDemo:
    def test_lemmas_subcommand(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["lemmas", "--limit", "25", "--n-max", "6",
                     "--out-dir", out]) == 0
        report = read_report(tmp_path / "out")
        names = {s["name"] for s in report["statistics"]}
        assert "triple_failures" in names
        assert "formula_mismatches" in names

    def test_ladder_subcommand(self, tmp_path, capsys):
        assert main(["ladder", "--a", "2", "--b", "3", "--n", "8",
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert "levels: 0, 2, 1, -1, 0" in capsys.readouterr().out

    def test_demo_subcommand_small(self, tmp_path):
        assert main(["demo-counterexample", "--N", "1500",
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert read_report(tmp_path / "out")["name"] == "counterexample_demo"

    def test_demo_subcommand_checks_its_size(self, tmp_path, capsys):
        # --N 0 used to run 100,000 draws
        assert main(["demo-counterexample", "--N", "0", "--workers", "0",
                     "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "invariance test needs at least 10^3 draws" in err
        assert not (tmp_path / "out").exists()


class TestUsageErrors:
    # argparse exited 2 on its own errors, the status of a failed verdict
    @pytest.mark.parametrize("argv, message", [
        (["ladder", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
        (["lemmas", "--limit", "2.5"],
         "argument --limit: invalid int value: '2.5'"),
        (["lemmas", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ], ids=["ladder-n", "lemmas-limit", "unknown-flag", "no-subcommand"])
    def test_usage_error_exit_one(self, argv, message, tmp_path, capsys,
                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [["--help"], ["ladder", "--help"]])
    def test_help_exit_zero(self, argv, capsys):
        assert main(argv) == 0
        assert "usage: reflectlab" in capsys.readouterr().out

    def test_env_seed_not_an_integer_exit_one(self, tmp_path, capsys,
                                              monkeypatch):
        # the message was only int()'s "invalid literal for int()"
        monkeypatch.setenv("REFLECTLAB_SEED", "abc")
        assert main(["lemmas", "--limit", "3",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert "error: REFLECTLAB_SEED must be an integer, got 'abc'" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def nested_rule(depth):
    """fixed(1) inside depth - 1 layers of min(..., fixed(1)): a rule spec
    nested depth calls deep."""
    spec = "fixed(1)"
    for _ in range(depth - 1):
        spec = f"min({spec},fixed(1))"
    return spec


class TestRuleDepth:
    def bound_config(self, tmp_path, depth):
        return {"kind": "bound", "law": "bm(dt=0.1,T=1)",
                "rule": nested_rule(depth), "a": "1", "b": "2", "N": 4,
                "bound_cap": 10.0, "out_dir": str(tmp_path / "out")}

    def test_deepest_rule_runs(self, tmp_path):
        assert run_config(self.bound_config(tmp_path, _MAX_RULE_DEPTH)) == 0
        report = read_report(tmp_path / "out")
        assert report["params"]["rule"].count("MinOf(") == \
            _MAX_RULE_DEPTH - 1

    @pytest.mark.parametrize("depth", [_MAX_RULE_DEPTH + 1, 1000])
    def test_deeper_rule_rejected_before_any_draw(self, depth, tmp_path,
                                                  monkeypatch):
        # 1000 layers ended in a RecursionError inside parse_rule, and 400
        # drew every path and then overflowed in the report's repr(rule)
        def no_draws(self, index):
            raise AssertionError(f"drew path {index}")

        monkeypatch.setattr(BrownianMotion, "sample", no_draws)
        with pytest.raises(RuleError,
                           match=f"rule spec nested {depth} calls deep; at "
                                 f"most {_MAX_RULE_DEPTH} are taken"):
            run_config(self.bound_config(tmp_path, depth))
        assert not (tmp_path / "out").exists()


class TestFunctionalSpecs:
    def test_parse_known(self):
        assert parse_functional("running_max") == RunningMax()
        assert parse_functional("value_at:1.5") == ValueAtTime(1.5)
        assert parse_functional("hitting_time:2") == HittingTime(2.0)
        f = parse_functional("value_at_rule:Tpm(1,2)")
        assert f.name == "value_at_Tpm(1,2)"

    def test_parse_unknown(self):
        with pytest.raises(ConfigurationError):
            parse_functional("median")

    @pytest.mark.parametrize("spec", ["value_at:x", "hitting_time:x",
                                      "value_at:", "hitting_time:1/2"])
    def test_unparsable_number_is_a_configuration_error(self, spec):
        # float() raised a bare ValueError
        with pytest.raises(ConfigurationError) as info:
            parse_functional(spec)
        assert type(info.value) is ConfigurationError

    def test_non_finite_hitting_level_rejected_at_parse(self):
        with pytest.raises(RuleError):
            parse_functional("hitting_time:nan")

    def test_bad_functional_time_rejected_at_parse(self, tmp_path):
        with pytest.raises(ConfigurationError):
            parse_functional("value_at:nan")
        cfg = write_config(tmp_path, kind="invariance", law="bm(dt=0.1,T=1)",
                           rule="fixed(0)", N=1000, functionals=["value_at:-1"],
                           out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 1
        assert not (tmp_path / "out").exists()


class TestGridOverrides:
    def test_dt_and_horizon_keys_exit_one(self, tmp_path, capsys):
        # they used to override the law's grid unrecorded; the law spec is
        # the one place a grid is set
        for key, value in (("dt", 0.05), ("horizon", 2.0)):
            cfg = write_config(tmp_path, kind="ladder", a="1", b="2", n=2,
                               N=1, law="bm(dt=0.1,T=1)", seed=4,
                               out_dir=str(tmp_path / "o"), **{key: value})
            assert main(["run", cfg]) == 1
            assert f"unknown keys ['{key}']" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()


class TestLadderCsvInput:
    def test_tau_table_from_loaded_path(self, tmp_path):
        # dump a known path, reload it through the ladder experiment
        import numpy as np
        from reflectlab import Path, dump_csv
        p = Path(np.array([0.0, 3.0]), np.array([3.0]))
        csv_file = tmp_path / "line.csv"
        with open(csv_file, "w", newline="") as fp:
            dump_csv(p, fp)
        cfg = write_config(tmp_path, kind="ladder", a="1", b="2", n=3,
                           paths_csv=[str(csv_file)], seed=0,
                           out_dir=str(tmp_path / "out"))
        assert main(["run", cfg]) == 0
        report = read_report(tmp_path / "out")
        row = report["params"]["tau_table"][0]
        assert row[1:] == ["0.0", "1.0", "2.0", "3.0"]
