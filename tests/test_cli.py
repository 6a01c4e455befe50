"""CLI: config execution, outputs, exit codes, determinism."""

import csv
import json
import re

import pytest

from reflectlab.cli import main, parse_functional
from reflectlab.errors import ConfigurationError, RuleError
from reflectlab.verify import HittingTime, RunningMax, ValueAtTime


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

    def test_ladder_run_samples_each_dumped_path_once(self, tmp_path,
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
        assert drawn == [0, 1, 2]
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
    def test_dt_and_horizon_keys_override_law(self, tmp_path):
        cfg = write_config(tmp_path, kind="ladder", a="1", b="2", n=2,
                           N=1, law="bm(dt=0.1,T=1)", dt=0.05, horizon=2.0,
                           seed=4, dump_paths=1, out_dir=str(tmp_path / "o"))
        assert main(["run", cfg]) == 0
        lines = (tmp_path / "o" / "paths.csv").read_text().splitlines()
        assert lines[1] == "0.0,0.0,"
        assert len(lines) == 42  # 2.0 / 0.05 + 1 knots plus header


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
