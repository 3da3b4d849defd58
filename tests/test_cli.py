"""Tests for the command-line interface."""

import pytest

from repro import IndiceConfig
from repro.cli import _apply_perf_arguments, build_parser, main
from repro.core.config import CLI_FIELDS
from repro.dataset.io import read_csv

#: The flag each CLI-exposed IndiceConfig field is spelled as.
FLAGS = {
    "n_jobs": "--jobs",
    "stage_cache": "--no-cache",
    "cache_dir": "--cache-dir",
    "spill_dir": "--spill-dir",
}


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "out.csv"])
        assert args.certificates == 25000
        assert not args.clean

    def test_run_choices_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "d.html", "--stakeholder", "alien"])

    def test_serve_rejects_shards(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--shards", "2"])

    @pytest.mark.parametrize("value", ["0", "-5", "two"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            (["generate", "out.csv"], "--certificates"),
            (["suggest"], "--certificates"),
            (["run", "d.html"], "--certificates"),
            (["serve"], "--certificates"),
            (["serve"], "--workers"),
            (["serve"], "--max-inflight"),
        ],
    )
    def test_non_positive_counts_are_usage_errors(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            (["generate", "out.csv"], "--seed", "-1"),
            (["suggest"], "--seed", "-1"),
            (["run", "d.html"], "--seed", "-1"),
            (["serve"], "--seed", "-1"),
            (["run", "d.html"], "--seed", "x"),
            (["serve"], "--port", "-1"),
            (["serve"], "--port", "65536"),
            (["serve"], "--port", "70000"),
            (["serve"], "--port", "http"),
        ],
    )
    def test_out_of_range_integers_are_usage_errors(
        self, command, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--fault-plan", "geocoder.requst:transient", "unknown fault site"),
            ("--fault-plan", "seed=x", "bad fault plan seed"),
            ("--fault-plan", "cache.read:corrupt@2", "rate must be in [0, 1]"),
            ("--fault-plan", "@/nonexistent.json", "No such file"),
            ("--shards", "bogus", "unknown shard scheme"),
            ("--shards", "0", "shard count must be >= 1"),
        ],
    )
    def test_malformed_plans_are_usage_errors_before_any_work(
        self, flag, value, message, tmp_path, monkeypatch, capsys
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("a malformed flag must stop the run first")

        monkeypatch.setattr("repro.cli._make_collection", no_work)
        monkeypatch.setattr("repro.perf.shards.ShardPlan.from_generator", no_work)
        out = tmp_path / "x.html"
        with pytest.raises(SystemExit) as exc:
            main(["run", str(out), "--certificates", "200", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        last = err.strip().splitlines()[-1]
        assert last.startswith(f"repro run: error: argument {flag}: ")
        assert message in last
        assert "Traceback" not in err
        assert not out.exists()

    def test_plans_are_parsed_once_by_the_parser(self):
        from repro.faults import FaultPlan

        args = build_parser().parse_args(
            ["run", "d.html", "--shards", "3",
             "--fault-plan", "cache.read:corrupt*1;seed=4"]
        )
        assert args.shards == 3
        assert args.fault_plan == FaultPlan.parse("cache.read:corrupt*1;seed=4")
        args = build_parser().parse_args(["run", "d.html", "--shards", "by-zip"])
        assert args.shards == "by-zip" and args.fault_plan is None

    def test_integer_bounds_are_inclusive(self):
        assert build_parser().parse_args(["run", "d.html", "--seed", "0"]).seed == 0
        for port in (0, 65535):
            args = build_parser().parse_args(["serve", "--port", str(port)])
            assert args.port == port


class TestConfigFlags:
    """The perf flags of ``run`` and ``serve`` are generated from the config."""

    @pytest.mark.parametrize("command", [["run", "d.html"], ["serve"]])
    def test_flag_spellings_and_defaults_match_the_fields(self, command):
        assert {spec.name: spec.metadata["cli"][0] for spec in CLI_FIELDS} == FLAGS
        args = build_parser().parse_args(command)
        for spec in CLI_FIELDS:
            assert getattr(args, spec.name) == spec.default

    def test_run_flags_wire_the_config(self):
        args = build_parser().parse_args([
            "run", "out.html", "--jobs", "2", "--no-cache",
            "--cache-dir", "D", "--spill-dir", "S",
        ])
        assert _apply_perf_arguments(IndiceConfig(), args) == IndiceConfig(
            n_jobs=2, stage_cache=False, cache_dir="D", spill_dir="S"
        )


class TestCommands:
    def test_generate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "epc.csv"
        code = main(["generate", str(out), "--certificates", "300", "--seed", "1"])
        assert code == 0
        table = read_csv(out)
        assert table.n_rows == 300
        assert table.n_columns == 132
        assert "300 dirty certificates" in capsys.readouterr().out

    def test_generate_clean_flag(self, tmp_path, capsys):
        out = tmp_path / "epc.csv"
        main(["generate", str(out), "--certificates", "100", "--clean"])
        assert "clean certificates" in capsys.readouterr().out

    def test_suggest_prints_advice(self, capsys):
        code = main(["suggest", "--certificates", "400", "--seed", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suggested:" in out
        assert "k_range" in out

    def test_run_writes_dashboard(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        code = main(
            [
                "run", str(out),
                "--certificates", "800", "--seed", "3",
                "--stakeholder", "citizen", "--granularity", "district",
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "dashboard written to" in capsys.readouterr().out

    def test_run_sharded_prints_the_full_tail(self, tmp_path, capsys):
        out = tmp_path / "dash.html"
        code = main(
            [
                "run", str(out), "--certificates", "600", "--seed", "3",
                "--shards", "2", "--spill-dir", str(tmp_path / "spills"),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
        printed = capsys.readouterr().out
        assert "sharding" in printed
        assert "dashboard written to" in printed

    def test_run_with_auto_config(self, tmp_path):
        out = tmp_path / "dash.html"
        code = main(
            ["run", str(out), "--certificates", "800", "--seed", "3", "--auto-config"]
        )
        assert code == 0
        assert out.exists()
