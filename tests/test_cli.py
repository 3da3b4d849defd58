"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.dataset.io import read_csv


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

    def test_run_sharded_prints_the_full_tail(self, tmp_path, capsys, monkeypatch):
        # --audit-effects arms the auditor through the environment
        monkeypatch.delenv("REPRO_AUDIT_EFFECTS", raising=False)
        out = tmp_path / "dash.html"
        code = main(
            [
                "run", str(out), "--certificates", "600", "--seed", "3",
                "--shards", "2", "--spill-dir", str(tmp_path / "spills"),
                "--audit-effects",
            ]
        )
        assert code == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
        printed = capsys.readouterr().out
        assert "sharding" in printed
        assert "effect audit (observed ambient reads per stage):" in printed
        assert "dashboard written to" in printed

    def test_run_with_auto_config(self, tmp_path):
        out = tmp_path / "dash.html"
        code = main(
            ["run", str(out), "--certificates", "800", "--seed", "3", "--auto-config"]
        )
        assert code == 0
        assert out.exists()
