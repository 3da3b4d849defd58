"""Tests for ``repro.checks`` — the AST-based invariant linter.

Covers: the fixture corpus (one positive and one negative example per
rule), the pragma parser, text/JSON output, the CLI entry points, and the tier-1 self-analysis gate — the full rule set
over ``src/repro`` must report **zero** findings, which is the
machine-checked form of the determinism / cache / fault contracts.
"""

import io
import json
import re
from pathlib import Path

import pytest

import repro
from repro.checks import (
    Checker,
    Finding,
    all_rules,
    parse_pragmas,
    rule_codes,
)
from repro.checks.cli import main as checks_main
from repro.cli import main as repro_main

pytestmark = pytest.mark.checks

FIXTURES = Path(__file__).parent / "checks_fixtures"
SRC = Path(repro.__file__).parent

#: fixture stem -> (rule code, expected finding count in the _bad file)
EXPECTED = {
    "det001": ("DET001", 3),
    "det002": ("DET002", 8),
    "det003": ("DET003", 3),
    "exc001": ("EXC001", 2),
    "mut001": ("MUT001", 3),
    "float001": ("FLOAT001", 3),
    "col001": ("COL001", 2),
    "col002": ("COL002", 2),
    "col003": ("COL003", 2),
    "lock003": ("LOCK003", 2),
    "imp001": ("IMP001", 1),
}


def fixture_path(stem: str, suffix: str) -> Path:
    """A fixture target: a single file, or a directory for multi-module
    fixtures (imp001's cycle needs two modules)."""
    single = FIXTURES / f"{stem}_{suffix}.py"
    return single if single.exists() else FIXTURES / f"{stem}_{suffix}"


def check_file(path: Path):
    """All findings of the full rule set over one fixture file."""
    return Checker().run([path])


class TestFixtureCorpus:
    def test_every_rule_has_fixtures(self):
        covered = {code for code, __ in EXPECTED.values()}
        assert covered == set(rule_codes())

    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_positive_fixture_flagged(self, stem):
        code, count = EXPECTED[stem]
        result = check_file(fixture_path(stem, "bad"))
        assert [f.rule for f in result.findings] == [code] * count
        assert not result.errors

    @pytest.mark.parametrize("stem", sorted(EXPECTED))
    def test_negative_fixture_clean(self, stem):
        result = check_file(fixture_path(stem, "good"))
        assert result.findings == []
        assert not result.errors

    def test_findings_are_clickable(self):
        result = check_file(FIXTURES / "mut001_bad.py")
        for finding in result.findings:
            assert re.match(r"^\S+\.py:\d+:\d+: MUT001 ", finding.render())


class TestSelfAnalysis:
    """The analyzer must prove the shipped pipeline clean — and itself."""

    def test_src_repro_is_clean(self):
        result = Checker().run([SRC])
        rendered = "\n".join(f.render() for f in result.findings)
        assert result.findings == [], f"contract violations:\n{rendered}"
        assert not result.errors
        # the scan really covered the project, analyzer included
        assert result.n_files > 60
        # the documented intentional sites (serving/server.py catch-all
        # 500 + pooled-worker survival, perf/cache.py corrupt-entry-as-miss,
        # checks/cli.py crash-to-exit-2 boundary) are pragma'd, not
        # invisible
        assert result.n_suppressed == 4

    def test_checker_analyzes_itself(self):
        result = Checker().run([SRC / "checks"])
        assert result.findings == []
        assert not result.errors
        assert result.n_files >= 10


class TestPragmas:
    def test_line_pragma_suppresses_only_its_line(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "def f(a=[]):  # repro: noqa[MUT001] — fixture justification\n"
            "    return a\n"
            "def g(b=[]):\n"
            "    return b\n"
        )
        result = Checker().run([path])
        assert len(result.findings) == 1
        assert result.findings[0].line == 3
        assert result.n_suppressed == 1

    def test_file_pragma_in_header_suppresses_whole_file(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            "# repro: noqa[MUT001] — fixture-wide waiver\n"
            '"""Docstring."""\n'
            "def f(a=[]):\n"
            "    return a\n"
            "def g(b=[]):\n"
            "    return b\n"
        )
        result = Checker().run([path])
        assert result.findings == []
        assert result.n_suppressed == 2

    def test_pragma_after_first_statement_is_line_scoped(self, tmp_path):
        path = tmp_path / "module.py"
        path.write_text(
            '"""Docstring."""\n'
            "# repro: noqa[MUT001]\n"  # below the docstring: not file scope
            "def f(a=[]):\n"
            "    return a\n"
        )
        result = Checker().run([path])
        assert len(result.findings) == 1

    def test_multi_code_pragma(self):
        index = parse_pragmas("x = 1  # repro: noqa[EXC001, FLOAT001]\n")
        codes = index.line_codes[1]
        assert codes == frozenset({"EXC001", "FLOAT001"})

    def test_no_bare_noqa(self):
        index = parse_pragmas("x = 1  # repro: noqa\n")
        assert not index


class TestOutputFormats:
    def test_text_format(self):
        out = io.StringIO()
        code = checks_main([str(FIXTURES / "float001_bad.py")], out=out)
        assert code == 1
        lines = out.getvalue().splitlines()
        assert sum("FLOAT001" in line for line in lines) == 3
        assert lines[-1].endswith("0 pragma-suppressed")

    def test_json_schema(self):
        out = io.StringIO()
        code = checks_main(
            [str(FIXTURES / "exc001_bad.py"), "--format", "json"], out=out
        )
        assert code == 1
        payload = json.loads(out.getvalue())
        assert set(payload) == {
            "version", "files", "suppressed", "errors", "findings",
        }
        assert payload["version"] == 4
        assert payload["files"] == 1
        assert len(payload["findings"]) == 2
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "message"}
            assert finding["rule"] == "EXC001"

    def test_json_clean_run(self):
        out = io.StringIO()
        code = checks_main(
            [str(FIXTURES / "exc001_good.py"), "--format", "json"], out=out
        )
        assert code == 0
        assert json.loads(out.getvalue())["findings"] == []

    def test_parse_error_reported(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        out = io.StringIO()
        assert checks_main([str(path)], out=out) == 1
        assert "PARSE" in out.getvalue()

    def test_list_rules(self):
        out = io.StringIO()
        assert checks_main(["--list-rules"], out=out) == 0
        text = out.getvalue()
        for code in rule_codes():
            assert code in text

    def test_select_unknown_rule_is_usage_error_listing_valid_ids(self):
        out = io.StringIO()
        code = checks_main([str(FIXTURES), "--select", "NOPE999"], out=out)
        assert code == 2
        text = out.getvalue()
        assert "NOPE999" in text
        for valid in rule_codes():
            assert valid in text


class TestReproCheckSubcommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert repro_main(["check", str(SRC)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        bad = str(FIXTURES / "det001_bad.py")
        assert repro_main(["check", bad, "--select", "DET001"]) == 1
        assert "DET001" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "args",
        [
            ["--list-rules"],
            [str(FIXTURES / "det001_bad.py"), "--format", "json"],
        ],
        ids=["list-rules", "format-json"],
    )
    def test_prints_what_python_m_repro_checks_prints(self, args, capsys):
        import os
        import subprocess
        import sys

        code = repro_main(["check", *args])
        env = dict(os.environ, PYTHONPATH=str(SRC.parent))  # repro: noqa[DET002] — child inherits the test env
        proc = subprocess.run(
            [sys.executable, "-m", "repro.checks", *args],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert capsys.readouterr().out == proc.stdout
        assert code == proc.returncode


class TestRuleMetadata:
    def test_rules_have_rationales(self):
        for rule in all_rules():
            assert rule.code and rule.name and rule.rationale

    def test_at_least_eleven_rules(self):
        assert len(all_rules()) >= 11


class TestExplain:
    @pytest.mark.parametrize("code", ["COL002", "LOCK003", "MUT001"])
    def test_explain_prints_doc_rationale_and_fixture_pair(self, code):
        out = io.StringIO()
        assert checks_main(["--explain", code], out=out) == 0
        text = out.getvalue()
        rule = next(r for r in all_rules() if r.code == code)
        assert text.startswith(f"{code} — {rule.name}")
        assert "Rationale:" in text
        assert f"{code.lower()}_bad.py" in text
        assert f"{code.lower()}_good.py" in text

    def test_explain_directory_fixture(self):
        # imp001's corpus is a directory of modules, not a single file
        out = io.StringIO()
        assert checks_main(["--explain", "IMP001"], out=out) == 0
        assert "bad example" in out.getvalue()

    def test_explain_unknown_rule_is_usage_error(self):
        out = io.StringIO()
        assert checks_main(["--explain", "NOPE999"], out=out) == 2
        text = out.getvalue()
        assert "NOPE999" in text
        for valid in rule_codes():
            assert valid in text

    def test_repro_check_forwards_explain(self, capsys):
        assert repro_main(["check", "--explain", "COL003"]) == 0
        assert "COL003" in capsys.readouterr().out

    def test_explain_is_case_insensitive(self):
        out = io.StringIO()
        assert checks_main(["--explain", "col003"], out=out) == 0
        assert out.getvalue().startswith("COL003")

    def test_explain_unique_prefix_matches(self):
        out = io.StringIO()
        assert checks_main(["--explain", "float"], out=out) == 0
        assert out.getvalue().startswith("FLOAT001")

    def test_explain_ambiguous_prefix_lists_candidates(self):
        out = io.StringIO()
        assert checks_main(["--explain", "col"], out=out) == 2
        text = out.getvalue()
        assert "ambiguous" in text
        for code in ("COL001", "COL002", "COL003"):
            assert code in text

    def test_explain_typo_suggests_near_misses(self):
        out = io.StringIO()
        assert checks_main(["--explain", "DTE002"], out=out) == 2
        text = out.getvalue()
        assert "did you mean" in text
        assert "DET002" in text


class TestSelectGlobs:
    def test_glob_selects_a_rule_family(self):
        out = io.StringIO()
        code = checks_main(
            [str(FIXTURES / "col002_bad.py"), "--select", "COL*"], out=out
        )
        assert code == 1
        assert "COL002" in out.getvalue()

    def test_glob_is_case_insensitive(self):
        out = io.StringIO()
        code = checks_main(
            [str(FIXTURES / "det001_bad.py"), "--select", "det*"], out=out
        )
        assert code == 1
        assert "DET001" in out.getvalue()

    def test_literal_and_glob_entries_mix(self):
        out = io.StringIO()
        code = checks_main(
            [str(FIXTURES / "mut001_bad.py"), "--select", "MUT001,COL*"],
            out=out,
        )
        assert code == 1
        assert "MUT001" in out.getvalue()

    def test_pattern_matching_nothing_is_usage_error(self):
        out = io.StringIO()
        code = checks_main([str(FIXTURES), "--select", "NOPE*"], out=out)
        assert code == 2
        text = out.getvalue()
        assert "NOPE*" in text
        for valid in rule_codes():
            assert valid in text


class TestExitCodes:
    """0 clean / 1 findings / 2 usage or internal analyzer error."""

    def test_clean_exits_zero(self):
        out = io.StringIO()
        assert checks_main([str(FIXTURES / "mut001_good.py")], out=out) == 0

    def test_findings_exit_one(self):
        out = io.StringIO()
        assert checks_main([str(FIXTURES / "mut001_bad.py")], out=out) == 1

    def test_parse_error_exits_one(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def f(:\n")
        assert checks_main([str(path)], out=io.StringIO()) == 1

    def test_internal_analyzer_error_exits_two(self, monkeypatch):
        class BoomChecker:
            def __init__(self, *args, **kwargs):
                pass

            def run(self, paths):
                raise RuntimeError("rule exploded mid-analysis")

        monkeypatch.setattr("repro.checks.cli.Checker", BoomChecker)
        out = io.StringIO()
        code = checks_main([str(FIXTURES / "mut001_good.py")], out=out)
        assert code == 2
        assert "internal analyzer error" in out.getvalue()

    @pytest.mark.parametrize(
        "name",
        ["no_such_dir", "no_such_module.py", "README.md"],
        ids=["missing-dir", "missing-file", "not-python"],
    )
    def test_bad_path_is_usage_error_before_analysis(
        self, name, tmp_path, monkeypatch
    ):
        (tmp_path / "README.md").write_text("# not python\n")

        class NeverRuns:
            def __init__(self, *args, **kwargs):
                raise AssertionError("analysis ran despite a bad path")

        monkeypatch.setattr("repro.checks.cli.Checker", NeverRuns)
        bad = tmp_path / name
        out = io.StringIO()
        code = checks_main(
            [str(FIXTURES / "mut001_good.py"), str(bad)], out=out
        )
        assert code == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert str(bad) in lines[0]


class TestProjectIndex:
    def test_module_names_walk_packages(self, tmp_path):
        from repro.checks import module_name_for

        pkg = tmp_path / "pkg"
        sub = pkg / "sub"
        sub.mkdir(parents=True)
        (pkg / "__init__.py").write_text("")
        (sub / "__init__.py").write_text("")
        (sub / "mod.py").write_text("")
        assert module_name_for(sub / "mod.py") == "pkg.sub.mod"
        assert module_name_for(sub / "__init__.py") == "pkg.sub"
        assert module_name_for(tmp_path / "loose.py") == "loose"

    def test_lineage_flows_across_modules(self, tmp_path):
        schema = tmp_path / "schema.py"
        schema.write_text(
            "def build():\n"
            '    return [AttributeSpec("eph", "numeric")]\n'
        )
        stage = tmp_path / "stage.py"
        stage.write_text(
            "def read(table):\n"
            '    return table["eph"], table["epw"]\n'
        )
        result = Checker().run([tmp_path])
        assert [f.rule for f in result.findings] == ["COL001"]
        assert "epw" in result.findings[0].message
        assert result.findings[0].path.endswith("stage.py")

    def test_spec_ref_constant_resolves_across_modules(self, tmp_path):
        (tmp_path / "consts.py").write_text('RESPONSE = "eph"\n')
        (tmp_path / "schema.py").write_text(
            "def build():\n"
            '    return [AttributeSpec("eph", "numeric")]\n'
        )
        (tmp_path / "spec.py").write_text(
            "from consts import RESPONSE\n"
            'FILTERS = (Comparison(RESPONSE, ">", 0),)\n'
        )
        result = Checker().run([tmp_path])
        assert result.findings == []

    def test_import_graph_sees_relative_imports(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        (pkg / "a.py").write_text("from . import b\n")
        (pkg / "b.py").write_text("from .a import thing\n")
        result = Checker().run([tmp_path])
        assert [f.rule for f in result.findings] == ["IMP001"]
        assert "pkg.a" in result.findings[0].message
        assert "pkg.b" in result.findings[0].message


class TestAllEntryPoint:
    def test_all_flag_runs_sweep_then_tools(self):
        out = io.StringIO()
        code = checks_main([str(SRC), "--all"], out=out)
        assert code == 0, out.getvalue()
        text = out.getvalue()
        assert "0 finding(s)" in text
        assert "ruff" in text
        assert "mypy" in text

    def test_ci_script_exists_and_is_wired(self):
        script = Path(repro.__file__).parents[2] / "scripts" / "ci_checks.sh"
        assert script.exists()
        text = script.read_text()
        assert "--all" in text
        assert "repro.checks" in text

    def test_ci_script_passes_on_the_repo(self):
        import os
        import subprocess

        script = Path(repro.__file__).parents[2] / "scripts" / "ci_checks.sh"
        env = dict(os.environ)  # repro: noqa[DET002] — CI script inherits the test env
        proc = subprocess.run(
            ["bash", str(script)],
            cwd=script.parent.parent,
            env=env,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
