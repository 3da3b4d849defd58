"""The analysis driver: collect, summarize (with caching), run rules.

``Checker.run(paths)`` walks the given files/directories and builds one
:class:`~repro.checks.project.FileSummary` per ``.py`` file — parsing it
and running the per-file rules, or rehydrating the summary from the
incremental :class:`~repro.checks.cache.AnalysisCache` when the file's
content hash is already known.  The summaries feed the
:class:`~repro.checks.project.ProjectIndex` against which every
cross-module rule runs, so a warm incremental run re-checks the whole
contract surface without re-parsing unchanged files.  Findings are then
filtered through ``# repro: noqa[RULE]`` pragmas.  The result carries everything a front end needs: surviving
findings (sorted by location), suppression counts, cache statistics and
parse errors.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .cache import AnalysisCache, content_hash
from .model import Finding, Rule, SourceFile, all_rules
from .pragmas import parse_pragmas, pragma_index_from_dict, pragma_index_to_dict
from .project import FileSummary, ProjectIndex, extract_facts, module_name_for

__all__ = ["Checker", "CheckResult", "check_tree", "collect_python_files"]

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def collect_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under *paths* (files kept as-is), sorted."""
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIPPED_DIRS.intersection(candidate.parts):
                    out.add(candidate)
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)


def _display_path(path: Path) -> str:
    """A stable, readable path for findings (cwd-relative when possible)."""
    try:
        relative = path.resolve().relative_to(Path.cwd().resolve())
        return relative.as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class CheckResult:
    """Everything one analysis produced."""

    findings: list[Finding] = field(default_factory=list)
    n_files: int = 0
    n_suppressed: int = 0
    #: Files whose summary came from the incremental cache (not re-parsed).
    n_from_cache: int = 0
    #: ``(display_path, message)`` for files that failed to parse.
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the analysis is clean (no findings, no parse errors)."""
        return not self.findings and not self.errors

    def to_dict(self) -> dict[str, object]:
        """The ``--format=json`` payload."""
        return {
            "version": 3,
            "files": self.n_files,
            "cached": self.n_from_cache,
            "suppressed": self.n_suppressed,
            "errors": [{"path": p, "message": m} for p, m in self.errors],
            "findings": [f.to_dict() for f in self.findings],
        }


class Checker:
    """Runs a rule set over a file set.

    Parameters
    ----------
    rules:
        The rules to run (default: every registered rule).
    cache:
        An :class:`~repro.checks.cache.AnalysisCache` reusing per-file
        summaries across runs (default: none — every file is analyzed).
    """

    def __init__(
        self,
        rules: Sequence[Rule] | None = None,
        cache: AnalysisCache | None = None,
    ):
        self.rules: tuple[Rule, ...] = tuple(rules) if rules is not None else all_rules()
        self.cache = cache

    def load(self, path: Path) -> SourceFile:
        """Parse one file (raises on syntax/decoding errors)."""
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return SourceFile(
            path=path, display=_display_path(path), text=text, tree=tree
        )

    def _summarize(self, path: Path) -> tuple[FileSummary, SourceFile | None]:
        """The summary of one file: from cache when fresh, else analyzed."""
        display = _display_path(path)
        data = path.read_bytes()
        digest = content_hash(data)
        if self.cache is not None:
            entry = self.cache.get(digest)
            if entry is not None:
                summary = FileSummary.from_cache_entry(
                    entry, path, display, module_name_for(path), digest
                )
                return summary, None

        try:
            text = data.decode("utf-8")
            tree = ast.parse(text, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
            summary = FileSummary(
                path=path,
                display=display,
                module=module_name_for(path),
                content_hash=digest,
                error=str(exc),
            )
            if self.cache is not None:
                self.cache.put(digest, summary.to_cache_entry())
            return summary, None

        source = SourceFile(path=path, display=display, text=text, tree=tree)
        findings = []
        for rule in self.rules:
            for finding in rule.check_file(source):
                findings.append(
                    [finding.line, finding.col, finding.rule, finding.message]
                )
        summary = FileSummary(
            path=path,
            display=display,
            module=module_name_for(path),
            content_hash=digest,
            facts=extract_facts(tree),
            findings=findings,
            pragmas=pragma_index_to_dict(parse_pragmas(text, tree)),
        )
        if self.cache is not None:
            self.cache.put(digest, summary.to_cache_entry())
        return summary, source

    def run(
        self,
        paths: Sequence[str | Path],
        changed_only: set[Path] | None = None,
    ) -> CheckResult:
        """Analyze every ``.py`` file under *paths*.

        With *changed_only* (a set of resolved paths), per-file findings
        are reported only for those files; cross-module findings are
        always reported, because an edit anywhere can break a contract
        whose anchor is elsewhere.
        """
        result = CheckResult()
        summaries: list[FileSummary] = []
        sources: dict[str, SourceFile] = {}
        for path in collect_python_files(paths):
            try:
                summary, source = self._summarize(path)
            except OSError as exc:
                result.errors.append((_display_path(path), str(exc)))
                continue
            summaries.append(summary)
            if summary.error is not None:
                result.errors.append((summary.display, summary.error))
            elif source is not None:
                sources[summary.display] = source
        live = [s for s in summaries if s.error is None]
        result.n_files = len(live)
        result.n_from_cache = sum(1 for s in live if s.from_cache)

        file_findings: list[Finding] = []
        for summary in live:
            for line, col, rule, message in summary.findings:
                file_findings.append(
                    Finding(summary.display, line, col, rule, message)
                )

        project_findings: list[Finding] = []
        index = ProjectIndex(live)
        for rule in self.rules:
            project_findings.extend(rule.check_index(index))

        # legacy whole-file-set hook: only pay the parse cost when a rule
        # actually overrides it (none of the built-in rules do anymore)
        legacy = [
            rule
            for rule in self.rules
            if type(rule).check_project is not Rule.check_project
        ]
        if legacy:
            files = []
            for summary in live:
                source = sources.get(summary.display)
                if source is None:
                    source = self.load(summary.path)
                files.append(source)
            for rule in legacy:
                project_findings.extend(rule.check_project(files))

        if changed_only is not None:
            changed = {Path(p).resolve() for p in changed_only}
            keep = {
                s.display for s in live if s.path.resolve() in changed
            }
            file_findings = [f for f in file_findings if f.path in keep]

        pragma_index = {
            summary.display: pragma_index_from_dict(summary.pragmas)
            for summary in live
        }
        for finding in sorted(file_findings + project_findings):
            pragmas = pragma_index.get(finding.path)
            if pragmas is not None and pragmas.suppresses(finding):
                result.n_suppressed += 1
            else:
                result.findings.append(finding)

        if self.cache is not None:
            self.cache.save()
        return result


def check_tree(root: str | Path) -> CheckResult:
    """Convenience one-shot: run every rule over *root*."""
    return Checker().run([root])
