"""The analysis driver: collect, summarize, run rules.

``Checker.run(paths)`` walks the given files/directories and parses each
``.py`` file once: it runs the per-file rules on the tree and keeps
their findings, the file's pragmas and its cross-module facts (a
:class:`~repro.checks.project.FileSummary`).  The summaries feed the
:class:`~repro.checks.project.ProjectIndex` against which every
cross-module rule runs.  Findings are then filtered through
``# repro: noqa[RULE]`` pragmas.  The result carries everything a front
end needs: surviving findings (sorted by location), the suppression
count and parse errors.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .model import Finding, Rule, SourceFile, all_rules
from .pragmas import PragmaIndex, parse_pragmas
from .project import FileSummary, ProjectIndex, extract_facts, module_name_for

__all__ = ["Checker", "CheckResult", "check_tree", "collect_python_files"]

#: Directory names never descended into.
_SKIPPED_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", ".pytest_cache"})


def collect_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Every ``.py`` file under *paths* (files kept as-is), sorted.

    Raises :class:`ValueError` naming the first path that does not exist
    or is a file other than a ``.py`` one, so a mistyped path fails
    instead of analyzing nothing.
    """
    out: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIPPED_DIRS.intersection(candidate.parts):
                    out.add(candidate)
        elif not path.exists():
            raise ValueError(f"no such file or directory: {raw}")
        elif path.suffix != ".py":
            raise ValueError(f"not a Python file: {raw}")
        else:
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
    #: ``(display_path, message)`` for files that failed to parse.
    errors: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the analysis is clean (no findings, no parse errors)."""
        return not self.findings and not self.errors

    def to_dict(self) -> dict[str, object]:
        """The ``--format=json`` payload."""
        return {
            "version": 4,
            "files": self.n_files,
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
    """

    def __init__(self, rules: Sequence[Rule] | None = None):
        self.rules: tuple[Rule, ...] = tuple(rules) if rules is not None else all_rules()

    def run(self, paths: Sequence[str | Path]) -> CheckResult:
        """Analyze every ``.py`` file under *paths*."""
        result = CheckResult()
        summaries: list[FileSummary] = []
        findings: list[Finding] = []
        pragmas: dict[str, PragmaIndex] = {}
        for path in collect_python_files(paths):
            display = _display_path(path)
            try:
                text = path.read_bytes().decode("utf-8")
                tree = ast.parse(text, filename=str(path))
            except (OSError, SyntaxError, ValueError) as exc:
                # ValueError covers undecodable bytes
                result.errors.append((display, str(exc)))
                continue
            source = SourceFile(path=path, display=display, text=text, tree=tree)
            for rule in self.rules:
                findings.extend(rule.check_file(source))
            pragmas[display] = parse_pragmas(text, tree)
            summaries.append(
                FileSummary(path, display, module_name_for(path), extract_facts(tree))
            )
        result.n_files = len(summaries)

        index = ProjectIndex(summaries)
        for rule in self.rules:
            findings.extend(rule.check_index(index))

        for finding in sorted(findings):
            file_pragmas = pragmas.get(finding.path)
            if file_pragmas is not None and file_pragmas.suppresses(finding):
                result.n_suppressed += 1
            else:
                result.findings.append(finding)
        return result


def check_tree(root: str | Path) -> CheckResult:
    """Convenience one-shot: run every rule over *root*."""
    return Checker().run([root])
