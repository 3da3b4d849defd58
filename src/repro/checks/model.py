"""Core model of the invariant linter: findings, rules and the registry.

A :class:`Rule` encodes one machine-checkable contract of the pipeline
(determinism, exception hygiene, column lineage).  Rules are
registered by decorating the class with :func:`register`;
:func:`all_rules` instantiates every registered rule in stable
(code-sorted) order.  A rule inspects parsed source files or the
project's fact index and yields :class:`Finding` objects — it never
mutates anything and never imports the code under analysis.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from .project import ProjectIndex

__all__ = [
    "Finding",
    "SourceFile",
    "Rule",
    "register",
    "all_rules",
    "rule_codes",
]


@dataclass(frozen=True, order=True)
class Finding:
    """One contract violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """The clickable one-line form: ``file:line:col: RULE message``."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> dict[str, object]:
        """The JSON-output form."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


@dataclass(frozen=True)
class SourceFile:
    """One parsed file handed to the rules."""

    path: Path
    #: The path as reported in findings (repo-relative where possible).
    display: str
    text: str
    tree: ast.Module

    def lines(self) -> list[str]:
        """The physical source lines (1-based access via ``lines()[n-1]``)."""
        return self.text.splitlines()


class Rule:
    """Base class of every check.

    Subclasses set the class attributes and override :meth:`check_file`
    (runs once per parsed file) or :meth:`check_index` (runs once per
    analysis over the aggregated
    :class:`~repro.checks.project.ProjectIndex` facts, for cross-file
    contracts).
    """

    #: Stable identifier, e.g. ``DET001`` (used in findings and pragmas).
    code: str = ""
    #: Short human name, e.g. ``unseeded-rng``.
    name: str = ""
    #: One-line rationale tying the rule to a pipeline contract.
    rationale: str = ""

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        """Findings of this rule in one file (default: none)."""
        return iter(())

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Findings over the whole-program fact index (default: none)."""
        return iter(())


_REGISTRY: dict[str, type[Rule]] = {}


def register(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def all_rules() -> tuple[Rule, ...]:
    """One instance of every registered rule, in code order."""
    # importing the rules package populates the registry
    from . import rules as _rules  # noqa: F401  (import for side effect)

    return tuple(_REGISTRY[code]() for code in sorted(_REGISTRY))


def rule_codes() -> tuple[str, ...]:
    """The registered rule codes, sorted."""
    from . import rules as _rules  # noqa: F401  (import for side effect)

    return tuple(sorted(_REGISTRY))
