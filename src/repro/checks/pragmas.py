"""``# repro: noqa[RULE]`` suppression pragmas.

Two scopes:

* **line** — a trailing pragma on the line a finding is anchored to
  suppresses that rule there::

      except Exception:  # repro: noqa[EXC001] — cache must never abort a stage

  Several codes may share one pragma (``noqa[EXC001,FLOAT001]``) and any
  text after the bracket is a free-form justification (encouraged — a
  pragma with no written reason is a review smell).

* **file** — a pragma on a comment-only line *above the first statement*
  (i.e. in the header comment block, before even the module docstring)
  suppresses the rule for the whole file.

The pragma parser is purely lexical so it works on any parseable file,
and it deliberately does not support a bare ``noqa`` (suppress
everything): every suppression names the contract it waives.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Mapping

from .model import Finding

__all__ = ["PragmaIndex", "parse_pragmas", "PRAGMA_RE"]

#: Matches ``# repro: noqa[CODE,CODE...]`` anywhere in a line.
PRAGMA_RE = re.compile(r"#\s*repro:\s*noqa\[(?P<codes>[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\]")


@dataclass(frozen=True)
class PragmaIndex:
    """The suppressions of one file, queryable per finding."""

    #: 1-based line number -> rule codes suppressed on that line.
    line_codes: Mapping[int, frozenset[str]]
    #: Rule codes suppressed for the whole file.
    file_codes: frozenset[str]

    def suppresses(self, finding: Finding) -> bool:
        """Whether *finding* is silenced by a pragma in this file."""
        if finding.rule in self.file_codes:
            return True
        return finding.rule in self.line_codes.get(finding.line, frozenset())

    def __bool__(self) -> bool:
        return bool(self.line_codes) or bool(self.file_codes)


def _codes(match: re.Match[str]) -> frozenset[str]:
    return frozenset(
        code.strip().upper() for code in match["codes"].split(",") if code.strip()
    )


def parse_pragmas(text: str, tree: ast.Module | None = None) -> PragmaIndex:
    """Build the :class:`PragmaIndex` of one file's source *text*.

    *tree* (when available) locates the first statement, bounding the
    header block in which a comment-only pragma acquires file scope.
    """
    first_stmt_line = len(text.splitlines()) + 1
    if tree is not None and tree.body:
        first_stmt_line = tree.body[0].lineno

    line_codes: dict[int, frozenset[str]] = {}
    file_codes: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = PRAGMA_RE.search(line)
        if match is None:
            continue
        codes = _codes(match)
        if lineno < first_stmt_line and line.lstrip().startswith("#"):
            file_codes |= codes
        else:
            line_codes[lineno] = line_codes.get(lineno, frozenset()) | codes
    return PragmaIndex(line_codes=line_codes, file_codes=frozenset(file_codes))
