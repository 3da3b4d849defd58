"""Cross-module contract rules: lineage and cycles.

All four rules run against the :class:`~repro.checks.project.ProjectIndex`
facts, so they see the whole program at once without holding any
file's syntax tree:

* **COL001/COL002/COL003** — the column-lineage contract.  Column names
  are string literals flowing schema → stages → dashboards; a read with
  no producer is a typo or a stage-ordering bug, a produced-but-unread
  column is a dead write, and a dashboard/query spec naming an
  undeclared column renders an empty widget.  The three rules only
  activate when the analyzed file set contains schema declarations
  (``AttributeSpec``/``_num``/``_cat``/``_txt``), so single-file corpora
  without a schema are exempt.
* **IMP001** — import acyclicity among the analyzed modules.  A cycle
  makes import order load-bearing and breaks partial re-use of the
  pipeline's layers; function-scope (lazy) imports are deliberately not
  counted, because they are the sanctioned cycle breaker.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..model import Finding, Rule, register

if TYPE_CHECKING:  # pragma: no cover — import cycle guard, types only
    from ..project import ProjectIndex

__all__ = [
    "ColumnReadWithoutProducer",
    "ColumnDeadWrite",
    "SpecReferencesUnknownColumn",
    "ImportCycle",
]


def _lineage_sites(index: "ProjectIndex", key: str) -> list:
    """``(name, summary, lineno, col)`` for one lineage site class."""
    out = []
    for summary in index.summaries:
        for name, lineno, col in summary.facts.get("lineage", {}).get(key, ()):
            out.append((name, summary, lineno, col))
    return out


def _spec_sites(index: "ProjectIndex") -> list:
    """Spec-reference sites with cross-module constant refs resolved."""
    out = []
    for summary in index.summaries:
        for site in summary.facts.get("lineage", {}).get("spec_refs", ()):
            if isinstance(site, dict):
                lineno, col = site["lineno"], site["col"]
                value = index.resolve_string(summary.module, site["ref"])
                if value is not None:
                    out.append((value, summary, lineno, col))
                    continue
                values = index.resolve_string_seq(summary.module, site["ref"])
                for value in values or ():
                    out.append((value, summary, lineno, col))
            else:
                name, lineno, col = site
                out.append((name, summary, lineno, col))
    return out


class _LineageRule(Rule):
    """Shared aggregation for the COL00x rules."""

    def _universe(self, index: "ProjectIndex"):
        declared = {name for name, __, ___, ____ in _lineage_sites(index, "declared")}
        produced = _lineage_sites(index, "produced")
        consumed = _lineage_sites(index, "consumed")
        specs = _spec_sites(index)
        return declared, produced, consumed, specs


@register
class ColumnReadWithoutProducer(_LineageRule):
    """COL001 — a column is read that no stage produces or schema declares."""

    code = "COL001"
    name = "column-read-without-producer"
    rationale = (
        "a Table column read whose name no schema attribute declares and "
        "no stage produces is a typo or a stage-ordering bug; it raises "
        "KeyError (or returns empty) only at run time"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Every consumed name must have a declaring or producing site."""
        declared, produced, consumed, __ = self._universe(index)
        if not declared:
            return  # no schema in this file set: lineage gate is off
        known = declared | {name for name, *___ in produced}
        for name, summary, lineno, col in consumed:
            if name not in known:
                yield Finding(
                    summary.display, lineno, col, self.code,
                    f"column '{name}' is read but never produced by any "
                    "stage nor declared by the schema (typo or missing "
                    "producer upstream)",
                )


@register
class ColumnDeadWrite(_LineageRule):
    """COL002 — a column is produced that nothing downstream reads."""

    code = "COL002"
    name = "column-dead-write"
    rationale = (
        "a produced column that no stage, query or spec ever reads is "
        "dead weight in every downstream copy/cache and usually marks an "
        "abandoned feature or a renamed consumer"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Every produced (non-schema) name must have a consuming site."""
        declared, produced, consumed, specs = self._universe(index)
        if not declared:
            return  # no schema in this file set: lineage gate is off
        used = {name for name, *__ in consumed} | {name for name, *__ in specs}
        seen: set[str] = set()
        for name, summary, lineno, col in produced:
            if name in declared or name in used or name in seen:
                continue
            seen.add(name)  # one finding per dead column, at its first site
            yield Finding(
                summary.display, lineno, col, self.code,
                f"column '{name}' is produced but never consumed by any "
                "stage, query or spec (dead write)",
            )


@register
class SpecReferencesUnknownColumn(_LineageRule):
    """COL003 — a dashboard/query spec names a column the schema lacks."""

    code = "COL003"
    name = "spec-references-unknown-column"
    rationale = (
        "a Comparison / report / discretization spec naming a column "
        "absent from dataset/schema.py renders an empty widget or a "
        "never-matching filter in every dashboard built from it"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Every spec-referenced name must be declared or produced."""
        declared, produced, __, specs = self._universe(index)
        if not declared:
            return  # no schema in this file set: lineage gate is off
        known = declared | {name for name, *___ in produced}
        for name, summary, lineno, col in specs:
            if name not in known:
                yield Finding(
                    summary.display, lineno, col, self.code,
                    f"spec references column '{name}' which is absent from "
                    "the declared schema and produced by no stage",
                )


@register
class ImportCycle(Rule):
    """IMP001 — module-exec-time import cycles among analyzed modules."""

    code = "IMP001"
    name = "import-cycle"
    rationale = (
        "an import cycle makes module initialization order load-bearing "
        "and blocks reusing pipeline layers in isolation; break it with a "
        "function-scope import or an interface module"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """One finding per strongly connected import component."""
        for cycle in index.import_cycles():
            anchor = cycle[0]
            summary = index.by_module[anchor]
            edges = index.import_graph.get(anchor, {})
            lineno = min(
                (edges[target] for target in sorted(edges) if target in cycle),
                default=1,
            )
            ring = " -> ".join(cycle + [anchor])
            yield Finding(
                summary.display, lineno, 0, self.code,
                f"import cycle among {ring}; break it with a lazy "
                "(function-scope) import or an interface module",
            )
