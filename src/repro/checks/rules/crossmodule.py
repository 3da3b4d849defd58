"""Cross-module contract rules: lineage, fork-safety, cycles.

All six rules run against the :class:`~repro.checks.project.ProjectIndex`
facts, so they see the whole program at once and cost nothing extra on a
warm incremental run:

* **COL001/COL002/COL003** — the column-lineage contract.  Column names
  are string literals flowing schema → stages → dashboards; a read with
  no producer is a typo or a stage-ordering bug, a produced-but-unread
  column is a dead write, and a dashboard/query spec naming an
  undeclared column renders an empty widget.  The three rules only
  activate when the analyzed file set contains schema declarations
  (``AttributeSpec``/``_num``/``_cat``/``_txt``), so single-file corpora
  without a schema are exempt.
* **PAR001/PAR002** — the fork-safety contract of ``ParallelMap``.
  Work crosses the process boundary by pickling; lambdas and nested
  functions do not pickle, and module globals are *copied* at fork — a
  worker reading a parent-mutated global sees a stale copy (PAR001) and
  a worker writing one mutates a copy that is thrown away (PAR002).
  The sanctioned pattern — an ``initializer=`` callback populating a
  module global per worker — is recognized and exempt.
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
    "UnpicklableOrStaleCapture",
    "WorkerSideMutation",
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
    severity = "warning"  # latent waste, not incorrect output

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
class UnpicklableOrStaleCapture(Rule):
    """PAR001 — a submitted callable won't pickle or sees stale globals."""

    code = "PAR001"
    name = "unpicklable-or-stale-capture"
    rationale = (
        "process pools pickle the callable and fork module state: "
        "lambdas/nested functions fail to pickle, and a worker reading a "
        "parent-mutated module global sees a stale fork-time copy unless "
        "the state arrives via initializer/initargs"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Audit every executor ``.map`` submission in the file set."""
        for summary in index.summaries:
            mutated = index.module_mutated_globals(summary.module)
            for call in summary.facts.get("map_calls", ()):
                lineno, col = call["lineno"], call["col"]
                if call["kind"] == "lambda":
                    yield Finding(
                        summary.display, lineno, col, self.code,
                        "lambda submitted to a process-pool map is not "
                        "picklable; define a module-level function",
                    )
                    continue
                if call["kind"] == "nested":
                    yield Finding(
                        summary.display, lineno, col, self.code,
                        f"nested function '{call['func']}' submitted to a "
                        "process-pool map is not picklable; move it to "
                        "module level",
                    )
                    continue
                if call["kind"] != "name":
                    continue
                reads, worker_mutates = index.function_closure(
                    summary.module, call["func"]
                )
                init_mutates: set[str] = set()
                if call["initializer"]:
                    __, init_mutates = index.function_closure(
                        summary.module, call["initializer"]
                    )
                for name in sorted(reads):
                    if name not in mutated:
                        continue
                    if name in init_mutates or name in worker_mutates:
                        continue  # initializer-fed (sanctioned) or PAR002's
                    yield Finding(
                        summary.display, lineno, col, self.code,
                        f"worker '{call['func']}' reads module global "
                        f"'{name}' which {'/'.join(mutated[name])} mutates; "
                        "workers fork a stale copy — pass the state via "
                        "initializer/initargs instead",
                    )


@register
class WorkerSideMutation(Rule):
    """PAR002 — a worker mutates module state that dies with the worker."""

    code = "PAR002"
    name = "worker-side-mutation"
    rationale = (
        "a worker-side write to a module global mutates the worker "
        "process's copy only; the parent never sees it, so the write is "
        "either dead or a latent correctness bug — return values instead"
    )

    def check_index(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Flag module-global mutations reachable from submitted workers."""
        for summary in index.summaries:
            symbols = summary.facts.get("symbols", {})
            for call in summary.facts.get("map_calls", ()):
                if call["kind"] != "name":
                    continue
                __, worker_mutates = index.function_closure(
                    summary.module, call["func"]
                )
                for name in sorted(worker_mutates):
                    if name not in symbols:
                        continue  # not a module-level binding of this file
                    yield Finding(
                        summary.display, call["lineno"], call["col"], self.code,
                        f"worker '{call['func']}' mutates module global "
                        f"'{name}'; the write happens in the worker "
                        "process's copy and is lost — return the value to "
                        "the parent instead",
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
