"""Whole-program view: module naming, facts, import graph, symbol table.

Per-file rules prove local invariants; the pipeline's *contracts between
modules* (column lineage, import acyclicity) need a project-wide model.
This module builds it in two layers:

1. :func:`extract_facts` walks one parsed file and distils everything the
   cross-module rules need into a plain dict — imports, module-level
   symbols and string constants, and the column-lineage sites of
   :mod:`.lineage`.  Facts never hold AST nodes, so a file's tree can be
   dropped as soon as its per-file rules have run.
2. :class:`ProjectIndex` aggregates one :class:`FileSummary` per file
   into the whole-program structures: the module map, the import graph
   (with Tarjan SCC cycle detection) and a project symbol table with
   cross-module string-constant resolution.

Rules consume the index through :meth:`~repro.checks.model.Rule.check_index`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

from .lineage import extract_lineage

__all__ = [
    "FileSummary",
    "ProjectIndex",
    "extract_facts",
    "module_name_for",
]


def module_name_for(path: Path) -> str:
    """The dotted module name of *path*, walking up ``__init__.py`` parents.

    ``src/repro/core/engine.py`` -> ``repro.core.engine``; a file outside
    any package (no ``__init__.py`` beside it) is just its stem.
    """
    path = Path(path)
    parts = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


def _string_or_none(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def extract_facts(tree: ast.Module) -> dict:
    """The whole-program facts of one parsed file."""
    facts: dict = {
        "raw_imports": [],
        "symbols": {},
        "string_consts": {},
        "string_tuples": {},
        "lineage": extract_lineage(tree),
    }

    # -- module-exec-time imports (skip function bodies: lazy imports are a
    #    legitimate cycle breaker and never run at import time) ------------
    def walk_exec(stmts) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    facts["raw_imports"].append(
                        [0, alias.name, alias.asname or "", stmt.lineno]
                    )
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    facts["raw_imports"].append(
                        [
                            stmt.level,
                            f"{stmt.module or ''}:{alias.name}",
                            alias.asname or "",
                            stmt.lineno,
                        ]
                    )
            else:
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.stmt):
                        walk_exec([child])
                    elif isinstance(child, ast.ExceptHandler):
                        walk_exec(child.body)

    walk_exec(tree.body)

    # -- module-level symbols and constants --------------------------------
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts["symbols"][node.name] = {"kind": "function", "lineno": node.lineno}
        elif isinstance(node, ast.ClassDef):
            facts["symbols"][node.name] = {"kind": "class", "lineno": node.lineno}
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            facts["symbols"][target.id] = {"kind": "assign", "lineno": node.lineno}
            value = _string_or_none(node.value)
            if value is not None:
                facts["string_consts"][target.id] = value
            elif isinstance(node.value, ast.Tuple):
                strings = [
                    s
                    for s in (_string_or_none(e) for e in node.value.elts)
                    if s is not None
                ]
                names = [
                    e.id for e in node.value.elts if isinstance(e, ast.Name)
                ]
                facts["string_tuples"][target.id] = {
                    "lineno": node.lineno,
                    "values": strings,
                    "name_refs": names,
                }

    return facts


@dataclass(frozen=True)
class FileSummary:
    """One parsed file as the whole-program index sees it."""

    path: Path
    #: The path as reported in findings (repo-relative where possible).
    display: str
    module: str
    #: :func:`extract_facts` of the file.
    facts: dict


class ProjectIndex:
    """The whole-program model the cross-module rules run against."""

    def __init__(self, summaries: list[FileSummary]):
        self.summaries = list(summaries)
        self.by_module: dict[str, FileSummary] = {}
        for summary in self.summaries:
            # first one wins on a (pathological) duplicate module name
            self.by_module.setdefault(summary.module, summary)
        self._bindings: dict[str, dict[str, str]] = {}
        self._graph: dict[str, dict[str, int]] = {}
        self._build_imports()

    # -- import graph -------------------------------------------------------

    def _resolve_relative(self, module: str, is_package: bool, level: int, stem: str) -> str:
        base = module.split(".") if is_package else module.split(".")[:-1]
        if level > 1:
            base = base[: len(base) - (level - 1)]
        return ".".join(base + ([stem] if stem else []))

    def _build_imports(self) -> None:
        for summary in self.summaries:
            module = summary.module
            is_package = summary.path.stem == "__init__"
            bindings: dict[str, str] = {}
            edges: dict[str, int] = {}
            for level, spec, asname, lineno in summary.facts.get("raw_imports", ()):
                if ":" in spec:  # a ``from X import name`` entry
                    stem, leaf = spec.split(":", 1)
                    if level:
                        stem = self._resolve_relative(module, is_package, level, stem)
                    if leaf == "*":
                        continue
                    dotted = f"{stem}.{leaf}" if stem else leaf
                    bindings[asname or leaf] = dotted
                    for candidate in (dotted, stem):
                        if candidate in self.by_module and candidate != module:
                            edges.setdefault(candidate, lineno)
                            break
                else:  # a plain ``import X[.Y]`` entry
                    if asname:
                        bindings[asname] = spec
                    else:
                        root = spec.split(".", 1)[0]
                        bindings[root] = root
                    if spec in self.by_module and spec != module:
                        edges.setdefault(spec, lineno)
            self._bindings[module] = bindings
            self._graph[module] = edges

    @property
    def import_graph(self) -> dict[str, dict[str, int]]:
        """``{module: {imported_module: first_import_lineno}}`` (in-set only)."""
        return self._graph

    def import_cycles(self) -> list[list[str]]:
        """Strongly connected components of size > 1, plus self-loops.

        Iterative Tarjan keeps the analysis safe on arbitrarily deep
        graphs; each cycle comes back sorted for stable reporting.
        """
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        cycles: list[list[str]] = []

        for root in sorted(self._graph):
            if root in index:
                continue
            work: list[tuple[str, list[str], int]] = [
                (root, sorted(self._graph.get(root, ())), 0)
            ]
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, targets, position = work.pop()
                if position < len(targets):
                    work.append((node, targets, position + 1))
                    child = targets[position]
                    if child not in index:
                        index[child] = low[child] = counter
                        counter += 1
                        stack.append(child)
                        on_stack.add(child)
                        work.append(
                            (child, sorted(self._graph.get(child, ())), 0)
                        )
                    elif child in on_stack:
                        low[node] = min(low[node], index[child])
                    continue
                if low[node] == index[node]:
                    component = []
                    while True:
                        leaf = stack.pop()
                        on_stack.discard(leaf)
                        component.append(leaf)
                        if leaf == node:
                            break
                    if len(component) > 1 or node in self._graph.get(node, ()):
                        cycles.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return sorted(cycles)

    # -- project symbol resolution -----------------------------------------

    def _resolve_binding(self, module: str, name: str) -> tuple[str, str] | None:
        """``(module, symbol)`` a local *name* stands for, following imports."""
        summary = self.by_module.get(module)
        if summary is None:
            return None
        if name in summary.facts.get("symbols", {}):
            return module, name
        dotted = self._bindings.get(module, {}).get(name)
        if dotted is None:
            return None
        owner, _, symbol = dotted.rpartition(".")
        if owner in self.by_module and symbol:
            return owner, symbol
        return None

    def resolve_string(self, module: str, name: str) -> str | None:
        """The string constant a (possibly imported) *name* resolves to."""
        resolved = self._resolve_binding(module, name)
        if resolved is None:
            return None
        owner, symbol = resolved
        return self.by_module[owner].facts.get("string_consts", {}).get(symbol)

    def resolve_string_seq(self, module: str, name: str) -> list[str] | None:
        """The string-tuple values a (possibly imported) *name* names."""
        resolved = self._resolve_binding(module, name)
        if resolved is None:
            return None
        owner, symbol = resolved
        entry = self.by_module[owner].facts.get("string_tuples", {}).get(symbol)
        if entry is None:
            return None
        values = list(entry.get("values", ()))
        for ref in entry.get("name_refs", ()):
            nested = self.resolve_string(owner, ref)
            if nested is not None:
                values.append(nested)
        return values
