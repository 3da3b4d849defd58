"""Whole-program view: module naming, facts, import graph, symbol table.

Per-file rules prove local invariants; the pipeline's *contracts between
modules* (column lineage, fork-safety of parallel workers, import
acyclicity) need a project-wide model.  This module builds it in two
layers:

1. :func:`extract_facts` walks one parsed file and distils everything the
   cross-module rules need into a plain JSON-serializable dict — imports,
   module-level symbols, fault-hook call sites, per-function global
   reads/mutations and local call edges, executor submissions and the
   column-lineage sites of :mod:`.lineage`.  Facts never hold AST nodes,
   so they can be cached per file (content-hash keyed, see
   :mod:`.cache`) and a warm incremental run re-parses nothing.
2. :class:`ProjectIndex` aggregates one :class:`FileSummary` per file
   into the whole-program structures: the module map, the import graph
   (with Tarjan SCC cycle detection), a project symbol table with
   cross-module string-constant resolution, and a lightweight intra-module
   call graph used to close worker functions over their helpers.

Rules consume the index through :meth:`~repro.checks.model.Rule.check_index`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .lineage import extract_lineage

__all__ = [
    "FileSummary",
    "ProjectIndex",
    "extract_facts",
    "module_name_for",
    "FACTS_VERSION",
]

#: Bump when the facts schema changes so cached summaries invalidate.
FACTS_VERSION = 7

#: Attribute methods whose first argument names a fault-injection site.
_HOOK_METHODS = ("arrive", "fire")

#: Method names / types that mark a receiver as a process-pool executor.
_EXECUTOR_TYPES = frozenset({"ParallelMap", "ProcessPoolExecutor"})
#: Attribute/name convention for the engine-owned executor instance.
_EXECUTOR_NAMES = frozenset({"executor"})

#: Container methods that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
    }
)


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


def _contains_call_to(node: ast.expr, names: frozenset[str] | set[str]) -> bool:
    """Whether any sub-expression calls one of *names* (``X()`` / ``m.X()``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            target = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if target in names:
                return True
    return False


def _string_or_none(node: ast.expr) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _FunctionFacts(ast.NodeVisitor):
    """Reads, mutations and local calls of one function body."""

    def __init__(self, params: set[str]):
        self.local: set[str] = set(params)
        self.declared_global: set[str] = set()
        self.reads: set[str] = set()
        self.mutates: set[str] = set()
        self.calls: set[str] = set()
        self.nested_defs: set[str] = set()

    # -- scope bookkeeping --------------------------------------------------

    def visit_Global(self, node: ast.Global) -> None:
        """``global X`` makes X a module binding inside this scope."""
        self.declared_global.update(node.names)

    def _visit_nested(self, node) -> None:
        self.nested_defs.add(node.name)
        self.local.add(node.name)
        # nested scopes still read/mutate the same module globals
        inner = _FunctionFacts(
            {a.arg for a in node.args.args + node.args.kwonlyargs}
        )
        for stmt in node.body:
            inner.visit(stmt)
        self.reads |= inner.reads
        self.mutates |= inner.mutates
        self.calls |= inner.calls

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Record the nested def and fold its global accesses in."""
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Async nested defs behave exactly like sync ones here."""
        self._visit_nested(node)

    # -- reads, writes, mutations ------------------------------------------

    def _assign_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            if target.id in self.declared_global:
                self.mutates.add(target.id)
            else:
                self.local.add(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign_target(elt)
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if isinstance(base, ast.Name) and base.id not in self.local:
                self.mutates.add(base.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        """Classify each target as a local bind or a global mutation."""
        self.visit(node.value)
        for target in node.targets:
            self._assign_target(target)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        """``X += ...`` mutates X when X is not local."""
        self.visit(node.value)
        self._assign_target(node.target)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        """Annotated assignment: same classification as a plain one."""
        if node.value is not None:
            self.visit(node.value)
        self._assign_target(node.target)

    def visit_For(self, node: ast.For) -> None:
        """Loop variables are locals of this scope."""
        self.visit(node.iter)
        self._assign_target(node.target)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    def visit_withitem(self, node: ast.withitem) -> None:
        """``with ... as X`` binds X locally."""
        self.visit(node.context_expr)
        if node.optional_vars is not None:
            self._assign_target(node.optional_vars)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        """Comprehension variables are locals of this scope."""
        self.visit(node.iter)
        self._assign_target(node.target)
        for cond in node.ifs:
            self.visit(cond)

    def visit_Name(self, node: ast.Name) -> None:
        """A loaded name outside the local set is a module-global read."""
        if isinstance(node.ctx, ast.Load) and node.id not in self.local:
            self.reads.add(node.id)

    def visit_Call(self, node: ast.Call) -> None:
        """Record plain-name call edges and in-place mutator methods."""
        if isinstance(node.func, ast.Name):
            self.calls.add(node.func.id)
        elif isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATOR_METHODS and isinstance(
                node.func.value, ast.Name
            ):
                name = node.func.value.id
                if name not in self.local:
                    self.mutates.add(name)
        self.generic_visit(node)


def extract_facts(tree: ast.Module) -> dict:
    """The JSON-serializable whole-program facts of one parsed file."""
    facts: dict = {
        "version": FACTS_VERSION,
        "raw_imports": [],
        "symbols": {},
        "string_consts": {},
        "string_tuples": {},
        "hook_calls": [],
        "functions": {},
        "map_calls": [],
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

    # -- fault-hook call sites ---------------------------------------------
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in _HOOK_METHODS:
            continue
        arg = node.args[0]
        site = _string_or_none(arg)
        ref = arg.id if isinstance(arg, ast.Name) else None
        if site is None and ref is None:
            continue
        facts["hook_calls"].append(
            [func.attr, site or "", ref or "", node.lineno, node.col_offset]
        )

    # -- per-function global reads / mutations / local call edges ----------
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        params = {a.arg for a in node.args.args + node.args.kwonlyargs}
        if node.args.vararg is not None:
            params.add(node.args.vararg.arg)
        if node.args.kwarg is not None:
            params.add(node.args.kwarg.arg)
        flow = _FunctionFacts(params)
        for stmt in node.body:
            flow.visit(stmt)
        facts["functions"].setdefault(
            node.name,
            {
                "lineno": node.lineno,
                "reads": sorted(flow.reads),
                "mutates": sorted(flow.mutates),
                "calls": sorted(flow.calls),
                "nested": sorted(flow.nested_defs),
            },
        )

    _extract_executor_facts(tree, facts)
    return facts


def _extract_executor_facts(tree: ast.Module, facts: dict) -> None:
    """Executor submissions: ``<executor>.map`` / ``.map_tasks`` calls
    (``map_tasks`` applies its func to whole items, exactly like ``map``)."""
    executor_names: set[str] = set(_EXECUTOR_NAMES)
    for node in ast.walk(tree):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            if _contains_call_to(node.value, _EXECUTOR_TYPES):
                targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _contains_call_to(node.value, _EXECUTOR_TYPES):
                targets = [node.target]
        elif isinstance(node, ast.withitem):
            if node.optional_vars is not None and _contains_call_to(
                node.context_expr, _EXECUTOR_TYPES
            ):
                targets = [node.optional_vars]
        for target in targets:
            if isinstance(target, ast.Name):
                executor_names.add(target.id)
            elif isinstance(target, ast.Attribute):
                executor_names.add(target.attr)

    #: function name -> lineno of its enclosing def, for nested detection
    nesting: dict[str, bool] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for child in ast.walk(node):
                if (
                    child is not node
                    and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                ):
                    nesting[child.name] = True

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in (
            "map", "map_tasks"
        ):
            continue
        receiver = func.value
        receiver_name = receiver.id if isinstance(receiver, ast.Name) else (
            receiver.attr if isinstance(receiver, ast.Attribute) else None
        )
        if receiver_name not in executor_names:
            continue
        submitted = node.args[0]
        entry = {
            "lineno": node.lineno,
            "col": node.col_offset,
            "func": "",
            "kind": "unknown",
            "initializer": "",
        }
        if isinstance(submitted, ast.Lambda):
            entry["kind"] = "lambda"
        elif isinstance(submitted, ast.Name):
            entry["func"] = submitted.id
            entry["kind"] = "nested" if nesting.get(submitted.id) else "name"
        for kw in node.keywords:
            if kw.arg == "initializer" and isinstance(kw.value, ast.Name):
                entry["initializer"] = kw.value.id
        facts["map_calls"].append(entry)


@dataclass
class FileSummary:
    """Everything one analysis learned about one file.

    Path-free in its cached form (:meth:`to_cache_entry`): findings and
    facts carry only line/column anchors, so a cache entry survives a
    checkout moving or the analysis running from a different directory.
    ``display`` and ``module`` are recomputed on load.
    """

    path: Path
    display: str
    module: str
    content_hash: str
    facts: dict = field(default_factory=dict)
    #: Per-file rule findings as path-free dicts (line/col/rule/message).
    findings: list = field(default_factory=list)
    #: ``{"line_codes": {lineno: [codes]}, "file_codes": [codes]}``.
    pragmas: dict = field(default_factory=dict)
    error: str | None = None
    from_cache: bool = False

    def to_cache_entry(self) -> dict:
        """The JSON cache payload (no absolute paths)."""
        return {
            "facts": self.facts,
            "findings": self.findings,
            "pragmas": self.pragmas,
            "error": self.error,
        }

    @classmethod
    def from_cache_entry(
        cls,
        entry: dict,
        path: Path,
        display: str,
        module: str,
        content_hash: str,
    ) -> "FileSummary":
        """Rehydrate a cached entry for the current checkout location."""
        return cls(
            path=path,
            display=display,
            module=module,
            content_hash=content_hash,
            facts=entry.get("facts", {}),
            findings=list(entry.get("findings", ())),
            pragmas=entry.get("pragmas", {}),
            error=entry.get("error"),
            from_cache=True,
        )


class ProjectIndex:
    """The whole-program model the cross-module rules run against."""

    def __init__(self, summaries: list[FileSummary]):
        self.summaries = [s for s in summaries if s.error is None]
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

    # -- worker-function closure -------------------------------------------

    def function_closure(self, module: str, func: str) -> tuple[set[str], set[str]]:
        """``(reads, mutates)`` of *func* plus its same-module callees."""
        summary = self.by_module.get(module)
        if summary is None:
            return set(), set()
        functions = summary.facts.get("functions", {})
        reads: set[str] = set()
        mutates: set[str] = set()
        pending = [func]
        seen: set[str] = set()
        while pending:
            name = pending.pop()
            if name in seen or name not in functions:
                continue
            seen.add(name)
            info = functions[name]
            reads.update(info.get("reads", ()))
            mutates.update(info.get("mutates", ()))
            pending.extend(info.get("calls", ()))
        return reads, mutates

    def module_mutated_globals(self, module: str) -> dict[str, list[str]]:
        """``{global: [mutating functions]}`` for one module."""
        summary = self.by_module.get(module)
        if summary is None:
            return {}
        out: dict[str, list[str]] = {}
        functions = summary.facts.get("functions", {})
        for name in sorted(functions):
            for target in functions[name].get("mutates", ()):
                out.setdefault(target, []).append(name)
        return out
