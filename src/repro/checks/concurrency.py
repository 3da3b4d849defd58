"""Lock-identity facts and the cross-module concurrency model.

The serving tier made the reproduction genuinely concurrent — per-key
single-flight locks, semaphore admission, a fixed worker pool.  Lock
*lifecycle* is structural (``with`` regions, and one timed admission
acquire released in a ``finally``); this module checks the *ordering*
and *coverage* half, in the same two-layer shape as :mod:`.project`:

1. :func:`extract_concurrency` walks one parsed file and distils a plain
   JSON-serializable dict of concurrency facts: lock-object identities
   (module globals, ``self.X = Lock()`` class attributes, and dict-of-
   locks attributes like the store's per-key table), acquisition regions
   (``with lock:`` and ``.acquire()`` forms, including aliases through
   lock-returning helpers such as ``ArtifactStore._lock_for``), the
   nested-acquisition order edges observed inside each function, calls
   made while holding a lock, attribute writes inside vs. outside lock
   regions, blocking calls under a lock, and ``threading.Thread``
   targets.  Facts hold no AST nodes, so they cache per content hash
   like every other fact family.
2. :class:`ConcurrencyModel` aggregates the facts of a whole
   :class:`~repro.checks.project.ProjectIndex` into the global
   structures the LOCK002/LOCK003/LOCK004 rules consume: a
   cross-module lock-order graph (intra-function nesting plus
   interprocedural edges one call deep, resolved through the index's
   import bindings), Tarjan SCC cycle detection over it, and guarded-by
   inference (the *majority lock* of each shared attribute, against
   which unguarded writes are judged).

Identities are namespaced ``module:ident`` where the local ``ident`` is
``name`` for module globals, ``Class.attr`` for instance locks and
``Class.attr[]`` for a dict of locks keyed at runtime.
"""

from __future__ import annotations

import ast
from typing import Iterator

# NOTE: annotations naming ProjectIndex stay strings — importing
# .project here (even under TYPE_CHECKING) closes an import cycle,
# because project.extract_facts calls extract_concurrency.

__all__ = ["ConcurrencyModel", "LOCK_CLASSES", "extract_concurrency"]

#: Constructor names that create a lockable primitive, with the kind the
#: order analysis needs (``rlock`` is reentrant: self-edges are legal).
LOCK_CLASSES = {
    "Lock": "lock",
    "RLock": "rlock",
    "Semaphore": "semaphore",
    "BoundedSemaphore": "semaphore",
    "Condition": "condition",
}

#: Plain-name calls that block (or render) — forbidden while holding a lock.
_BLOCKING_NAMES = frozenset({"sleep", "open", "urlopen"})
#: Attribute calls that block: sleeps, socket ops, file IO, HTTP waits.
_BLOCKING_ATTRS = frozenset(
    {
        "sleep", "accept", "connect", "recv", "recv_into", "send",
        "sendall", "wait", "getresponse", "select", "urlopen",
        "read_text", "read_bytes", "write_text", "write_bytes",
    }
)
#: In-place container mutators (kept in sync with project._MUTATOR_METHODS
#: where it matters for attribute writes; duplicated to avoid a cycle).
_MUTATORS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
    }
)
#: Methods whose writes run before any thread can see the instance.
_INIT_METHODS = frozenset({"__init__", "__post_init__"})


def _lock_kind(node: ast.expr | None) -> str | None:
    """The lock kind a value expression creates, or None.

    Sees through wrappers (``maybe_wrap(threading.Lock(), ...)``): any
    sub-call to a lock class marks the whole expression as creating one.
    """
    if node is None:
        return None
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None
            )
            if name in LOCK_CLASSES:
                return LOCK_CLASSES[name]
    return None


def _annotation_lock_kind(node: ast.expr | None) -> str | None:
    """The lock kind named inside a (container) annotation, or None."""
    if node is None:
        return None
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        if name in LOCK_CLASSES:
            return LOCK_CLASSES[name]
    return None


def _self_attr(node: ast.expr) -> str | None:
    """``X`` for a ``self.X`` attribute expression, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _scan(node: ast.AST) -> Iterator[ast.AST]:
    """Walk *node* without descending into deferred scopes (defs/lambdas)."""
    stack: list[ast.AST] = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
            ):
                continue
            stack.append(child)


class _Extractor:
    """Concurrency facts of one parsed file (see module docstring)."""

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.locks: dict[str, str] = {}
        self.lock_lines: dict[str, int] = {}
        self.functions: list[tuple[str, str | None, ast.AST]] = []
        self.returns_lock: dict[str, str] = {}
        self.facts: dict = {
            "locks": [],
            "edges": [],
            "entry_acquires": {},
            "region_calls": [],
            "blocking": [],
            "attr_writes": [],
            "thread_targets": [],
        }
        self._collect_functions()
        self._collect_identities()
        self._collect_returns_lock()
        for qual, cls, node in self.functions:
            self._walk_function(qual, cls, node)
        self.facts["locks"] = sorted(
            [ident, kind, self.lock_lines[ident]]
            for ident, kind in self.locks.items()
        )

    # -- identities ---------------------------------------------------------

    def _collect_functions(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions.append((node.name, None, node))
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self.functions.append(
                            (f"{node.name}.{sub.name}", node.name, sub)
                        )

    def _register(self, ident: str, kind: str, lineno: int) -> None:
        self.locks.setdefault(ident, kind)
        self.lock_lines.setdefault(ident, lineno)

    def _collect_identities(self) -> None:
        for node in self.tree.body:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                kind = _lock_kind(node.value)
                if isinstance(target, ast.Name) and kind:
                    self._register(target.id, kind, node.lineno)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                kind = _lock_kind(node.value)
                if kind:
                    self._register(node.target.id, kind, node.lineno)
        for qual, cls, func in self.functions:
            if cls is None:
                continue
            for stmt in ast.walk(func):
                if isinstance(stmt, ast.Assign):
                    targets, value = stmt.targets, stmt.value
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    targets, value = [stmt.target], stmt.value
                    attr = _self_attr(stmt.target)
                    if attr and _lock_kind(value) is None:
                        ann_kind = _annotation_lock_kind(stmt.annotation)
                        if ann_kind:  # dict-of-locks: `self.X: dict[str, Lock] = {}`
                            self._register(
                                f"{cls}.{attr}[]", ann_kind, stmt.lineno
                            )
                            continue
                else:
                    continue
                kind = _lock_kind(value)
                if not kind:
                    continue
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        self._register(f"{cls}.{attr}", kind, stmt.lineno)
                    elif isinstance(target, ast.Subscript):
                        attr = _self_attr(target.value)
                        if attr is not None:
                            self._register(f"{cls}.{attr}[]", kind, stmt.lineno)

    # -- expression -> lock identity ----------------------------------------

    def _resolve(
        self, node: ast.expr, aliases: dict[str, str], cls: str | None
    ) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in aliases:
                return aliases[node.id]
            return node.id if node.id in self.locks else None
        attr = _self_attr(node)
        if attr is not None and cls is not None:
            ident = f"{cls}.{attr}"
            return ident if ident in self.locks else None
        if isinstance(node, ast.Subscript):
            attr = _self_attr(node.value)
            if attr is not None and cls is not None:
                ident = f"{cls}.{attr}[]"
                return ident if ident in self.locks else None
        if isinstance(node, ast.Call):
            func = node.func
            # `self._locks.get(path)` on a dict-of-locks attribute
            if isinstance(func, ast.Attribute) and func.attr == "get":
                attr = _self_attr(func.value)
                if attr is not None and cls is not None:
                    ident = f"{cls}.{attr}[]"
                    if ident in self.locks:
                        return ident
            # `self._lock_for(path)` through a lock-returning helper
            if isinstance(func, ast.Attribute):
                attr = _self_attr(func)
                if attr is not None and cls is not None:
                    return self.returns_lock.get(f"{cls}.{attr}")
            elif isinstance(func, ast.Name):
                return self.returns_lock.get(func.id)
        return None

    def _alias_map(self, qual: str, cls: str | None, func: ast.AST) -> dict[str, str]:
        """Local names bound to a lock identity inside one function."""
        aliases: dict[str, str] = {}
        for _round in range(2):  # one retry lets chained aliases settle
            for stmt in ast.walk(func):
                if not isinstance(stmt, ast.Assign):
                    continue
                ident = self._resolve(stmt.value, aliases, cls)
                if ident is None and _lock_kind(stmt.value):
                    # `lock = self._locks[p] = Lock()`: prefer the dict slot
                    for target in stmt.targets:
                        if isinstance(target, ast.Subscript):
                            slot = _self_attr(target.value)
                            if slot is not None and cls is not None:
                                ident = f"{cls}.{slot}[]"
                                break
                    if ident is None:
                        name = next(
                            (
                                t.id
                                for t in stmt.targets
                                if isinstance(t, ast.Name)
                            ),
                            None,
                        )
                        if name is not None:
                            ident = f"{qual}.{name}"
                            self._register(
                                ident, _lock_kind(stmt.value) or "lock", stmt.lineno
                            )
                if ident is not None:
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            aliases[target.id] = ident
        return aliases

    def _collect_returns_lock(self) -> None:
        for _round in range(2):  # helpers may chain one level deep
            for qual, cls, func in self.functions:
                aliases = self._alias_map(qual, cls, func)
                for stmt in ast.walk(func):
                    if isinstance(stmt, ast.Return) and stmt.value is not None:
                        ident = self._resolve(stmt.value, aliases, cls)
                        if ident is not None:
                            self.returns_lock.setdefault(qual, ident)

    # -- acquisition regions -----------------------------------------------

    def _walk_function(self, qual: str, cls: str | None, func: ast.AST) -> None:
        aliases = self._alias_map(qual, cls, func)
        held: list[str] = []
        facts = self.facts

        def enter(ident: str, lineno: int, col: int) -> None:
            if held:
                for outer in held:
                    if outer != ident:
                        facts["edges"].append([outer, ident, lineno, col])
                    else:  # re-acquisition of a held primitive: a self-edge
                        facts["edges"].append([ident, ident, lineno, col])
            else:
                facts["entry_acquires"].setdefault(qual, []).append(
                    [ident, lineno]
                )

        def handle_call(node: ast.Call, pushes: list, pops: list) -> None:
            fn = node.func
            attr = fn.attr if isinstance(fn, ast.Attribute) else None
            name = fn.id if isinstance(fn, ast.Name) else None
            if attr == "acquire":
                ident = self._resolve(fn.value, aliases, cls)
                if ident is not None:
                    enter(ident, node.lineno, node.col_offset)
                    pushes.append(ident)
                return
            if attr == "release":
                ident = self._resolve(fn.value, aliases, cls)
                if ident is not None:
                    pops.append(ident)
                return
            if (name or attr) == "Thread":
                for kw in node.keywords:
                    if kw.arg != "target":
                        continue
                    token = None
                    if isinstance(kw.value, ast.Name):
                        token = kw.value.id
                    else:
                        target_attr = _self_attr(kw.value)
                        if target_attr is not None and cls is not None:
                            token = f"{cls}.{target_attr}"
                    if token is not None:
                        facts["thread_targets"].append([token, node.lineno])
            if not held:
                return
            blocking = None
            if name is not None and (
                name in _BLOCKING_NAMES or name.startswith("render")
            ):
                blocking = f"{name}()"
            elif attr is not None and (
                attr in _BLOCKING_ATTRS or attr.startswith("render")
            ):
                receiver = self._resolve(fn.value, aliases, cls)
                # waiting on the very primitive you hold is the condition-
                # variable protocol, not a blocking call under a lock
                if receiver is None or receiver not in held:
                    blocking = f".{attr}()"
            if blocking is not None:
                facts["blocking"].append(
                    [held[-1], blocking, node.lineno, node.col_offset]
                )
            token = None
            if name is not None:
                token = name
            elif attr is not None and attr not in _MUTATORS:
                base = fn.value
                if isinstance(base, ast.Name):
                    token = (
                        f"{cls}.{attr}"
                        if base.id == "self" and cls is not None
                        else f"{base.id}.{attr}"
                    )
            if token is not None:
                facts["region_calls"].append(
                    [held[-1], token, node.lineno, node.col_offset]
                )

        def record_writes(stmt: ast.stmt) -> None:
            if cls is None:
                return
            targets: list[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
                targets = [stmt.target]
            for target in targets:
                attr = _self_attr(target)
                if attr is None and isinstance(target, ast.Subscript):
                    attr = _self_attr(target.value)
                if attr is not None:
                    facts["attr_writes"].append(
                        [
                            f"{cls}.{attr}",
                            held[-1] if held else "",
                            qual,
                            target.lineno,
                            target.col_offset,
                        ]
                    )

        def scan(node: ast.AST) -> tuple[list, list]:
            pushes: list[str] = []
            pops: list[str] = []
            for sub in _scan(node):
                if isinstance(sub, ast.Call):
                    handle_call(sub, pushes, pops)
                elif isinstance(sub, ast.Attribute) and cls is not None:
                    # mutator calls handled above; in-place container writes
                    pass
            if isinstance(sub_stmt := node, ast.stmt):
                record_writes(sub_stmt)
            # mutator method calls are attribute writes too
            if cls is not None:
                for sub in _scan(node):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in _MUTATORS
                    ):
                        attr = _self_attr(sub.func.value)
                        if attr is not None:
                            facts["attr_writes"].append(
                                [
                                    f"{cls}.{attr}",
                                    held[-1] if held else "",
                                    qual,
                                    sub.lineno,
                                    sub.col_offset,
                                ]
                            )
            return pushes, pops

        def apply(pushes: list, pops: list) -> None:
            for ident in pops:
                if ident in held:
                    held.remove(ident)
            held.extend(pushes)

        def visit_block(stmts: list[ast.stmt]) -> None:
            for stmt in stmts:
                visit_stmt(stmt)

        def visit_stmt(stmt: ast.stmt) -> None:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                entered = 0
                for item in stmt.items:
                    apply(*scan(item.context_expr))
                    ident = self._resolve(item.context_expr, aliases, cls)
                    if ident is not None:
                        enter(
                            ident,
                            item.context_expr.lineno,
                            item.context_expr.col_offset,
                        )
                        held.append(ident)
                        entered += 1
                visit_block(stmt.body)
                for __ in range(entered):
                    held.pop()
                return
            if isinstance(stmt, ast.If):
                pend = scan(stmt.test)
                visit_block(stmt.body)
                visit_block(stmt.orelse)
                apply(*pend)
                return
            if isinstance(stmt, ast.While):
                pend = scan(stmt.test)
                visit_block(stmt.body)
                visit_block(stmt.orelse)
                apply(*pend)
                return
            if isinstance(stmt, ast.For):
                pend = scan(stmt.iter)
                visit_block(stmt.body)
                visit_block(stmt.orelse)
                apply(*pend)
                return
            if isinstance(stmt, ast.Try):
                visit_block(stmt.body)
                for handler in stmt.handlers:
                    visit_block(handler.body)
                visit_block(stmt.orelse)
                visit_block(stmt.finalbody)
                return
            apply(*scan(stmt))

        visit_block(list(func.body))


def extract_concurrency(tree: ast.Module) -> dict:
    """The JSON-serializable concurrency facts of one parsed file."""
    return _Extractor(tree).facts


class ConcurrencyModel:
    """Cross-module lock-order graph and guarded-by inference.

    Build one per analysis (rules share it through :meth:`of`); all the
    heavy lifting is dict/set merging over cached facts, so a warm
    incremental run pays microseconds here.
    """

    def __init__(self, index: "ProjectIndex"):
        self.kinds: dict[str, str] = {}
        self.lock_sites: dict[str, tuple[str, int]] = {}
        #: ``(outer, inner) -> (display, lineno, col)`` — first site wins.
        self.edges: dict[tuple[str, str], tuple[str, int, int]] = {}
        self.blocking: list[tuple[str, str, str, int, int]] = []
        self._writes: dict[str, dict[str, list]] = {}
        self._threaded_classes: set[str] = set()
        self._build(index)

    @classmethod
    def of(cls, index: "ProjectIndex") -> "ConcurrencyModel":
        """The (memoized) model of one index."""
        model = getattr(index, "_concurrency_model", None)
        if model is None:
            model = cls(index)
            index._concurrency_model = model
        return model

    # -- construction --------------------------------------------------------

    def _build(self, index: "ProjectIndex") -> None:
        for summary in index.summaries:
            facts = summary.facts.get("concurrency") or {}
            module = summary.module
            for ident, kind, lineno in facts.get("locks", ()):
                gid = f"{module}:{ident}"
                self.kinds.setdefault(gid, kind)
                self.lock_sites.setdefault(gid, (summary.display, lineno))
            for outer, inner, lineno, col in facts.get("edges", ()):
                self._edge(
                    f"{module}:{outer}", f"{module}:{inner}",
                    summary.display, lineno, col,
                )
            for holder, what, lineno, col in facts.get("blocking", ()):
                self.blocking.append(
                    (f"{module}:{holder}", what, summary.display, lineno, col)
                )
            for ident, lock, qual, lineno, col in facts.get("attr_writes", ()):
                entry = self._writes.setdefault(
                    f"{module}:{ident}", {"locked": [], "bare": []}
                )
                if lock:
                    entry["locked"].append(
                        (f"{module}:{lock}", qual, summary.display, lineno, col)
                    )
                else:
                    entry["bare"].append((qual, summary.display, lineno, col))
            for token, __ in facts.get("thread_targets", ()):
                if "." in token:
                    self._threaded_classes.add(
                        f"{module}:{token.rsplit('.', 1)[0]}"
                    )
        for summary in index.summaries:
            facts = summary.facts.get("concurrency") or {}
            for holder, token, lineno, col in facts.get("region_calls", ()):
                for callee_gid in self._entry_locks(index, summary, token):
                    self._edge(
                        f"{summary.module}:{holder}", callee_gid,
                        summary.display, lineno, col,
                    )

    def _edge(
        self, outer: str, inner: str, display: str, lineno: int, col: int
    ) -> None:
        self.edges.setdefault((outer, inner), (display, lineno, col))

    def _entry_locks(self, index, summary, token: str) -> list[str]:
        """Global idents a called function acquires at its top level."""
        facts = summary.facts.get("concurrency") or {}
        entries = facts.get("entry_acquires", {})
        if token in entries:
            return [f"{summary.module}:{ident}" for ident, __ in entries[token]]
        head, _, tail = token.partition(".")
        resolved = index._resolve_binding(summary.module, head)
        if resolved is None:
            return []
        owner, symbol = resolved
        target = index.by_module.get(owner)
        if target is None:
            return []
        remote = (target.facts.get("concurrency") or {}).get("entry_acquires", {})
        qual = f"{symbol}.{tail}" if tail else symbol
        return [f"{owner}:{ident}" for ident, __ in remote.get(qual, ())]

    # -- lock-order cycles (LOCK002) -----------------------------------------

    def order_cycles(self) -> list[dict]:
        """Each cycle: ``{"ring": [...], "display": ..., "lineno", "col"}``."""
        graph: dict[str, set[str]] = {}
        for outer, inner in self.edges:
            graph.setdefault(outer, set())
            graph.setdefault(inner, set())
            if outer != inner:
                graph[outer].add(inner)
        cycles: list[list[str]] = [
            component for component in self._tarjan(graph) if len(component) > 1
        ]
        for outer, inner in self.edges:
            if outer == inner and self.kinds.get(outer) != "rlock":
                cycles.append([outer])
        out = []
        for ring in sorted(cycles):
            members = set(ring)
            sites = sorted(
                (site, pair)
                for pair, site in self.edges.items()
                if pair[0] in members and pair[1] in members
            )
            if not sites:  # pragma: no cover — a cycle always has edges
                continue
            (display, lineno, col), __ = sites[0]
            out.append(
                {"ring": sorted(ring), "display": display,
                 "lineno": lineno, "col": col}
            )
        return out

    @staticmethod
    def _tarjan(graph: dict[str, set[str]]) -> list[list[str]]:
        """Strongly connected components, iteratively (no recursion limit)."""
        index: dict[str, int] = {}
        low: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        counter = 0
        components: list[list[str]] = []
        for root in sorted(graph):
            if root in index:
                continue
            work: list[tuple[str, list[str], int]] = [
                (root, sorted(graph.get(root, ())), 0)
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
                        work.append((child, sorted(graph.get(child, ())), 0))
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
                    components.append(sorted(component))
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
        return components

    # -- guarded-by inference (LOCK003) --------------------------------------

    def is_concurrent_class(self, class_gid: str) -> bool:
        """Thread-reachability seed: the class spawns threads or owns a lock.

        ``module:Class`` owning any lock identity counts — locks exist
        because threads do, so its methods are presumed thread-reachable
        (``PooledHTTPServer`` workers, ``ParallelMap`` initializers and
        ``threading.Thread`` targets all land on such classes).
        """
        if class_gid in self._threaded_classes:
            return True
        prefix = class_gid + "."
        module, __, cls = class_gid.partition(":")
        return any(
            gid.startswith(f"{module}:{cls}.") for gid in self.kinds
        )

    def guard_violations(self) -> list[dict]:
        """Unguarded writes to attributes that have a majority lock."""
        out = []
        for attr_gid in sorted(self._writes):
            entry = self._writes[attr_gid]
            locked = entry["locked"]
            if not locked:
                continue
            module, __, attr = attr_gid.partition(":")
            class_gid = f"{module}:{attr.rsplit('.', 1)[0]}"
            if not self.is_concurrent_class(class_gid):
                continue
            counts: dict[str, int] = {}
            for lock_gid, *__rest in locked:
                counts[lock_gid] = counts.get(lock_gid, 0) + 1
            majority = max(sorted(counts), key=lambda gid: counts[gid])
            for qual, display, lineno, col in entry["bare"]:
                method = qual.rsplit(".", 1)[-1]
                if method in _INIT_METHODS:
                    continue
                out.append(
                    {
                        "attr": attr_gid,
                        "lock": majority,
                        "n_guarded": len(locked),
                        "qual": qual,
                        "display": display,
                        "lineno": lineno,
                        "col": col,
                    }
                )
        return out
