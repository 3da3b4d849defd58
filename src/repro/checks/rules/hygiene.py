"""Hygiene rules: failure handling, numeric comparisons, lock guards.

* **EXC001** — a bare / ``except Exception`` / ``except BaseException``
  handler that neither re-raises nor records a provenance degradation
  swallows failures silently, breaking PR 2's contract that every fault
  either recovers bit-identically or leaves a logged degradation;
* **MUT001** — mutable default arguments alias state across calls, the
  classic source of run-order-dependent results;
* **FLOAT001** — ``==`` / ``!=`` between float expressions is
  representation-dependent; analytics code must compare with tolerances
  (``math.isclose`` / ``numpy.isclose``) or on exact integer surrogates;
* **LOCK003** — an attribute a class writes under one of its own locks
  on some path and bare on another is only protected on the locked path.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..imports import ImportTable
from ..model import Finding, Rule, SourceFile, register

__all__ = ["BroadExcept", "MutableDefault", "FloatEquality", "InconsistentGuard"]

_BROAD_NAMES = frozenset({"Exception", "BaseException"})

#: Container methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "setdefault",
        "pop", "popitem", "remove", "discard", "clear", "appendleft",
    }
)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """Bare ``except:`` or catching Exception/BaseException."""
    node = handler.type
    if node is None:
        return True
    if isinstance(node, ast.Name):
        return node.id in _BROAD_NAMES
    if isinstance(node, ast.Tuple):
        return any(
            isinstance(elt, ast.Name) and elt.id in _BROAD_NAMES
            for elt in node.elts
        )
    return False


def _handler_accounts_for_failure(handler: ast.ExceptHandler) -> bool:
    """Whether the handler re-raises or records a provenance degradation."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record"
        ):
            return True
    return False


@register
class BroadExcept(Rule):
    """EXC001 — broad except handlers that swallow failures silently."""

    code = "EXC001"
    name = "silent-broad-except"
    rationale = (
        "every failure must either re-raise or leave a ProvenanceLog "
        "degradation; a silent broad except hides faults from the "
        "bit-identical-or-logged recovery contract"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        """Flag broad handlers with no re-raise and no ``.record(...)``."""
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node) and not _handler_accounts_for_failure(node):
                caught = "bare except" if node.type is None else "broad except"
                yield Finding(
                    file.display, node.lineno, node.col_offset, self.code,
                    f"{caught} neither re-raises nor records a provenance "
                    "degradation; narrow the exception type, re-raise, or "
                    "call ProvenanceLog.record(..., 'degradation', ...)",
                )


_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "Counter", "OrderedDict", "deque"}
)


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_CALLS
    return False


@register
class MutableDefault(Rule):
    """MUT001 — mutable default arguments (cross-call shared state)."""

    code = "MUT001"
    name = "mutable-default"
    rationale = (
        "a mutable default argument is shared across calls, so results "
        "depend on call history instead of (data, config, seed)"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        """Flag literal/constructor mutables in default positions."""
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_default(default):
                    yield Finding(
                        file.display, default.lineno, default.col_offset,
                        self.code,
                        f"mutable default argument in {node.name}(); use "
                        "None and create the object inside the function "
                        "(or a dataclass field(default_factory=...))",
                    )


def _is_floatish(node: ast.expr) -> bool:
    """Whether *node* syntactically looks like a float-valued expression."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "float"
    return False


@register
class FloatEquality(Rule):
    """FLOAT001 — exact ``==``/``!=`` between float expressions."""

    code = "FLOAT001"
    name = "float-equality"
    rationale = (
        "exact ==/!= between floats is representation-dependent; analytics "
        "must compare with a tolerance or on exact integer surrogates"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        """Flag equality comparisons with a float-looking operand."""
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_floatish(left) or _is_floatish(right):
                    yield Finding(
                        file.display, node.lineno, node.col_offset, self.code,
                        "==/!= between float expressions; use math.isclose/"
                        "numpy.isclose, an ordered comparison, or compare "
                        "exact integer surrogates",
                    )


#: Constructors whose result a class uses as a lock.
_LOCK_TYPES = frozenset(
    {
        "threading.Lock", "threading.RLock", "threading.Condition",
        "threading.Semaphore", "threading.BoundedSemaphore",
    }
)


def _self_attr(node: ast.expr) -> str | None:
    """``X`` for ``self.X`` and for anything indexed off it (``self.X[k]``)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _writes(stmts, locks: set[str], held: bool):
    """``(attribute, node, held)`` for each ``self`` attribute write in
    *stmts*; *held* is whether one of *locks* is held (``with self.L:``).
    Nested functions run later, under unknown locks, and are skipped."""
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            inner = held or any(
                _self_attr(item.context_expr) in locks for item in stmt.items
            )
            yield from _writes(stmt.body, locks, inner)
            continue
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = stmt.targets
        elif (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Call)
            and isinstance(stmt.value.func, ast.Attribute)
            and stmt.value.func.attr in _MUTATOR_METHODS
        ):
            targets = [stmt.value.func.value]
        for target in targets:
            attr = _self_attr(target)
            if attr is not None and attr not in locks:
                yield attr, target, held
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _writes(getattr(stmt, field, ()), locks, held)


@register
class InconsistentGuard(Rule):
    """LOCK003 — an attribute mutated both under and outside its lock."""

    code = "LOCK003"
    name = "inconsistent-guard"
    rationale = (
        "an attribute a class mutates under its own lock on some paths "
        "and bare on others is only protected on the locked path; the "
        "bare write races every locked reader once threads share the "
        "instance (__init__ is exempt: nothing shares it yet)"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        """Flag bare writes to attributes the class also writes locked."""
        table = ImportTable(file.tree)
        for cls in ast.walk(file.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            locks = {
                attr
                for node in ast.walk(cls)
                if isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and table.resolve(node.value.func) in _LOCK_TYPES
                for attr in map(_self_attr, node.targets)
                if attr is not None
            }
            if not locks:
                continue
            writes = [
                write
                for method in cls.body
                if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                and method.name != "__init__"
                for write in _writes(method.body, locks, held=False)
            ]
            guarded = {attr for attr, __, held in writes if held}
            for attr, node, held in writes:
                if not held and attr in guarded:
                    yield Finding(
                        file.display, node.lineno, node.col_offset, self.code,
                        f"self.{attr} is written under the class's lock "
                        "elsewhere but bare here; take the lock for this "
                        "write too",
                    )
