"""Determinism rules: the pipeline must be replayable from its seeds.

The paper's INDICE pipeline is deterministic end-to-end — every analytic
stage is seeded, every output is a pure function of ``(collection,
config)``.  These rules fail the build when entropy leaks in:

* **DET001** — module-level RNG (``random.*`` / ``numpy.random.*``)
  instead of an explicitly seeded ``Generator`` / ``Random`` instance;
* **DET002** — wall-clock, entropy or environment reads
  (``time.time``, ``datetime.now``, ``uuid4``, ``os.urandom``,
  ``secrets``, ``os.environ``, ``os.getenv``) in pipeline code
  (``time.perf_counter`` / ``monotonic`` stay allowed: they feed timing
  counters, never results);
* **DET003** — materializing an unordered ``set`` into ordered data
  (iteration, ``list(...)``, ``join``) without sorting first — set order
  depends on ``PYTHONHASHSEED``, so it differs across processes.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..imports import ImportTable
from ..model import Finding, Rule, SourceFile, register

__all__ = ["UnseededRng", "WallClock", "UnorderedIteration"]

#: Seeded-construction entry points: allowed, but only with arguments
#: (``default_rng()`` with no seed pulls OS entropy).
_SEEDED_CONSTRUCTORS = frozenset(
    {
        "random.Random",
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.SeedSequence",
        "numpy.random.RandomState",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.MT19937",
        "numpy.random.SFC64",
    }
)


@register
class UnseededRng(Rule):
    """DET001 — calls into module-level / unseeded random state."""

    code = "DET001"
    name = "unseeded-rng"
    rationale = (
        "module-level random.*/numpy.random.* draws from hidden global "
        "state; analytic stages must use an explicitly seeded Generator"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        """Flag RNG calls that bypass explicit seeding."""
        table = ImportTable(file.tree)
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = table.resolve(node.func)
            if dotted is None:
                continue
            if dotted in _SEEDED_CONSTRUCTORS:
                if not node.args and not node.keywords:
                    yield Finding(
                        file.display, node.lineno, node.col_offset, self.code,
                        f"{dotted}() without a seed draws OS entropy; pass an "
                        "explicit seed so the run is replayable",
                    )
                continue
            if dotted.startswith("numpy.random.") or (
                dotted.startswith("random.") and dotted.count(".") == 1
            ):
                yield Finding(
                    file.display, node.lineno, node.col_offset, self.code,
                    f"{dotted}() uses the module-level RNG (hidden global "
                    "state); use an explicitly seeded "
                    "numpy.random.default_rng(seed) instead",
                )


#: Calls that read the wall clock or OS entropy.
_FORBIDDEN_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.ctime",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "uuid.uuid1",
        "uuid.uuid4",
        "os.urandom",
        "os.getrandom",
        "random.SystemRandom",
    }
)


#: The process environment: any reference to these reads (or writes)
#: ambient state that neither a config fingerprint nor a seed covers.
_ENVIRONMENT = frozenset(
    {"os.environ", "os.environb", "os.getenv", "os.getenvb", "os.putenv",
     "os.unsetenv"}
)


@register
class WallClock(Rule):
    """DET002 — wall-clock, OS-entropy or environment reads in pipeline code."""

    code = "DET002"
    name = "wall-clock"
    rationale = (
        "pipeline outputs must be pure functions of (data, config, seed); "
        "wall-clock/entropy/environment reads make reruns diverge and slip "
        "past cache fingerprints (perf_counter for timing counters is fine)"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        """Flag the forbidden wall-clock/entropy calls and every
        reference to the process environment."""
        table = ImportTable(file.tree)
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.Name, ast.Attribute)):
                dotted = table.resolve(node)
                if dotted in _ENVIRONMENT:
                    yield Finding(
                        file.display, node.lineno, node.col_offset, self.code,
                        f"{dotted} touches the process environment; pass "
                        "the value in through the config (and its "
                        "fingerprint) instead",
                    )
                continue
            if not isinstance(node, ast.Call):
                continue
            dotted = table.resolve(node.func)
            if dotted is None:
                continue
            if dotted in _FORBIDDEN_CALLS or dotted.startswith("secrets."):
                yield Finding(
                    file.display, node.lineno, node.col_offset, self.code,
                    f"{dotted}() reads the wall clock / OS entropy; pipeline "
                    "results must depend only on data, config and seeds "
                    "(time.perf_counter is allowed for timing counters)",
                )


#: Builtins through which a set's arbitrary order escapes into ordered data.
_ORDERING_SINKS = frozenset({"list", "tuple", "enumerate", "iter", "reversed"})

_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)


class _SetFlow(ast.NodeVisitor):
    """Tracks names bound to set-valued expressions inside one scope."""

    def __init__(self, rule: "UnorderedIteration", file: SourceFile):
        self.rule = rule
        self.file = file
        self.unordered: set[str] = set()
        self.findings: list[Finding] = []

    # -- what counts as an unordered expression -----------------------------

    def is_unordered(self, node: ast.expr) -> bool:
        """Whether *node* evaluates to an unordered (set-valued) result."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in self.unordered
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self.is_unordered(func.value)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_unordered(node.left) or self.is_unordered(node.right)
        return False

    def _flag(self, node: ast.expr, how: str) -> None:
        self.findings.append(
            Finding(
                self.file.display, node.lineno, node.col_offset, self.rule.code,
                f"{how} a set materializes its arbitrary (PYTHONHASHSEED-"
                "dependent) order into the result; wrap it in sorted(...)",
            )
        )

    # -- scope handling: each function re-tracks its own locals -------------

    def _visit_scope(self, node: ast.AST) -> None:
        saved = self.unordered
        self.unordered = set()
        self.generic_visit(node)
        self.unordered = saved

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        """Enter a fresh tracking scope for the function body."""
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        """Enter a fresh tracking scope for the async function body."""
        self._visit_scope(node)

    # -- bindings -----------------------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        """Track or untrack assigned names by the value's orderedness."""
        self.generic_visit(node)
        value_unordered = self.is_unordered(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                if value_unordered:
                    self.unordered.add(target.id)
                else:
                    self.unordered.discard(target.id)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        """Track or untrack annotated assignments, same as plain ones."""
        self.generic_visit(node)
        if isinstance(node.target, ast.Name) and node.value is not None:
            if self.is_unordered(node.value):
                self.unordered.add(node.target.id)
            else:
                self.unordered.discard(node.target.id)

    # -- ordering sinks -----------------------------------------------------

    def visit_For(self, node: ast.For) -> None:
        """A ``for`` loop over a set is an ordering sink."""
        if self.is_unordered(node.iter):
            self._flag(node.iter, "iterating")
        self.generic_visit(node)

    def visit_comprehension_iters(self, generators: list[ast.comprehension]) -> None:
        """Flag set-valued iterables feeding an ordered comprehension."""
        for gen in generators:
            if self.is_unordered(gen.iter):
                self._flag(gen.iter, "iterating")

    def visit_ListComp(self, node: ast.ListComp) -> None:
        """List comprehensions preserve iteration order: a sink."""
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        """Generator expressions yield in iteration order: a sink."""
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        """Dicts preserve insertion order, so their comps are sinks too."""
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        """``list()``/``tuple()``/... and ``str.join`` are ordering sinks."""
        func = node.func
        if (
            isinstance(func, ast.Name)
            and func.id in _ORDERING_SINKS
            and node.args
            and self.is_unordered(node.args[0])
        ):
            self._flag(node.args[0], f"{func.id}() over")
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "join"
            and node.args
            and self.is_unordered(node.args[0])
        ):
            self._flag(node.args[0], "str.join over")
        self.generic_visit(node)

    def visit_Starred(self, node: ast.Starred) -> None:
        """``*a_set`` unpacks in iteration order: a sink."""
        if self.is_unordered(node.value):
            self._flag(node.value, "unpacking")
        self.generic_visit(node)


@register
class UnorderedIteration(Rule):
    """DET003 — set iteration order escaping into ordered data."""

    code = "DET003"
    name = "unordered-iteration"
    rationale = (
        "set iteration order varies with PYTHONHASHSEED; any set that "
        "escapes into ordered/serialized data must go through sorted()"
    )

    def check_file(self, file: SourceFile) -> Iterator[Finding]:
        """Run the per-scope set-origin dataflow over the module."""
        flow = _SetFlow(self, file)
        flow.visit(file.tree)
        return iter(flow.findings)
