"""Meta-tests: documentation and API-surface invariants.

These lock in repository-level properties a reviewer checks by hand:
every public item carries a docstring, every module has a module
docstring, and the packages' ``__all__`` lists only export names that
actually exist.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "repro"
MODULES = sorted(p for p in SRC.rglob("*.py"))

PACKAGES = [
    "repro",
    "repro.dataset",
    "repro.text",
    "repro.geo",
    "repro.preprocessing",
    "repro.query",
    "repro.analytics",
    "repro.dashboard",
    "repro.core",
    "repro.perf",
    "repro.faults",
    "repro.checks",
    "repro.serving",
]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_docstring(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path} lacks a module docstring"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_public_items_documented(path):
    tree = ast.parse(path.read_text())
    undocumented = []

    def check(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_") and not ast.get_docstring(node):
                undocumented.append(node.name)

    for node in tree.body:
        check(node)
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                check(sub)
    assert not undocumented, f"{path}: missing docstrings on {undocumented}"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ exports unresolved names: {missing}"


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_is_safe(package):
    """``from repro.x import *`` must not raise (a common consumer idiom)."""
    namespace = {}
    exec(f"from {package} import *", namespace)  # noqa: S102 (test-only)
    assert namespace


def test_readme_rule_table_lists_exactly_the_registered_rules():
    """A deleted rule cannot linger in README's "Static analysis" table,
    nor a new one ship undocumented."""
    from repro.checks.model import all_rules

    readme = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Static analysis\n", 1)[1].split("\n## ", 1)[0]
    documented = re.findall(r"^\| `([A-Z]+\d+)` \|", section, flags=re.MULTILINE)
    assert len(documented) == len(set(documented)), "a rule is listed twice"
    assert sorted(documented) == sorted(rule.code for rule in all_rules())
