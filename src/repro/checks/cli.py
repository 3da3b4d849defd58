"""Command line of the invariant analyzer: ``python -m repro.checks``.

Usage::

    python -m repro.checks src/repro                 # text findings, exit 1 if any
    python -m repro.checks src/ --format=json        # machine-readable output
    python -m repro.checks --all                     # sweep + ruff + mypy
    python -m repro.checks --list-rules

Exit codes: **0** clean, **1** findings (or unparseable files), **2**
usage errors (a mistyped path or rule code included) and internal
analyzer errors — so CI can distinguish "the code has violations" from
"the analyzer itself broke".
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Sequence, TextIO

from .checker import Checker, CheckResult, collect_python_files
from .model import all_rules

__all__ = ["main", "build_parser", "UsageError"]


class UsageError(Exception):
    """A command-line usage problem (exit code 2)."""


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.checks`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description=(
            "AST-based project analyzer proving the pipeline's determinism, "
            "failure-handling, column-lineage, import-acyclicity and "
            "lock-discipline contracts"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="clickable file:line lines (text) or one JSON document",
    )
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="run the AST sweep plus ruff and mypy (each skipped if missing)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (code, name, rationale) and exit",
    )
    parser.add_argument(
        "--explain", metavar="RULE", default=None,
        help=(
            "print one rule's documentation, rationale and its good/bad "
            "fixture pair, then exit"
        ),
    )
    return parser


def _print_rules(out: TextIO) -> None:
    for rule in all_rules():
        out.write(f"{rule.code}  {rule.name}\n    {rule.rationale}\n")


def _fixture_pair(code: str) -> list[tuple[str, Path]]:
    """``(label, path)`` fixture files of one rule, bad first.

    Fixtures live in the source checkout (``tests/checks_fixtures``); an
    installed package without tests simply has none to show.  Directory
    fixtures (e.g. the import-cycle corpus) contribute every module.
    """
    root = Path(__file__).resolve().parents[3] / "tests" / "checks_fixtures"
    if not root.is_dir():
        return []
    stem = code.lower()
    pairs: list[tuple[str, Path]] = []
    for label, suffix in (("bad", "_bad"), ("good", "_good")):
        base = root / f"{stem}{suffix}"
        file = base.with_suffix(".py")
        if file.is_file():
            pairs.append((label, file))
        elif base.is_dir():
            pairs.extend(
                (label, module) for module in sorted(base.glob("*.py"))
            )
    return pairs


def _explain_rule(code: str, out: TextIO) -> None:
    """Print one rule's doc, rationale and fixture pair (or UsageError).

    Lookup is forgiving: codes match case-insensitively, and a unique
    prefix works too (``--explain lock003``, ``--explain float``).  An
    ambiguous prefix or an unknown code raises :class:`UsageError`
    naming the candidates — with near-miss suggestions for typos.
    """
    wanted = code.strip().upper()
    rules = list(all_rules())
    rule = next((r for r in rules if r.code == wanted), None)
    if rule is None and wanted:
        by_prefix = [r for r in rules if r.code.startswith(wanted)]
        if len(by_prefix) == 1:
            rule = by_prefix[0]
        elif len(by_prefix) > 1:
            raise UsageError(
                f"ambiguous rule prefix: {code} matches "
                f"{', '.join(r.code for r in by_prefix)}"
            )
    if rule is None:
        import difflib

        known = [r.code for r in rules]
        close = difflib.get_close_matches(wanted, known, n=3, cutoff=0.5)
        hint = f" — did you mean {', '.join(close)}?" if close else ""
        raise UsageError(
            f"unknown rule code: {code}{hint} (valid: {', '.join(known)})"
        )
    out.write(f"{rule.code} — {rule.name}\n")
    doc = (type(rule).__doc__ or "").strip()
    if doc:
        out.write(f"\n{doc}\n")
    out.write(f"\nRationale:\n    {rule.rationale}\n")
    pairs = _fixture_pair(rule.code)
    if not pairs:
        out.write(
            "\n(no fixture corpus found — examples ship with the source "
            "checkout under tests/checks_fixtures)\n"
        )
        return
    for label, path in pairs:
        marker = "flagged" if label == "bad" else "clean"
        out.write(f"\n--- {label} example ({marker}): {path.name} ---\n")
        out.write(path.read_text(encoding="utf-8"))


def _select_rules(spec: str) -> list:
    """Rules named by a comma-separated spec; each entry may be a glob.

    ``--select COL002,DET002`` names codes exactly; ``--select 'COL*'``
    or ``--select '*002'`` selects by ``fnmatch`` pattern.  An entry that
    matches nothing — literal or pattern — is a :class:`UsageError`
    listing the valid codes, so a typo never silently runs zero rules.
    """
    import fnmatch

    known = {rule.code: rule for rule in all_rules()}
    selected: dict[str, object] = {}
    unknown: list[str] = []
    for entry in spec.split(","):
        pattern = entry.strip().upper()
        if not pattern:
            continue
        hits = fnmatch.filter(known, pattern)
        if not hits:
            unknown.append(entry.strip())
            continue
        for code in hits:
            selected[code] = known[code]
    if unknown:
        raise UsageError(
            f"unknown rule code(s) or pattern(s): {', '.join(unknown)} "
            f"(valid: {', '.join(sorted(known))})"
        )
    # registry order, so output ordering matches the full-sweep default
    return [rule for code, rule in known.items() if code in selected]


def _render_text(result: CheckResult, out: TextIO) -> None:
    for path, message in result.errors:
        out.write(f"{path}:0:0: PARSE {message}\n")
    for finding in result.findings:
        out.write(finding.render() + "\n")
    summary = (
        f"{result.n_files} files: {len(result.findings)} finding(s), "
        f"{result.n_suppressed} pragma-suppressed"
    )
    if result.errors:
        summary += f", {len(result.errors)} unparseable"
    out.write(summary + "\n")


def _run_lint_tools(out: TextIO) -> int:
    """Run ruff and mypy when available; 0 when both pass or are absent."""
    worst = 0
    if shutil.which("ruff") is not None:
        proc = subprocess.run(
            ["ruff", "check", "src", "tests"],
            capture_output=True, text=True, timeout=600,
        )
        out.write(proc.stdout + proc.stderr)
        out.write(f"ruff: exit {proc.returncode}\n")
        worst = max(worst, 1 if proc.returncode else 0)
    else:
        out.write("ruff: not installed, skipped\n")
    try:
        import mypy  # noqa: F401
    except ImportError:
        out.write("mypy: not installed, skipped\n")
        return worst
    proc = subprocess.run(
        [sys.executable, "-m", "mypy"],
        capture_output=True, text=True, timeout=600,
    )
    out.write(proc.stdout + proc.stderr)
    out.write(f"mypy: exit {proc.returncode}\n")
    return max(worst, 1 if proc.returncode else 0)


def main(argv: Sequence[str] | None = None, out: TextIO | None = None) -> int:
    """Entry point; returns the process exit code (0/1/2, see module doc)."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)

    if args.list_rules:
        _print_rules(out)
        return 0

    if args.explain:
        try:
            _explain_rule(args.explain, out)
        except UsageError as exc:
            out.write(f"error: {exc}\n")
            return 2
        return 0

    try:
        rules = _select_rules(args.select) if args.select else list(all_rules())
        files = collect_python_files(args.paths)
    except (UsageError, ValueError) as exc:
        out.write(f"error: {exc}\n")
        return 2

    checker = Checker(rules=rules)
    try:
        result = checker.run(files)
    except Exception as exc:  # repro: noqa[EXC001] — boundary: an analyzer crash must exit 2, not a traceback
        out.write(f"internal analyzer error: {exc!r}\n")
        return 2

    if args.format == "json":
        out.write(json.dumps(result.to_dict(), indent=2) + "\n")
    else:
        _render_text(result, out)
    code = 0 if result.ok else 1

    if args.all:
        code = max(code, _run_lint_tools(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
