"""A11 — the invariant linter sweeps the whole source tree in seconds.

``repro.checks`` is wired into tier-1 (every ``pytest`` run re-proves the
determinism / cache / fault contracts over ``src/repro``), so its cost is
paid constantly.  This experiment measures a full cold sweep — collect,
parse, all rules including the cross-file contract rules — best-of-N, and
asserts it stays under a hard 5 s ceiling so the gate can never quietly
become the slowest part of the suite.
"""

import json
import time
from pathlib import Path

from conftest import write_report

import repro
from repro.checks import Checker, all_rules

ROUNDS = 3
MAX_SWEEP_S = 5.0
SRC = Path(repro.__file__).parent


def _sweep():
    """``(elapsed_seconds, result)`` for one cold full-tree analysis."""
    checker = Checker()
    start = time.perf_counter()
    result = checker.run([SRC])
    return time.perf_counter() - start, result


def test_a11_full_sweep_under_budget(benchmark):
    times = []
    result = None
    for __ in range(ROUNDS):
        elapsed, result = _sweep()
        times.append(elapsed)
    best = min(times)

    # the timed runs must be real, clean, full sweeps
    assert result.ok, [f.render() for f in result.findings]
    assert result.n_files > 60

    assert best <= MAX_SWEEP_S, (
        f"full static-analysis sweep took {best:.2f}s over {result.n_files} "
        f"files — budget is {MAX_SWEEP_S:.0f}s"
    )

    benchmark.pedantic(lambda: _sweep(), rounds=1, iterations=1)

    per_file_ms = best / result.n_files * 1000.0
    payload = {
        "experiment": "A11_checks",
        "files": result.n_files,
        "rules": len(all_rules()),
        "rounds": ROUNDS,
        "best_sweep_seconds": round(best, 4),
        "per_file_ms": round(per_file_ms, 3),
        "budget_seconds": MAX_SWEEP_S,
        "findings": len(result.findings),
        "suppressed": result.n_suppressed,
    }
    out = Path(__file__).parent / "results" / "BENCH_checks.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    write_report(
        "A11_checks",
        [
            f"A11 — invariant-linter sweep ({result.n_files} files, "
            f"{len(all_rules())} rules, best of {ROUNDS})",
            "",
            f"best sweep     {best:.3f} s  (budget {MAX_SWEEP_S:.0f} s)",
            f"per file       {per_file_ms:.2f} ms",
            f"findings       {len(result.findings)} "
            f"({result.n_suppressed} pragma-suppressed)",
            "",
            "the sweep includes the cross-file contract rules (the",
            "COL*/IMP001 project-index rules).",
        ],
    )
