"""A15 — the concurrency sweep prices in, cold and warm.

The three LOCK002/LOCK003/LOCK004 rules ride on the same per-file
facts as every other project rule, so adding them must not break the
analysis-cost contract: a cold full-tree sweep restricted to the
concurrency rules stays under the 5 s budget, and a warm run still
reuses every cached summary — the cross-module lock-order graph and
guarded-by inference are rebuilt from cached facts (dict merges plus one
Tarjan pass), never from re-parsed ASTs.
"""

import json
import time
from pathlib import Path

from conftest import write_report

import repro
from repro.checks import AnalysisCache, Checker, analysis_fingerprint
from repro.checks.model import all_rules

ROUNDS = 3
MAX_COLD_S = 5.0
MAX_WARM_S = 1.0
CODES = ("LOCK002", "LOCK003", "LOCK004")
SRC = Path(repro.__file__).parent


def _rules():
    return [rule for rule in all_rules() if rule.code in CODES]


def _sweep(cache_path):
    """``(elapsed_seconds, result)`` for one concurrency-only sweep."""
    rules = _rules()
    checker = Checker(
        rules=rules,
        cache=AnalysisCache(cache_path, analysis_fingerprint(rules)),
    )
    start = time.perf_counter()
    result = checker.run([SRC])
    return time.perf_counter() - start, result


def test_a15_concurrency_sweep_budgets(benchmark, tmp_path):
    assert len(_rules()) == len(CODES)
    cache_path = tmp_path / "checks-concurrency-cache.json"

    cold_s, cold = _sweep(cache_path)
    # the tree the benchmark prices must also be the tree the rules prove
    assert cold.ok, [f.render() for f in cold.findings]
    assert cold.n_from_cache == 0
    assert cold_s <= MAX_COLD_S, f"cold concurrency sweep took {cold_s:.2f}s"

    warm_times = []
    warm = None
    for __ in range(ROUNDS):
        elapsed, warm = _sweep(cache_path)
        warm_times.append(elapsed)
    best_warm = min(warm_times)

    # warm runs must be full cache reuse with identical verdicts
    assert warm.n_from_cache == warm.n_files == cold.n_files
    assert warm.findings == cold.findings
    assert best_warm <= MAX_WARM_S, (
        f"warm concurrency sweep took {best_warm:.2f}s over {warm.n_files} "
        f"files with a full cache — budget is {MAX_WARM_S:.1f}s"
    )

    benchmark.pedantic(lambda: _sweep(cache_path), rounds=1, iterations=1)

    speedup = cold_s / best_warm if best_warm > 0 else float("inf")
    payload = {
        "experiment": "A15_checks_concurrency",
        "files": cold.n_files,
        "rules": list(CODES),
        "rounds": ROUNDS,
        "cold_sweep_seconds": round(cold_s, 4),
        "best_warm_seconds": round(best_warm, 4),
        "speedup": round(speedup, 1),
        "cold_budget_seconds": MAX_COLD_S,
        "warm_budget_seconds": MAX_WARM_S,
        "cached_files_warm": warm.n_from_cache,
        "findings": len(warm.findings),
        "suppressed": warm.n_suppressed,
    }
    out = Path(__file__).parent / "results" / "BENCH_checks_concurrency.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    write_report(
        "A15_checks_concurrency",
        [
            f"A15 — concurrency contract sweep ({cold.n_files} files, "
            f"rules {', '.join(CODES)}, best warm of {ROUNDS})",
            "",
            f"cold sweep     {cold_s:.3f} s  (budget {MAX_COLD_S:.0f} s)",
            f"warm sweep     {best_warm:.3f} s  (budget {MAX_WARM_S:.1f} s)",
            f"speedup        {speedup:.1f}x  "
            f"({warm.n_from_cache}/{warm.n_files} files from cache)",
            f"findings       {len(warm.findings)} unsuppressed "
            f"({warm.n_suppressed} pragma-suppressed)",
            "",
            "the lock-order graph and guarded-by inference facts are",
            "extracted once per file into cached facts;",
            "warm sweeps rebuild the cross-module model from those facts",
            "(dict merges + one Tarjan pass) without re-parsing anything.",
        ],
    )
