"""Compare two sets of benchmark runs, metric by metric and layer by layer.

    python benchmarks/e2e/compare.py BASE CHANGE

BASE and CHANGE are result files written by ``run.py --out``, or
directories of them; every run found on a side is one sample of that
side.  For each workload and metric the comparer prints both medians
and quartiles, the change's ratio to its base, and a verdict:

* ``regression`` — the change's median is worse than the base median
  by more than the metric's bound;
* ``unresolved`` — the run-to-run spread on either side (interquartile
  distance over median) exceeds the bound, or a side has one run, so
  the data cannot tell, unless every change run beats every base run;
* ``ok`` — within the bound.

Bounds come from ``BENCHMARK.json`` for its end-to-end metrics and from
``workloads.DETAIL_METRICS`` for the rest.  Runs of the same workload,
seed and size must carry identical output digests on both sides; any
mismatch fails the comparison, so seeds without a stored golden digest
are still checked.  Traced runs add the per-layer ledger: each layer
metric's median on both sides and the change in self time.  Exit code 1
on any regression or digest mismatch, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import stats
from workloads import DETAIL_METRICS

ROOT = Path(__file__).resolve().parent.parent.parent


def load_runs(path: Path) -> list[dict]:
    """Every run in a result file, or in the ``*.json`` files of a directory."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for file in files:
        data = json.loads(file.read_text(encoding="utf-8"))
        if data.get("schema") == "indice-e2e/1":
            runs.append(data)
    if not runs:
        raise SystemExit(f"no benchmark results in {path}")
    return runs


def by_workload(runs: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for run in runs:
        for name, result in run["workloads"].items():
            out.setdefault(name, []).append(result)
    return out


def metric_values(results: list[dict], name: str) -> list[float]:
    """One value of metric *name* per run (runs lacking it are skipped)."""
    values = []
    for result in results:
        if name == "error_rate":
            if result["attempted"]:
                values.append(result["failed"] / result["attempted"])
            continue
        for section in ("metrics", "detail"):
            value = result.get(section, {}).get(name)
            if value is not None:
                values.append(float(value))
                break
    return values


def verdict(base: list[float], change: list[float], bound: float,
            better: str) -> tuple[str, float | None]:
    """``(verdict, worse_by)``: worse_by is the change's relative loss."""
    base_median = stats.summary(base)["median"]
    change_median = stats.summary(change)["median"]
    sign = 1.0 if better == "lower" else -1.0
    if base_median == 0:
        worse_by = None
        worse = sign * (change_median - base_median) > 0
    else:
        worse_by = sign * (change_median - base_median) / abs(base_median)
        worse = worse_by > bound
    if bound == 0:  # exact metrics (error_rate): any loss is a regression
        return ("regression" if worse else "ok"), worse_by
    spreads = [stats.relative_spread(base), stats.relative_spread(change)]
    if any(s is None for s in spreads) or max(spreads) > bound:
        if better == "lower":
            beats = max(change) < min(base)
        else:
            beats = min(change) > max(base)
        if beats:
            return "ok (every change run better)", worse_by
        reason = "one run" if any(s is None for s in spreads) else "spread > bound"
        return f"unresolved ({reason})", worse_by
    return ("regression" if worse else "ok"), worse_by


def _fmt(summary: dict) -> str:
    if summary["median"] is None:
        return "-"
    return (
        f"{summary['median']:.5g} [{summary['q1']:.4g}, {summary['q3']:.4g}] "
        f"n={summary['n']}"
    )


def digest_mismatches(base: list[dict], change: list[dict]) -> list[str]:
    """Runs with the same seed and size whose output digests differ."""
    seen = {
        (r["seed"], r["n_certificates"]): r["digests"]
        for r in base if r.get("digests") is not None
    }
    problems = []
    for result in change:
        key = (result["seed"], result["n_certificates"])
        if key in seen and result.get("digests") is not None:
            if result["digests"] != seen[key]:
                problems.append(
                    f"seed {key[0]}, {key[1]} certificates: digests differ"
                )
    return problems


def compare(base_runs: list[dict], change_runs: list[dict], bench: dict,
            verdicts: list | None = None) -> int:
    """Print the comparison; 1 on a regression or digest mismatch.

    Each metric's verdict is also appended to *verdicts* when given.
    """
    bounds = {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]
    }
    bounds.update({k: v for k, v in DETAIL_METRICS.items() if k not in bounds})
    base_by, change_by = by_workload(base_runs), by_workload(change_runs)
    failing = 0
    for name in [w for w in base_by if w in change_by]:
        base, change = base_by[name], change_by[name]
        print(f"== {name}: {len(base)} base run(s), {len(change)} change run(s)")
        for metric, (unit, better, bound) in bounds.items():
            b, c = metric_values(base, metric), metric_values(change, metric)
            if not b or not c:
                continue
            result, worse_by = verdict(b, c, bound, better)
            base_summary, change_summary = stats.summary(b), stats.summary(c)
            ratio = (
                f"{change_summary['median'] / base_summary['median']:.3f}x of "
                f"base {base_summary['median']:.5g} {unit}"
                if base_summary["median"] else f"base {base_summary['median']} {unit}"
            )
            print(
                f"  {metric:14s} base {_fmt(base_summary):38s} "
                f"change {_fmt(change_summary):38s} {ratio}; bound "
                f"{bound:.0%} -> {result}"
            )
            if result == "regression":
                failing += 1
            if verdicts is not None:
                verdicts.append({
                    "workload": name, "metric": metric, "unit": unit,
                    "bound": bound, "base": base_summary,
                    "change": change_summary, "verdict": result,
                })
        for problem in digest_mismatches(base, change):
            print(f"  DIGEST MISMATCH: {problem}")
            failing += 1
        _print_layers(base, change)
    return 1 if failing else 0


def _print_layers(base: list[dict], change: list[dict]) -> None:
    base_layers = [r["layers"] for r in base if r.get("layers")]
    change_layers = [r["layers"] for r in change if r.get("layers")]
    if not base_layers or not change_layers:
        return
    print("  per-layer (traced runs): base median, change median, delta")
    for metric in sorted(set(base_layers[0]) & set(change_layers[0])):
        b = stats.summary(
            [x[metric] for x in base_layers if x[metric] is not None])["median"]
        c = stats.summary(
            [x[metric] for x in change_layers if x[metric] is not None])["median"]
        if b is None or c is None:
            continue
        ratio = f" ({c / b:.3f}x of base {b:.5g})" if b else ""
        print(f"    {metric:34s} {b:12.5g} {c:12.5g} {c - b:+12.5g}{ratio}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--record", type=Path,
                        help="also write both sets and the verdicts here "
                        "(per-request latencies are left out)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base_runs, change_runs = load_runs(args.base), load_runs(args.change)
    verdicts: list = []
    code = compare(base_runs, change_runs, bench, verdicts)
    if args.record:
        args.record.write_text(json.dumps({
            "schema": "indice-e2e-record/1",
            "end_to_end": bench["end_to_end"],
            "base": [_compact(run) for run in base_runs],
            "change": [_compact(run) for run in change_runs],
            "verdicts": verdicts,
            "exit_code": code,
        }, separators=(",", ":")) + "\n", encoding="utf-8")
    return code


#: Per-request samples: summarized in every result, too bulky to record.
_BULKY = ("latency_ms", "lateness_ms")


def _compact(run: dict) -> dict:
    """A run minus per-request samples and per-repetition raw results.

    The per-repetition samples (set-ups, pipeline runs, peak RSS) and the
    per-request summaries stay, so every median can be recomputed; the
    output digests shrink to one SHA-256 per run.
    """
    workloads = {}
    for name, result in run["workloads"].items():
        samples = {
            k: v for k, v in result["samples"].items() if k not in _BULKY
        }
        kept = {k: v for k, v in result.items() if k not in ("reps", "digests")}
        kept["digests_sha256"] = hashlib.sha256(
            json.dumps(result["digests"], sort_keys=True).encode("utf-8")
        ).hexdigest()
        workloads[name] = {**kept, "samples": samples}
    return {**run, "workloads": workloads}


if __name__ == "__main__":
    sys.exit(main())
