"""INDICE end-to-end benchmark: four workloads, one command.

Run every workload (a full run) and keep the result::

    python benchmarks/e2e/run.py --seed 2322 --out e2e.json

Run one workload for a measuring window, as a regression harness does::

    python benchmarks/e2e/run.py --workload cold --seed 7 --seconds 20 --trace 0

``--trace 1`` runs the same workloads with spans recorded around every
layer's public functions and reports the per-layer ledger instead of the
end-to-end metrics; ``--trace-out FILE`` also writes the spans as Chrome
trace-event JSON (Perfetto opens it offline).  Every repetition runs in
a fresh child process.  Outputs are checked against golden digests
(seed 2322) and across repetitions; any failed operation or mismatch
makes the run incorrect and the exit code 1.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (``{name: {value, unit}}``).

The script builds nothing: it imports the program from ``src/`` of the
checkout it lives in, and exits with code 2 when that is missing.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path
from time import perf_counter

import loadgen
import spans
import stats
from workloads import (
    DETAIL_METRICS,
    LAYER_UNITS,
    SMOKE_SECONDS,
    WORKLOADS,
    Workload,
    resolve,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORK = ROOT / ".e2e-work"
#: The seed whose outputs golden.json pins.
GOLDEN_SEED = 2322

#: Whole-invocation budget for one workload; children are killed past it.
BUDGET_S = 170.0
#: serve-304's latency limit for the max-rate search, at its tail.
MAX_RATE_LIMIT_MS = 5.0


class ChildFailed(Exception):
    """A repetition's process crashed, timed out or printed no result."""


# -- child processes -----------------------------------------------------------


def _child_env(work: Path) -> dict:
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    env["TMPDIR"] = str(work)
    return env


def _tail(path: Path, lines: int = 15) -> str:
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""
    return "\n".join(text.splitlines()[-lines:])


def _last_json(text: str) -> dict:
    for line in reversed(text.strip().splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    raise ChildFailed("no result line")


def _spec(w: Workload, seed: int, traced: bool, work: Path) -> dict:
    return {
        "kind": w.kind,
        "n": w.n_certificates,
        "seed": seed,
        "setups": w.setups,
        "trace": traced,
        "trace_file": str(work / "spans.json") if traced else None,
        "work_dir": str(work),
        "reload_every_s": w.reload_every_s,
    }


def run_pipeline_child(w: Workload, seed: int, traced: bool, work: Path,
                       timeout: float) -> dict:
    """One cold or sharded repetition; its parsed result."""
    work.mkdir(parents=True)
    stderr_path = work / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), json.dumps(_spec(w, seed, traced, work))],
                stdout=subprocess.PIPE, stderr=stderr, env=_child_env(work),
                cwd=ROOT, timeout=max(timeout, 1.0), text=True,
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise ChildFailed(
            f"exit code {proc.returncode}:\n{_tail(stderr_path)}"
        )
    return _last_json(proc.stdout)


def run_serve_child(w: Workload, seed: int, traced: bool, work: Path,
                    seconds: float, timeout: float, full: bool) -> dict:
    """One serving repetition: the server child plus the open-loop client."""
    work.mkdir(parents=True)
    stderr_path = work / "stderr.txt"
    with open(stderr_path, "wb") as stderr:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(_spec(w, seed, traced, work))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=stderr,
            env=_child_env(work), cwd=ROOT, text=True,
        )
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    client = None
    try:
        line = proc.stdout.readline()
        if not line:
            raise ChildFailed(f"server died in set-up:\n{_tail(stderr_path)}")
        ready = json.loads(line)
        client = loadgen.HttpClient(ready["port"], ready["versions"])
        client.warm_up()
        paths = sorted(ready["versions"][ready["version"]])
        total = int(round(w.rate * seconds))
        plan = loadgen.route_plan(paths, total, seed + 2, w.conditional_share)

        reload_at = [
            w.reload_every_s * k
            for k in range(1, int(seconds / w.reload_every_s) + 1)
            if w.reload_every_s * k < seconds
        ] if w.reload_every_s > 0 else []

        def between(elapsed: float) -> None:
            if reload_at and elapsed >= reload_at[0]:
                reload_at.pop(0)
                proc.stdin.write("reload\n")
                proc.stdin.flush()
            else:
                time.sleep(0.005)

        load = loadgen.run_open_loop(
            lambda i, conn: client.request(conn, *plan[i]),
            w.rate, seconds, between=between if reload_at else None,
        )
        max_rate = None
        # the search is a full untraced run's: spans would slow what it finds
        if full and not traced and w.max_rate is not None:
            max_rate = _find_max_rate(w, client, paths, seed)
        # the server's workers sit on keep-alive sockets until they close
        client.close()
        proc.stdin.write("stop\n")
        proc.stdin.flush()
        out, __ = proc.communicate(timeout=max(timeout, 1.0))
        if proc.returncode != 0:
            raise ChildFailed(
                f"server exit code {proc.returncode}:\n{_tail(stderr_path)}"
            )
        result = _last_json(out)
    finally:
        watchdog.cancel()
        if client is not None:
            client.close()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    result["load"] = load
    result["max_rate"] = max_rate
    return result


def _find_max_rate(w: Workload, client, paths, seed: int) -> dict:
    lo, hi, probe_s = w.max_rate
    probes = []

    def probe(rate: float) -> bool:
        plan = loadgen.route_plan(
            paths, int(round(rate * probe_s)), seed + 3 + len(probes), 1.0
        )
        load = loadgen.run_open_loop(
            lambda i, conn: client.request(conn, *plan[i]), rate, probe_s
        )
        ok = loadgen.passes_limit(load, w.tail_cap, MAX_RATE_LIMIT_MS)
        probes.append({
            "rate": rate, "ok": ok, "failed": load.failed,
            "achieved": load.achieved_rate(),
            "tail_ms": stats.percentile(load.latencies_ms, w.tail_cap),
        })
        return ok

    best, __ = loadgen.bisect_max_rate(probe, lo, hi)
    return {"value": best, "probes": probes}


# -- one workload ------------------------------------------------------------------


def _tail_of(values, cap: float) -> tuple[float, str] | None:
    """The highest percentile (up to *cap*) with ten samples beyond it."""
    q = stats.supported_percentile(len(values), cap)
    if q is None or q <= 50.0:
        return None
    return stats.percentile(values, q), f"p{q:g}"


def _golden() -> dict:
    try:
        return json.loads(GOLDEN.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {"seed": None, "workloads": {}}


def run_workload(w: Workload, seed: int, seconds: float, traced: bool,
                 work: Path, full: bool) -> dict:
    """Run *w* for its window; raw samples, metrics and checks."""
    started = perf_counter()
    deadline = started + BUDGET_S
    problems: list[str] = []
    reps: list[dict] = []
    attempted = failed = 0

    def remaining() -> float:
        return deadline - perf_counter()

    if w.kind == "serve":
        attempted += 1
        try:
            reps.append(run_serve_child(
                w, seed, traced, work / "rep0", seconds, remaining(), full
            ))
        except (ChildFailed, OSError, ValueError, http.client.HTTPException) as exc:
            failed += 1
            problems.append(f"server repetition failed: {exc}")
    else:
        # traced: one untraced and one traced repetition, for the overhead
        plan = [False, True] if traced else None
        index = 0
        last_s = 0.0
        while True:
            if plan is not None:
                if index >= len(plan):
                    break
                rep_traced = plan[index]
            else:
                elapsed = perf_counter() - started
                if index >= w.min_reps and elapsed >= seconds:
                    break
                if index >= 1 and remaining() < last_s * 1.5:
                    if index < w.min_reps:
                        problems.append("time budget spent before min_reps")
                    break
                rep_traced = False
            rep_started = perf_counter()
            ops = 2 if w.kind == "sharded" else 1
            attempted += ops
            try:
                reps.append(run_pipeline_child(
                    w, seed, rep_traced, work / f"rep{index}", remaining()
                ))
            except ChildFailed as exc:
                failed += ops
                problems.append(f"repetition {index} failed: {exc}")
                if plan is None and index + 1 >= w.min_reps:
                    break
            last_s = perf_counter() - rep_started
            index += 1

    checks, mismatched = _check(w, seed, reps)
    problems += checks
    failed += mismatched
    if w.kind == "serve" and reps:
        load = reps[0]["load"]
        attempted += len(load.outcomes)
        failed += load.failed
        bad = [o for o in load.outcomes if not o.ok]
        if bad:
            problems.append(
                f"{len(bad)} requests failed, first: status {bad[0].status} "
                f"{bad[0].detail}"
            )
    result = {
        "workload": w.name,
        "kind": w.kind,
        "n_certificates": w.n_certificates,
        "seed": seed,
        "seconds": seconds,
        "traced": traced,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }
    result.update(_measurements(w, reps))
    result["wall_s"] = perf_counter() - started
    result["correct"] = failed == 0 and not problems and bool(reps)
    return result


def _check(w: Workload, seed: int, reps: list[dict]) -> tuple[list[str], int]:
    """Problems found in the repetitions' outputs, and reps that failed."""
    problems = []
    bad = 0
    golden = _golden()
    expected = None
    entry = golden["workloads"].get(w.name)
    if seed == golden.get("seed") and entry and entry["n_certificates"] == w.n_certificates:
        expected = entry["digests"]
    reference = expected if expected is not None else (reps[0]["digests"] if reps else None)
    for index, rep in enumerate(reps):
        rep_problems = [
            f"repetition {index}: check {name} failed"
            for name, ok in rep["checks"].items() if not ok
        ]
        if rep["traced"] and not rep.get("wrappers_restored", False):
            rep_problems.append(f"repetition {index}: wrappers not restored")
        if rep["digests"] != reference:
            rep_problems.append(
                f"repetition {index}: digests differ from "
                + ("golden" if expected is not None else "repetition 0")
            )
        if rep_problems:
            bad += 2 if w.kind == "sharded" else 1
            problems += rep_problems
    return problems, bad


def _measurements(w: Workload, reps: list[dict]) -> dict:
    """Samples, end-to-end and detail metrics, and the per-layer ledger."""
    samples: dict[str, list] = {
        "setup_s": [s for rep in reps for s in rep["setup_s"]],
        "peak_rss_mb": [rep["maxrss_mb"] for rep in reps],
    }
    untraced = [rep for rep in reps if not rep["traced"]]
    metrics: dict[str, float] = {}
    detail: dict[str, float | None] = {}
    if w.kind == "serve":
        if reps:
            load = reps[0]["load"]
            latencies = load.latencies_ms
            samples["latency_ms"] = latencies
            samples["lateness_ms"] = load.lateness_ms
            metrics["latency_ms"] = stats.percentile(latencies, 50)
            detail["p50_ms"] = metrics["latency_ms"]
            tail = _tail_of(latencies, w.tail_cap)
            if tail is not None:
                detail[f"{tail[1]}_ms"] = tail[0]
            detail["achieved_rps"] = load.achieved_rate()
            if reps[0].get("max_rate") is not None:
                detail["max_rate_rps"] = reps[0]["max_rate"]["value"]
    else:
        samples["pipeline_s"] = [rep["pipeline_s"] for rep in untraced]
        if w.kind == "sharded":
            samples["warm_rerun_s"] = [rep["warm_rerun_s"] for rep in untraced]
        if samples["pipeline_s"]:
            pipeline_ms = [s * 1000.0 for s in samples["pipeline_s"]]
            metrics["latency_ms"] = stats.percentile(pipeline_ms, 50)
            median_s = metrics["latency_ms"] / 1000.0
            detail["pipeline_s"] = median_s
            detail["certs_per_s"] = w.n_certificates / median_s
            if w.kind == "sharded":
                detail["warm_rerun_s"] = stats.percentile(samples["warm_rerun_s"], 50)
    if samples["setup_s"]:
        metrics["setup_s"] = stats.percentile(samples["setup_s"], 50)
        metrics["peak_rss_mb"] = stats.percentile(samples["peak_rss_mb"], 50)
    out = {
        "metrics": metrics,
        "detail": detail,
        "samples": samples,
        "summaries": {k: stats.summary(v) for k, v in samples.items()},
        "digests": reps[0]["digests"] if reps else None,
        "reps": [_strip(rep) for rep in reps],
    }
    traced = [rep for rep in reps if rep["traced"]]
    if traced:
        rep = traced[0]
        # a bypassed layer reads zero, not absent; the trace's own figures
        # stay None where they were not measured
        layers = {
            name: None if name.startswith("trace.") else 0 for name in LAYER_UNITS
        }
        layers.update(rep["layers"])
        if w.kind == "serve":
            load = rep["load"]
            latency_s = sum(load.latencies_ms) / 1000.0
            layers["serving.wire_share"] = (
                1.0 - layers["serving.respond_s"] / latency_s if latency_s else 0.0
            )
            layers["serving.bytes_out"] = sum(o.nbytes for o in load.outcomes)
            layers["serving.gen_late_p99_ms"] = stats.percentile(load.lateness_ms, 99)
        else:
            layers["serving.wire_share"] = 0.0
            layers["serving.bytes_out"] = 0
            layers["serving.gen_late_p99_ms"] = 0.0
            if untraced:
                layers["trace.overhead_pct"] = (
                    rep["pipeline_s"] / untraced[0]["pipeline_s"] - 1.0
                ) * 100.0
        out["layers"] = layers
        out["coverage"] = rep["coverage"]
    return out


def _strip(rep: dict) -> dict:
    """A repetition's raw result minus what is summarized elsewhere."""
    return {
        k: v for k, v in rep.items()
        if k not in ("load", "layers", "coverage", "versions")
    }


# -- reporting ---------------------------------------------------------------------


def _unit(name: str, bench: dict) -> str:
    for entry in bench["end_to_end"] + bench["per_layer"]:
        if entry["name"] == name:
            return entry["unit"]
    if name in DETAIL_METRICS:
        return DETAIL_METRICS[name][0]
    if name.endswith("_ms"):
        return "ms"
    return LAYER_UNITS.get(name, "")


def print_workload(w: dict, bench: dict) -> None:
    print(
        f"== {w['workload']}: {w['n_certificates']} certificates, seed "
        f"{w['seed']}, {len(w['reps'])} repetition(s), {w['wall_s']:.1f} s"
        + (", traced" if w["traced"] else "")
    )
    rows = []
    for name, value in w["metrics"].items():
        rows.append((name, value, _unit(name, bench), ""))
    for name, value in w["detail"].items():
        rows.append((name, value, _unit(name, bench), "detail"))
    error_rate = w["failed"] / w["attempted"] if w["attempted"] else 0.0
    rows.append(("error_rate", error_rate, "ratio", "detail"))
    for name, summary in w["summaries"].items():
        if summary["n"]:
            rows.append((
                f"  {name}", summary["median"], _unit(name, bench),
                f"n={summary['n']} q1={summary['q1']:.4g} q3={summary['q3']:.4g}",
            ))
    for name, value in sorted(w.get("layers", {}).items()):
        rows.append((name, value, _unit(name, bench), "layer"))
    for name, value, unit, note in rows:
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:34s} {shown:>14s} {unit:8s} {note}")
    verdict = "yes" if w["correct"] else "NO"
    print(f"  correct: {verdict}  attempted {w['attempted']}  failed {w['failed']}")
    for problem in w["problems"]:
        print(f"  problem: {problem}")


def _host() -> dict:
    def version(dist: str):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
        "git_rev": git_rev,
    }


def _result_line(results: list[dict], bench: dict, traced: bool) -> dict:
    names = [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]
    metrics = {}
    for result in results:
        source = result.get("layers", {}) if traced else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}/"
        for name in names:
            if name in source:
                metrics[prefix + name] = {
                    "value": source[name], "unit": _unit(name, bench),
                }
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def _write_chrome_trace(path: Path, results: list[dict]) -> None:
    collected = []
    for result in results:
        for index, rep in enumerate(result["reps"]):
            if rep.get("spans_file"):
                run_id = f"{result['workload']}/seed{result['seed']}/rep{index}"
                spans_file = Path(rep["spans_file"])
                collected.append((run_id, json.loads(spans_file.read_text())))
    starts = [s[spans.START] for __, recorded in collected for s in recorded]
    origin = min(starts) if starts else 0.0
    events = []
    for pid, (run_id, recorded) in enumerate(collected, start=1):
        events += spans.chrome_events(recorded, pid, run_id, origin)
    path.write_text(
        json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
        encoding="utf-8",
    )


def _update_golden(results: list[dict]) -> None:
    golden = _golden()
    for result in results:
        if result["seed"] != GOLDEN_SEED or not result["correct"]:
            raise SystemExit(
                f"golden digests come from a correct seed-{GOLDEN_SEED} run"
            )
        golden["seed"] = GOLDEN_SEED
        golden["workloads"][result["workload"]] = {
            "n_certificates": result["n_certificates"],
            "digests": result["digests"],
        }
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window per workload (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path,
                        help="write the spans as Chrome trace-event JSON")
    parser.add_argument("--out", type=Path, help="write the full result JSON")
    parser.add_argument("--certificates", type=int,
                        help="override the workload's input size")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes and windows: every path in < 60 s")
    parser.add_argument("--update-golden", action="store_true",
                        help="store this seed-2322 run's digests as golden")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not BENCHMARK.is_file():
        print(f"error: no program under {SRC} or no {BENCHMARK.name} at "
              f"{ROOT}; run from a checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    seconds = args.seconds
    if seconds is None:
        seconds = float(bench["run_seconds"])
    if args.smoke:
        seconds = min(seconds, SMOKE_SECONDS)
    names = [args.workload] if args.workload else list(WORKLOADS)
    full = args.workload is None
    traced = bool(args.trace)

    work = WORK / str(os.getpid())
    work.mkdir(parents=True)
    started = perf_counter()
    results = []
    try:
        for name in names:
            w = resolve(name, smoke=args.smoke, certificates=args.certificates)
            result = run_workload(w, args.seed, seconds, traced, work / name, full)
            results.append(result)
            print_workload(result, bench)
        if args.trace_out and traced:
            _write_chrome_trace(args.trace_out, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    line = _result_line(results, bench, traced)
    if args.out:
        args.out.write_text(json.dumps({
            "schema": "indice-e2e/1",
            "host": _host(),
            "argv": sys.argv[1:] if argv is None else argv,
            "seed": args.seed,
            "trace": traced,
            "wall_s": perf_counter() - started,
            "workloads": {r["workload"]: r for r in results},
            "summary": line,
        }, indent=1) + "\n", encoding="utf-8")
    if args.update_golden:
        _update_golden(results)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
