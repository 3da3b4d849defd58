"""The whole benchmark at toy sizes: output schema, tracing, refusal."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent
ROOT = E2E.parent.parent
RUN = E2E / "run.py"


def _last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_run_of_all_workloads(tmp_path):
    out, trace = tmp_path / "out.json", tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--trace", "1",
         "--out", str(out), "--trace-out", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]

    line = _last_line(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in bench["per_layer"]}
    for key, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert key.split("/", 1)[1] in layer_names

    result = json.loads(out.read_text())
    assert result["schema"] == "indice-e2e/1"
    assert result["host"]["cpu_count"] >= 1
    assert set(result["workloads"]) == {"cold", "sharded", "serve-304", "serve-reload"}
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for name, workload in result["workloads"].items():
        assert workload["correct"], (name, workload["problems"])
        assert end_to_end <= set(workload["metrics"]), name
        assert all(v > 0 for v in workload["metrics"].values()), name
        assert layer_names <= set(workload["layers"]), name
        traced = [rep for rep in workload["reps"] if rep["traced"]]
        assert traced and all(rep["wrappers_restored"] for rep in traced)
        # traced and untraced repetitions produced the same digests
        assert workload["digests"] == traced[0]["digests"]
    assert result["workloads"]["cold"]["layers"]["trace.coverage"] >= 0.9
    assert "trace.overhead_pct" in result["workloads"]["sharded"]["layers"]

    events = json.loads(trace.read_text())["traceEvents"]
    names = {e["name"] for e in events if e["ph"] == "X"}
    assert {"core.Indice.preprocess", "perf.ShardRunner.run",
            "serving.ArtifactServer.respond"} <= names


def test_refuses_to_run_without_the_program(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(E2E, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=bare,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
