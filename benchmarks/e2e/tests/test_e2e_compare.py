"""compare.py verdicts: regression, unresolved, digest mismatch."""

import json

import compare

BENCH = {
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [],
}


def test_regression_beyond_bound():
    verdict, worse_by = compare.verdict([100, 101, 102], [130, 131, 132], 0.1, "lower")
    assert verdict == "regression"
    assert abs(worse_by - 0.297) < 0.01


def test_within_bound_is_ok():
    assert compare.verdict([100, 101, 102], [105, 106, 107], 0.1, "lower")[0] == "ok"


def test_higher_is_better_direction():
    assert compare.verdict([1000, 1001, 1002], [800, 801, 802], 0.1, "higher")[0] == "regression"
    assert compare.verdict([1000, 1001, 1002], [1300, 1301, 1302], 0.1, "higher")[0] == "ok"


def test_wide_spread_is_unresolved():
    verdict, __ = compare.verdict([60, 100, 140], [70, 130, 150], 0.1, "lower")
    assert verdict == "unresolved (spread > bound)"


def test_single_runs_are_unresolved_unless_clearly_better():
    assert compare.verdict([100], [130], 0.1, "lower")[0] == "unresolved (one run)"
    assert compare.verdict([100], [80], 0.1, "lower")[0].startswith("ok")


def test_every_change_run_better_resolves_a_wide_spread():
    verdict, __ = compare.verdict([100, 150, 200], [50, 60, 90], 0.1, "lower")
    assert verdict == "ok (every change run better)"


def test_error_rate_has_no_slack():
    assert compare.verdict([0, 0], [0, 0.01], 0.0, "lower")[0] == "regression"
    assert compare.verdict([0, 0], [0, 0], 0.0, "lower")[0] == "ok"


def _run(seed, latency, digests, failed=0):
    return {
        "schema": "indice-e2e/1",
        "workloads": {
            "cold": {
                "workload": "cold", "seed": seed, "n_certificates": 8000,
                "attempted": 2, "failed": failed, "digests": digests,
                "metrics": {"setup_s": 1.0, "latency_ms": latency},
                "detail": {},
            }
        },
    }


def _write(directory, runs):
    directory.mkdir()
    for index, run in enumerate(runs):
        (directory / f"run{index}.json").write_text(json.dumps(run))
    return directory


def test_compare_exit_codes(tmp_path, capsys):
    base = [_run(s, 100 + s, {"t": "a"}) for s in (1, 2, 3)]
    same = [_run(s, 101 + s, {"t": "a"}) for s in (1, 2, 3)]
    slow = [_run(s, 150 + s, {"t": "a"}) for s in (1, 2, 3)]
    broken = [_run(s, 101 + s, {"t": "b" if s == 2 else "a"}) for s in (1, 2, 3)]
    base_dir = _write(tmp_path / "base", base)
    assert compare.compare(base, same, BENCH) == 0
    assert compare.compare(base, slow, BENCH) == 1
    assert "regression" in capsys.readouterr().out
    assert compare.compare(base, broken, BENCH) == 1
    assert "DIGEST MISMATCH" in capsys.readouterr().out
    # a failed operation is an error-rate regression
    failing = [_run(s, 101 + s, {"t": "a"}, failed=1) for s in (1, 2, 3)]
    assert compare.compare(base, failing, BENCH) == 1
    # directories of result files load as one set per side
    assert len(compare.load_runs(base_dir)) == 3
