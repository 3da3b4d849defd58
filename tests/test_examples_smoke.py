"""Smoke tests running every example script end to end.

Each script runs from a copy in a fresh directory, so its ``output/``
starts empty, and every file it writes must match a pinned SHA-256
digest: the examples render map types the benchmark never does (the
categorical choropleth, the drill-down tabs), so this is their
byte-identity check.  Running the scripts takes about half a minute, so
it only happens when ``RUN_EXAMPLES=1`` is set (a release check):

    RUN_EXAMPLES=1 pytest tests/test_examples_smoke.py -q

The files committed under ``examples/output/`` are checked against the
same digests on every run.  After a change that is meant to alter an
output, rerun the examples from a clean output directory, then update
the digests and the committed files together.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))

#: SHA-256 of every file each example writes into an empty ``output/``.
#: ``navigable_dashboard.html`` (2 MB) is pinned but not committed.
OUTPUT_DIGESTS = {
    "citizen_flat_search.py": {
        "citizen_dashboard.html":
            "80582f93034d6ecc2c2917477b3880c40a1cfdf90d1008ea684f579bc59b1102",
    },
    "drill_down_navigation.py": {
        "navigable_dashboard.html":
            "e69177acbc068356505539fb9720718ed15a09a1c1e761ee5e7fc10a16303bee",
    },
    "energy_scientist_benchmarking.py": {
        "expert_store.json":
            "809a72e5bd5da44328105cce4a4e9f0ae191e9b9548c09fcaf298d74b93dcb7a",
        "scientist_dashboard.html":
            "e05b6896ff0e45c60d759085dbcd6a79ea7eab7047fe7ae434953d0a31ad4c48",
    },
    "public_administration_case_study.py": {
        "pa_dashboard_city.html":
            "1f95e5c062bc2e35374424d84f1f501d9a130b17c03e91d1bfbfddbde0e12d24",
        "pa_dashboard_district.html":
            "d69b1c0fa0f6975ff1b624e7c7efb4f95fae8cb790c573629ab3696c8b1fe17e",
        "pa_report.md":
            "b6ea61040eecdb886065ae4bfd0ab0a4d6a442bdb736db26fe120a1c2b532ad5",
    },
    "quickstart.py": {
        "quickstart_dashboard.html":
            "f658033d32969e154f87383c6476064e10d612704c57c0d166064e85db110cb0",
    },
}


def _digests(directory: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
    }


def test_every_example_is_pinned():
    assert sorted(OUTPUT_DIGESTS) == [script.name for script in EXAMPLES]


def test_committed_outputs_match_the_pinned_digests():
    pinned = {
        name: digest
        for outputs in OUTPUT_DIGESTS.values()
        for name, digest in outputs.items()
    }
    committed = _digests(ROOT / "examples" / "output")
    assert committed == {name: pinned[name] for name in committed}


@pytest.mark.skipif(
    os.environ.get("RUN_EXAMPLES") != "1",
    reason="set RUN_EXAMPLES=1 to run the (slow) example smoke tests",
)
@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs_clean(script, tmp_path):
    copy = tmp_path / "examples" / script.name
    copy.parent.mkdir()
    shutil.copy(script, copy)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(copy)],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=tmp_path,
        env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    # every example narrates its work
    assert result.stdout.strip()
    assert _digests(copy.parent / "output") == OUTPUT_DIGESTS[script.name]
