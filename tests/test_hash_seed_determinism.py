"""Outputs do not depend on the interpreter's string-hash seed.

Python randomizes ``str`` hashing per process (``PYTHONHASHSEED``), so
any set or hash-ordered container whose iteration order reaches a result
makes two runs of the same analysis disagree.  DET003 catches the local
form of that leak (a set iterated into ordered data in one function);
this test catches every form, including one that crosses functions or
modules: the same dirty collection is preprocessed, analyzed and
rendered in two fresh interpreters with different hash seeds, and the
analysis version and every artifact's ETag must agree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).parents[1]

#: One cold analyst run in a child interpreter; prints its fingerprints.
CHILD = """
import json

from repro import Indice, IndiceConfig
from repro.dataset import (
    NoiseConfig, SyntheticConfig, apply_noise, generate_epc_collection,
)
from repro.serving import build_store

collection = generate_epc_collection(SyntheticConfig(n_certificates=2000, seed=2322))
collection.table = apply_noise(collection, NoiseConfig(seed=2323)).table
engine = Indice(collection, IndiceConfig(n_jobs=1))
engine.preprocess()
engine.analyze()
store = build_store(engine)
store.prerender()
print(json.dumps({
    "hash": hash("indice"),
    "version": store.version,
    "etags": {path: store.get(path).etag for path in store.paths()},
}))
"""


def _run_under_hash_seeds(*seeds: int) -> list[dict]:
    """The child's output under each hash seed (the children run at once)."""
    children = []
    for seed in seeds:
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=str(SRC))
        children.append(
            subprocess.Popen(
                [sys.executable, "-c", CHILD], env=env,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        )
    outputs = []
    for child in children:
        stdout, stderr = child.communicate(timeout=300)
        assert child.returncode == 0, stderr
        outputs.append(json.loads(stdout.strip().splitlines()[-1]))
    return outputs


def test_analysis_and_artifacts_are_identical_across_hash_seeds():
    first, second = _run_under_hash_seeds(1, 2)
    # the two interpreters really hashed strings differently ...
    assert first["hash"] != second["hash"]
    # ... and still agree on the analysis and every served byte
    assert first["version"] == second["version"]
    assert sorted(first["etags"]) == sorted(second["etags"])
    for path, etag in first["etags"].items():
        assert second["etags"][path] == etag, f"{path} depends on the hash seed"
