"""Harness tests import the benchmark's modules by their file names.

Run them with the program importable, as the rest of ``benchmarks/``:
``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``.
"""

import sys
from pathlib import Path

E2E = Path(__file__).resolve().parent.parent

if str(E2E) not in sys.path:
    sys.path.insert(0, str(E2E))
