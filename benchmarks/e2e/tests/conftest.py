"""Harness tests: ``pytest benchmarks/e2e`` from the checkout root (not
part of tier-1's ``testpaths``).  Puts ``src/`` on the path so the tests
that build real inputs can import the program."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
