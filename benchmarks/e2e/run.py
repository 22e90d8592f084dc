"""Script entry point: ``python3 benchmarks/e2e/run.py [run] --workload W
--seed N --seconds S --trace 0|1`` from the root of a checkout.

Puts the checkout root and its ``src/`` first on ``sys.path`` (so the
program measured is this checkout's) and hands over to `cli.main`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# The script's own directory must not shadow top-level modules.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.e2e.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
