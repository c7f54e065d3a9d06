"""Self-tests of the benchmark (outside tier-1): ``python -m pytest perfbench/tests -q``."""

import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent.parent
for entry in (str(ROOT_DIR / "src"), str(ROOT_DIR)):
    if entry not in sys.path:
        sys.path.insert(0, entry)
