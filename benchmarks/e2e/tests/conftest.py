"""Self-tests of the benchmark: ``python -m pytest benchmarks/e2e/tests``.

Not collected by tier-1 (``testpaths = ["tests"]``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
