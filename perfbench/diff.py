"""Show the layers whose self or busy time moved most between two traced
records.

    python3 perfbench/diff.py BEFORE AFTER [--top N]

``BEFORE`` and ``AFTER`` are record files written by ``run.py --trace 1``
or directories holding them; records are paired by workload.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.report import main_diff  # noqa: E402

if __name__ == "__main__":
    sys.exit(main_diff())
