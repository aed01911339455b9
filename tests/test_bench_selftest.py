"""The benchmark's own self-test passes against the current package.

``bench/selftest.py`` runs every workload at a tiny size, checks each
workload's outputs and emitted metrics, and exits nonzero on a failure, so
a package change that breaks a benchmark workload fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
