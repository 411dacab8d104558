"""The benchmark harness still runs against the library's current API."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selfcheck_passes():
    # one short operation per workload, its output checks, and their rejection
    # of corrupted outputs; writes only under the git-ignored benchmark/runs/
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "selfcheck.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
