"""The benchmark's own tests, run as part of this suite.

perfbench reads names in ``src/`` and runs queries through the CLI, traced
and untraced; its self-test checks both, so a library change that breaks
the benchmark fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
