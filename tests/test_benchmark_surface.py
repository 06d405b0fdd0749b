"""The benchmark harness's own self-test, run from this suite so that a change
to the package that breaks what the harness reaches (the functions its tracer
patches, the model methods it probes, the metrics it prints) fails here too.

It runs in a subprocess from the repository root: the harness sets its BLAS
thread environment at import, which must not leak into the other tests.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_harness_self_test_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "perfbench/test_harness.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-2000:]
