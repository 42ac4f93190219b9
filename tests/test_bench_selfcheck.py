"""The benchmark harness runs every workload on reduced inputs.

``bench/selfcheck.py`` tracks, evaluates and traces each workload on
small inputs and checks every output, so a change to the library that
breaks the harness, its output checks or the layer functions it traces
fails here and not only when the benchmark is run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selfcheck.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    report = proc.stdout[-3000:] + proc.stderr[-3000:]
    assert proc.returncode == 0, report
    assert "selfcheck: OK" in proc.stdout, report
