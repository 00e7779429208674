"""The benchmark harness runs: ``bench/smoke.py`` must exit 0.

It pushes one F_13 quartic through every stage, untraced and traced, and
checks the metric names against BENCHMARK.json, so a change that breaks
the harness fails here and not only in a benchmark run.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_bench_smoke_exits_zero():
    out = subprocess.run([sys.executable, os.path.join("bench", "smoke.py")], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "untraced ok" in out.stdout and "traced ok" in out.stdout
