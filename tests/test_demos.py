"""Smoke test of the Monte Carlo demo, the one demo that runs semigroup_decay
outside the test suite.  The other demos are left out to keep the suite fast."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_monte_carlo_demo_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "05_monte_carlo_checks.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
