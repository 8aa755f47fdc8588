"""Smoke tests of the demos: each must run to completion.  Demo 05 is the one
place outside the test suite that runs semigroup_decay."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["01_convolution_model.py", "02_drift_certificate.py",
                                  "03_rate_functions.py", "04_robustness_and_stability.py"])
def test_demo_runs(name, tmp_path):
    _run_demo(name, tmp_path)


def test_monte_carlo_demo_runs(tmp_path):
    _run_demo("05_monte_carlo_checks.py", tmp_path)
