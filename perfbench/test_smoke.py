"""Smoke test of the benchmark: the fast ``smoke`` workload emits every metric
BENCHMARK.json names, with its unit, and runs every output check.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from checks import CHECK_KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_smoke(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench_out" / f"smoke-seed1-trace{trace}.json").read_text())
    return result, record


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_emits_every_metric_and_runs_every_check(trace, section):
    result, record = run_smoke(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[section]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    kinds = {c["kind"] for c in record["checks"]}
    assert kinds == set(CHECK_KINDS) | ({"trace_accounting"} if trace else set())
    assert all(c["ok"] for c in record["checks"])
    assert {"nproc", "cpu_model", "python", "numpy", "scipy", "blas",
            "thread_caps"} <= set(record["env"])


def test_bare_directory_fails_without_a_result(tmp_path):
    """Without the wpconv sources next to it the benchmark exits non-zero and
    prints no result line."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "smoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
