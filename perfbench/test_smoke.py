"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest perfbench/test_smoke.py

Every workload, untraced and traced, must exit 0, pass its output checks
and print exactly the metrics that BENCHMARK.json declares, each with its
declared unit. No timing is asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


# Seed 0 checks the CLI against the goldens; seed 1 takes the fallback checks.
@pytest.mark.parametrize("trace, seed", [(0, 0), (1, 1)])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_reports_every_declared_metric(workload, trace, seed):
    proc = run_bench(ROOT, workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    *_, notes_line, result_line = proc.stdout.strip().splitlines()
    notes = json.loads(notes_line)
    assert notes["provenance"]["src_lines"] > 0
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and not isinstance(m["value"], bool)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "calculus", 0, 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
