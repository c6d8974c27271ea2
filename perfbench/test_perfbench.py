"""Tests of the benchmark itself: tiny instances of every workload run, the
report matches BENCHMARK.json, and every count metric repeats exactly.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
TINY = ["--n", "60", "--seconds", "0.5"]


def run_bench(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    return subprocess.run(cmd + TINY, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    return result


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_instance_reports_every_end_to_end_metric(workload):
    metrics = result_line(run_bench(workload, trace=0))["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == units("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric_and_counts_repeat(workload):
    first, second = (result_line(run_bench(workload, trace=1))["metrics"] for _ in range(2))
    assert {name: m["unit"] for name, m in first.items()} == units("per_layer")
    counts = [name for name, unit in units("per_layer").items() if unit in ("count", "ratio")]
    counts.remove("trace.overhead_ratio")
    assert {c: first[c]["value"] for c in counts} == {c: second[c]["value"] for c in counts}
    assert first["build.yao.edges"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
