"""Tests of the benchmark harness itself, on tiny versions of every workload.

    python3 -m pytest benchmarks/selftest.py -q

They check that each run emits exactly the metrics BENCHMARK.json names,
that a config which releases nothing is reported as a failed check rather
than as a fast run, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--seed", "3", "--seconds", "0.5", "--tiny", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc, result = run_bench("--workload", workload, "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    table = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in table}
    if trace:
        assert result["metrics"]["trace.spans"]["value"] > 0
        assert result["metrics"]["trace.coverage"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_config_releasing_nothing_is_a_failed_check(workload):
    # capfed's default minimum cluster size exceeds every tiny workload's class count.
    proc, result = run_bench("--workload", workload, "--set", "dplc.min_cluster_size=512")
    assert proc.returncode == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
    assert "no cluster released" in proc.stdout


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc, result = run_bench(
            "--workload", WORKLOADS[0], cwd=bare, script=bare / HERE.name / "run.py"
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert result is None
