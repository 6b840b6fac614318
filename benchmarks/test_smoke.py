"""The benchmark's own test, at smoke scale (seconds per run).

Run from the repository root:

    python3 -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(root: Path, workload: str, trace: int, seconds: float = 1.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace), "--scale", "smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def assert_printed(stdout: str, expected: list[dict]) -> dict:
    """Every expected metric is printed on a line of its own with its unit,
    and the last line is the result object carrying exactly those metrics."""
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert re.search(rf"^{re.escape(m['name'])} \S+ {re.escape(m['unit'])}\b", stdout, re.M), m["name"]
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_prints_every_end_to_end_metric(workload):
    proc = bench(ROOT, workload, trace=0)
    assert proc.returncode == 0, proc.stderr
    result = assert_printed(proc.stdout, SPEC["end_to_end"])
    assert result["metrics"]["ops_ok_share"]["value"] == 1.0
    assert re.search(r"^calibration median \d\S* s \(n=\d+\); timings below are scaled to \d", proc.stdout, re.M)
    env = json.loads(next(l for l in proc.stdout.splitlines() if l.startswith("env "))[4:])
    assert {"nproc", "python", "numpy", "git_sha", "child_thread_vars", "loadavg_start", "loadavg_end"} <= set(env)
    assert re.search(
        r"^recommend_tail_ms (\S+ ms \(p\d+\.\d of n=\d+, 10 beyond\)|not reported: \d+ samples, fewer than 20)$",
        proc.stdout, re.M,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_prints_every_per_layer_metric_and_overhead(workload):
    proc = bench(ROOT, workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert_printed(proc.stdout, SPEC["per_layer"])
    assert re.search(r"^tracing overhead [-+]\d", proc.stdout, re.M)


def test_recommend_tail_is_the_highest_sample_with_ten_beyond():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from run import tail

    assert tail([float(i) for i in range(19)]) is None
    assert tail([float(i) for i in range(20)]) == (50.0, 9.0)
    assert tail([float(i) for i in range(40, 0, -1)]) == (75.0, 30.0)


def test_fails_without_the_program():
    bare = ROOT / ".benchwork" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "benchmarks", bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, WORKLOADS[0], trace=0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
