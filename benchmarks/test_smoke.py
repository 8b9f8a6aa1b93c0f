"""Tiny-size smoke test of the benchmark.

    python3 -m pytest benchmarks/test_smoke.py

Runs every workload of BENCHMARK.json at tiny sizes, untraced and
traced, and checks the result line against the metric lists there.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(root: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    command = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--tiny", *extra]
    command[0] = sys.executable
    return subprocess.run(command, cwd=root, capture_output=True, text=True, timeout=170)


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def assert_metrics(result: dict, declared: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"], m["name"]
        assert math.isfinite(reported["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    done = run_bench(ROOT, workload, 0)
    result = result_of(done)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert_metrics(result, SPEC["end_to_end"])
    assert "error_rate" in done.stdout and '"blas_threads_in_effect"' in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_span(workload):
    result = result_of(run_bench(ROOT, workload, 1))
    assert result["correct"]
    assert_metrics(result, SPEC["per_layer"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.metric_units()
    for span in tracing.SPANS:
        assert result["metrics"][f"{span}.calls"]["value"] > 0, span


def test_negative_control_raises_error_rate():
    result = result_of(run_bench(ROOT, "paths-train", 0, "--negative-control"))
    assert not result["correct"] and result["failed"] > 0


def test_blas_threads_reach_the_child():
    done = run_bench(ROOT, "paths-train", 0, "--blas-threads", "1")
    result_of(done)
    env = json.loads(next(l for l in done.stdout.splitlines() if l.startswith("env "))[4:])
    assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads_in_effect"] in (1, None)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, WORKLOADS[0], 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
