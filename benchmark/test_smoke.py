"""Smoke test of the benchmark: every workload briefly, untraced and traced.

Run from the root of a checkout:

    python3 -m pytest benchmark/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, *extra: str, trace: int = 0, seed: int = 3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["attempted"] >= 1
    return out


def check_metrics(out: dict, declared: list[dict]) -> None:
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(bench(workload))
    assert out["correct"] is True
    assert out["failed"] == 0
    check_metrics(out, SPEC["end_to_end"])
    for name, m in out["metrics"].items():
        assert m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_value_counts_as_failed(workload):
    out = result(bench(workload, "--perturb"))
    assert out["failed"] >= 1
    assert out["correct"] is False
    assert out["metrics"]["passed_ratio"]["value"] < 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_at_one_seed(workload):
    first = result(bench(workload, trace=1))
    second = result(bench(workload, trace=1))
    check_metrics(first, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(RUN.parent, tmp_path / RUN.parent.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / RUN.parent.name / RUN.name),
         "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
