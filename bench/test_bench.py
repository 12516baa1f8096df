"""Smoke tests for the benchmark itself, at tiny sizes.

Run with ``python3 -m pytest -q bench``.
"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {metric["name"]: metric["unit"] for metric in expected}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_missing_traced_name_is_an_error():
    sys.path.insert(0, str(BENCH))
    from spans import LAYERS, MissingLayer, Tracer

    modules = {module: types.SimpleNamespace() for targets in LAYERS.values() for module, _ in targets}
    with pytest.raises(MissingLayer, match="estimator.dft"):
        Tracer(modules)


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
