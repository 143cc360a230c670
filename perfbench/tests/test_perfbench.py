"""Tests of the benchmark itself, on the seconds-long ``--tiny`` version
of every workload:

* each run prints exactly the metrics ``BENCHMARK.json`` declares, with
  the declared units, and passes its correctness checks;
* a corrupted pinned digest makes the run fail;
* a directory holding only the benchmark (no ``src/repro``) makes it
  exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from metrics import WORKLOADS as TABLE  # noqa: E402


def _run(workload, trace=0, pins=None, cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
            "--tiny"]
    if pins is not None:
        argv += ["--pins", str(pins)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith(
        '{"correct"') else None
    return proc, result


def test_benchmark_json_mirrors_the_metric_tables():
    assert BENCH["command"] == ["python3", "perfbench/run.py"]
    assert BENCH["paths"] == ["perfbench"]
    assert BENCH["end_to_end"] == END_TO_END
    assert BENCH["per_layer"] == PER_LAYER
    assert {w["name"]: w["why"] for w in BENCH["workloads"]} == \
        {name: w["why"] for name, w in TABLE.items()}
    setup = [m for m in END_TO_END if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in END_TO_END)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_declared_metrics(workload, trace):
    proc, result = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert '{"host_noise"' in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_pin_fails_the_run(workload, tmp_path):
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    entry = pins[workload + ":tiny"]
    name = sorted(k for k, v in entry.items() if isinstance(v, str))[0]
    entry[name] = "0" * len(entry[name])
    path = tmp_path / "pins.json"
    path.write_text(json.dumps(pins))
    proc, result = _run(workload, pins=path)
    assert proc.returncode != 0
    assert result is not None and result["correct"] is False
    assert f"check pin:{name}" in proc.stdout and "FAIL" in proc.stdout


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out",
                                                  "__pycache__"))
    proc, result = _run(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
