"""Tests of the benchmark itself; run from the repository root with

    python3 -m pytest bench/test_bench.py -q

Each workload is run twice, traced, at one seed: the runs must pass every
output check and report identical deterministic counters.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

from run import END_TO_END_UNITS
from tracing import LAYER_METRICS
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 3


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _traced_report(workload: str) -> dict:
    done = _run("--workload", workload, "--seed", str(SEED),
                "--seconds", "0", "--trace", "1")
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert result["correct"] and result["failed"] == 0, done.stderr
    assert set(result["metrics"]) == set(LAYER_METRICS)
    return json.loads(report_line)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_exactly_between_runs(workload):
    first, second = _traced_report(workload), _traced_report(workload)
    exact = [name for name, (unit, _better, _how) in LAYER_METRICS.items()
             if unit in ("count", "1")]
    assert {k: first["layers"][k] for k in exact} == \
        {k: second["layers"][k] for k in exact}
    assert {k: v["calls"] for k, v in first["functions"].items()} == \
        {k: v["calls"] for k, v in second["functions"].items()}
    assert first["end_to_end"]["fail_ratio"]["value"] == 0.0
    for name, unit in END_TO_END_UNITS.items():
        assert first["end_to_end"][name]["unit"] == unit
        assert first["end_to_end"][name]["value"] > 0.0


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        END_TO_END_UNITS
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == {k: v[:2] for k, v in LAYER_METRICS.items()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "census", "--seed", "1", "--seconds", "1",
                cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout == ""
