"""Smoke test of the benchmark harness: every workload at tiny shapes, in
both modes, in seconds.

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    out = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(str(tmp_path), "--workload", BENCH["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_matches_the_harness():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCH["workloads"]} <= set(workloads.WORKLOADS)
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in BENCH[key]]
    assert len(names) == len(set(names))
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in BENCH["end_to_end"])}]
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
