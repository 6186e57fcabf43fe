"""End-to-end self-tests: the benchmark's command at ``--smoke`` sizes.

One untraced and one traced ``python -m perfbench run`` of all four
workloads, shared by the tests below.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.trace import SPAN_NAMES
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _clean_env() -> dict:
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def _run(tmp_path_factory, *flags: str):
    out = tmp_path_factory.mktemp("perfbench") / "run.json"
    child = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--seed", "0", "--smoke",
         "--seconds", "1", "--out", str(out), *flags],
        cwd=ROOT, env=_clean_env(), capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stdout[-3000:] + child.stderr[-3000:]
    return child.stdout, json.loads(out.read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return _run(tmp_path_factory, "--trace")


def test_every_end_to_end_metric_is_printed_with_its_unit(untraced):
    stdout, results = untraced
    for workload in WORKLOADS:
        section = stdout.split(f"perfbench {workload} ", 1)[1].split("\nperfbench ", 1)[0]
        for metric in BENCH["end_to_end"]:
            line = next(l for l in section.splitlines() if f" {metric['name']} " in l)
            assert f" {metric['unit']} " in line and " n=" in line, line
        assert "failed_ratio 0 " in section


def test_result_names_match_benchmark_json(untraced, traced):
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    for (_, results), key in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert sorted(results["workloads"]) == sorted(WORKLOADS)
        declared = {m["name"]: m["unit"] for m in BENCH[key]}
        for report in results["workloads"].values():
            result = report["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_a_traced_run_records_every_span(traced):
    _, results = traced
    calls = {name: 0 for name in SPAN_NAMES}
    for report in results["workloads"].values():
        for name in SPAN_NAMES:
            calls[name] += report["detail"]["metrics"][f"{name}.calls"]["value"]
    assert [name for name, count in calls.items() if count == 0] == []


def test_traced_runs_write_valid_trace_files(traced):
    _, results = traced
    for report in results["workloads"].values():
        assert report["detail"]["checks"]["trace_file"] == "ok"
        overhead = report["result"]["metrics"]["trace.overhead_ratio"]["value"]
        assert overhead > 0


def test_a_repro_variable_is_refused():
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, env={**_clean_env(), "REPRO_JOBS": "2"},
        capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 2
    assert "REPRO_JOBS" in child.stderr
    assert child.stdout == ""
