"""Smoke test of the benchmark harness at tiny scene sizes.

    python3 -m pytest -q bench/test_smoke.py

It stays out of the tier-1 suite, whose testpaths is tests/. It checks
that the seed argument is honoured, that the traced run reproduces the
untraced labels, that every metric BENCHMARK.json names is emitted with
its unit, and that the benchmark refuses to run without the package
sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def report_and_result(workload, seed, trace):
    proc = bench(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def assert_metrics(result, declared):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in declared}
    for m in declared:
        assert got[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(got[m["name"]]["value"], float), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_is_honoured_and_end_to_end_metrics_emitted(workload):
    report, result = report_and_result(workload, 1, 0)
    again, _ = report_and_result(workload, 1, 0)
    other, _ = report_and_result(workload, 2, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["env"]["seed"] == 1 and other["env"]["seed"] == 2
    assert again["labels_sha256"] == report["labels_sha256"]
    assert again["quality"] == report["quality"]
    truth = [row["truth_gd"] for row in report["scenes"]]
    assert truth == [row["truth_gd"] for row in again["scenes"]]
    assert truth != [row["truth_gd"] for row in other["scenes"]]
    assert_metrics(result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reproduces_labels_and_emits_layer_metrics(workload):
    untraced, _ = report_and_result(workload, 3, 0)
    traced, result = report_and_result(workload, 3, 1)
    assert result["correct"]
    assert traced["labels_sha256"] == untraced["labels_sha256"]
    assert traced["quality"] == untraced["quality"]
    assert_metrics(result, SPEC["per_layer"])
    assert (BENCH / "out" / ("spans-%s-seed3-trace1.jsonl" % workload)).is_file()


def test_fails_without_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(WORKLOADS[0], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
