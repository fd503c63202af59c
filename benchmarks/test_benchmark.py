"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest benchmarks/test_benchmark.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def test_wrong_expected_verdict_is_counted_as_failure():
    sb = run.import_program()
    measures = workloads.setup("probe", sb, ROOT)
    catalogue = workloads.probe_catalogue(sb, workloads.WORKLOADS["probe"])
    case = next(c for c in catalogue if c.label == "flat-on-atoms-rho-short")
    assert case.expected == "Bounded"
    wrong = case._replace(expected="GrowthDetected")
    _, times, failed = run.run_pass("probe", sb, measures, [case, wrong], speed.Sampler())
    assert failed == [1]
    # a failed case counts as missing every latency limit
    assert run.latency_metrics(times, failed, "99")["case_tail_ms"] == float("inf")


def test_outputs_follow_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report, result = _result(_run(ROOT, "--workload", "forms", "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert report["end_to_end"]["failed_ratio"]["value"] == 0
    _, traced = _result(_run(ROOT, "--workload", "forms", "--seed", "3", "--seconds", "1", "--trace", "1"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in traced["metrics"].items()
    }


def test_traced_counts_and_case_list_repeat_for_a_seed():
    args = ("--workload", "forms", "--seconds", "1.5", "--trace", "1")
    first = _result(_run(ROOT, "--seed", "5", *args))
    again = _result(_run(ROOT, "--seed", "5", *args))
    other = _result(_run(ROOT, "--seed", "6", *args))

    def counts(outcome):
        return {k: v["value"] for k, v in outcome[1]["metrics"].items() if v["unit"] in ("calls/case", "ops/case")}

    assert first[0]["case_list_sha256"] == again[0]["case_list_sha256"]
    assert counts(first) == counts(again)
    assert first[0]["case_list_sha256"] != other[0]["case_list_sha256"]


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run(tmp_path, "--workload", "identity", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
