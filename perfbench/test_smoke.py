"""Smoke test of the benchmark at a tiny size (about 20 s in all).

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once untraced and once traced with `--tiny`.  The test
asserts the result line's shape, that every metric BENCHMARK.json names is
printed, and that every correctness check ran.  At the tiny size training is
too short for the quality thresholds, so whether a check passes is not
asserted here; the full-size runs gate on that.
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

import run as bench  # noqa: E402
import tracing  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)

# every check each workload must run (README, "Checks")
CHECKS = {
    "ring": {"determinism", "reload_bit_identical", "ring.jsd_in_range", "ring.jsd_rises",
             "ring.final_jsd", "ring.match_agrees", "ring.match_floor"},
    "digits": {"determinism", "reload_bit_identical", "digits.probe_accuracy",
               "digits.probe_match", "digits.pgm_header"},
    "identity": {"identity.cce", "identity.jsd", "identity.residual", "identity.jsd_in_range"},
}


def run(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric_and_runs_every_check(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["correct"], bool)
    assert result["attempted"] >= 1 and result["failed"] == 0

    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in expected:
        assert any(line.split()[:1] == [name] for line in lines), f"{name} not printed"

    ran = {line.split()[2] for line in lines if line.startswith("check ")}
    assert ran == CHECKS[workload]


def test_metric_tables_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCH["end_to_end"]] == list(bench.END_TO_END)
    assert ([(m["name"], m["unit"]) for m in BENCH["per_layer"]]
            == list(tracing.METRICS) + [("trace.overhead_pct", "%")])


def test_failed_round_still_prints_a_result(monkeypatch, capsys):
    # no round process can run, so the one attempted operation fails
    monkeypatch.setattr(bench, "WORKER", os.path.join(HERE, "no-such-worker.py"))
    code = bench.main(["--workload", "identity", "--seed", "1", "--seconds", "1", "--tiny"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    proc = run("ring", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
