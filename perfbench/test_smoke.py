"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_smoke.py

Each workload runs with ``--smoke`` (one worker, two ops, N = 64, or 128 for
the family sweep, whose moving-frame residual exceeds the 1e-2 check at 64
on the strong coefficients; CLI configs at N = 64, oracle-compare at 32).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_named_with_units(workload):
    line = _run(workload, 0)
    assert line["correct"] is True
    assert (line["attempted"], line["failed"]) == (2, 0)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == _units("end_to_end")
    assert line["metrics"]["op_ok_ratio"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_named_with_units(workload):
    line = _run(workload, 1)
    assert line["correct"] is True
    metrics = line["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _units("per_layer")
    if workload == "dbar-n512":
        assert metrics["transforms.estimates_per_mu"]["value"] == 2
        assert metrics["solver.immersions_per_mu"]["value"] == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_failing_op_is_counted_not_raised(workload):
    # one input gets a constant mu whose contraction estimate exceeds the cap
    line = _run(workload, 0, "--inject-failure")
    assert line["correct"] is False
    assert line["attempted"] == 2
    assert line["failed"] >= 1
    ok = line["metrics"]["op_ok_ratio"]["value"]
    assert ok == (line["attempted"] - line["failed"]) / line["attempted"]
