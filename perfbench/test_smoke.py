"""Smoke test of the benchmark on an 8x8 grid with 4 time steps.

    python3 -m pytest perfbench/test_smoke.py

Runs every workload through run.py in both modes and checks that each
metric named in BENCHMARK.json is printed with its unit, and that a
grad-check broken on purpose is counted as a failed operation.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3",
         "--seconds", "0.5", "--size", "8x4", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=300, check=False)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(workload, trace, section):
    code, result = bench("--workload", workload, "--trace", str(trace))
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_corrupt_adjoint_counts_as_failure():
    code, result = bench("--workload", "cli-16x32", "--corrupt-adjoint")
    assert code != 0 and not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "op_p50_s" not in result["metrics"]
