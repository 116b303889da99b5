"""The traced benchmark runs to completion on the exact-arithmetic workloads.

A traced run exits 1 when an op fails its check or when a layer the
workload is meant to exercise records no calls, so a refactor that
reroutes a hot path shows up here before a full benchmark run.
mc-integrate is left out: one traced run of it takes over 10 s.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["twisted-taylor", "algebra-trials"])
def test_traced_benchmark_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is True
