"""The benchmark harness (perfbench/harness.py) in run and trace mode on a
zero-second budget: every correctness check of a workload holds and no
fine-tuning run fails. Trace mode calls every traced name at runtime, which
tests/test_tracer.py checks only when the tracer is installed. Seed 1 leaves
out the seed-0 pinned digests, which hold only on the CPU class they were
computed on, so these checks hold on any machine. Trace mode writes its spans
to the ignored .perfbench_out/."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["desk-metatrain", "heldout-evaluate-wide"]


def assert_checks_hold(mode, workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "harness.py"), mode, "--workload", workload,
         "--seed", "1", "--seconds", "0", "--t-start", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["checks"] and all(out["checks"].values()), out["checks"]
    assert out["attempted"] > 0 and out["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_mode_checks_hold(workload):
    assert_checks_hold("run", workload)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_mode_checks_hold(workload):
    assert_checks_hold("trace", workload)
