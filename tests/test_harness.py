"""The benchmark harness (perfbench/harness.py) in run mode on a zero-second
budget: every correctness check of a workload holds and no fine-tuning run
fails. Seed 1 leaves out the seed-0 pinned digests, which hold only on the
CPU class they were computed on, so these checks hold on any machine."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["desk-metatrain", "heldout-evaluate-wide"])
def test_run_mode_checks_hold(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "harness.py"), "run", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--t-start", repr(time.monotonic())],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["checks"] and all(out["checks"].values()), out["checks"]
    assert out["attempted"] > 0 and out["failed"] == 0
