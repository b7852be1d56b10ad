"""l3rs benchmark: one run of one workload.

    python3 perfbench/run.py --workload desk-metatrain --seed 0 --seconds 35 --trace 0

Run from the repository root. Each measurement runs in a fresh interpreter
(perfbench/harness.py) so that peak RSS is the run's own high-water mark.
With --trace 0 the run first starts PROBES extra interpreters that only set
the workload up; setup_s is the median over those and the measuring one.
Human-readable lines come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk-metatrain", "desk-metatrain-pool", "heldout-evaluate-wide")
PROBES = 6
DEADLINE_S = 170.0
UNITS = {"setup_s": "s", "first_gen_s": "s", "inner_steps_per_s": "steps/s",
         "gen_s_p50": "s", "gen_s_tail": "s", "eval_runs_per_s": "runs/s",
         "peak_rss_mb": "MB"}


def child(mode: str, args, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "harness.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--t-start", repr(time.monotonic())]
    # its own process group, so that a timeout also ends its pool workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"harness {mode} did not finish within {DEADLINE_S:g} s")
    if proc.returncode != 0:
        raise SystemExit(f"harness {mode} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "l3rs" / "__init__.py").is_file():
        print(f"l3rs sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        result = child("trace", args, deadline)
    else:
        probes = [child("probe", args, deadline) for _ in range(PROBES)]
        result = child("run", args, deadline)
        setups = [p["setup_s"] for p in probes + [result]]
        values = dict(result["values"], setup_s=statistics.median(setups),
                      first_gen_s=statistics.median(result["cold_s"]))
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in UNITS.items()}
        result["notes"].update(setup_s_samples=setups, first_gen_s_samples=result["cold_s"])

    failed_frac = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("machine " + json.dumps(result["info"], sort_keys=True))
    for name, check in result["checks"].items():
        print(f"check {'PASS' if check else 'FAIL'} {name}")
    for name, value in result["notes"].items():
        print(f"note {name} {json.dumps(value)}")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']!r} {m['unit']}")
    print(f"metric failed_frac {failed_frac!r} ratio "
          f"({result['failed']} of {result['attempted']} fine-tuning runs)")
    print(json.dumps({
        "correct": result["failed"] == 0 and all(result["checks"].values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
