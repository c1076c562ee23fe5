"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root.  Times set-up in fresh processes, then runs the
workload's closed loop in one more process (``worker.py``) and prints, as its
last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The line
before it carries the environment and run details.  Exits 2 without a result
when the library sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("certify", "integrate", "transport")
SETUP_SAMPLES = 3  # fresh processes timed to the first op; the median is setup_s
TIMEOUT_S = 170  # hard stop for one worker process


def worker_env():
    """Pinned single-threaded BLAS: one caller, no extra threads on the 2-core box."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args, mode, timeout=TIMEOUT_S):
    """Run one worker to completion; returns (its JSON result, raw set-up seconds)."""
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mode", mode,
    ]
    start = time.time()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker ({mode}) exceeded {timeout} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])
    return result, result["ready_epoch"] - start


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "crp", "__init__.py")):
        print(f"no library sources under {os.path.join(ROOT, 'src', 'crp')}", file=sys.stderr)
        return 2
    if not 1 <= args.seconds <= 120:
        print("--seconds must be in [1, 120]", file=sys.stderr)
        return 2

    probes = [spawn(args, "setup") for _ in range(SETUP_SAMPLES - 1)]
    result, main_setup = spawn(args, "run")
    probes.append((result, main_setup))
    setup_raw = [s for _, s in probes]
    setup = [s / res["setup_speed"] for res, s in probes]

    metrics = result["metrics"]
    if args.trace == 0:
        metrics = {
            "ops_per_s": {"value": metrics["ops_per_s"], "unit": "1/s"},
            "op_p50_s": {"value": metrics["op_p50_s"], "unit": "s"},
            "op_p90_s": {"value": metrics["op_p90_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    correct = result["failed"] == 0 and result["wrappers_absent"]
    for failure in result["failures"]:
        print(json.dumps({"failed_op": failure}), file=sys.stderr)
    keys = ("env", "passes", "ops_per_pass", "op_samples", "loop_wall_s", "loop_cpu_s", "speed", "inputs_sha256", "wrappers_absent")
    detail = {k: result[k] for k in keys}
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace, setup_samples_s=setup, setup_raw_s=setup_raw)
    detail.update({"n_exp_samples": result["n_exp_samples"]} if args.trace == 1 else {"raw": result["raw"]})
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
