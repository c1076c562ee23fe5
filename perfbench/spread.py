"""Run-to-run spread of the end-to-end metrics: python3 perfbench/spread.py [--seeds 10] [workload ...]

Runs ``run.py --trace 0`` once per seed and workload, sequentially, and reports
for each metric the median and the interquartile range (quartiles from
statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound from BENCHMARK.json, and the same for the raw (not
speed-normalized) values.  Writes perfbench/out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 101


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for name in names:
        values = {m: [] for m in bounds}
        raw = {m: [] for m in bounds}
        for seed in range(FIRST_SEED, FIRST_SEED + args.seeds):
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            detail, res = (json.loads(line) for line in out.strip().splitlines()[-2:])
            detail["raw"].update(setup_s=statistics.median(detail["setup_raw_s"]), peak_rss_mb=res["metrics"]["peak_rss_mb"]["value"])
            if not res["correct"]:
                print(f"{name} seed {seed}: incorrect result {res}", file=sys.stderr)
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
                raw[m].append(detail["raw"][m])
            print(name, seed, res["attempted"], {m: round(v[-1], 4) for m, v in values.items()}, flush=True)
        report[name] = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            r1, rmed, r3 = statistics.quantiles(raw[m], n=4)
            report[name][m] = {
                "median": med,
                "iqr_share": (q3 - q1) / med,
                "bound": bounds[m],
                "values": vals,
                "raw_median": rmed,
                "raw_iqr_share": (r3 - r1) / rmed,
                "raw_values": raw[m],
            }
            print(f"  {m:12s} median {med:.4g}  iqr/median {(q3 - q1) / med:.4f}  bound {bounds[m]}  (raw {(r3 - r1) / rmed:.4f})")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "spread.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
