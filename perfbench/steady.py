#!/usr/bin/env python3
"""Steadiness check: runs one workload with several seeds and reports, for
each end-to-end metric, the median of the per-run values and the spread
(distance between the first and third quartile as a share of the median).

    python3 perfbench/steady.py --workload tpch --runs 10 [--first-seed 1]

Run from the repository root. Each run is `perfbench/run.py --trace 0` with
the run length from BENCHMARK.json. A spread at or above a metric's bound
(setup_s excepted) means the benchmark cannot gate that metric.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}
    shares = set()
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds",
               str(spec["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: run failed: {result}")
            return 1
        shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"failed share per run: {sorted(shares)}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / statistics.median(vs)
        print(f"{args.workload} {name}: median {statistics.median(vs):.4f} "
              f"spread {spread:.3f} (bound {bounds.get(name)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
