#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

Runs `perfbench/run.py --trace 0` once per seed (seeds first-seed,
first-seed+1, ...) for every workload in BENCHMARK.json, sequentially, with
its run_seconds. For every end-to-end metric it prints the median, the
quartiles and the spread, the distance between the first and third quartile
as a share of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound. Exits 1 if a run fails, a run is incorrect, or any spread
exceeds its bound. Run from the repository root.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: correct=false")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        print(f"\n{workload}: {args.runs} runs")
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) >= 2 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds[name]
            flag = "ok" if spread <= bound / 3 else ("WITHIN BOUND" if spread <= bound else "TOO WIDE")
            if spread > bound:
                ok = False
            print(f"  {name:28s} median={med:<14.6g} q1={q[0]:<14.6g} q3={q[2]:<14.6g} "
                  f"spread={spread:.4f} bound={bound} {flag}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
