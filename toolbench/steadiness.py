#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady its metrics are.

Usage (from the root of a checkout):

    python3 toolbench/steadiness.py [--out FILE]

For each workload in BENCHMARK.json, makes ten untraced runs of
run_seconds each, with seeds 1 to 10, one after another, and prints each
end-to-end metric's median, first and third quartile
(statistics.quantiles, n=4) and the quartile distance as a share of the
median, next to the bound in BENCHMARK.json. Each run's result line is
appended to --out (default .bench_build/steadiness.jsonl) with its
workload, seed and wall time.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(ROOT / ".bench_build" / "steadiness.jsonl"))
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)

    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        for seed in range(1, RUNS + 1):
            start = time.monotonic()
            done = subprocess.run(spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            wall = time.monotonic() - start
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            with out.open("a") as f:
                f.write(json.dumps({"workload": workload, "seed": seed,
                                    "wall_s": round(wall, 2), "result": result}) + "\n")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {RUNS} runs")
        for name, xs in sorted(values.items()):
            q1, med, q3 = statistics.quantiles(xs, n=4)
            print(f"  {name:18s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                  f" spread {(q3 - q1) / med:.4f}  bound {bounds.get(name, '-')}")


if __name__ == "__main__":
    main()
