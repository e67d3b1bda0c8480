"""Run-to-run spread of the end-to-end metrics.

Usage (from the root of a source checkout):

    python3 pidbench/spread.py --workload reproduce6 --runs 10 [--seconds 30] [--first-seed 1]

Runs ``run.py`` once per seed, one run at a time, and prints for each
metric the median of the runs and the distance between the first and third
quartile (``statistics.quantiles(values, n=4)``) as a share of that median,
next to the bound from ``BENCHMARK.json``. The last line is the same
summary as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(argv, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            raise SystemExit(f"seed {seed}: run reported incorrect outputs")
        line = {name: m["value"] for name, m in result["metrics"].items()}
        print(f"seed {seed}: " + json.dumps(line), flush=True)
        for name, value in line.items():
            values.setdefault(name, []).append(value)

    summary = {}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
                         "bound": bounds.get(name)}
        print(f"{name:>14}: median {med:.6g}  iqr/median {(q3 - q1) / med:.4f}  bound {bounds.get(name)}")
    print(json.dumps({"workload": args.workload, "runs": args.runs, "seconds": args.seconds,
                      "metrics": summary}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
