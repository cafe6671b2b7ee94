#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

For every workload and metric it prints the median, the quartiles (as
Python's ``statistics.quantiles(values, n=4)`` gives them) and the spread,
the inter-quartile distance as a share of the median.

    python3 perfbench/sweep.py --workloads large batch --seeds 101-110 \
        --seconds 25 --trace 0 --out sweep.json

Run it from the repository root; it runs the command BENCHMARK.json
names.
"""

import argparse
import json
import statistics
import subprocess
import sys

CARGO = ["cargo", "run", "--offline", "--release", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml", "--"]


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarise(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else 0.0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=["large", "batch", "certified", "service"])
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,9")
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--out", help="write the summary as JSON here")
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                CARGO + ["--workload", workload, "--seed", str(seed),
                       "--seconds", args.seconds, "--trace", args.trace],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs.append(result)
            print(workload, seed, json.dumps(result), file=sys.stderr)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        for name, m in metrics.items():
            m["unit"] = runs[0]["metrics"][name]["unit"]
        summary[workload] = {
            "seeds": [r["seed"] for r in runs],
            "incorrect_seeds": [r["seed"] for r in runs if not r["correct"]],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
        }
        print(f"{workload}: {len(runs)} runs, "
              f"{summary[workload]['failed']}/{summary[workload]['attempted']} failed")
        for name, m in metrics.items():
            print(f"  {name:24s} median {m['median']:<14.6g} "
                  f"q1 {m['q1']:<14.6g} q3 {m['q3']:<14.6g} spread {m['spread']:.3f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
