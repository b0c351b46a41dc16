"""Steadiness of the benchmark: run each workload repeatedly, one seed per
run, untraced, and print the median and quartiles of every end-to-end
metric.

    python3 perfbench/steady.py [--workloads projective,blowup,axioms]
        [--runs 10] [--first-seed 1] [--seconds S]

Run from the root of a checkout.  The spread of a metric is (q3 - q1) /
median, with quartiles from statistics.quantiles(values, n=4); it is shown
against the metric's bound in BENCHMARK.json and flagged WIDE above a third
of it (setup_s is exempt from the spread rule, but its median is what later
changes are held to).  Each run's result and its other output lines go
to .perfbench/steady/<workload>.json.
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
    bench = json.load(open("BENCHMARK.json", encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out_dir = os.path.join(".perfbench", "steady")
    os.makedirs(out_dir, exist_ok=True)

    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [
                sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"{workload} seed {seed}: exit code {proc.returncode}")
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"] = seed
            res["log"] = proc.stdout.strip().splitlines()[:-1]
            results.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        with open(os.path.join(out_dir, f"{workload}.json"), "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)

        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"\n{workload}: {len(results)} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, correct in all: "
              f"{all(r['correct'] for r in results)}, failed shares: {shares}")
        print(f"  {'metric':32} {'q1':>12} {'median':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "WIDE"
            print(f"  {name:32} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
        print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
