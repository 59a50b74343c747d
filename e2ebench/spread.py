#!/usr/bin/env python3
"""Runs workloads over several seeds and reports each metric's spread.

    python3 e2ebench/spread.py --runs 10 [--first-seed 1] [--trace 0]
                               [--workload echo-small ...] [--json OUT]

For every end-to-end metric (per-layer with --trace 1) it prints the
median, the quartiles (statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median, next to the
bound BENCHMARK.json fixes.  Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, cwd=ROOT)
    last = r.stdout.rstrip("\n").split("\n")[-1]
    res = json.loads(last) if r.returncode in (0, 1) else None
    return r.returncode, res


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workload", action="append")
    ap.add_argument("--json")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    for w in workloads:
        values = {}
        for i in range(args.runs):
            seed = args.first_seed + i
            code, res = run_once(w, seed, spec["run_seconds"], args.trace)
            ok = res is not None and res["correct"] and code == 0
            print(f"{w} seed {seed}: exit {code}, correct {ok}", flush=True)
            if not ok:
                sys.exit(f"{w} seed {seed} failed")
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        report[w] = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            report[w][name] = {"median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound,
                               "values": vals}
            flag = ""
            if bound is not None:
                flag = "ok" if spread < bound / 3 else (
                    "within bound" if spread <= bound else "TOO WIDE")
            print(f"  {name:32s} median {med:14.4f}  q1 {q1:14.4f}  "
                  f"q3 {q3:14.4f}  spread {spread:7.4f}  {flag}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
