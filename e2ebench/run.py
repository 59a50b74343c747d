#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

    python3 e2ebench/run.py --workload echo-small --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --selftest

Run it from the repository root.  The program (../src) and the e2ebench
binary (this directory) are compiled with CMake into the directory named
by CARGO_TARGET_DIR, or .bench_build when that is unset.  The binary's
output is passed through; its last line is the JSON result.  The exit
code is the binary's: 0 when every output was verified, non-zero on a
correctness failure or when the benchmark could not be built or run.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("echo-small", "echo-mixed", "kv-commit")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build(out):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no program sources at {os.path.join(ROOT, 'src')}")
    tree = os.path.join(out, "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", tree, "--parallel", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(tree, "e2ebench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        fail("last output line is not JSON", 3)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys differ from the contract", 3)
    got = [(k, v["unit"]) for k, v in res["metrics"].items()]
    if got != expected_metrics(trace):
        fail("metric names or units differ from BENCHMARK.json", 3)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out = build_dir()
    exe = build(out)
    runs = os.path.join(out, "runs")
    os.makedirs(runs, exist_ok=True)
    # The program's TEMPO_* knobs (backend kill switch, JIT, verifier,
    # tracing, metrics) are pinned to their defaults for every run.
    env = {k: v for k, v in os.environ.items() if not k.startswith("TEMPO_")}
    if args.selftest:
        cmd = [exe, "--selftest"]
    else:
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", runs]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                           timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = r.stdout.rstrip("\n").split("\n")
    if args.selftest:
        print("\n".join(lines))
        return r.returncode
    if r.returncode not in (0, 1):
        print("\n".join(lines), file=sys.stderr)
        fail(f"benchmark exited with {r.returncode}", 3)
    print("\n".join(lines[:-1]))
    res = check_result(lines[-1], args.trace == 1)
    print(json.dumps(res))
    return 0 if res["correct"] and r.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
