#!/usr/bin/env python3
"""Build and run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (which
compiles the library from src/) into .bench_build/, runs the benchmark
binary with the fixed constants from perfbench/config.json, and prints the
result as the last line of standard output: one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 its per-layer metrics (a layer a
workload does not run reports 0). Exits non-zero without a result line when
the build fails or the binary does not produce a result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout)
            log("perfbench: build failed: " + " ".join(cmd))
            return False
    return True


def git_state():
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if rev.returncode != 0:
            return "unknown", "unknown"
        dirty = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                               capture_output=True, text=True, timeout=10)
        return rev.stdout.strip(), "1" if dirty.stdout.strip() else "0"
    except (OSError, subprocess.SubprocessError):
        return "unknown", "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        log("perfbench: unknown workload " + args.workload)
        return 2
    if not build():
        return 1

    rev, dirty = git_state()
    span_out = os.path.join(ROOT, ".bench_build",
                            "spans-%s-seed%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--span-out", span_out,
           "--git-rev", rev, "--git-dirty", dirty, "--why", whys[args.workload]]
    for key, value in config["constants"].items():
        cmd += ["--set", "%s=%s" % (key, value)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        log("perfbench: no result (exit code %d)" % proc.returncode)
        return proc.returncode or 1

    declared = spec["per_layer" if args.trace else "end_to_end"]
    got = result["metrics"]
    names = {m["name"] for m in declared}
    unknown = sorted(set(got) - names)
    if unknown:
        log("perfbench: undeclared metrics " + ", ".join(unknown))
        return 1
    metrics = {}
    absent = []
    for m in declared:
        if m["name"] in got:
            metrics[m["name"]] = got[m["name"]]
        elif args.trace:
            absent.append(m["name"])
            metrics[m["name"]] = {"value": 0, "unit": m["unit"]}
        else:
            log("perfbench: end-to-end metric %s missing" % m["name"])
            return 1
    if absent:
        print("layers not run by %s (reported as 0): %s" % (args.workload, ", ".join(absent)))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
