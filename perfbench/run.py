#!/usr/bin/env python3
"""Build and run the RAP-WAM end-to-end benchmark.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload emulate --seed 1 --seconds 10 --trace 0

It builds perfbench/main.exe with dune (inside the checkout's _build),
runs it, and passes its output through.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  It exits non-zero without printing a result if the build or
the run fails, or if the result does not carry exactly the metrics that
BENCHMARK.json lists for the mode (end_to_end for --trace 0, per_layer
for --trace 1).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("emulate", "figure4", "serve")
EXE = os.path.join("_build", "default", "perfbench", "main.exe")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a full checkout: dune-project or lib/ is missing")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    # The dune cache lives outside the checkout; keep the build inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    if build.returncode != 0:
        fail("build failed")

    run = subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        stdout=subprocess.PIPE, text=True, timeout=170)
    lines = run.stdout.rstrip("\n").split("\n")
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        fail(f"main.exe exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(run.stdout)
        fail("the last line of output is not JSON")

    section = "end_to_end" if args.trace == 0 else "per_layer"
    want = {m["name"]: m["unit"] for m in spec[section]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stderr.write(run.stdout)
        fail(f"the result's metrics do not match BENCHMARK.json's {section}")
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
