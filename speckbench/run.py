#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 speckbench/run.py --workload oneshot --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); a traced run writes its Chrome trace-event JSON under
<build dir>/traces/. Build output goes to stderr; the benchmark's own output,
ending in one JSON result line, goes to stdout.

The benchmark runs without the library's SPECK_* environment variables
(thread count, partitions, planning, SIMD backend), so the shell cannot
change a workload. Exit codes: the benchmark's own (0 ok, 1 an output
differed from its oracle, 2 usage, 3 error), 1 also when the library
sources or the build fail, and 124 when the run overran its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oneshot", "iterate", "serve", "tricount")
# A run may take --seconds plus this much for input generation, oracles,
# the repeated set-ups and the triad sweep (build excluded) before it is stopped.
RUN_MARGIN_S = 150
EXIT_TIMEOUT = 124


def build(build_dir):
    """Configures (once) and builds the speckbench target; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "speck", "speck.h")):
        sys.exit("speckbench: library sources (src/) not found next to speckbench/")
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release", *gen],
                       check=True, stdout=out, stderr=out)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", build_dir, "--target", "speckbench",
                    "-j", jobs], check=True, stdout=out, stderr=out)
    return os.path.join(build_dir, "speckbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"speckbench: build failed: {err}")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPECK_")}
    timeout = args.seconds + RUN_MARGIN_S
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"speckbench: run exceeded {timeout:g} s", file=sys.stderr)
        sys.exit(EXIT_TIMEOUT)
    sys.exit(code)


if __name__ == "__main__":
    main()
