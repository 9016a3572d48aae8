#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 15 --trace 0

Builds the cgnp library and the benchmark binary from source (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload in one process and relays its output; the last stdout line is the
result object. `--workload all` runs every workload in turn; `--selftest`
builds and runs the tests of the benchmark's own helpers.
"""

import argparse
import fcntl
import os
import subprocess
import sys
import time

WORKLOADS = ["serve_hot", "serve_cold_1m", "meta_train", "dynamic_mixed"]
RUN_LIMIT_S = 175  # one workload run, build excluded
BUILD_LIMIT_S = 850


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        steps = [
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "perfbench_main",
             "perfbench_helpers_test", "-j", str(os.cpu_count() or 1)],
        ]
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S)
            if done.returncode != 0:
                fail(f"build failed: {' '.join(step)}")


def git_sha(root):
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", root, "rev-parse", "--short=12", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run_workload(binary, args, workload, build_dir, sha):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", sha]
    if args.trace:
        cmd += ["--spans", os.path.join(
            build_dir, f"spans-{workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_LIMIT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        fail(f"no cgnp source tree at {root}: run from a full checkout")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    start = time.monotonic()
    build(root, build_dir)
    print(f"perfbench: build ready in {time.monotonic() - start:.1f} s",
          file=sys.stderr)

    if args.selftest:
        sys.exit(subprocess.run(
            [os.path.join(build_dir, "perfbench_helpers_test")]).returncode)
    binary = os.path.join(build_dir, "perfbench_main")
    sha = git_sha(root)
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    code = 0
    for workload in workloads:
        code = run_workload(binary, args, workload, build_dir, sha) or code
    sys.exit(code)


if __name__ == "__main__":
    main()
