#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload tim_plus_t4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The binary is built (Release) under
.bench_build/perfbench on first use; later runs only re-check it. The
binary's output is passed through; its last line is the JSON verdict. The
exit code is non-zero, with no verdict printed, when the build fails or
the binary does not finish. See README.md in this directory.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# Compiler temporaries and anything else a child writes stay in the checkout.
CHILD_ENV = dict(os.environ, TMPDIR=os.path.join(ROOT, ".bench_build", "tmp"))
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
VERDICT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build():
    """Configures and builds the binary; returns True on success."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.makedirs(CHILD_ENV["TMPDIR"], exist_ok=True)
    # Concurrent invocations in one checkout share the build tree.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j4"])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, env=CHILD_ENV,
                                      stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                print(f"build failed: {error}", file=sys.stderr)
                return False
            if done.returncode != 0:
                print("build failed", file=sys.stderr)
                return False
    return True


def run_binary(args):
    """Runs the binary with `args`; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([BINARY, *args], cwd=ROOT, env=CHILD_ENV,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"benchmark binary failed: {error}", file=sys.stderr)
        return 1, ""
    return done.returncode, done.stdout


def parse_verdict(stdout):
    """The JSON verdict on the binary's last line, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        verdict = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(verdict, dict) or set(verdict) != VERDICT_KEYS:
        return None
    return verdict


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not build():
        return 1
    code, stdout = run_binary([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)])
    if code != 0 or parse_verdict(stdout) is None:
        sys.stderr.write(stdout)
        print(f"benchmark binary exited with code {code} and no verdict",
              file=sys.stderr)
        return code or 1
    sys.stdout.write(stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
