#!/usr/bin/env python3
"""Thread-scaling report on tim_plus_t4's input; not a gated workload.

    python3 perfbench/scaling.py [--seed 1]

Solves tim_plus_t4's input once each at 1, 2 and 4 sampling threads, each
in a fresh benchmark process, checks that the three runs return the same
seeds, and prints scaling.speedup_t2 and scaling.speedup_t4 (solve_s at one
thread over solve_s at T threads). A speed-up below 1.0 is flagged: more
threads must never be slower than one. The exit code is non-zero only
when a run fails or the seeds differ.
"""
import argparse
import sys

import run


def solve(seed, threads):
    """(solve_s, seeds line) of one untraced single-solve run, or None."""
    code, stdout = run.run_binary([
        "--workload", "tim_plus_t4", "--seed", str(seed), "--seconds", "1",
        "--trace", "0", "--threads", str(threads)])
    verdict = run.parse_verdict(stdout)
    if code != 0 or verdict is None or not verdict["correct"]:
        print(f"run at {threads} thread(s) failed", file=sys.stderr)
        return None
    seeds = [line for line in stdout.splitlines() if line.startswith("# seeds")]
    return verdict["metrics"]["solve_s"]["value"], seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not run.build():
        return 1
    results = {}
    for threads in (1, 2, 4):
        result = solve(args.seed, threads)
        if result is None:
            return 1
        results[threads] = result
        print(f"scaling.solve_s_t{threads} {result[0]:.4f} s", flush=True)
    if len({tuple(seeds) for _, seeds in results.values()}) != 1:
        print("seeds differ between thread counts", file=sys.stderr)
        return 1
    for threads in (2, 4):
        speedup = results[1][0] / results[threads][0]
        flag = "  SLOWER THAN ONE THREAD" if speedup < 1.0 else ""
        print(f"scaling.speedup_t{threads} {speedup:.4f} ratio{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
