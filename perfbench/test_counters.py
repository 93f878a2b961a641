#!/usr/bin/env python3
"""The benchmark's own tests: its work counters must repeat exactly.

    python3 perfbench/test_counters.py

Work counters are the machine-independent half of the benchmark: unlike
timings they must read the same on every run, which is what lets a later
change be judged by a count. The tests make traced runs of the
gated workloads on their own input (about 10 s each):

- two traced runs of each batch workload report identical core.theta,
  engine.sets, engine.edges_examined, rrset.capacity_changes and
  spill.sets_read, and tim_plus_spill does write and replay spilled sets;
- tim_plus_t4's input at 1 and at 4 threads gives the same seeds, θ, sets
  and edges examined (the engine's determinism contract);
- every traced run passes its own identity check (tracing must not move
  seeds, θ or LB), so `correct` is true.
"""
import unittest

import run

REPEATED = ("core.theta", "engine.sets", "engine.edges_examined",
            "rrset.capacity_changes", "spill.sets_read")
THREAD_INVARIANT = ("core.theta", "engine.sets", "engine.edges_examined")


def traced(workload, threads=None):
    """(metric values, seeds line) of one traced run."""
    args = ["--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", "1"]
    if threads is not None:
        args += ["--threads", str(threads)]
    code, stdout = run.run_binary(args)
    verdict = run.parse_verdict(stdout)
    if code != 0 or verdict is None:
        raise AssertionError(f"{workload}: binary exited {code}, no verdict")
    if not verdict["correct"]:
        raise AssertionError(f"{workload}: traced run failed its checks")
    values = {k: m["value"] for k, m in verdict["metrics"].items()}
    seeds = [line for line in stdout.splitlines() if line.startswith("# seeds")]
    return values, seeds


class CounterTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("build failed")

    def test_counters_repeat(self):
        for workload in ("tim_plus_t4", "imm_t1", "tim_plus_spill"):
            with self.subTest(workload=workload):
                first, first_seeds = traced(workload)
                second, second_seeds = traced(workload)
                self.assertEqual(first_seeds, second_seeds)
                for name in REPEATED:
                    self.assertEqual(first[name], second[name], name)
                self.assertGreater(first["engine.sets"], 0)
                if workload == "tim_plus_spill":
                    self.assertGreater(first["spill.sets_written"], 0)
                    self.assertGreater(first["spill.sets_read"], 0)

    def test_thread_count_invariance(self):
        one, one_seeds = traced("tim_plus_t4", threads=1)
        four, four_seeds = traced("tim_plus_t4", threads=4)
        self.assertEqual(one_seeds, four_seeds)
        for name in THREAD_INVARIANT:
            self.assertEqual(one[name], four[name], name)


if __name__ == "__main__":
    unittest.main()
