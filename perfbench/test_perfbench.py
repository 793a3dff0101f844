#!/usr/bin/env python3
"""Self-tests of the benchmark's metric math and engine accounting.

    python3 perfbench/test_perfbench.py

Builds the benchmark if needed and runs the C++ self-test of the
outside-in switch accounting (selftest.cpp) as one of the cases.
"""

import json
import math
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402
import run  # noqa: E402


def point(label, **sim):
    counters = {"sim_ns": 0, "commits": 0, "aborts": 0, "aborts_read_conflict": 0,
                "aborts_write_conflict": 0, "aborts_validation": 0, "aborts_explicit": 0,
                "aborts_capacity": 0, "reads": 0, "writes": 0, "clwbs": 0, "sfences": 0,
                "log_bytes": 0, "pmem_loads": 0, "pmem_stores": 0, "dram_cache_hits": 0,
                "dram_cache_misses": 0, "l3_hits": 0, "l3_misses": 0, "wpq_stall_ns": 0,
                "fence_wait_ns": 0, "channel_requests": 0, "heap_high_water_bytes": 0}
    counters.update(sim)
    host = dict.fromkeys(("pool_construct", "runtime_construct", "recover", "populate",
                          "reset_models", "prewarm", "run", "verify", "runtime_teardown",
                          "pool_teardown"), 0)
    host["run"] = 10**9
    host["populate"] = 5 * 10**8
    checks = {"ops_attempted": 10, "ops_failed": 0, "recovery_clean": True,
              "log_range_drops": 0, "first_error": ""}
    return {"label": label, "host_ns": host, "sim": counters, "checks": checks,
            "trace": {"advances": 0, "switches": 0, "self_ns": 0}}


def rep(*points):
    return {"wall_s": 2.0, "user_s": 1.5, "sys_s": 0.5, "maxrss_kb": 2048,
            "data": {"workload": "w", "points": list(points),
                     "commit_p50_sim_ns": 0, "commit_p99_sim_ns": 0}}


class MetricMath(unittest.TestCase):
    def test_abort_rate_is_zero_without_aborts(self):
        self.assertEqual(metrics.abort_rate(100, 0), 0.0)
        self.assertEqual(metrics.abort_rate(0, 0), 0.0)
        self.assertAlmostEqual(metrics.abort_rate(75, 25), 0.25)

    def test_ratios_over_no_work_are_zero(self):
        r = rep(point("idle"))
        for values in (metrics.end_to_end(r), metrics.untraced_layers(r),
                       metrics.traced_layers(r)):
            for name, v in values.items():
                self.assertTrue(math.isfinite(v), name)
        self.assertEqual(metrics.traced_layers(r)["sim.ns_per_switch"], 0.0)

    def test_points_are_summed_before_the_ratio(self):
        # Mean of per-point throughputs would be (1 + 3) / 2 = 2 Mtx/s;
        # the summed ratio is 4M commits over 2 simulated seconds.
        r = rep(point("a", commits=10**6, sim_ns=10**9, sfences=3 * 10**6),
                point("b", commits=3 * 10**6, sim_ns=10**9, aborts=10**6, sfences=10**6))
        e2e = metrics.end_to_end(r)
        self.assertAlmostEqual(e2e["sim_mtx_per_s"], 2.0)
        self.assertAlmostEqual(e2e["attempts_per_commit"], 1.25)
        self.assertAlmostEqual(e2e["sim_events_per_commit"], 1.0)
        self.assertAlmostEqual(e2e["sim_events_per_s"], 2e6)
        layers = metrics.untraced_layers(r)
        self.assertAlmostEqual(layers["ptm.sfences_per_commit"], 1.0)
        self.assertAlmostEqual(layers["ptm.abort_rate"], 0.2)
        self.assertAlmostEqual(e2e["setup_s"], 1.0)

    def test_engine_share_and_op_self_time(self):
        p = point("a", pmem_loads=1000)
        p["trace"] = {"advances": 50, "switches": 4, "self_ns": 4 * 10**8}
        layers = metrics.traced_layers(rep(p))
        self.assertAlmostEqual(layers["sim.share_of_run"], 0.4)
        self.assertAlmostEqual(layers["sim.ns_per_switch"], 10**8)
        self.assertAlmostEqual(layers["workloads.op_self_ns_per_event"], 6 * 10**5)

    def test_failures_and_mismatches_are_reported(self):
        good = rep(point("a", commits=5))
        self.assertEqual(metrics.rep_failures(good), [])
        bad = rep(point("a", commits=5, aborts_capacity=1))
        bad["data"]["points"][0]["checks"]["recovery_clean"] = False
        self.assertEqual(len(metrics.rep_failures(bad)), 2)
        self.assertEqual(metrics.sim_mismatches(good, rep(point("a", commits=5))), [])
        self.assertEqual(metrics.sim_mismatches(good, rep(point("a", commits=6))), ["a"])

    def test_benchmark_json_matches_the_metric_tables(self):
        path = os.path.join(run.ROOT, "BENCHMARK.json")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         metrics.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         metrics.PER_LAYER)


class EngineAccounting(unittest.TestCase):
    def test_ping_pong_selftest(self):
        run.build()
        subprocess.run([os.path.join(run.BUILD, "perfbench_selftest")], check=True)


if __name__ == "__main__":
    unittest.main()
