"""Metric math for the repository benchmark.

A *rep* is one run of the perfbench binary on one workload: every point of
the workload on fresh pools, in its own process. `rep` dicts carry the
process-level measurements taken by run.py (wall_s, user_s, sys_s,
maxrss_kb) and the binary's JSON output under "data". Every ratio sums its
numerator and denominator over the workload's points first.
"""

import statistics

# name -> unit, in the order they are printed. Must match BENCHMARK.json
# (test_perfbench.py checks it).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "sim_mtx_per_s": "Mtx/s",
    "attempts_per_commit": "attempts/commit",
    "sim_events_per_commit": "events/commit",
}

PER_LAYER = {
    "sim.advances": "count",
    "sim.switches": "count",
    "sim.self_s": "s",
    "sim.ns_per_switch": "ns",
    "sim.share_of_run": "ratio",
    "sim.addr_dependent_points": "count",
    "process.user_s": "s",
    "process.sys_s": "s",
    "nvm.pool_construct_s": "s",
    "nvm.pool_teardown_s": "s",
    "nvm.reset_models_s": "s",
    "nvm.prewarm_s": "s",
    "workloads.populate_s": "s",
    "workloads.verify_s": "s",
    "workloads.op_self_ns_per_event": "ns",
    "ptm.runtime_construct_s": "s",
    "ptm.recover_s": "s",
    "ptm.runtime_teardown_s": "s",
    "ptm.abort_rate": "ratio",
    "ptm.aborts_read": "count",
    "ptm.aborts_write": "count",
    "ptm.aborts_validation": "count",
    "ptm.aborts_capacity": "count",
    "ptm.reads_per_commit": "reads/commit",
    "ptm.writes_per_commit": "writes/commit",
    "ptm.log_bytes_per_commit": "bytes/commit",
    "ptm.sfences_per_commit": "sfences/commit",
    "ptm.commit_p50_ns": "sim_ns",
    "ptm.commit_p99_ns": "sim_ns",
    "nvm.clwbs_per_commit": "clwbs/commit",
    "nvm.wpq_stall_ns_per_commit": "sim_ns",
    "nvm.fence_wait_ns_per_commit": "sim_ns",
    "nvm.dram_cache_hit_rate": "ratio",
    "nvm.l3_hit_rate": "ratio",
    "nvm.pmem_loads_per_commit": "loads/commit",
    "nvm.pmem_stores_per_commit": "stores/commit",
    "nvm.channel_requests_per_commit": "requests/commit",
    "alloc.heap_high_water_mb": "MB",
    "trace.overhead_ratio": "ratio",
    "host.calibration_s": "s",
}

# Host times are reported at a reference host speed: the speed at which
# perfbench_calibrate takes this long (calibrate.cpp).
REFERENCE_CALIBRATION_S = 0.2

SETUP_PHASES = ("pool_construct", "runtime_construct", "recover", "populate",
                "reset_models", "prewarm")

# Simulated events: the instrumented persistent-memory accesses that
# dominate the engine's work (stats::RunResult::sim_events).
SIM_EVENT_KEYS = ("pmem_loads", "pmem_stores", "clwbs", "sfences")


def ratio(num, den):
    """num / den, or 0 when den is 0: a ratio over no work is 0, never
    inf or NaN (unlike TxCounters::commit_abort_ratio's +inf sentinel)."""
    return num / den if den else 0.0


def abort_rate(commits, aborts):
    """Aborted attempts over all attempts; 0 when abort-free."""
    return ratio(aborts, commits + aborts)


def sim_sum(rep, key):
    return sum(p["sim"][key] for p in rep["data"]["points"])


def host_s(rep, phase):
    return sum(p["host_ns"][phase] for p in rep["data"]["points"]) / 1e9


def sim_events(rep):
    return sum(sim_sum(rep, k) for k in SIM_EVENT_KEYS)


def setup_s(rep):
    return sum(host_s(rep, ph) for ph in SETUP_PHASES)


def end_to_end(rep):
    commits = sim_sum(rep, "commits")
    events = sim_events(rep)
    return {
        "wall_s": rep["wall_s"],
        "setup_s": setup_s(rep),
        "sim_events_per_s": ratio(events, host_s(rep, "run")),
        "peak_rss_mb": rep["maxrss_kb"] / 1024,
        "sim_mtx_per_s": ratio(commits, sim_sum(rep, "sim_ns") / 1e9) / 1e6,
        "attempts_per_commit": ratio(commits + sim_sum(rep, "aborts"), commits),
        "sim_events_per_commit": ratio(events, commits),
    }


def untraced_layers(rep):
    """Per-layer metrics taken with tracing off."""
    commits = sim_sum(rep, "commits")
    per_commit = lambda key: ratio(sim_sum(rep, key), commits)
    l3 = sim_sum(rep, "l3_hits")
    dram = sim_sum(rep, "dram_cache_hits")
    return {
        "process.user_s": rep["user_s"],
        "process.sys_s": rep["sys_s"],
        "nvm.pool_construct_s": host_s(rep, "pool_construct"),
        "nvm.pool_teardown_s": host_s(rep, "pool_teardown"),
        "nvm.reset_models_s": host_s(rep, "reset_models"),
        "nvm.prewarm_s": host_s(rep, "prewarm"),
        "workloads.populate_s": host_s(rep, "populate"),
        "workloads.verify_s": host_s(rep, "verify"),
        "ptm.runtime_construct_s": host_s(rep, "runtime_construct"),
        "ptm.recover_s": host_s(rep, "recover"),
        "ptm.runtime_teardown_s": host_s(rep, "runtime_teardown"),
        "ptm.abort_rate": abort_rate(commits, sim_sum(rep, "aborts")),
        "ptm.aborts_read": sim_sum(rep, "aborts_read_conflict"),
        "ptm.aborts_write": sim_sum(rep, "aborts_write_conflict"),
        "ptm.aborts_validation": sim_sum(rep, "aborts_validation"),
        "ptm.aborts_capacity": sim_sum(rep, "aborts_capacity"),
        "ptm.reads_per_commit": per_commit("reads"),
        "ptm.writes_per_commit": per_commit("writes"),
        "ptm.log_bytes_per_commit": per_commit("log_bytes"),
        "ptm.sfences_per_commit": per_commit("sfences"),
        "nvm.clwbs_per_commit": per_commit("clwbs"),
        "nvm.wpq_stall_ns_per_commit": per_commit("wpq_stall_ns"),
        "nvm.fence_wait_ns_per_commit": per_commit("fence_wait_ns"),
        "nvm.dram_cache_hit_rate": ratio(dram, dram + sim_sum(rep, "dram_cache_misses")),
        "nvm.l3_hit_rate": ratio(l3, l3 + sim_sum(rep, "l3_misses")),
        "nvm.pmem_loads_per_commit": per_commit("pmem_loads"),
        "nvm.pmem_stores_per_commit": per_commit("pmem_stores"),
        "nvm.channel_requests_per_commit": per_commit("channel_requests"),
        "alloc.heap_high_water_mb": max(
            p["sim"]["heap_high_water_bytes"] for p in rep["data"]["points"]) / 2**20,
    }


def traced_layers(rep):
    """Per-layer metrics only a traced rep has: the engine's share of the
    run window and the commit-latency telemetry."""
    tr = lambda key: sum(p["trace"][key] for p in rep["data"]["points"])
    self_s = tr("self_ns") / 1e9
    run_s = host_s(rep, "run")
    return {
        "sim.advances": tr("advances"),
        "sim.switches": tr("switches"),
        "sim.self_s": self_s,
        "sim.ns_per_switch": ratio(tr("self_ns"), tr("switches")),
        "sim.share_of_run": ratio(self_s, run_s),
        "workloads.op_self_ns_per_event": ratio((run_s - self_s) * 1e9, sim_events(rep)),
        "ptm.commit_p50_ns": rep["data"]["commit_p50_sim_ns"],
        "ptm.commit_p99_ns": rep["data"]["commit_p99_sim_ns"],
    }


def rep_failures(rep):
    """Correctness problems in one rep, as readable strings."""
    problems = []
    for p in rep["data"]["points"]:
        c = p["checks"]
        where = f'{rep["data"]["workload"]} {p["label"]}'
        if c["ops_failed"]:
            problems.append(f'{where}: {c["ops_failed"]} failed ops ({c["first_error"]})')
        if not c["recovery_clean"]:
            problems.append(f"{where}: startup recovery discarded records")
        if c["log_range_drops"]:
            problems.append(f'{where}: {c["log_range_drops"]} log range drops')
        if p["sim"]["aborts_capacity"]:
            problems.append(f'{where}: {p["sim"]["aborts_capacity"]} capacity aborts')
    return problems


def sim_mismatches(untraced, traced):
    """Labels of the points whose simulated counters differ between two
    reps of the same seed."""
    return [a["label"] for a, b in zip(untraced["data"]["points"], traced["data"]["points"])
            if a["sim"] != b["sim"]]


def at_reference_speed(values, units, calibration_s):
    """Scale the host-time metrics of `values` (units s, ns and 1/s) from
    a host on which perfbench_calibrate took `calibration_s` to one on
    which it takes REFERENCE_CALIBRATION_S. Counts, ratios and simulated
    quantities pass through unchanged."""
    f = REFERENCE_CALIBRATION_S / calibration_s
    scale = {"s": f, "ns": f, "1/s": 1 / f}
    return {k: v * scale.get(units[k], 1) for k, v in values.items()}


def medians(dicts):
    """Key-wise median of a list of metric dicts."""
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}
