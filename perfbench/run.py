#!/usr/bin/env python3
"""Repository benchmark: host cost and simulated results of three workloads.

    python3 perfbench/run.py --workload tpcc-adr-8w --seed 1 --seconds 40 --trace 0

Builds perfbench/ (and the simulator sources in src/) into .bench_build/
at the root of the checkout, then runs the perfbench binary once per rep,
each rep in its own process with seed (seed << 16) + rep, for about
--seconds, timing a host-speed calibration kernel before the first rep and
after every rep. Prints every metric with its unit, then, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (medians over reps). --trace 1
runs each rep twice, untraced and traced with the same seed, checks that
tracing changed no simulated counter, and reports the per-layer metrics.
See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

SRC = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, SRC)
import metrics  # noqa: E402

ROOT = os.path.dirname(SRC)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
CALIBRATE = os.path.join(BUILD, "perfbench_calibrate")

WORKLOADS = ("tpcc-adr-8w", "vacation-eadr-8w", "kv-pdram-1w")

# Workloads whose simulated results must not depend on where the pool is
# mapped. TPCC's contended orec hashing still keys on absolute host
# addresses, so its counters move with ASLR between processes; the traced
# run reports that as sim.addr_dependent_points instead of failing.
ADDRESS_INDEPENDENT = ("vacation-eadr-8w", "kv-pdram-1w")

MIN_REPS = 3
MAX_MEASURE_S = 150  # the whole run must end within 180 s


def build():
    """Configure and bring the binaries up to date (quick when they are).
    Build output goes to stderr so the result line stays last on stdout."""
    cmd = ["cmake", "-S", SRC, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4", "--target", "perfbench",
                    "perfbench_calibrate", "perfbench_selftest"], check=True, stdout=sys.stderr)


def run_rep(workload, seed, traced):
    """One perfbench process; its wall time spans process start to exit."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_s = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {code}")
    return {
        "wall_s": wall_s,
        "user_s": usage.ru_utime,
        "sys_s": usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "data": json.loads(out.decode().strip().splitlines()[-1]),
    }


def calibrate():
    out = subprocess.run([CALIBRATE], check=True, capture_output=True, text=True).stdout
    return float(out.split()[0])


def measure(workload, seed, seconds, traced):
    """Run reps until the next one would overrun `seconds`, with a
    calibration before the first rep and after every rep. Returns the
    untraced reps, with `traced` the traced twin of each, and the
    calibration times (one more than there are reps)."""
    plain, twins = [], []
    calibrations = [calibrate()]
    start = time.perf_counter()
    while True:
        rep_seed = ((seed << 16) + len(plain)) % 2**64
        t0 = time.perf_counter()
        plain.append(run_rep(workload, rep_seed, False))
        if traced:
            twins.append(run_rep(workload, rep_seed, True))
        calibrations.append(calibrate())
        elapsed = time.perf_counter() - start
        last = time.perf_counter() - t0
        if len(plain) >= MIN_REPS and elapsed + last > seconds:
            break
        if elapsed + last > MAX_MEASURE_S:
            break
    return plain, twins, calibrations


def report(workload, plain, twins, calibrations):
    # Each rep is scaled by the mean of the calibrations that bracket it.
    speed = [(a + b) / 2 for a, b in zip(calibrations, calibrations[1:])]

    def scaled_medians(fn, reps, units):
        return metrics.medians([metrics.at_reference_speed(fn(r), units, c)
                                for r, c in zip(reps, speed)])

    problems = [p for rep in plain + twins for p in metrics.rep_failures(rep)]
    if twins:
        units = metrics.PER_LAYER
        addr_dependent = []
        for a, b in zip(plain, twins):
            diff = metrics.sim_mismatches(a, b)
            addr_dependent.append(len(diff))
            if diff and workload in ADDRESS_INDEPENDENT:
                problems.append(f"{workload}: tracing changed simulated counters of {diff}")
        values = scaled_medians(metrics.untraced_layers, plain, units)
        values.update(scaled_medians(metrics.traced_layers, twins, units))
        values["sim.addr_dependent_points"] = statistics.median(addr_dependent)
        values["trace.overhead_ratio"] = metrics.ratio(
            statistics.median(metrics.host_s(r, "run") for r in twins),
            statistics.median(metrics.host_s(r, "run") for r in plain))
        values["host.calibration_s"] = statistics.median(calibrations)
    else:
        units = metrics.END_TO_END
        values = scaled_medians(metrics.end_to_end, plain, units)

    attempted = sum(p["checks"]["ops_attempted"] for r in plain + twins
                    for p in r["data"]["points"])
    failed = sum(p["checks"]["ops_failed"] for r in plain + twins for p in r["data"]["points"])
    for p in problems:
        print(f"perfbench: FAILED {p}", file=sys.stderr)

    print(f"{workload}: {len(plain)} reps" + (" (+ traced twins)" if twins else "") +
          f"; host times at reference speed (calibration {statistics.median(calibrations):.4f} s,"
          f" reference {metrics.REFERENCE_CALIBRATION_S} s)")
    for name, unit in units.items():
        print(f"  {name:34s} {values[name]:>16.6g} {unit}")
    print(f"  {'ops_attempted':34s} {attempted:>16d}")
    print(f"  {'ops_failed':34s} {failed:>16d}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        build()
        plain, twins, calibrations = measure(args.workload, args.seed, args.seconds,
                                             args.trace == 1)
    except (OSError, subprocess.CalledProcessError, RuntimeError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(report(args.workload, plain, twins, calibrations)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
