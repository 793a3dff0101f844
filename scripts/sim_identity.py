#!/usr/bin/env python3
"""Check that two perfbench binaries simulate exactly the same machine.

    python3 scripts/sim_identity.py BIN_A BIN_B --workload W --seeds 1 2

Runs BIN_A and BIN_B (two builds of perfbench/main.cpp, e.g. a parent
commit and a change) once per seed on one workload, each under
`setarch -R` so the pool lands at the same address in both, and compares
the `sim` object of every point key by key. Host timings are ignored.
A host-only change (a faster data structure, a prefetch) must leave every
simulated counter byte-identical; a difference names the seed, the point
and the key.

Exit status: 0 when every point matches, 1 on any difference, 2 when a
binary fails or its output cannot be compared. Standard library only.
"""

import argparse
import json
import shutil
import subprocess
import sys


def run_points(binary, workload, seed):
    """The per-point records of one perfbench run with ASLR off."""
    cmd = ["setarch", "-R", binary, "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} printed nothing")
    return json.loads(lines[-1])["points"]


def sim_differences(points_a, points_b):
    """(point label, key, value A, value B) for every differing sim key.
    A point count or label mismatch is reported under the key "<point>"."""
    if len(points_a) != len(points_b):
        return [("<run>", "<point count>", len(points_a), len(points_b))]
    out = []
    for pa, pb in zip(points_a, points_b):
        if pa["label"] != pb["label"]:
            out.append((pa["label"], "<point>", pa["label"], pb["label"]))
            continue
        sa, sb = pa["sim"], pb["sim"]
        for key in sorted(set(sa) | set(sb)):
            if sa.get(key) != sb.get(key):
                out.append((pa["label"], key, sa.get(key, "<missing>"),
                            sb.get(key, "<missing>")))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("bin_a")
    ap.add_argument("bin_b")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    if shutil.which("setarch") is None:
        print("sim_identity: setarch not found (util-linux)", file=sys.stderr)
        return 2

    differing = 0
    for seed in args.seeds:
        try:
            a = run_points(args.bin_a, args.workload, seed)
            b = run_points(args.bin_b, args.workload, seed)
            diffs = sim_differences(a, b)
        except (OSError, RuntimeError, ValueError, KeyError, TypeError) as e:
            print(f"sim_identity: seed {seed}: {e}", file=sys.stderr)
            return 2
        for label, key, va, vb in diffs:
            print(f"DIFF seed {seed} point {label} key {key}: {va} != {vb}")
        differing += len(diffs)
        print(f"seed {seed}: {len(a)} points, "
              + (f"{len(diffs)} differing keys" if diffs else "sim identical"))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
