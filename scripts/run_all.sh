#!/usr/bin/env bash
# Build, test, and regenerate every paper table/figure.
#
# Usage: scripts/run_all.sh [quick]
#   quick — quarter-size benchmark points and a 8-thread sweep cap.
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "quick" ]]; then
  export REPRO_OPS_SCALE=0.25
  export REPRO_MAX_THREADS=8
fi

cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Each binary also writes its machine-readable results to results/<name>.json
# and its wall-clock self-profile to results/<name>.bench.json
# (docs/OBSERVABILITY.md); diff two runs with scripts/compare_results.py.
mkdir -p results

for b in build/bench/*; do
  [[ -f "$b" && -x "$b" ]] || continue
  echo "===== $b ====="
  REPRO_JSON="results/$(basename "$b").json" \
    REPRO_BENCH="results/$(basename "$b").bench.json" "$b"
done

# Roll the self-profiles into the per-PR trajectory record. Successive
# BENCH_<n>.json files chart how fast the simulator runs as the codebase
# grows; compare_results.py --trajectory flags sim-speed regressions.
#
# Hard gate: the record must exist and carry measured points. A silently
# absent/empty record once let the CI trajectory gate pass vacuously
# (nothing to compare is not a pass).
shopt -s nullglob
profiles=(results/*.bench.json)
shopt -u nullglob
if [[ ${#profiles[@]} -eq 0 ]]; then
  echo "error: no results/*.bench.json self-profiles were produced" >&2
  exit 1
fi
# Without BENCH_PR the record takes the next number after the newest
# committed one, so a plain run never overwrites a committed record.
BENCH_PR="${BENCH_PR:-$(python3 scripts/bench_trajectory.py --next-pr)}"
traj="BENCH_${BENCH_PR}.json"
python3 scripts/bench_trajectory.py --out "$traj" \
  --pr "$BENCH_PR" "${profiles[@]}"
python3 - "$traj" <<'EOF'
import json, sys
rec = json.load(open(sys.argv[1]))
pts = rec.get("totals", {}).get("points", 0)
if rec.get("tool") != "optane-ptm-bench-trajectory" or pts <= 0:
    sys.exit(f"{sys.argv[1]}: no trajectory record produced (points={pts})")
print(f"{sys.argv[1]}: trajectory record OK ({pts} points)")
EOF
