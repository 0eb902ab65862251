#!/usr/bin/env bash
# Run one workload twice with the same seed and check that its exact
# counts (program_bootstraps, compile_peak_heap_mb) repeat exactly:
#   bash perfbench/check_repeat.sh [WORKLOAD] [SEED]
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:-compile-paper}
seed=${2:-1}
run() { bash perfbench/run.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0 | tail -n 1; }
first=$(run)
second=$(run)
python3 - "$first" "$second" <<'PY'
import json, sys
a, b = (json.loads(s)["metrics"] for s in sys.argv[1:3])
bad = [k for k in ("program_bootstraps", "compile_peak_heap_mb") if a[k]["value"] != b[k]["value"]]
for k in ("program_bootstraps", "compile_peak_heap_mb"):
    print(f"{k}: {a[k]['value']} then {b[k]['value']}")
sys.exit(1 if bad else 0)
PY
