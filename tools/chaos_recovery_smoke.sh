#!/bin/sh
# Smoke test for the durability layer: run a scenario uninterrupted, then run
# the same scenario under chaos_runner (seeded SIGKILLs + recovery) and assert
# the exported metrics and event trace are byte-identical (DESIGN.md §13).
#
# Usage: chaos_recovery_smoke.sh <deflation_sim> <chaos_runner> <work_dir>
set -eu

SIM="$1"
RUNNER="$2"
DIR="$3"

rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR"

cat > run.workload <<'EOF'
duration-h = 3
load = 1.5
EOF

"$SIM" --servers=10 --workload=run.workload \
  --metrics-out=ref.json --trace-out=ref.jsonl > /dev/null

"$RUNNER" --seed=5 --kills=3 --min-delay-ms=10 --max-delay-ms=200 \
  --compare=out.json=ref.json,out.jsonl=ref.jsonl -- \
  "$SIM" --servers=10 --workload=run.workload \
    --durable-dir=run.d --checkpoint-every-h=0.25 --checkpoint-min-wall-s=0 \
    --metrics-out=out.json --trace-out=out.jsonl
