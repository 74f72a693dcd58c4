#!/bin/sh
# End-to-end determinism check for the what-if service (DESIGN.md §15):
#
#   1. Worker invariance on a MID-RUN snapshot (3h into a 6h run, so
#      `run hours=` queries actually simulate): the shipped query batch and
#      both shipped sweep grids must be byte-identical at workers 1 vs 8.
#   2. Base-source invariance: a cold snapshot taken at the horizon and a
#      durable-dir run of the same scenario driven to completion hold the
#      same state (recovery is byte-exact), so both bases must answer the
#      batch identically -- at different worker counts, for good measure.
#   3. slo queries and the shipped batch on a mid-run interactive-serving
#      snapshot, whose children share an interactive-tagged trace, are
#      byte-identical at workers 1 vs 8.
#   4. A trace-file replay, whose snapshot inlines its trace (decoded once
#      by Load, shared by every child): the shipped batch is byte-identical
#      at workers 1 vs 8, and an slo query that would re-tag the trace says
#      it cannot.
#
# Usage: whatif_determinism_smoke.sh <deflation_sim> <deflation_server> \
#            <work_dir> <examples_dir>
set -eu

SIM="$1"
SERVER="$2"
DIR="$3"
EXAMPLES="$4"

rm -rf "$DIR"
mkdir -p "$DIR"
cd "$DIR"

cat > h6.workload <<'EOF'
duration-h = 6
load = 1.5
EOF
cat > h3.workload <<'EOF'
duration-h = 3
load = 1.5
EOF

# --- 1. Worker invariance on a mid-run snapshot ---
"$SIM" --servers=10 --workload=h6.workload \
  --stop-after-h=3 --snapshot-out=mid.snap > /dev/null

"$SERVER" --snapshot=mid.snap --queries="$EXAMPLES/whatif_queries.q" \
  --workers=1 --out=batch_w1.jsonl 2> /dev/null
"$SERVER" --snapshot=mid.snap --queries="$EXAMPLES/whatif_queries.q" \
  --workers=8 --out=batch_w8.jsonl 2> /dev/null
cmp batch_w1.jsonl batch_w8.jsonl

for grid in sweep_policies sweep_faults; do
  "$SERVER" --snapshot=mid.snap --sweep="$EXAMPLES/$grid.grid" \
    --workers=1 --out="${grid}_w1.jsonl" 2> /dev/null
  "$SERVER" --snapshot=mid.snap --sweep="$EXAMPLES/$grid.grid" \
    --workers=8 --out="${grid}_w8.jsonl" 2> /dev/null
  cmp "${grid}_w1.jsonl" "${grid}_w8.jsonl"
done

# --- 2. Cold snapshot vs recovered durable dir ---
"$SIM" --servers=10 --workload=h3.workload \
  --stop-after-h=3 --snapshot-out=cold.snap > /dev/null

"$SIM" --servers=10 --workload=h3.workload \
  --durable-dir=run.d --checkpoint-every-h=1 --checkpoint-min-wall-s=0 \
  > /dev/null

"$SERVER" --snapshot=cold.snap --queries="$EXAMPLES/whatif_queries.q" \
  --workers=1 --out=cold.jsonl 2> /dev/null
"$SERVER" --recover-dir=run.d --queries="$EXAMPLES/whatif_queries.q" \
  --workers=4 --out=recovered.jsonl 2> /dev/null
cmp cold.jsonl recovered.jsonl

# --- 3. slo queries against an interactive-serving snapshot ---
# DESIGN.md §16: the batch mixes measurement (no knobs), policy flips, and a
# mix-fraction override; answers must not move with the worker count.
cat > slo.workload <<'EOF'
duration-h = 6
load = 1.5
diurnal = on
diurnal-period-h = 2
arrival-seed = 17
interactive = on
interactive-fraction = 0.45
slo-p99-ms = 60
slo-period-s = 300
rate-rps-per-cpu = 120
rate-period-h = 2
EOF
"$SIM" --servers=10 --workload=slo.workload \
  --stop-after-h=3 --snapshot-out=slo.snap > /dev/null

cat > slo.q <<'EOF'
slo hours=1
slo p99=40 policy=uniform hours=1
slo p99=40 policy=slo hours=1
slo fraction=0.8 hours=1
EOF
"$SERVER" --snapshot=slo.snap --queries=slo.q \
  --workers=1 --out=slo_w1.jsonl 2> /dev/null
"$SERVER" --snapshot=slo.snap --queries=slo.q \
  --workers=8 --out=slo_w8.jsonl 2> /dev/null
cmp slo_w1.jsonl slo_w8.jsonl
grep -q '"violation_rate"' slo_w1.jsonl

# Every kind of query off the tagged trace Load verified once and every
# child shares (DESIGN.md §15).
"$SERVER" --snapshot=slo.snap --queries="$EXAMPLES/whatif_queries.q" \
  --workers=1 --out=slo_batch_w1.jsonl 2> /dev/null
"$SERVER" --snapshot=slo.snap --queries="$EXAMPLES/whatif_queries.q" \
  --workers=8 --out=slo_batch_w8.jsonl 2> /dev/null
cmp slo_batch_w1.jsonl slo_batch_w8.jsonl
if grep -q '"error"' slo_batch_w1.jsonl; then
  echo "shipped batch failed on the interactive snapshot" >&2
  exit 1
fi

# --- 4. A replayed trace, inlined in the snapshot ---
"$SIM" --servers=10 --workload=h6.workload --save-trace=h6.csv > /dev/null
cat > replay.workload <<'EOF'
duration-h = 6
load = 1.5
trace-file = h6.csv
EOF
"$SIM" --servers=10 --workload=replay.workload \
  --stop-after-h=3 --snapshot-out=replay.snap > /dev/null

"$SERVER" --snapshot=replay.snap --queries="$EXAMPLES/whatif_queries.q" \
  --workers=1 --out=replay_w1.jsonl 2> /dev/null
"$SERVER" --snapshot=replay.snap --queries="$EXAMPLES/whatif_queries.q" \
  --workers=8 --out=replay_w8.jsonl 2> /dev/null
cmp replay_w1.jsonl replay_w8.jsonl

echo 'slo fraction=0.5 hours=1' > retag.q
"$SERVER" --snapshot=replay.snap --queries=retag.q \
  --workers=1 --out=retag.jsonl 2> /dev/null
if ! grep -q 'cannot re-tag an explicit trace' retag.jsonl; then
  echo "slo fraction= on a replayed trace did not refuse to re-tag it" >&2
  exit 1
fi

echo "whatif determinism smoke: OK"
