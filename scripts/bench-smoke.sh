#!/usr/bin/env bash
# bench-smoke.sh — fig3/fig4 benchmark regression gates.
#
# Reruns the fig4 benchmark into bench-snapshot/ (git-ignored; CI uploads it
# as the run's bench snapshot) and compares the fresh snapshot against the
# committed BENCH_fig4.json. Each gated fig4 ratio
# divides two rates timed on the same machine in the same run, and is the
# median of repeated comparisons, so no gate holds a fresh rate against one
# recorded on another machine:
#
#   1. validationSpeedup (single-worker streaming ÷ materialized validation
#      throughput, the median over interleaved pairs) must stay within
#      FLOOR_FRACTION of the committed median — the streaming validation
#      engine must not regress back toward the materialized path it
#      replaced.
#   2. shardValidationSpeedup (median over repeats) must exceed 2: summed
#      K-shard validation throughput proves the shard-native path scales
#      past one process.
#   3. shardValidationExact must be true — the merged fragments reproduced
#      the unsharded design-level verdict.
#
# Then reruns fig3 and gates the wire paths against the generator they carry:
#
#   4. deltaWireToCountRatio must be at least 0.5 — the block-replay delta
#      encoder must keep streaming real bytes at no less than half the bare
#      count engine's rate, the gap the replay kernels exist to close.
#   5. replayReadToCountRatio must be at least 0.5 — decoding a replayed
#      stream (one block frame, then run frames expanded from the decoded
#      block) must run at no less than half the rate of the single-worker
#      enumerated pass it sits beside, the median of 5 adjacent pairs, so a
#      client keeps up with the generator whose wire it reads.
#
# CI runners are noisy, so the throughput gates are floors with headroom, not
# equality checks. Run from the repository root: ./scripts/bench-smoke.sh
set -euo pipefail

FLOOR_FRACTION=${FLOOR_FRACTION:-0.75}
COMMITTED=BENCH_fig4.json
OUT=bench-snapshot

fail() { echo "bench-smoke: FAIL: $*" >&2; exit 1; }

[ -f "$COMMITTED" ] || fail "no committed $COMMITTED to compare against"

# A snapshot left by an earlier run must not stand in for one this run
# failed to write.
mkdir -p "$OUT"
rm -f "$OUT/BENCH_fig4.json" "$OUT/BENCH_fig3.json"

echo "== kronbench -fig 4 (fresh snapshot into $OUT)"
go run ./cmd/kronbench -fig 4 -json -json-dir "$OUT"
FRESH="$OUT/BENCH_fig4.json"
[ -f "$FRESH" ] || fail "benchmark did not write $FRESH"

committed=$(jq -e '.validationSpeedup' "$COMMITTED")
fresh=$(jq -e '.validationSpeedup' "$FRESH")
pairs=$(jq -e '.validationSpeedupRepeats' "$FRESH")
floor=$(jq -n --argjson r "$committed" --argjson f "$FLOOR_FRACTION" '$r * $f')
echo "validation: streaming ${fresh}x materialized (median of ${pairs} pairs), committed ${committed}x (floor ${floor}x)"
jq -en --argjson fresh "$fresh" --argjson floor "$floor" '$fresh >= $floor' >/dev/null \
  || fail "validationSpeedup ${fresh} fell below ${FLOOR_FRACTION}x the committed ${committed}"

speedup=$(jq -e '.shardValidationSpeedup' "$FRESH")
echo "shard validation: summed speedup ${speedup}x over single-shard (median)"
jq -en --argjson s "$speedup" '$s > 2' >/dev/null \
  || fail "shardValidationSpeedup ${speedup} <= 2: sharded validation no longer scales"

jq -e '.shardValidationExact == true' "$FRESH" >/dev/null \
  || fail "merged shard validation did not reproduce the exact design-level verdict"

echo "== kronbench -fig 3 (fresh snapshot into $OUT)"
go run ./cmd/kronbench -fig 3 -json -json-dir "$OUT"
FRESH3="$OUT/BENCH_fig3.json"
[ -f "$FRESH3" ] || fail "benchmark did not write $FRESH3"

ratio=$(jq -e '.deltaWireToCountRatio' "$FRESH3")
replay=$(jq -e '.deltaReplayWireEdgesPerSec' "$FRESH3")
echo "block-replay delta wire: ${replay} edges/s, ${ratio}x the count engine"
jq -en --argjson r "$ratio" '$r >= 0.5' >/dev/null \
  || fail "deltaWireToCountRatio ${ratio} < 0.5: the block-replay delta path no longer keeps up with the count engine"

readRatio=$(jq -e '.replayReadToCountRatio' "$FRESH3")
readPairs=$(jq -e '.replayReadToCountRatioRepeats' "$FRESH3")
replayRead=$(jq -e '.binDeltaReplayReadEdgesPerSec' "$FRESH3")
echo "replayed-stream decode: ${replayRead} edges/s, ${readRatio}x the enumerated pass (median of ${readPairs} pairs)"
jq -en --argjson r "$readRatio" '$r >= 0.5' >/dev/null \
  || fail "replayReadToCountRatio ${readRatio} < 0.5: replayed-stream decode no longer keeps up with generation"

echo "bench-smoke: OK"
