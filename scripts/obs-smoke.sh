#!/usr/bin/env bash
# obs-smoke.sh — end-to-end observability smoke test.
#
# Builds kronserve, runs it with both listeners (API + debug), drives a real
# discard job, a streamed job, and a design query and 2-shard plan fetch
# (each twice; the two plan bodies must be byte-identical, as a
# deterministic closed-form plan is), and then asserts the observability
# surface:
#
#   1. /metrics carries the promised series: per-route latency histograms,
#      job queue-wait/realize/run-time histograms, and the pipeline stage counters
#      for the service chain and the validation passes;
#      kronserve_stream_bytes_total equals the streamed job's body size; and
#      the design cache counted exactly one hit, the one the repeated
#      request reported as "cached": true.
#   2. /v1/jobs/{id}/trace ends in a terminal phase.
#   3. The -debug-addr listener answers /debug/vars and a 1-second
#      /debug/pprof/profile capture.
#
# Run from the repository root: ./scripts/obs-smoke.sh
set -euo pipefail

ADDR=127.0.0.1:18080
DEBUG=127.0.0.1:18081
BASE="http://$ADDR"
DBG="http://$DEBUG"
WORK="$(mktemp -d)"
SRV_PID=""

cleanup() {
  [ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null || true
  [ -n "$SRV_PID" ] && wait "$SRV_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "obs-smoke: FAIL: $*" >&2; exit 1; }

echo "== build kronserve"
go build -o "$WORK/kronserve" ./cmd/kronserve

echo "== start kronserve on $ADDR (debug on $DEBUG)"
"$WORK/kronserve" -addr "$ADDR" -debug-addr "$DEBUG" -log-format json \
  >"$WORK/server.log" 2>&1 &
SRV_PID=$!

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { cat "$WORK/server.log" >&2; fail "server never became healthy"; }
  sleep 0.1
done

job_id() { grep -o '"id": *"[^"]*"' | head -1 | sed 's/.*"id": *"\([^"]*\)".*/\1/'; }

echo "== run a discard job to completion"
JOB=$(curl -sf -X POST "$BASE/v1/jobs" \
  -d "{\"points\":[3,4,5],\"loop\":\"hub\",\"workers\":2,\"split\":1,\"sink\":\"discard\"}" | job_id)
[ -n "$JOB" ] || fail "discard job not admitted"
for i in $(seq 1 100); do
  STATE=$(curl -sf "$BASE/v1/jobs/$JOB" | grep -o '"state": *"[^"]*"' | head -1 | sed 's/.*"\([a-z]*\)"$/\1/')
  [ "$STATE" = done ] && break
  case "$STATE" in failed|cancelled) fail "discard job ended $STATE";; esac
  [ "$i" = 100 ] && fail "discard job stuck in $STATE"
  sleep 0.1
done

echo "== validate the done job (drives the instrumented validation passes)"
curl -sf "$BASE/v1/validate/$JOB" >"$WORK/validate.json" || fail "validation request failed"
grep -q '"exactAgreement": *true' "$WORK/validate.json" \
  || fail "validation did not report exact agreement"
grep -q '"checksumMatchesJob": *true' "$WORK/validate.json" \
  || fail "validation did not reconcile with the job's generation checksum"

echo "== run a streamed job and consume its edges"
SJOB=$(curl -sf -X POST "$BASE/v1/jobs" \
  -d "{\"points\":[3,4,5],\"loop\":\"hub\",\"workers\":2,\"split\":1}" | job_id)
[ -n "$SJOB" ] || fail "stream job not admitted"
curl -sf "$BASE/v1/jobs/$SJOB/edges" >"$WORK/edges.tsv" || fail "edge stream request failed"
EDGES=$(grep -cv '^#' "$WORK/edges.tsv") || true
[ "$EDGES" -gt 0 ] || fail "edge stream delivered no edges"
BODY_BYTES=$(wc -c <"$WORK/edges.tsv")

echo "== query one design and fetch its 2-shard plan, each twice (cache, determinism)"
DESIGN='{"points":[3,4,5,9],"loop":"hub"}'
for n in 1 2; do
  curl -sf -X POST "$BASE/v1/designs" -d "$DESIGN" >"$WORK/design$n.json" \
    || fail "design query $n failed"
done
grep -q '"cached": *false' "$WORK/design1.json" || fail "first design query claims to be cached"
grep -q '"cached": *true' "$WORK/design2.json" || fail "repeated design query missed the property cache"
HASH=$(grep -o '"hash": *"[0-9a-f]*"' "$WORK/design1.json" | head -1 | sed 's/.*"\([0-9a-f]*\)"$/\1/')
[ -n "$HASH" ] || fail "design response carries no hash"
for n in 1 2; do
  curl -sf "$BASE/v1/designs/$HASH/shardplan?shards=2" >"$WORK/plan$n.json" \
    || fail "shard plan request $n failed"
done
cmp -s "$WORK/plan1.json" "$WORK/plan2.json" || fail "two fetches of one shard plan returned different bodies"

echo "== check /metrics for the promised series"
curl -sf "$BASE/metrics" >"$WORK/metrics.txt"
for series in \
  'kronserve_http_request_seconds_bucket{route="POST /v1/jobs"' \
  'kronserve_job_queue_wait_seconds_count' \
  'kronserve_job_realize_seconds_count' \
  'kronserve_job_run_seconds_count' \
  'kronserve_stage_batches_total{stage="service_progress"}' \
  'kronserve_stage_edges_total{stage="service_checksum"}' \
  'kronserve_stage_busy_seconds_total{stage="service_stream"}' \
  'kronserve_stage_batches_total{stage="validate_tally"}' \
  'kronserve_stage_batches_total{stage="validate_scatter"}' \
  'kronserve_stage_busy_seconds_total{stage="validate_triangles"}' \
  'kronserve_jobs_done_total'
do
  grep -qF "$series" "$WORK/metrics.txt" || fail "/metrics missing: $series"
done
grep -qx 'kronserve_design_cache_hits_total 1' "$WORK/metrics.txt" \
  || fail "/metrics does not read: kronserve_design_cache_hits_total 1"
STREAM_BYTES=$(awk '$1 == "kronserve_stream_bytes_total" { print $2 }' "$WORK/metrics.txt")
[ "$STREAM_BYTES" = "$BODY_BYTES" ] \
  || fail "kronserve_stream_bytes_total is '${STREAM_BYTES}', the streamed body was ${BODY_BYTES} bytes"

echo "== check the job trace ends in a terminal phase"
TRACE=$(curl -sf "$BASE/v1/jobs/$JOB/trace")
echo "$TRACE" | grep -q '"state": *"done"' || fail "trace state is not done"
LAST_PHASE=$(echo "$TRACE" | grep -o '"phase": *"[^"]*"' | tail -1)
case "$LAST_PHASE" in
  *done*|*failed*|*cancelled*) ;;
  *) fail "trace does not end in a terminal phase (last: $LAST_PHASE)" ;;
esac

echo "== check the debug listener (expvar + 1s CPU profile)"
curl -sf "$DBG/debug/vars" | grep -q '"cmdline"' || fail "/debug/vars unusable"
curl -sf -o "$WORK/cpu.pprof" "$DBG/debug/pprof/profile?seconds=1" \
  || fail "/debug/pprof/profile capture failed"
[ -s "$WORK/cpu.pprof" ] || fail "captured CPU profile is empty"

echo "== check structured logs carry job lifecycle records"
grep -q '"msg":"job admitted"' "$WORK/server.log" || fail "no job-admitted log record"
grep -q '"msg":"job finished"' "$WORK/server.log" || fail "no job-finished log record"
grep -q '"msg":"http request"' "$WORK/server.log" || fail "no access-log records"

echo "obs-smoke: PASS"
