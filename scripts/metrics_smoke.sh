#!/usr/bin/env bash
# Operational smoke: boot the real server binary, drive the main endpoints,
# then scrape /metrics and check the key observability series exist and
# moved. Catches wiring regressions (routes, exposition format, engine
# instrumentation) no unit test sees. Runnable locally from the repo root:
#
#   scripts/metrics_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/ci_lib.sh

build_fuzzyserve
start_server /tmp/metrics-smoke.log -demo 500 -addr 127.0.0.1:18080 \
  -request-timeout 5s -slow-query 2s -pprof
wait_healthz http://127.0.0.1:18080

# ?explain=1 adds the stats counters "stats" leaves out and the request's
# queue/service split.
curl -sf 'http://127.0.0.1:18080/aknn?explain=1' -d '{"query_id": 7, "k": 5, "alpha": 0.5}' > "$WORK/aknn.json"
grep -qE '"explain":\{"profiles_built":[0-9]+,.*"queue_ns":[0-9]+,"service_ns":[1-9][0-9]*\}' "$WORK/aknn.json" ||
  { echo "/aknn?explain=1 has no explain member: $(cat "$WORK/aknn.json")" >&2; exit 1; }
curl -sf http://127.0.0.1:18080/rknn -d '{"query_id": 7, "k": 3, "alpha_start": 0.3, "alpha_end": 0.8}' >/dev/null
curl -sf http://127.0.0.1:18080/range -d '{"query_id": 7, "alpha": 0.5, "radius": 10}' >/dev/null
curl -sf http://127.0.0.1:18080/objects -d '{"object": {"id": 9001, "points": [{"p": [1, 2], "mu": 1.0}]}}' >/dev/null
curl -sf http://127.0.0.1:18080/stats >/dev/null
curl -sf 'http://127.0.0.1:18080/debug/pprof/goroutine?debug=1' >/dev/null
curl -sf http://127.0.0.1:18080/metrics > "$WORK/metrics.txt"
echo '--- /metrics smoke page ---'; head -40 "$WORK/metrics.txt"
grep -q 'fuzzyknn_requests_total{kind="aknn"} 1' "$WORK/metrics.txt"
grep -q 'fuzzyknn_requests_total{kind="rknn"} 1' "$WORK/metrics.txt"
grep -q 'fuzzyknn_requests_total{kind="insert"} 1' "$WORK/metrics.txt"
grep -q 'fuzzyknn_request_duration_seconds_count{kind="aknn"} 1' "$WORK/metrics.txt"
# The duration split at the claim: queued, then in service (the writer's for the insert).
grep -q 'fuzzyknn_request_queue_seconds_count{kind="aknn"} 1' "$WORK/metrics.txt"
grep -q 'fuzzyknn_request_service_seconds_count{kind="aknn"} 1' "$WORK/metrics.txt"
grep -q 'fuzzyknn_request_service_seconds_count{kind="insert"} 1' "$WORK/metrics.txt"
grep -q 'fuzzyknn_engine_queue_depth{queue="query"}' "$WORK/metrics.txt"
grep -q 'fuzzyknn_engine_queue_capacity{queue="write"}' "$WORK/metrics.txt"
grep -q 'fuzzyknn_engine_write_batch_size_count 1' "$WORK/metrics.txt"
grep -q 'fuzzyknn_engine_overloaded_total 0' "$WORK/metrics.txt"
# Every request met its deadline: the cancelled family is exported, zeros included.
grep -q 'fuzzyknn_requests_cancelled_total{kind="aknn",stage="queued"} 0' "$WORK/metrics.txt"
grep -q 'fuzzyknn_requests_cancelled_total{kind="rknn",stage="running"} 0' "$WORK/metrics.txt"
grep -q 'fuzzyknn_http_panics_total 0' "$WORK/metrics.txt"
grep -q 'fuzzyknn_index_objects 501' "$WORK/metrics.txt"
grep -q 'fuzzyknn_http_requests_total{code="200",endpoint="POST /aknn"} 1' "$WORK/metrics.txt"
# The /rknn call above refined its candidates' staircases (RSS-ICR, the
# default), so the points they swept are counted.
grep -qE '^fuzzyknn_engine_profile_points_total [1-9][0-9]*$' "$WORK/metrics.txt" ||
  { echo 'fuzzyknn_engine_profile_points_total missing or zero' >&2; exit 1; }
# The /aknn call above ran the default lb-lp-ub on one tree, which defers
# leaf entries into its §3.3 buffer; its admissions are exported, zero or not.
grep -qE '^fuzzyknn_engine_lazy_deferred_total [1-9][0-9]*$' "$WORK/metrics.txt" ||
  { echo 'fuzzyknn_engine_lazy_deferred_total missing or zero' >&2; exit 1; }
grep -qE '^fuzzyknn_engine_lazy_admitted_total [0-9]+$' "$WORK/metrics.txt" ||
  { echo 'fuzzyknn_engine_lazy_admitted_total missing' >&2; exit 1; }
# The runtime memory gauges: present and non-zero (booting the demo index
# runs the collector, so the live heap is known by the first scrape).
for g in fuzzyknn_go_heap_live_bytes fuzzyknn_go_heap_goal_bytes fuzzyknn_go_memory_bytes; do
  grep -qE "^$g [1-9][0-9]*$" "$WORK/metrics.txt" || { echo "$g missing or zero" >&2; exit 1; }
done
echo 'metrics smoke OK'
