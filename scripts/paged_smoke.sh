#!/usr/bin/env bash
# Paged smoke: generate a store + page file, check fuzzyquery answers the
# same from the page file as from a scan-built open, then boot fuzzyserve in
# paged mode with a small block cache, query it, and check the cache series
# (one vocabulary, labeled by layer) show real hit/miss traffic on /metrics
# and /stats. A last phase serves the same store as one tree and as three
# shards and checks AKNN, RKNN (each served algorithm) and range answers and
# costs the same on both. Runnable locally from the repo root:
#
#   scripts/paged_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/ci_lib.sh

build_fuzzyserve
go run ./cmd/fuzzygen -out /tmp/objects.fzs -n 2000 -points 64 \
  -pagefile /tmp/objects.fzp

# The page file changes how the index is opened, never what it answers: the
# answer lines of every query must match a scan-built open of the same store.
go build -o /tmp/fuzzyquery ./cmd/fuzzyquery
answers() { grep -E '^ *([0-9]+\. )?object ' || true; }
for mode in "-mode aknn -k 10 -alpha 0.5" "-mode aknn -k 10 -alpha 0.5 -algo basic" "-mode rknn -k 5"; do
  # shellcheck disable=SC2086  # $mode is a flag list
  /tmp/fuzzyquery -store /tmp/objects.fzs -query-id 7 $mode | answers > /tmp/paged-smoke.scan.txt
  # shellcheck disable=SC2086
  /tmp/fuzzyquery -store /tmp/objects.fzs -pagefile /tmp/objects.fzp -query-id 7 $mode | answers > /tmp/paged-smoke.paged.txt
  test -s /tmp/paged-smoke.scan.txt
  if ! diff /tmp/paged-smoke.scan.txt /tmp/paged-smoke.paged.txt; then
    echo "fuzzyquery $mode: -pagefile answers differ from the scan-built open" >&2
    exit 1
  fi
done

start_server /tmp/paged-smoke.log -store /tmp/objects.fzs -pagefile /tmp/objects.fzp \
  -cache-mb 1 -addr 127.0.0.1:18081
wait_healthz http://127.0.0.1:18081

for i in $(seq 1 5); do
  curl -sf http://127.0.0.1:18081/aknn -d '{"query_id": 7, "k": 5, "alpha": 0.5}' >/dev/null
done
curl -sf http://127.0.0.1:18081/stats > "$WORK/stats.json"
grep -q '"page_cache"' "$WORK/stats.json"
curl -sf http://127.0.0.1:18081/metrics > "$WORK/paged-metrics.txt"
echo '--- paged /metrics cache series ---'; grep 'fuzzyknn_cache\|page_reads\|page_cache_hits' "$WORK/paged-metrics.txt"
grep -q 'fuzzyknn_cache_hits_total{cache="pages"}' "$WORK/paged-metrics.txt"
grep -q 'fuzzyknn_cache_misses_total{cache="pages"}' "$WORK/paged-metrics.txt"
grep -q 'fuzzyknn_cache_resident_bytes{cache="pages"}' "$WORK/paged-metrics.txt"
grep -q 'fuzzyknn_engine_page_reads_total' "$WORK/paged-metrics.txt"
# Hits must be nonzero after repeated identical queries.
hits="$(sed -n 's/^fuzzyknn_cache_hits_total{cache="pages"} //p' "$WORK/paged-metrics.txt")"
test "$hits" -gt 0

# Sharded phase. Every query family is one function over a forest of trees,
# so the same store served as one tree and as three must return the same
# results AND charge the same object accesses: for AKNN ("algo": "lb"
# answers exact distances on both layouts), for RKNN under each algorithm
# the server serves, run as named (Naive, which /rknn refuses, is held to
# the same in process by FuzzConformance), and for range search. The
# default "lb-lp-ub" searches lazily on both layouts, so its bounds and its
# costs may differ between them; the three shards' reply must still name
# the single tree's "lb" neighbours and cost no more object accesses.
start_server /tmp/paged-smoke.one.log -store /tmp/objects.fzs -addr 127.0.0.1:18082
start_server /tmp/paged-smoke.three.log -store /tmp/objects.fzs -shards 3 -addr 127.0.0.1:18083
wait_healthz http://127.0.0.1:18082
wait_healthz http://127.0.0.1:18083
# answer_and_cost <base-url> <endpoint> <payload> — the results and what they cost.
answer_and_cost() {
  curl -sf "$1/$2" -d "$3" | python3 -c 'import json,sys; j=json.load(sys.stdin); print(j["stats"]["object_accesses"], json.dumps(j["results"], sort_keys=True))'
}
# same_on_both <endpoint> <payload>
same_on_both() {
  local one three
  one="$(answer_and_cost http://127.0.0.1:18082 "$1" "$2")"
  three="$(answer_and_cost http://127.0.0.1:18083 "$1" "$2")"
  echo "sharded /$1 $2: ${one%% *} object accesses on one tree, ${three%% *} on three shards"
  if [ "$one" != "$three" ]; then
    echo "/$1 $2: -shards 3 differs from the single tree in results or object accesses" >&2
    exit 1
  fi
}
# ids_and_cost <base-url> <payload> — an AKNN reply's id set and what it cost.
ids_and_cost() {
  curl -sf "$1/aknn" -d "$2" | python3 -c 'import json,sys; j=json.load(sys.stdin); print(j["stats"]["object_accesses"], sorted(r["id"] for r in j["results"]))'
}
# lazy_within_lb <request fields, no algo>
lazy_within_lb() {
  local lb lazy
  lb="$(ids_and_cost http://127.0.0.1:18082 "{$1, \"algo\": \"lb\"}")"
  lazy="$(ids_and_cost http://127.0.0.1:18083 "{$1}")"
  echo "sharded /aknn {$1}: ${lazy%% *} object accesses on three shards, ${lb%% *} for lb on one tree"
  if [ "${lazy#* }" != "${lb#* }" ] || [ "${lazy%% *}" -gt "${lb%% *}" ]; then
    echo "/aknn {$1}: -shards 3 lb-lp-ub names other neighbours than lb on one tree, or costs more" >&2
    exit 1
  fi
}
for id in 7 99 1234; do
  for k in 5 20; do
    same_on_both aknn "{\"query_id\": $id, \"k\": $k, \"alpha\": 0.5, \"algo\": \"lb\"}"
    lazy_within_lb "\"query_id\": $id, \"k\": $k, \"alpha\": 0.5"
  done
  for algo in basic rss rssicr; do
    same_on_both rknn "{\"query_id\": $id, \"k\": 5, \"alpha_start\": 0.3, \"alpha_end\": 0.8, \"algo\": \"$algo\"}"
  done
  same_on_both range "{\"query_id\": $id, \"alpha\": 0.5, \"radius\": 10}"
done
echo 'paged smoke OK'
