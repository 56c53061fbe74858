#!/usr/bin/env bash
# Replication smoke: boot one leader and two followers as real processes,
# drive inserts, deletes and batches at the leader, wait for the followers
# to converge, and assert /aknn, /rknn and /range answer byte-identically
# across all three nodes. Then kill -9 one follower mid-churn, keep
# mutating, restart it, and assert it re-converges to identical answers
# with zero lag. Also pins the follower write contract (403 pointing at
# the leader). Runnable locally from the repo root:
#
#   scripts/replication_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/ci_lib.sh

LEADER=http://127.0.0.1:18090
FOL1=http://127.0.0.1:18091
FOL2=http://127.0.0.1:18092

build_fuzzyserve
start_server "$WORK/leader.log" -log "$WORK/leader.fzl" -dims 2 -replication -addr 127.0.0.1:18090
wait_healthz $LEADER
start_server "$WORK/fol1.log" -follow $LEADER -addr 127.0.0.1:18091
FOL1_PID=$LAST_SERVER_PID
start_server "$WORK/fol2.log" -follow $LEADER -addr 127.0.0.1:18092
wait_healthz $FOL1
wait_healthz $FOL2

# insert_obj <base> <id> <x> <y> — a 3-point object, fully derived from id.
insert_obj() {
  curl -sf "$1/objects" -d "{\"object\":{\"id\":$2,\"points\":[{\"p\":[$3,$4],\"mu\":1.0},{\"p\":[$(($3 + 1)),$4],\"mu\":0.6},{\"p\":[$3,$(($4 + 1))],\"mu\":0.3}]}}" >/dev/null
}

# churn <id-base> — inserts, deletes and one mixed batch.
churn() {
  local base=$1 i
  for i in $(seq 1 20); do
    insert_obj $LEADER $((base + i)) $((i % 13)) $((i % 7))
  done
  curl -sf -X DELETE "$LEADER/objects/$((base + 3))" >/dev/null
  curl -sf -X DELETE "$LEADER/objects/$((base + 6))" >/dev/null
  curl -sf "$LEADER/objects:batch" -d "{\"objects\":[{\"id\":$((base + 50)),\"points\":[{\"p\":[5,5],\"mu\":1.0}]},{\"id\":$((base + 51)),\"points\":[{\"p\":[6,6],\"mu\":1.0}]}],\"delete_ids\":[$((base + 9))]}" >/dev/null
}

# repl_field <base> <field> — one field of the /stats replication block.
repl_field() {
  curl -sf "$1/stats" | python3 -c "import json,sys; print(json.load(sys.stdin)['replication']['$2'])"
}

# wait_converged <follower-base> — polls applied_seq up to the leader's
# latest committed sequence (20s cap).
wait_converged() {
  local target applied i
  target="$(repl_field $LEADER latest_seq)"
  for i in $(seq 1 100); do
    applied="$(repl_field "$1" applied_seq)"
    if [ "$applied" -ge "$target" ]; then
      return 0
    fi
    sleep 0.2
  done
  echo "follower $1 stuck at seq $applied, leader at $target" >&2
  return 1
}

# results <base> <endpoint> <payload> — the canonicalized .results array.
# Only the results are compared: stats (durations, per-node access counts)
# legitimately differ across nodes; the answers must not.
results() {
  curl -sf "$1$2" -d "$3" | python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["results"], sort_keys=True))'
}

# assert_identical <query-id> — all three nodes answer every read endpoint
# with the same bytes.
assert_identical() {
  local ep payload a b c
  for ep in /aknn /rknn /range; do
    case $ep in
      /aknn)  payload="{\"query_id\": $1, \"k\": 5, \"alpha\": 0.5}" ;;
      /rknn)  payload="{\"query_id\": $1, \"k\": 3, \"alpha_start\": 0.3, \"alpha_end\": 0.8}" ;;
      /range) payload="{\"query_id\": $1, \"alpha\": 0.5, \"radius\": 6}" ;;
    esac
    a="$(results $LEADER $ep "$payload")"
    b="$(results $FOL1 $ep "$payload")"
    c="$(results $FOL2 $ep "$payload")"
    if [ "$a" != "$b" ] || [ "$a" != "$c" ]; then
      echo "$ep diverges for query_id $1:" >&2
      echo "  leader:    $a" >&2
      echo "  follower1: $b" >&2
      echo "  follower2: $c" >&2
      return 1
    fi
  done
  echo "all three nodes identical on /aknn /rknn /range (query_id $1)"
}

echo '--- phase 1: churn, converge, compare ---'
churn 0
wait_converged $FOL1
wait_converged $FOL2
assert_identical 15

echo '--- phase 2: kill -9 follower1 mid-churn, churn on, restart, re-converge ---'
kill -9 "$FOL1_PID"
churn 100
start_server "$WORK/fol1-restarted.log" -follow $LEADER -addr 127.0.0.1:18091
wait_healthz $FOL1
wait_converged $FOL1
wait_converged $FOL2
assert_identical 115

echo '--- phase 3: follower contract ---'
lag="$(repl_field $FOL1 lag_frames)"
test "$lag" -eq 0
curl -sf $FOL1/metrics > "$WORK/fol1-metrics.txt"
grep -q '^fuzzyknn_replication_lag_frames 0$' "$WORK/fol1-metrics.txt"
grep -q '^fuzzyknn_replication_bootstraps_total 1$' "$WORK/fol1-metrics.txt"
curl -sf $LEADER/metrics > "$WORK/leader-metrics.txt"
grep -q '^fuzzyknn_replication_latest_seq' "$WORK/leader-metrics.txt"
code="$(curl -s -o "$WORK/deny.json" -w '%{http_code}' $FOL2/objects -d '{"object":{"id":9999,"points":[{"p":[1,1],"mu":1.0}]}}')"
test "$code" = 403
grep -q "$LEADER" "$WORK/deny.json"
echo 'replication smoke OK'
