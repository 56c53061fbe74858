#!/usr/bin/env bash
# Chaos smoke: arm failpoints in real fuzzyserve processes through the
# FUZZYKNN_FAILPOINTS environment variable (no code changes, no test
# binaries) and check the end-to-end failure semantics the unit torture
# suites pin in-process:
#
#   phase 1  a log fsync fails under insert churn → the write is refused
#            with 503, the server flips into sticky degraded read-only
#            mode (healthz "degraded" at HTTP 200, /stats block,
#            fuzzyknn_degraded metric), queries keep serving — and a
#            restart on the same log recovers exactly the acknowledged
#            prefix.
#   phase 1b every log fsync fails under the default -fsync → a
#            /objects:batch that mixes valid and duplicate ids (the
#            coalescer's request-by-request fallback) acknowledges no
#            item: 503, nothing served now or after a restart.
#   phase 2  a follower whose every fetch is corrupted with probability
#            0.25 still converges to answers byte-identical to its
#            leader's, with the reconnects it took visible in /metrics.
#
# Runnable locally from the repo root:  scripts/chaos_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."
source scripts/ci_lib.sh

BASE=http://127.0.0.1:18070
LEADER=http://127.0.0.1:18071
FOLLOWER=http://127.0.0.1:18072

# Always rebuild (not build_fuzzyserve's build-once): this smoke arms
# failpoints inside the binary, so a stale one silently tests nothing.
go build -o "$FUZZYSERVE_BIN" ./cmd/fuzzyserve

# insert_obj <base> <id> <x> <y> — a 3-point object; echoes the HTTP code.
insert_obj() {
  curl -s -o /dev/null -w '%{http_code}' "$1/objects" \
    -d "{\"object\":{\"id\":$2,\"points\":[{\"p\":[$3,$4],\"mu\":1.0},{\"p\":[$(($3 + 1)),$4],\"mu\":0.6},{\"p\":[$3,$(($4 + 1))],\"mu\":0.3}]}}"
}

# jfield <url> <python-expr over j> — one field of a JSON endpoint.
jfield() {
  curl -s "$1" | python3 -c "import json,sys; j=json.load(sys.stdin); print($2)"
}

echo '--- phase 1: fsync failure under churn -> degraded read-only mode ---'
# (export/unset rather than a prefix assignment: start_server is a shell
# function, and bash does not pass prefix assignments on function calls
# down to the processes the function spawns.)
export FUZZYKNN_FAILPOINTS='store.log.sync=error:nth=5'
start_server "$WORK/degraded.log" -log "$WORK/a.fzl" -dims 2 -addr 127.0.0.1:18070
unset FUZZYKNN_FAILPOINTS
VICTIM_PID=$LAST_SERVER_PID
wait_healthz $BASE

# Insert until the armed fsync bites. Every acknowledged insert must
# survive the restart below; the failed one must not.
acked=0
code=0
for i in $(seq 1 20); do
  code="$(insert_obj $BASE $i $((i % 13)) $((i % 7)))"
  if [ "$code" != 201 ]; then
    break
  fi
  acked=$((acked + 1))
done
test "$code" = 503 || { echo "insert over failed fsync answered $code, want 503" >&2; exit 1; }
echo "fsync failed on insert $((acked + 1)); $acked inserts acknowledged"

# Sticky: the failpoint fired once (nth=5) and is spent, yet every write
# surface keeps refusing with 503.
code="$(insert_obj $BASE 900 1 1)"
test "$code" = 503 || { echo "insert on degraded server answered $code, want 503" >&2; exit 1; }
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST $BASE/checkpoint -d '{}')"
test "$code" = 503 || { echo "checkpoint on degraded server answered $code, want 503" >&2; exit 1; }

# /healthz stays 200 (alive and serving queries) but tells the truth.
code="$(curl -s -o "$WORK/healthz.json" -w '%{http_code}' $BASE/healthz)"
test "$code" = 200
status="$(python3 -c "import json; print(json.load(open('$WORK/healthz.json'))['status'])")"
test "$status" = degraded || { echo "healthz status $status, want degraded" >&2; exit 1; }
reason="$(python3 -c "import json; print(json.load(open('$WORK/healthz.json'))['reason'])")"
test -n "$reason"
echo "healthz: degraded since fsync failure ($reason)"

# /stats and /metrics expose the state for alerting.
faults="$(jfield $BASE/stats "j['degraded']['storage_faults']")"
test "$faults" -ge 1
curl -sf $BASE/metrics > "$WORK/degraded-metrics.txt"
grep -q '^fuzzyknn_degraded 1$' "$WORK/degraded-metrics.txt"
grep -q '^fuzzyknn_storage_faults_total [1-9]' "$WORK/degraded-metrics.txt"

# Queries still answer from the last published snapshot.
nres="$(curl -sf $BASE/aknn -d '{"query":{"id":500,"points":[{"p":[1,1],"mu":1.0}]},"k":3,"alpha":0.5}' \
  | python3 -c "import json,sys; print(len(json.load(sys.stdin)['results']))")"
test "$nres" = 3 || { echo "degraded query returned $nres results, want 3" >&2; exit 1; }
objects="$(jfield $BASE/stats "j['objects']")"
test "$objects" = "$acked" || { echo "degraded server serves $objects objects, want the $acked acknowledged" >&2; exit 1; }

# Recovery procedure: restart on the same (healthy again) log. Exactly the
# acknowledged prefix comes back; the refused writes are gone.
kill "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true
start_server "$WORK/recovered.log" -log "$WORK/a.fzl" -dims 2 -addr 127.0.0.1:18070
wait_healthz $BASE
status="$(jfield $BASE/healthz "j['status']")"
test "$status" = ok || { echo "restarted server healthz $status, want ok" >&2; exit 1; }
objects="$(jfield $BASE/stats "j['objects']")"
test "$objects" = "$acked" || { echo "restart recovered $objects objects, want $acked" >&2; exit 1; }
code="$(insert_obj $BASE 901 2 2)"
test "$code" = 201 || { echo "insert after recovery answered $code, want 201" >&2; exit 1; }
echo "restart recovered the $acked acknowledged objects and accepts writes again"
kill "$LAST_SERVER_PID"
wait "$LAST_SERVER_PID" 2>/dev/null || true

echo '--- phase 1b: a mixed batch over failing fsyncs acknowledges nothing ---'
# Create the empty log with a healthy process first: creating a log fsyncs
# its header, which the armed failpoint would already refuse.
start_server "$WORK/b-create.log" -log "$WORK/b.fzl" -dims 2 -addr 127.0.0.1:18070
wait_healthz $BASE
kill "$LAST_SERVER_PID"
wait "$LAST_SERVER_PID" 2>/dev/null || true
export FUZZYKNN_FAILPOINTS='store.log.sync=error'
start_server "$WORK/b-armed.log" -log "$WORK/b.fzl" -addr 127.0.0.1:18070
unset FUZZYKNN_FAILPOINTS
wait_healthz $BASE

# Object 1 twice makes the group invalid as a whole, so every request is
# committed on its own — each of those commits must fsync like any other.
obj() { echo "{\"id\":$1,\"points\":[{\"p\":[$1,$1],\"mu\":1.0}]}"; }
code="$(curl -s -o "$WORK/batch.json" -w '%{http_code}' "$BASE/objects:batch" \
  -d "{\"objects\":[$(obj 1),$(obj 1),$(obj 2)]}")"
test "$code" = 503 || { echo "mixed batch over failing fsyncs answered $code ($(cat "$WORK/batch.json")), want 503" >&2; exit 1; }
objects="$(jfield $BASE/stats "j['objects']")"
test "$objects" = 0 || { echo "server serves $objects objects none of which was durably committed" >&2; exit 1; }
kill "$LAST_SERVER_PID"
wait "$LAST_SERVER_PID" 2>/dev/null || true
start_server "$WORK/b-recovered.log" -log "$WORK/b.fzl" -addr 127.0.0.1:18070
wait_healthz $BASE
objects="$(jfield $BASE/stats "j['objects']")"
test "$objects" = 0 || { echo "restart serves $objects objects, want 0" >&2; exit 1; }
echo "mixed batch refused whole; restart serves 0 objects"

echo '--- phase 2: follower converges through a corrupting transport ---'
start_server "$WORK/leader.log" -log "$WORK/leader.fzl" -dims 2 -replication -addr 127.0.0.1:18071
wait_healthz $LEADER
for i in $(seq 1 15); do
  code="$(insert_obj $LEADER $i $((i % 11)) $((i % 5)))"
  test "$code" = 201
done
curl -sf -X DELETE $LEADER/objects/3 >/dev/null
curl -sf -X DELETE $LEADER/objects/7 >/dev/null

# Every second fetch (in expectation) hands the follower a corrupted body;
# frame CRCs catch it, the follower reconnects/re-bootstraps and converges.
export FUZZYKNN_FAILPOINTS='replica.fetch=torn:prob=0.5,seed=11'
start_server "$WORK/follower.log" -follow $LEADER -addr 127.0.0.1:18072
unset FUZZYKNN_FAILPOINTS
wait_healthz $FOLLOWER

# wait_applied — polls the follower up to the leader's latest committed
# sequence (30s cap).
wait_applied() {
  local target applied i
  target="$(jfield $LEADER/stats "j['replication']['latest_seq']")"
  for i in $(seq 1 150); do
    applied="$(jfield $FOLLOWER/stats "j['replication']['applied_seq']")"
    if [ "$applied" -ge "$target" ]; then
      return 0
    fi
    sleep 0.2
  done
  echo "follower stuck at seq $applied, leader at $target" >&2
  return 1
}

# Churn in rounds until the probabilistic failpoint has bitten at least
# once (each round forces more fetches), converging after every round. One
# round is usually enough; the cap keeps a lucky fault schedule from
# flaking the job.
recon=0
for round in $(seq 1 12); do
  for i in $(seq 1 5); do
    code="$(insert_obj $LEADER $((100 + round * 10 + i)) $((round % 9)) $((i % 5)))"
    test "$code" = 201
  done
  wait_applied
  recon="$(jfield $FOLLOWER/stats "j['replication'].get('reconnects', 0)")"
  if [ "$recon" -ge 1 ]; then
    break
  fi
done
test "$recon" -ge 1 || { echo "corrupting transport produced zero reconnects — the failpoint never bit" >&2; exit 1; }

payload='{"query":{"id":600,"points":[{"p":[4,2],"mu":1.0}]},"k":5,"alpha":0.5}'
a="$(curl -sf $LEADER/aknn -d "$payload" | python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["results"], sort_keys=True))')"
b="$(curl -sf $FOLLOWER/aknn -d "$payload" | python3 -c 'import json,sys; print(json.dumps(json.load(sys.stdin)["results"], sort_keys=True))')"
test "$a" = "$b" || { echo "follower answers diverge from leader: $a vs $b" >&2; exit 1; }

curl -sf $FOLLOWER/metrics > "$WORK/follower-metrics.txt"
grep -q '^fuzzyknn_replication_reconnects_total [1-9]' "$WORK/follower-metrics.txt"
echo "follower converged identically through $recon reconnects"

echo 'chaos smoke OK'
