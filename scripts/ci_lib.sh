# Shared helpers for the CI smoke scripts. Source this from a script that
# runs with `set -euo pipefail`; it installs a single EXIT trap that kills
# every server started through start_server and removes the script's work
# directory, so scripts never leak processes, never overwrite each other's
# traps and never write into the checkout.

FUZZYSERVE_BIN="${FUZZYSERVE_BIN:-/tmp/fuzzyserve}"
SPAWNED_PIDS=()
# WORK holds everything a smoke writes: server logs, stores, scraped pages.
# It is removed after a passing run and kept, by name, after a failing one.
WORK="$(mktemp -d)"

# build_fuzzyserve builds the server binary once per job.
build_fuzzyserve() {
  if [ ! -x "$FUZZYSERVE_BIN" ]; then
    go build -o "$FUZZYSERVE_BIN" ./cmd/fuzzyserve
  fi
}

# start_server <logfile> <fuzzyserve args...> — boots a server in the
# background and records its pid for cleanup. The pid is also left in
# LAST_SERVER_PID for scripts that need to kill one server specifically.
start_server() {
  local logfile=$1
  shift
  "$FUZZYSERVE_BIN" "$@" >"$logfile" 2>&1 &
  LAST_SERVER_PID=$!
  SPAWNED_PIDS+=("$LAST_SERVER_PID")
}

cleanup() {
  local status=$? pid
  for pid in ${SPAWNED_PIDS[@]+"${SPAWNED_PIDS[@]}"}; do
    kill "$pid" 2>/dev/null || true
  done
  if [ "$status" -eq 0 ]; then
    rm -rf "$WORK"
  else
    echo "smoke failed; its files are kept in $WORK" >&2
  fi
}
trap cleanup EXIT

# wait_healthz <base-url> — polls /healthz until the server answers (15s cap).
wait_healthz() {
  local i
  for i in $(seq 1 75); do
    if curl -sf "$1/healthz" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.2
  done
  echo "server at $1 never became healthy" >&2
  return 1
}
