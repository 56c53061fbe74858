#!/usr/bin/env bash
# The bench gate's measurements: builds the benchmark packages' test
# binaries of two trees once, then alternates 10 single-count rounds of the
# same benchmarks between them, each side first in every other round, so
# drift on the machine (a noisy neighbour, a warming cache) lands on both
# sides alike instead of on whichever side ran second. Runnable from the
# repo root:
#
#   scripts/bench_gate.sh BASE_TREE HEAD_TREE OUT_DIR
#
# writes OUT_DIR/base.txt and OUT_DIR/head.txt (10 samples of each
# benchmark) for `benchgate -base -head`. The base side cannot fail the
# gate: a BASE_TREE that cannot build the packages leaves base.txt empty,
# and a base package whose run fails (a b.Fatal, a panic, no test binary)
# keeps the samples it wrote and is not run again. Either way the script
# warns and says why in OUT_DIR/base-build-failed.txt, and the gate passes
# vacuously where the baseline is missing. A failing head run fails.
set -euo pipefail
re='BenchmarkHotPath|BenchmarkSec5AKNN|BenchmarkIngest|BenchmarkReopen|BenchmarkPagedAKNN|BenchmarkStoreGet|BenchmarkDistEval|BenchmarkProfile|BenchmarkCodecDecode|BenchmarkDecodePage|BenchmarkDecodeInlineAKNN|BenchmarkDecodeBatch|BenchmarkOptimalLine|BenchmarkSummarize128|BenchmarkInsert10K|BenchmarkBulkLoad10K'
pkgs=(query bench store fuzzy codec server hull rtree) # under internal/
base="$(cd "$1" && pwd)" head="$(cd "$2" && pwd)" out="$(cd "$3" && pwd)"
bins="$(mktemp -d)"
trap 'rm -rf "$bins"' EXIT

# build <tree> <side> writes the side's test binaries into $bins/<side>/.
build() {
  (cd "$1" && go test -c -o "$bins/$2/" "${pkgs[@]/#/./internal/}")
}

# run <tree> <side> <pkg> appends one round of the package's benchmarks to
# the side's samples. A test binary runs in its package's directory, as
# `go test` runs it.
run() {
  (cd "$1/internal/$3" && "$bins/$2/$3.test" -test.run '^$' -test.bench "$re" -test.count 1 -test.timeout 30m) >> "$out/$2.txt"
}

# warn <message> reports a base side that cannot be measured.
warn() {
  echo "::warning title=bench-gate baseline missing::$1; gating against what the base did write"
  echo "$1" >> "$out/base-build-failed.txt"
}

build "$head" head
sides=(base head)
: > "$out/base.txt"
: > "$out/head.txt"
if ! build "$base" base; then
  warn "$base failed to build the benchmark packages"
  sides=(head)
fi
declare -A broken # base packages whose run failed; they are not run again
for ((round = 1; round <= 10; round++)); do
  # Which side runs first alternates, so running second costs both alike.
  order=("${sides[@]}")
  ((round % 2)) || order=("${sides[@]:1}" "${sides[0]}")
  for side in "${order[@]}"; do
    for p in "${pkgs[@]}"; do
      if [ "$side" = head ]; then
        run "$head" head "$p"
      elif [ -z "${broken[$p]:-}" ] && ! run "$base" base "$p"; then
        broken[$p]=1
        warn "internal/$p: the base run failed in round $round"
      fi
    done
  done
done
