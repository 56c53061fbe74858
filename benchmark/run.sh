#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json). Builds cmd/fuzzyserve
# and cmd/fuzzyload from the sources of this checkout, then runs fuzzyload
# with the arguments given:
#
#   benchmark/run.sh --workload aknn_inline_mem --seed 1 --seconds 12 --trace 0
#   benchmark/run.sh compare A.json B.json
#
# Everything it writes — the Go build cache included — stays under
# .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build=$PWD/.bench_build
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
mkdir -p "$build/bin"
go build -o "$build/bin/fuzzyserve" ./cmd/fuzzyserve
(cd cmd/fuzzyload && go build -o "$build/bin/fuzzyload" .)
if [ "${1:-}" = compare ]; then
	exec "$build/bin/fuzzyload" "$@"
fi
exec "$build/bin/fuzzyload" --fuzzyserve "$build/bin/fuzzyserve" --out "$build/out" "$@"
