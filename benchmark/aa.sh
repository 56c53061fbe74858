#!/usr/bin/env bash
# A/A check: runs the suite twice on the same code with the same seed and
# compares the two, cell by cell, against the bounds of BENCHMARK.json.
# Exits non-zero if any end-to-end cell of the second run is worse than the
# first by more than its bound — which, on unchanged code, means the
# benchmark (or the box) is too noisy for that bound.
#
#   benchmark/aa.sh [SEED] [REPEATS]
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-1}
repeats=${2:-1}
dir=.bench_build/aa
mkdir -p "$dir"
bash benchmark/suite.sh "$dir/a.json" "$seed" "$repeats"
bash benchmark/suite.sh "$dir/b.json" "$seed" "$repeats"
bash benchmark/run.sh compare "$dir/a.json" "$dir/b.json"
