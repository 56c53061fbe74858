#!/usr/bin/env bash
# Runs the whole benchmark once — every workload of BENCHMARK.json, first
# untraced (end-to-end metrics), then traced (per-layer metrics) — and
# writes the results as one JSON array that `fuzzyload compare` reads.
#
#   benchmark/suite.sh OUT.json [SEED] [REPEATS]
#
# REPEATS > 1 repeats the untraced runs; compare takes the median.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:?usage: benchmark/suite.sh OUT.json [SEED] [REPEATS]}
seed=${2:-1}
repeats=${3:-1}
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)
workloads=$(sed -n '/"workloads"/,/\]/s/.*"name": *"\([^"]*\)".*/\1/p' BENCHMARK.json)
entries=()
for w in $workloads; do
	for trace in 0 1; do
		n=$repeats
		[ "$trace" = 1 ] && n=1
		for _ in $(seq "$n"); do
			echo "== $w seed $seed trace $trace" >&2
			result=$(bash benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" | tee /dev/stderr | tail -n 1)
			entries+=("{\"workload\":\"$w\",\"seed\":$seed,\"trace\":$trace,\"result\":$result}")
		done
	done
done
{
	echo "["
	for i in "${!entries[@]}"; do
		sep=,
		[ "$i" = $((${#entries[@]} - 1)) ] && sep=
		echo "${entries[$i]}$sep"
	done
	echo "]"
} >"$out"
echo "wrote $out" >&2
