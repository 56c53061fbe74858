#!/usr/bin/env bash
# Runs one benchmark/run.sh workload unchanged and records what the server
# itself saw. The server is started through a wrapper, passed to fuzzyload as
# --fuzzyserve, that adds -pprof and scrapes GET /metrics once a second,
# keeping each server process's last scrape. Usage:
#
#   scripts/bench_server.sh [--profile FILE] RUN.SH-ARGS...
#   scripts/bench_server.sh --workload aknn_inline_mem --seed 13201 --seconds 20 --trace 0
#
# It prints run.sh's output (the result object on its last line but one),
# then one line {"server_side": {...}}: per endpoint the handler's mean and
# count from fuzzyknn_http_request_duration_seconds{endpoint} (POST
# /objects:batch is the set-up's own figure), and per engine kind the mean
# queue and service time, and the AKNN requests with the lazy variants'
# leaf entries deferred and results admitted unprobed (the exact:false
# ones). Means are histogram sum ÷ count over the last
# scrape of every server process the run started (a restarted workload has
# two; a scrape is at most a second old, so the figures are approximate).
# --profile FILE also saves a 12 s CPU profile of the first server process
# still up 10 s after it started (the workload's own, not a probe's); give
# the run --seconds 25 or more for the profile to finish.
set -euo pipefail
cd "$(dirname "$0")/.."
profile=
if [ "${1:-}" = --profile ]; then
	profile=$(realpath -m "$2")
	shift 2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

cat >"$work/fuzzyserve" <<EOF
#!/usr/bin/env bash
# \$2 is the -addr value fuzzyload passes first; exec keeps this pid.
addr=\$2 out=$work/scrape.\$\$
(
	while kill -0 \$\$ 2>/dev/null; do
		sleep 1
		curl -sf --max-time 2 "http://\$addr/metrics" >"\$out.tmp" && mv "\$out.tmp" "\$out"
	done
) </dev/null >/dev/null 2>&1 &
if [ -n "$profile" ]; then
	(sleep 10 && kill -0 \$\$ && mkdir "$work/profiled" &&
		curl -sf "http://\$addr/debug/pprof/profile?seconds=12" >"$profile") </dev/null >/dev/null 2>&1 &
fi
exec "$PWD/.bench_build/bin/fuzzyserve" "\$@" -pprof
EOF
chmod +x "$work/fuzzyserve"

bash benchmark/run.sh "$@" --fuzzyserve "$work/fuzzyserve"
sleep 1.5 # let the last scrapers see their server gone

cat "$work"/scrape.* | awk '
	/^fuzzyknn_(http_request_duration|request_queue|request_service)_seconds_(sum|count)[{]/ {
		name = substr($0, 1, index($0, "{") - 1)
		label = substr($0, index($0, "=\"") + 2) # a label value may hold braces: DELETE /objects/{id}
		label = substr(label, 1, index(label, "\"}") - 1)
		metric = name
		sub(/_(sum|count)$/, "", metric)
		acc[metric SUBSEP label SUBSEP substr(name, length(metric) + 2)] += $NF
		if (!((metric SUBSEP label) in seen)) {
			seen[metric SUBSEP label] = 1
			order[++n] = metric SUBSEP label
		}
	}
	/^fuzzyknn_requests_total[{]kind="aknn"[}] / { aknn += $NF }
	/^fuzzyknn_engine_lazy_deferred_total / { deferred += $NF }
	/^fuzzyknn_engine_lazy_admitted_total / { admitted += $NF }
	function block(metric, name, withCount,   i, k, m, sep, out) {
		out = "\"" name "\": {"
		for (i = 1; i <= n; i++) {
			split(order[i], k, SUBSEP)
			if (k[1] != metric || acc[order[i] SUBSEP "count"] == 0) continue
			m = 1000 * acc[order[i] SUBSEP "sum"] / acc[order[i] SUBSEP "count"]
			out = out sep sprintf("\"%s\": ", k[2])
			out = out (withCount ? sprintf("{\"mean_ms\": %.4f, \"count\": %d}", m, acc[order[i] SUBSEP "count"]) : sprintf("%.4f", m))
			sep = ", "
		}
		return out "}"
	}
	END {
		printf "{\"server_side\": {%s, %s, %s, \"aknn_lazy\": {\"requests\": %d, \"deferred\": %d, \"admitted\": %d}}}\n",
			block("fuzzyknn_http_request_duration_seconds", "handler", 1),
			block("fuzzyknn_request_queue_seconds", "engine_queue_mean_ms", 0),
			block("fuzzyknn_request_service_seconds", "engine_service_mean_ms", 0),
			aknn, deferred, admitted
	}'
