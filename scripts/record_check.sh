#!/usr/bin/env bash
# Record check: a PR's evidence lands with its code. Fails when
#
#   - a commit subject "PR N: ..." in `git log` has no CHANGES.md entry
#     naming "PR N" (PR 0 only added the planning files and predates the
#     changelog);
#   - a "[perf_opt]" one has no BENCH_prN.json beside it;
#   - a BENCH_prN.json with N >= 39 claims a latency (a claim.metric ending
#     in _ms) and carries no top-level server_side block: the server's own
#     figures must show how much of the claimed latency is the server's
#     (files numbered below 39 predate the rule and are not checked);
#   - a *_NUMBERS placeholder — a figure somebody meant to fill in — is left
#     in any tracked *.md. A placeholder quoted as `code` is a mention of
#     one (the changelog and the roadmap tell this story) and does not count.
#
# It checks the history the checkout has, so a shallow clone checks less.
# Runnable locally from the repo root:
#
#   scripts/record_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
while read -r n kind; do
  if ! grep -qE "^(- )?PR $n[ :]" CHANGES.md; then
    echo "PR $n is in git log but CHANGES.md has no entry naming it" >&2
    fail=1
  fi
  if [ "$kind" = perf_opt ] && [ ! -f "BENCH_pr$n.json" ]; then
    echo "PR $n is a [perf_opt] change but BENCH_pr$n.json does not exist" >&2
    fail=1
  fi
done < <(git log --format=%s | sed -nE 's/^PR ([1-9][0-9]*): (\[([a-z_]+)\])?.*/\1 \3/p')

for f in BENCH_pr*.json; do
  n="${f#BENCH_pr}"
  n="${n%.json}"
  if [ "$n" -ge 39 ] && jq -e '(.claim.metric // "" | endswith("_ms")) and (has("server_side") | not)' "$f" > /dev/null; then
    echo "$f claims the latency $(jq -r .claim.metric "$f") but has no server_side block" >&2
    fail=1
  fi
done

while read -r f; do
  if hits="$(sed 's/`[^`]*`//g' "$f" | grep -nE '\b[A-Z]+_NUMBERS\b')"; then
    echo "$f: unfilled placeholder:" >&2
    echo "$hits" >&2
    fail=1
  fi
done < <(git ls-files '*.md')

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "record check OK: $(git log --format=%s | grep -cE '^PR [1-9][0-9]*: ') PR commits, $(ls BENCH_pr*.json | wc -l) BENCH files"
