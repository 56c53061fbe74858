#!/usr/bin/env bash
# Mutation census: applies each mutant of scripts/mutants.txt, one at a
# time, to a copy of a tree, runs tier-1 (`go test ./...`, as -json) on the
# copy and records which tests killed it. It fails when an expected kill
# survives, when a mutant marked "equivalent" is killed, or when an anchor
# no longer occurs exactly once. Runnable from the repo root:
#
#   scripts/mutation_census.sh [TREE [MATRIX]]
#   scripts/mutation_census.sh --anchors [TREE]
#
# --anchors only checks that every anchor occurs exactly once in TREE's
# file and runs no tests: a refactor that orphans a mutant fails at once.
#
# TREE (default: this checkout) is the git checkout to mutate: its tracked
# and untracked, unignored files are copied. The catalogue is always this
# checkout's, copied once at the start, so the same mutants can be run
# against another commit (a parent cloned elsewhere) to compare kill
# matrices, and an edit to it during a run changes nothing in the run. MATRIX, when given,
# receives one tab-separated line per mutant: id, verdict, killing tests.
# Unmutated packages come from the test cache, so a mutant costs one run of
# the packages that depend on its file plus one rerun of each failing test
# (9–30 s on two cores; a few minutes when the mutant makes tests block).
set -euo pipefail
here="$(cd "$(dirname "$0")/.." && pwd)"
anchors_only=false
if [ "${1:-}" = --anchors ]; then
  anchors_only=true
  shift
fi
tree="$(cd "${1:-$here}" && pwd)"
matrix="${2:-/dev/null}"
catalogue="$(mktemp)"
trap 'rm -f "$catalogue"' EXIT
cp "$here/scripts/mutants.txt" "$catalogue"

# mutate replaces the anchor (\n and \t unescaped) in file, or, with
# --dry-run, only checks that it occurs exactly once.
mutate() {
  python3 - "$@" <<'PY'
import sys
args = sys.argv[1:]
dry = args[0] == "--dry-run"
path, anchor, replace = args[dry:]
unescape = lambda s: s.replace("\\n", "\n").replace("\\t", "\t")
anchor, replace = unescape(anchor), unescape(replace)
try:
    src = open(path).read()
except OSError as e:
    sys.exit(str(e))
if src.count(anchor) != 1:
    sys.exit(f"anchor occurs {src.count(anchor)} times")
if not dry:
    open(path, "w").write(src.replace(anchor, replace))
PY
}

# each calls the function named by $1 with every catalogue entry's id,
# file, anchor, replacement and expected verdict.
each() {
  local id='' file='' anchor='' replace='' line
  while IFS= read -r line; do
    case "$line" in
      'id: '*) id="${line#id: }" ;;
      'file: '*) file="${line#file: }" ;;
      'anchor: '*) anchor="${line#anchor: }" ;;
      'replace: '*) replace="${line#replace: }" ;;
      'expect: '*) "$1" "$id" "$file" "$anchor" "$replace" "${line#expect: }" ;;
    esac
  done < "$catalogue"
}

if $anchors_only; then
  orphans=0 entries=0
  anchored() {
    entries=$((entries + 1))
    if ! mutate --dry-run "$tree/$2" "$3" "$4"; then
      echo "FAIL $1: the anchor in $2 no longer matches exactly once" >&2
      orphans=$((orphans + 1))
    fi
  }
  each anchored
  echo "anchors: $entries mutants, $orphans orphaned"
  [ "$orphans" -eq 0 ]
  exit
fi

work="$(mktemp -d)"
trap 'rm -rf "$work" "$catalogue"' EXIT
(cd "$tree" && git ls-files -co --exclude-standard -z | tar --null -cf - -T -) | tar -xf - -C "$work"
: > "$matrix"

# killers lists the top-level tests that failed in a `go test -json` log
# and fail again when rerun alone — so that a timing test flaking beside
# the other packages counts for nothing — and the packages that failed
# outside any test (a panic, a timeout). A mutant can make a test spin or
# block; the timeout (tier-1's slowest package takes a few seconds) turns
# that into a failure instead of a ten-minute wait.
killers() {
  jq -rR 'fromjson? | select(.Action == "fail")
    | if .Test then "\(.Package):\(.Test | sub("/.*"; ""))" else .Package end' "$1" |
    awk -F: 'NF > 1 { tested[$1] = 1; print; next } { pkg[$0] = 1 }
      END { for (p in pkg) if (!(p in tested)) print p }' | sort -u |
    while IFS= read -r k; do
      case "$k" in
        *:*) (cd "$work" && go test -count=1 -timeout 60s -run "^${k#*:}\$" "${k%%:*}" > /dev/null 2>&1 < /dev/null) || echo "$k" ;;
        *) echo "$k" ;;
      esac
    done
}
run_tier1() {
  (cd "$work" && go test -json -timeout 60s ./... > "$work/.log" 2>&1 < /dev/null) || true
}

echo "census of $tree: baseline run"
run_tier1
if fails="$(killers "$work/.log")" && [ -n "$fails" ]; then
  echo "the unmutated tree fails tier-1: $fails" >&2
  exit 1
fi

failures=0 mutants=0 killed=0
check() {
  local id="$1" file="$2" anchor="$3" replace="$4" expect="$5"
  mutants=$((mutants + 1))
  cp "$work/$file" "$work/.orig"
  if ! mutate "$work/$file" "$anchor" "$replace"; then
    echo "FAIL $id: the anchor in $file no longer matches exactly once" >&2
    failures=$((failures + 1))
    return
  fi
  local start=$SECONDS by verdict
  run_tier1
  if grep -q '\[build failed\]\|"Action":"build-fail"' "$work/.log"; then
    cp "$work/.orig" "$work/$file"
    echo "FAIL $id: the mutant does not build" >&2
    failures=$((failures + 1))
    return
  fi
  by="$(killers "$work/.log" | paste -sd, -)"
  cp "$work/.orig" "$work/$file"
  verdict=survived
  if [ -n "$by" ]; then
    verdict=killed
    killed=$((killed + 1))
  fi
  printf '%s\t%s\t%s\n' "$id" "$verdict" "$by" >> "$matrix"
  echo "$id: $verdict ($((SECONDS - start)) s)${by:+ by $by}"
  case "$expect:$verdict" in
    killed:survived)
      echo "FAIL $id: expected a kill, the mutant survived" >&2
      failures=$((failures + 1)) ;;
    equivalent*:killed)
      echo "FAIL $id: marked ${expect%%:*} but killed; the reason was wrong" >&2
      failures=$((failures + 1)) ;;
  esac
}

each check

echo "census: $mutants mutants, $killed killed, $((mutants - killed)) survived, $failures verdicts against the catalogue"
[ "$failures" -eq 0 ]
