#!/usr/bin/env bash
# Format inventory: the format table in docs/ARCHITECTURE.md and the magic
# constants in the code name the same set. Fails when a "FZ…" magic constant
# in non-test Go source has no table row, or a row names a magic no constant
# defines. Runnable locally from the repo root:
#
#   scripts/format_inventory.sh
set -euo pipefail
cd "$(dirname "$0")/.."

code="$(grep -rhoE --include='*.go' --exclude='*_test.go' '(=|\() *"FZ[A-Z0-9]{6}"' . | grep -oE 'FZ[A-Z0-9]{6}' | sort -u)"
docs="$(grep '^|' docs/ARCHITECTURE.md | grep -oE '`FZ[A-Z0-9]{6}`' | tr -d '`' | sort -u)"
if [ "$code" != "$docs" ]; then
  echo 'format inventory mismatch (<: constant without a table row, >: row without a constant):' >&2
  diff <(echo "$code") <(echo "$docs") >&2 || true
  exit 1
fi
echo "format inventory OK: $(echo "$code" | wc -l) magics"
