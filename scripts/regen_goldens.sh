#!/usr/bin/env bash
# Regenerates golden/: for each golden/<binary>.txt, the stdout of that bench
# binary run with no flags, and for each committed spec,
# golden/scenario_<spec>.txt from scenario_runner. ctest diffs fresh runs
# against these files, so they pin the simulated results byte for byte. To
# pin a new binary, create an empty golden/<binary>.txt and rerun.
#
# Regenerate only for a deliberate model change, and name the run and its
# reason in CHANGES.md.
#
#   scripts/regen_goldens.sh [build-dir]     # default: build
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-$root/build}" && pwd)"
out="$root/golden"

# Run from a scratch directory so nothing a binary writes lands in the tree.
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cd "$work"

for golden in "$out"/*.txt; do
  name="$(basename "$golden" .txt)"
  if [[ "$name" != scenario_* ]]; then
    echo "golden/$name.txt" >&2
    "$build/bench/$name" > "$golden"
  fi
done
for spec in "$root"/scenarios/*.json "$root"/scenarios/ci/*.json; do
  name="$(basename "$spec" .json)"
  echo "golden/scenario_$name.txt" >&2
  "$build/bench/scenario_runner" "$spec" > "$out/scenario_$name.txt"
done
