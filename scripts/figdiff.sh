#!/bin/sh
# The figure oracle: the simulation is deterministic, so a change that
# claims to keep behaviour must keep every figure byte for byte. Builds
# cmd/eclipse-bench at BASE and at REV (default HEAD), each from a clean
# export of that commit (uncommitted changes are not seen), runs -csv on
# both side by side and diffs the CSV files and the printed tables.
# Exits non-zero on any difference.
#
#   scripts/figdiff.sh BASE [REV]
set -eu

cd "$(dirname "$0")/.."
base=${1:?usage: scripts/figdiff.sh BASE [REV]}
rev=${2:-HEAD}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# build SIDE COMMIT exports COMMIT into $work/SIDE and builds the command
# there.
build() {
	mkdir -p "$work/$1/src" "$work/$1/out"
	git archive "$2" | tar -x -C "$work/$1/src"
	(cd "$work/$1/src" && go build -o "$work/$1/eclipse-bench" ./cmd/eclipse-bench)
}
build base "$base"
build rev "$rev"
pids=
for side in base rev; do
	(cd "$work/$side" && ./eclipse-bench -csv out/csv >out/stdout.txt) &
	pids="$pids $!"
done
for pid in $pids; do
	wait "$pid"
done
if diff -r "$work/base/out" "$work/rev/out"; then
	echo "figdiff: $base and $rev print and write the same figures"
else
	echo "figdiff: the figures differ between $base and $rev" >&2
	exit 1
fi
