#!/bin/sh
# The benchmark is the yardstick a performance claim is measured with, so
# a change may not edit it and claim a gain in one go: fails when the diff
# against BASE (a git ref) touches BENCHMARK.json or a directory its
# "paths" lists, unless TITLE (the pull request's) starts with [benchmark].
# A change that does is its own PR, claims nothing, and re-measures the
# baseline.
#
#   scripts/benchfrozen.sh BASE [TITLE]
set -eu

cd "$(dirname "$0")/.."
base=$1
title=${2:-}

case $title in
"[benchmark]"*)
	echo "benchfrozen: titled [benchmark], not checked"
	exit 0
	;;
esac

paths=$(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["paths"]))')
# shellcheck disable=SC2086 # one argument per listed path
touched=$(git diff --name-only "$base"...HEAD -- BENCHMARK.json $paths)
if [ -n "$touched" ]; then
	echo "benchfrozen: this change touches the frozen benchmark:" >&2
	echo "$touched" | sed 's/^/  /' >&2
	echo "benchfrozen: move it to a PR titled [benchmark] that claims no gain" >&2
	exit 1
fi
echo "benchfrozen: OK"
