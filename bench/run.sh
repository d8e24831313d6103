#!/bin/sh
# Entry point named by BENCHMARK.json: builds the runner from source into
# .bench_build/ at the root of the checkout (build cache included, so
# nothing is read or written outside the checkout) and runs it with the
# driver's arguments. Works from any directory.
set -eu

here=$(cd "$(dirname "$0")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build"

(
    cd "$here"
    # XDG_CONFIG_HOME keeps the go command's own bookkeeping files in the
    # checkout as well.
    GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomod" \
        XDG_CONFIG_HOME="$build/config" GOPROXY=off \
        GOTOOLCHAIN=local go build -o "$build/eclipse-perf" .
) >&2

exec "$build/eclipse-perf" -outdir "$here/out" -manifest "$(dirname "$here")/BENCHMARK.json" "$@"
