#!/bin/sh
# Static-analysis gate: gofmt cleanliness, go vet, and the project's
# eclipse-lint suite (ring-comparison safety, no RPCs under node mutexes,
# acyclic lock order, constant single-kind metric names, simulator
# determinism, checked I/O-boundary errors, ended spans, terminating
# goroutines, inherited contexts, compiled codecs on data-path messages). Findings print as
# file:line: analyzer: message; see EXPERIMENTS.md for the //lint:ignore
# suppression syntax. It always lints the whole tree: a lock cycle or a
# leak can have its two halves in packages a change did not touch.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== eclipse-lint ./..."
go run ./cmd/eclipse-lint ./...

echo "lint: OK"
