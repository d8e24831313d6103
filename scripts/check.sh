#!/bin/sh
# Full verification gate: vet + the entire test suite under the race
# detector. The chaos/fault-injection tests in internal/cluster and
# internal/transport run here too, so a green check means the recovery
# paths are race-clean, not just the happy path.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet ./..."
go vet ./...

echo "== lint (gofmt + eclipse-lint)"
./scripts/lint.sh

echo "== go build ./..."
go build ./...

echo "== go test -race ./..."
go test -race "$@" ./...

echo "== lifecycles, -race -count=5 (make lifecycle)"
make lifecycle

echo "== round-trip budgets, -race -count=5 (make roundtrips)"
make roundtrips

echo "check: OK"
