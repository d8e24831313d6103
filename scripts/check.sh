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

echo "== map-task and block-buffer lifecycles, -race -count=5"
go test -race -count=5 -run 'MapTask|SelfHeal|LostPartition|Resume|Speculat|Failover|AttemptStride|BufferLifecycle' ./internal/mapreduce ./internal/cluster ./internal/blockbuf ./internal/cache ./internal/dhtfs

echo "check: OK"
