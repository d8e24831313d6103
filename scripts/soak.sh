#!/bin/sh
# Nightly chaos soak: the full-size (non -short) fault-injection and
# recovery suites under the race detector — elevated drop rates, worker
# and manager crashes, journal adoption, straggler hedging — with the
# verbose log and a schema-checked trace.json kept as CI artifacts.
#
# The chaos layer logs every injected fault as (seed, link, n), so a
# failing night is replayable from soak.log alone: re-run the named test
# with the same seed and the identical schedule fires (EXPERIMENTS.md,
# "Chaos harness").
#
# Usage:
#   scripts/soak.sh [out-dir]       # default out-dir: soak-out
set -eu

cd "$(dirname "$0")/.."

out="${1:-soak-out}"
mkdir -p "$out"
SOAK_DIR="$(cd "$out" && pwd)"

# Arm the flight recorder for every cluster the suites build: a job
# failure or recovery inside any test auto-captures a debug bundle
# (events + metrics + spans + journal + membership) into bundles/, so a
# red night ships the incident state alongside the log. Filenames are
# deterministic per (job, reason) — re-captures overwrite with the
# latest incident, they never pile up.
ECLIPSE_BUNDLE_DIR="$SOAK_DIR/bundles"
export ECLIPSE_BUNDLE_DIR
mkdir -p "$ECLIPSE_BUNDLE_DIR"

# Full-size recovery/chaos/churn suites, verbose and race-enabled.
# -count=1 defeats the test cache: a soak that replays yesterday's
# cached pass soaks nothing. The status file preserves go test's exit
# code through the tee pipe (POSIX sh has no pipefail).
{
	go test -race -count=1 -v -timeout 30m \
		-run 'Chaos|Recovery|Resume|Orphan|Speculative|Suspect|ReReplicate|Churn|Journal|Partition|AttemptStride|ListPrefix|Replicat|Fail' \
		./internal/cluster ./internal/mapreduce ./internal/dhtfs ./internal/transport
	echo $? >"$SOAK_DIR/.status"
} 2>&1 | tee "$SOAK_DIR/soak.log" || true
[ "$(cat "$SOAK_DIR/.status" 2>/dev/null || echo 1)" -eq 0 ]
rm -f "$SOAK_DIR/.status"

# The lint suite itself under the race detector: the lockorder fixpoint,
# the loader's shared maps and the analyzer drivers are all exercised
# concurrently by the golden tests, and a data race in the gate would
# make its verdicts untrustworthy.
go test -race -count=1 ./internal/lint

# Every bundle the recorder captured during the soak — recovery
# captures fire on green nights too — must satisfy the schema
# cmd/bundlecheck enforces; a malformed capture is a bug in the
# recorder, not in whoever opens the bundle later.
if ls "$ECLIPSE_BUNDLE_DIR"/*.json >/dev/null 2>&1; then
	go run ./cmd/bundlecheck "$ECLIPSE_BUNDLE_DIR"/*.json
fi

# A traced run of the repository benchmark's smallest workload for the
# artifact (load it in Perfetto), re-validated on disk so the nightly
# also notices a broken export path.
bash bench/run.sh --workload wc_warm --trace 1 --short
go run ./cmd/tracecheck bench/out/trace-wc_warm.json
cp bench/out/trace-wc_warm.json "$SOAK_DIR/trace.json"

echo "soak: artifacts in $SOAK_DIR"
ls -l "$SOAK_DIR"
