GO ?= go

.PHONY: build test check lint bench-repo bench-micro fuzz-smoke fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector gate over the whole suite (vet + lint + build + go test
# -race), then the map-task and block-buffer lifecycle suites five times
# over under -race.
check:
	./scripts/check.sh

# Project invariants (ring comparisons, RPC-under-mutex, metric names,
# sim determinism, dropped I/O errors) plus gofmt cleanliness. CI runs
# the same; see EXPERIMENTS.md for reading and suppressing findings.
lint:
	./scripts/lint.sh

# The repository benchmark (BENCHMARK.json, bench/README.md): one workload
# on the real 4-node TCP cluster for the length the driver uses. Prints the
# six end-to-end metrics.
WORKLOAD ?= wc_warm
bench-repo:
	bash bench/run.sh --workload $(WORKLOAD) --seconds 10

# Every micro-benchmark of the RPC plane (codecs against their gob
# reference, TCP round trips, a small file's life in dhtfs with its
# RPCs/op, metadata churn on a disk store by resident files, Key.String,
# ShuffleKey beside the SHA-1 it replaced for intermediate keys), of the
# map/reduce kernels (BenchmarkMapEmit/{append,combine}: a map task's emit
# path per pair; BenchmarkGroupStreams/{sort,wc,shared-prefix,hot-key}: a
# reduce partition ordered and walked, per pair), of a cold block read
# through a full iCache
# (BenchmarkColdBlockRead: B/op is what it costs the collector) and of the
# applications' map functions (k-means with and without a decoded split,
# grep, the line walk, the word-count tokenizer) compiled and run once, so
# none can rot; CI runs the same. For numbers, raise -benchtime.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/hashing ./internal/transport ./internal/dhtfs ./internal/mapreduce ./internal/apps

# Short bursts of every native fuzz target. This is the one list: CI's
# fuzz-smoke job runs this target.
fuzz-smoke:
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzDecodeKVs -fuzztime=10s
# The reduce side's ordering kernel against the retained stable-sort
# reference. The seeds are long pair lists: cap minimization or it
# eats the burst.
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzGroupByKey -fuzztime=10s -fuzzminimizetime=10x
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzDecodeFrame -fuzztime=10s
# One FuzzWireDecode per package that owns messages (fs.*, mr.*); a
# type tag picks the compiled codec the bytes are parsed with.
	$(GO) test ./internal/dhtfs -run '^$$' -fuzz FuzzWireDecode -fuzztime=10s
# The disk store's metadata.log read back from arbitrary bytes; the
# committed seeds are whole logs and every damaged tail the unit
# tests write.
	$(GO) test ./internal/dhtfs -run '^$$' -fuzz FuzzMetaLogReplay -fuzztime=10s
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzWireDecode -fuzztime=10s
	$(GO) test ./internal/kde -run '^$$' -fuzz FuzzPartitionCDF -fuzztime=10s
	$(GO) test ./internal/hashing -run '^$$' -fuzz FuzzRingLookupConsistency -fuzztime=10s
	$(GO) test ./internal/hashing -run '^$$' -fuzz FuzzRangeTableCoversSpace -fuzztime=10s
# The intermediate-key hash: string and []byte forms agree, no read
# past either end of the key.
	$(GO) test ./internal/hashing -run '^$$' -fuzz FuzzShuffleKey -fuzztime=10s
# The in-place tokenizer against strings.Fields.
	$(GO) test ./internal/apps -run '^$$' -fuzz FuzzWordCountMap -fuzztime=10s

fmt:
	gofmt -l -w .
