GO ?= go

.PHONY: build test check lifecycle lint figdiff bench-repo bench-micro fuzz-smoke fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector gate over the whole suite (vet + lint + build + go test
# -race), then `make lifecycle`.
check:
	./scripts/check.sh

# The map-task and block-buffer lifecycle suites, and the block-version
# regressions, five schedules over under -race. Retries, failover,
# recovery and resume all go through one per-task state machine
# whose risks are schedule-dependent, and a block buffer released too
# early is overwritten only in race builds (internal/blockbuf), as is a
# worker's combine state when a map task gives it back. This is the one
# list: CI and scripts/check.sh run this target.
LIFECYCLE = MapTask|SelfHeal|LostPartition|Resume|Failover|AttemptStride|JournalPacing|BufferLifecycle|StaleLocalCopy|StaleVersionIsPassedOver|Trailerless|CombineStateReuse|ConcurrentMapTasksOnOneWorker|ReducerMayNotKeep
lifecycle:
	$(GO) test -race -count=5 -run '$(LIFECYCLE)' ./internal/mapreduce ./internal/cluster ./internal/blockbuf ./internal/cache ./internal/dhtfs

# Project invariants (ring comparisons, RPC-under-mutex, metric names,
# sim determinism, dropped I/O errors) plus gofmt cleanliness. CI runs
# the same; see EXPERIMENTS.md for reading and suppressing findings.
lint:
	./scripts/lint.sh

# The figure oracle: eclipse-bench -csv at BASE (a git rev) and at HEAD
# must print and write the same bytes. A change that keeps the model's
# behaviour runs it as `make figdiff BASE=<its parent>`.
figdiff:
	./scripts/figdiff.sh $(BASE)

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
# map/reduce kernels (BenchmarkMapEmit/{append,combine,combine-reused}: a
# map task's emit path per pair, on a fresh and on a worker's lent state;
# BenchmarkGroupStreams/{sort,wc,shared-prefix,hot-key}: a reduce
# partition ordered and walked, per pair), of a cold block read
# through a full iCache
# (BenchmarkColdBlockRead: B/op is what it costs the collector) and of the
# applications' map functions (k-means with and without a decoded split,
# grep, the line walk, the word-count tokenizer) compiled and run once, so
# none can rot. This is the one list: CI runs this target. For numbers,
# raise -benchtime.
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
