GO ?= go

.PHONY: build test check lifecycle roundtrips lint figdiff bench-repo bench-micro fuzz-smoke fmt

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
# worker's combine state when a map task gives it back and its reduce
# state when a reduce task does; a reduce task of several partitions is
# lost, recovered and resumed whole; and jobs after a manager failover run
# on the elected node's own scheduler and driver, in process and over TCP
# (internal/nodecmd); a ring once shared is read while membership
# changes and never changes itself; a fold that fails on a pair races
# the sender goroutine's drain of the spills before it; and a disk shard's
# puts and deletes reuse the slab extents its readers have pinned; and an
# iterative run killed between or inside its iterations resumes to a
# straight run's state, bit for bit (internal/apps); and runs under one
# reuse tag publish, reuse and supersede each other's map phases while
# others reduce them, concurrently, and each still counts its own input;
# and the segment budget evicts finished namespaces while later runs
# reuse them, a holder that lost a namespace reading as short, never as
# empty.
# This is the one list: CI and scripts/check.sh run this target.
LIFECYCLE = MapTask|SelfHeal|LostPartition|Resume|Failover|AttemptStride|JournalPacing|BufferLifecycle|StaleLocalCopy|StaleVersionIsPassedOver|Trailerless|CombineStateReuse|ConcurrentMapTasksOnOneWorker|ReducerMayNotKeep|ReduceStateReuse|ReduceGroup|SharedRingNeverChanges|CombinerError|SlabReuse|ReuseTag|SegmentBudget
lifecycle:
	$(GO) test -race -count=5 -run '$(LIFECYCLE)' ./internal/apps ./internal/mapreduce ./internal/cluster ./internal/blockbuf ./internal/cache ./internal/dhtfs ./internal/nodecmd

# The counted cost of one operation per benchmark workload, five runs
# over under -race: every cell is exact (or a stated range) and must
# repeat. The rows, in internal/cluster/roundtrips_test.go:
# TestSmallJobRoundTrips (jobs_skewed), TestFsMixedRoundTrips (fs_mixed),
# TestKMeansIterationRoundTrips (iter_kmeans), TestSortShuffleRoundTrips
# (sort_shuffle) and TestReuseTagRoundTrips (a tagged word count); and
# the job journal's snapshot counts, one per flush point, in
# internal/mapreduce/journal_test.go: TestJournalPacingOneWave (open,
# reduce, done), TestJournalPacingBound (one per map wave but the last)
# and TestJournalPacingFollowsShape (map waves and a recovery round). This
# is the one list: CI and scripts/check.sh run this target.
roundtrips:
	$(GO) test -race -count=5 -run RoundTrips ./internal/cluster
	$(GO) test -race -count=5 -run JournalPacing ./internal/mapreduce

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
# ShuffleKey beside the SHA-1 it replaced for intermediate keys,
# BenchmarkSumBlock: a block writer's pass as BlockDigest beside the SHA-1
# it replaced for version names and the CRC-32C every copy is checked
# against), of the map/reduce kernels
# (BenchmarkMapEmit/{append,combine,combine-reused}: a
# map task's emit path per pair, on a fresh and on a worker's lent state;
# BenchmarkGroupStreams/{sort,wc,shared-prefix,hot-key,one-bucket}: a
# reduce partition ordered and walked, per pair, on a worker's lent
# state), of a cold block read through a full iCache
# (BenchmarkColdBlockRead: B/op is what it costs the collector), of the
# applications' map functions (k-means with and without a decoded split,
# grep, the line walk, the word-count tokenizer) and of sort's and word
# count's reducers (BenchmarkReduceFuncs: 0 allocs/op) and of one timed
# stage with tracing off and on (BenchmarkStage/{off,on}) compiled and run
# once, so none can rot. This is the one list: CI runs this target. For numbers,
# raise -benchtime.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/hashing ./internal/transport ./internal/dhtfs ./internal/mapreduce ./internal/apps ./internal/trace

# Short bursts of every native fuzz target. This is the one list: CI's
# fuzz-smoke job runs this target.
fuzz-smoke:
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzDecodeKVs -fuzztime=10s
# The reduce side's ordering kernel against the retained stable-sort
# reference. The seeds are long pair lists: cap minimization or it
# eats the burst.
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzGroupByKey -fuzztime=10s -fuzzminimizetime=10x
# The combining emitter against a reference built from the application's
# reducer alone: same spills, same first error.
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzCombineEmitter -fuzztime=10s
	$(GO) test ./internal/transport -run '^$$' -fuzz FuzzDecodeFrame -fuzztime=10s
# One FuzzWireDecode per package that owns messages (fs.*, mr.*); a
# type tag picks the compiled codec the bytes are parsed with.
	$(GO) test ./internal/dhtfs -run '^$$' -fuzz FuzzWireDecode -fuzztime=10s
# The disk store's metadata.log read back from arbitrary bytes; the
# committed seeds are whole logs and every damaged tail the unit
# tests write.
	$(GO) test ./internal/dhtfs -run '^$$' -fuzz FuzzMetaLogReplay -fuzztime=10s
# The disk store's blocks.slab opened from arbitrary bytes; the committed
# seeds are two records, a torn header and a record image in a payload.
# Each seed is several 4 KiB pages: cap minimization or it eats the burst.
	$(GO) test ./internal/dhtfs -run '^$$' -fuzz FuzzSlabOpen -fuzztime=10s -fuzzminimizetime=10x
	$(GO) test ./internal/mapreduce -run '^$$' -fuzz FuzzWireDecode -fuzztime=10s
	$(GO) test ./internal/kde -run '^$$' -fuzz FuzzPartitionCDF -fuzztime=10s
	$(GO) test ./internal/hashing -run '^$$' -fuzz FuzzRingLookupConsistency -fuzztime=10s
	$(GO) test ./internal/hashing -run '^$$' -fuzz FuzzRangeTableCoversSpace -fuzztime=10s
# The intermediate-key hash: string and []byte forms agree, no read
# past either end of the key.
	$(GO) test ./internal/hashing -run '^$$' -fuzz FuzzShuffleKey -fuzztime=10s
# The block digest against its byte-at-a-time reference; one flipped
# bit renames a block.
	$(GO) test ./internal/hashing -run '^$$' -fuzz FuzzBlockDigest -fuzztime=10s
# The in-place tokenizer against strings.Fields.
	$(GO) test ./internal/apps -run '^$$' -fuzz FuzzWordCountMap -fuzztime=10s

fmt:
	gofmt -l -w .
