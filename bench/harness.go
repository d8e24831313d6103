package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/cluster"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

const (
	// The deployed shape of eclipse-node the issue fixes: four nodes, two
	// map and two reduce slots each, every RPC over loopback TCP behind
	// the retry layer.
	clusterNodes = 4
	taskSlots    = 2
	rpcTimeout   = 30 * time.Second
	// An operation slower than this is failed and gives no latency sample.
	opTimeout = 60 * time.Second
	benchUser = "bench"
	// Span-ring capacity per node for the traced half: large enough that
	// no span of a run is overwritten before collection.
	tracedRingCapacity = 1 << 20
)

// span names of the runner's own spans, one per facade call kind.
const (
	spanBoot     = "cluster.boot"
	spanUpload   = "cluster.upload"
	spanRun      = "cluster.run"
	spanCollect  = "cluster.collect"
	spanReadFile = "cluster.readfile"
	spanCleanup  = "cluster.cleanup"
	spanClose    = "cluster.close"
)

// runnerSpan is one span the runner recorded around a facade call.
type runnerSpan struct {
	id         trace.SpanID
	name       string
	start, end time.Time
}

// runnerNode is the "node" the runner's spans carry in the exported trace.
const runnerNode = "runner"

// recorder accumulates the runner's spans: durations per name always, the
// spans themselves only when keep is set (the traced half).
type recorder struct {
	mu      sync.Mutex
	keep    bool
	ids     atomic.Uint64
	samples map[string][]time.Duration
	spans   []runnerSpan
	// uploaded is the user bytes handed to Upload/UploadRecords.
	uploaded atomic.Int64
}

func newRecorder() *recorder {
	return &recorder{samples: make(map[string][]time.Duration)}
}

// span starts a runner span; the returned function ends it and returns
// its duration. In the traced half the returned context names the span as
// the remote parent of whatever the engine records below the call, so
// engine spans of calls the engine does not root itself (the file-system
// calls) hang under the runner's span in the collected trace.
func (r *recorder) span(ctx context.Context, name string) (context.Context, func() time.Duration) {
	var id trace.SpanID
	if r.keep {
		// The top bit keeps runner IDs apart from the engine's
		// (node hash | counter).
		id = trace.SpanID(1<<63 | r.ids.Add(1))
		ctx = trace.WithRemote(ctx, trace.SpanContext{Trace: runnerNode, Parent: id})
	}
	start := time.Now()
	return ctx, func() time.Duration {
		end := time.Now()
		d := end.Sub(start)
		r.mu.Lock()
		r.samples[name] = append(r.samples[name], d)
		if r.keep {
			r.spans = append(r.spans, runnerSpan{id: id, name: name, start: start, end: end})
		}
		r.mu.Unlock()
		return d
	}
}

// seconds is the total time spent under the named span.
func (r *recorder) seconds(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total time.Duration
	for _, d := range r.samples[name] {
		total += d
	}
	return total.Seconds()
}

// kept returns the spans recorded while keep was set.
func (r *recorder) kept() []runnerSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]runnerSpan(nil), r.spans...)
}

// p50 returns the median duration of the named span, 0 with no samples.
func (r *recorder) p50(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	return median(r.samples[name])
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := slices.Clone(ds)
	slices.Sort(sorted)
	return sorted[len(sorted)/2]
}

// harness is one booted cluster plus the runner's instrumentation around
// it. Workloads reach the engine only through its methods, each of which
// is one call into the public cluster.Cluster facade under a runner span.
type harness struct {
	c   *cluster.Cluster
	rec *recorder
	// dataDir is the cluster's DataDir ("" = memory store); removed on close.
	dataDir string
}

// clusterShape is what a workload asks of the cluster it runs on.
type clusterShape struct {
	cacheBytes int64 // per node; 0 = the engine default
	blockSize  int
	disk       bool // DataDir on a temp dir instead of the memory store
	// lafWindow is the LAF scheduler's KDE window in tasks; 0 keeps the
	// engine default (1024). LAF re-cuts its hash-key ranges when the
	// first window completes and, at the default alpha, barely moves them
	// afterwards. A workload sets the window to the tasks of its warm-up,
	// so that one regime change falls in set-up and the measured phase
	// runs on settled ranges instead of straddling it.
	lafWindow int
}

// boot starts the 4-node loopback-TCP cluster. Everything it writes stays
// under outDir.
func boot(ctx context.Context, rec *recorder, shape clusterShape, outDir string, traced bool) (*harness, error) {
	_, end := rec.span(ctx, spanBoot)
	defer end()
	h := &harness{rec: rec}
	cfg := cluster.Config{
		MapSlots:    taskSlots,
		ReduceSlots: taskSlots,
		CacheBytes:  shape.cacheBytes,
		BlockSize:   shape.blockSize,
		// Failure detection is not under test; on two cores a saturated
		// run must never evict a live node.
		HeartbeatInterval: 500 * time.Millisecond,
		HeartbeatTimeout:  20 * time.Second,
	}
	if traced {
		cfg.Trace = trace.Options{Capacity: tracedRingCapacity}
	}
	if shape.disk {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(outDir, "data-")
		if err != nil {
			return nil, err
		}
		h.dataDir = dir
		cfg.DataDir = dir
	}
	ids := make([]hashing.NodeID, clusterNodes)
	registry := make(map[hashing.NodeID]string, clusterNodes)
	for i := range ids {
		ids[i] = hashing.NodeID(fmt.Sprintf("worker-%02d", i))
		registry[ids[i]] = "127.0.0.1:0"
	}
	laf := scheduler.DefaultLAFConfig()
	if shape.lafWindow > 0 {
		laf.KDE.Window = shape.lafWindow
	}
	c, err := cluster.NewWithNodes(ids, cluster.Options{
		Config:  cfg,
		LAF:     laf,
		Network: transport.NewTCP(registry, rpcTimeout),
	})
	if err != nil {
		h.removeData()
		return nil, err
	}
	h.c = c
	return h, nil
}

func (h *harness) removeData() {
	if h.dataDir != "" {
		// Best effort: a leftover temp dir under out/ is ignored by git
		// and harmless to the next run.
		_ = os.RemoveAll(h.dataDir)
	}
}

// close stops the cluster (every node, listener and connection) and
// removes its data directory.
func (h *harness) close(ctx context.Context) {
	_, end := h.rec.span(ctx, spanClose)
	h.c.Close()
	end()
	h.removeData()
}

func (h *harness) uploadRecords(ctx context.Context, name string, data []byte) error {
	ctx, end := h.rec.span(ctx, spanUpload)
	defer end()
	h.rec.uploaded.Add(int64(len(data)))
	_, err := h.c.UploadRecordsContext(ctx, name, benchUser, dhtfs.PermPublic, data, '\n')
	return err
}

func (h *harness) upload(ctx context.Context, name string, data []byte) (time.Duration, error) {
	ctx, end := h.rec.span(ctx, spanUpload)
	h.rec.uploaded.Add(int64(len(data)))
	_, err := h.c.UploadContext(ctx, name, benchUser, dhtfs.PermPublic, data)
	return end(), err
}

func (h *harness) readFile(ctx context.Context, name string) ([]byte, time.Duration, error) {
	ctx, end := h.rec.span(ctx, spanReadFile)
	data, err := h.c.ReadFileContext(ctx, name, benchUser)
	return data, end(), err
}

func (h *harness) deleteFile(ctx context.Context, name string) (time.Duration, error) {
	ctx, end := h.rec.span(ctx, spanCleanup)
	err := h.c.DeleteFileContext(ctx, name, benchUser)
	return end(), err
}

func (h *harness) runJob(ctx context.Context, spec mapreduce.JobSpec) (mapreduce.Result, error) {
	ctx, end := h.rec.span(ctx, spanRun)
	defer end()
	return h.c.RunContext(ctx, spec)
}

func (h *harness) collect(ctx context.Context, res mapreduce.Result) ([]mapreduce.KV, error) {
	ctx, end := h.rec.span(ctx, spanCollect)
	defer end()
	return h.c.CollectContext(ctx, res, benchUser)
}

// cleanup drops a finished job's shuffle data and journal and deletes its
// output files, so memory does not grow with the number of jobs run.
func (h *harness) cleanup(ctx context.Context, spec mapreduce.JobSpec, res mapreduce.Result) error {
	ctx, end := h.rec.span(ctx, spanCleanup)
	defer end()
	h.c.DropIntermediates(spec)
	for _, f := range res.OutputFiles {
		if err := h.c.DeleteFileContext(ctx, f, benchUser); err != nil {
			return fmt.Errorf("delete output %s: %w", f, err)
		}
	}
	return nil
}

// counters is one reading of everything the per-layer deltas come from.
type counters struct {
	at    time.Time
	snap  metrics.Snapshot
	sched scheduler.Stats
	cache cache.Stats
	mem   runtime.MemStats
	cpu   time.Duration
}

func (h *harness) sample() counters {
	var s counters
	s.snap = h.c.MetricsSnapshot()
	s.sched = h.c.Scheduler().Stats()
	s.cache = h.c.CacheStats()
	runtime.ReadMemStats(&s.mem)
	s.cpu = processCPU()
	s.at = time.Now()
	return s
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size (ru_maxrss is KiB on
// Linux).
func peakRSSMiB() float64 { return float64(rusage().Maxrss) / 1024 }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}
