// Package mapreduce implements EclipseMR's distributed MapReduce engine
// on top of the DHT file system and the distributed in-memory cache:
//
//   - Map tasks are placed by the pluggable job scheduler (LAF or Delay)
//     according to the hash keys of their input blocks, read their input
//     through iCache, and proactively shuffle intermediate results: each
//     mapper partitions its output by intermediate hash key, buffers it,
//     and pushes 32 MB spills to the reducer-side DHT file system while
//     the map is still running (§II-D).
//   - Reduce tasks are scheduled where the intermediate results were
//     stored (the partition's ring owner), so the shuffle needs no
//     map-completion barrier and no reducer-side pull.
//   - Applications may tag intermediate results or iteration outputs for
//     reuse; a later job with the same tag skips its map phase entirely
//     (§II-B, §II-C).
//
// Because tasks execute on remote workers, map and reduce functions are
// referenced by registered application name, as in Hadoop.
package mapreduce

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Params carries per-job application parameters (e.g. k-means centroids,
// a grep pattern) to every task.
type Params map[string][]byte

// Get returns a parameter as a string.
func (p Params) Get(key string) string { return string(p[key]) }

// Clone deep-copies the parameter set.
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

// Emit receives one intermediate or output key-value pair.
type Emit func(key string, value []byte) error

// MapFunc processes one input block. input is the worker's block buffer,
// shared with the iCache and with other tasks over the same block: it is
// read-only, and valid only until the function returns, when the worker
// gives up its reference and the buffer may be refilled with another
// block (DESIGN.md §15). Whatever must outlive the call is copied; emit
// copies the key and value it is handed.
type MapFunc func(params Params, input []byte, emit Emit) error

// DecodeFunc parses one input block into the application's in-memory
// split and reports the split's memory footprint in bytes. The worker
// keeps the split in its iCache next to the block's bytes, charged at
// size, and hands it to MapDecodedFunc in every later task over the same
// block until the LRU evicts it; then it is decoded again. So that a split
// can serve every job, iteration and concurrent task alike:
//
//   - Decode is pure: the split depends on the block's bytes alone. It
//     sees no Params; whatever a job's parameters constrain (a dimension,
//     a column count) is recorded in the split and checked by MapDecoded.
//   - The split does not alias block, which like a MapFunc's input is
//     read-only and valid only until Decode returns, and nobody writes to
//     the split once Decode has returned.
//   - size counts everything the split keeps alive.
type DecodeFunc func(block []byte) (split any, size int64, err error)

// MapDecodedFunc processes one decoded split; it must not modify it.
type MapDecodedFunc func(params Params, split any, emit Emit) error

// ReduceFunc processes all values of one intermediate key. It also serves
// as the optional combiner run over map-side buffers before spilling.
// values is the engine's scratch and the bytes behind it are the stored
// spills (or the emitter's buffer): both are read-only, and valid only
// until the function returns, when the slice is refilled for the next key.
// Whatever must outlive the call is copied; emit copies the key and value
// it is handed, and key is the function's to keep. Builds with -race
// overwrite values after each call, so a function that kept it reads
// 0xDB bytes at once.
type ReduceFunc func(params Params, key string, values [][]byte, emit Emit) error

// App is a registered MapReduce application. It has exactly one map path:
// Map over the block's bytes, or Decode plus MapDecoded for applications
// whose tasks spend their time parsing input that later jobs read again
// (iterative jobs above all). Neither Map nor Decode may write to its
// input or keep any part of it after returning.
type App struct {
	// Map processes the raw block. Required unless Decode and MapDecoded
	// are set.
	Map MapFunc
	// Decode and MapDecoded replace Map; set both or neither.
	Decode     DecodeFunc
	MapDecoded MapDecodedFunc
	// Reduce is required.
	Reduce ReduceFunc
	// Combine optionally pre-aggregates map output before each spill,
	// cutting shuffle volume (word count sums counts map-side, etc.). It
	// is called once per key per spill, with the key's values in emit
	// order; the keys of a spill come in no particular order (today the
	// order each was first emitted), so a combiner may not depend on
	// having seen a smaller key first. Reduce does see its partition's
	// keys in ascending order.
	Combine ReduceFunc
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]App)
)

// Register installs an application under a name. Registering the same
// name twice panics: application sets are program-level configuration and
// a silent overwrite would mask a deployment bug.
func Register(name string, app App) {
	if app.Reduce == nil {
		panic("mapreduce: Register " + name + ": Reduce is required")
	}
	if (app.Decode == nil) != (app.MapDecoded == nil) {
		panic("mapreduce: Register " + name + ": Decode and MapDecoded come as a pair")
	}
	if (app.Map == nil) == (app.Decode == nil) {
		panic("mapreduce: Register " + name + ": exactly one of Map and Decode+MapDecoded is required")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("mapreduce: Register called twice for " + name)
	}
	registry[name] = app
}

// lookupApp fetches a registered application.
func lookupApp(name string) (App, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	app, ok := registry[name]
	if !ok {
		return App{}, fmt.Errorf("mapreduce: application %q not registered", name)
	}
	return app, nil
}

// RegisteredApps lists registered application names, sorted.
func RegisteredApps() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// JobSpec describes one MapReduce job.
type JobSpec struct {
	// ID uniquely names the job run. Required.
	ID string
	// App is the registered application name. Required.
	App string
	// Inputs are DHT file system file names whose blocks become map
	// tasks. Required unless the job reuses tagged intermediates.
	Inputs []string
	// User is the requesting user, checked against file permissions.
	User string
	// Params are broadcast to every task.
	Params Params
	// SpillThreshold is the proactive-shuffle buffer size per reduce
	// partition; when a mapper's buffered output for a partition exceeds
	// it, the buffer is pushed to the reducer-side DHT file system. The
	// paper's experiments use 32 MB. Zero selects DefaultSpillThreshold.
	SpillThreshold int
	// ReuseTag, when set, namespaces the job's intermediate results so a
	// later job with the same tag (and App) can skip its map phase and
	// reuse them directly.
	ReuseTag string
	// CacheIntermediates caches merged partition input in oCache on the
	// reducer side so re-reduces over the same tag skip the file system.
	CacheIntermediates bool
	// CacheOutputs stores each reduce partition's output in the reduce
	// node's oCache (iteration outputs of iterative jobs, §II-C).
	CacheOutputs bool
	// IntermediateTTL bounds cached intermediate lifetime (the paper's
	// time-to-live on stored intermediate results). Zero means no TTL.
	IntermediateTTL time.Duration
	// MaxAttempts bounds per-task retries; zero selects 3.
	MaxAttempts int
	// ReplicateIntermediates pushes every shuffle spill to the partition
	// owner's ring successor as well, so a reduce task can still assemble
	// its complete input when the owner crashes mid-job. The paper leaves
	// intermediates unreplicated (lost spills force map re-execution);
	// this opt-in trades shuffle bandwidth for crash tolerance.
	ReplicateIntermediates bool
	// SpeculativeMultiple, when > 0, hedges a duplicate execution of any
	// map task whose RPC has been running longer than this multiple of
	// the job-wide p99 map latency observed so far (straggler detection
	// from the live histogram). Zero disables latency-relative
	// speculation.
	SpeculativeMultiple float64
	// SpeculativeDeadline, when > 0, hedges a duplicate execution of any
	// map task that has been running at least this long, regardless of
	// the latency histogram. Zero disables the hard deadline.
	SpeculativeDeadline time.Duration
	// DisableJournal skips the durable job journal. Without a journal an
	// interrupted job cannot be resumed by a restarted or newly elected
	// manager; completed work is lost with the driver.
	DisableJournal bool
}

// DefaultSpillThreshold matches the paper's 32 MB payload buffer.
const DefaultSpillThreshold = 32 << 20

// Namespace returns the segment namespace: the reuse tag when sharing is
// requested, otherwise the private job ID.
func (s JobSpec) Namespace() string {
	if s.ReuseTag != "" {
		return "tag:" + s.ReuseTag
	}
	return "job:" + s.ID
}

// speculative reports whether the spec enables straggler hedging.
func (s JobSpec) speculative() bool {
	return s.SpeculativeMultiple > 0 || s.SpeculativeDeadline > 0
}

// maxAttempts returns the per-task retry bound with the default applied.
func (s JobSpec) maxAttempts() int {
	if s.MaxAttempts <= 0 {
		return 3
	}
	return s.MaxAttempts
}

// validate checks required fields.
func (s JobSpec) validate() error {
	if s.ID == "" {
		return fmt.Errorf("mapreduce: job ID is required")
	}
	if s.App == "" {
		return fmt.Errorf("mapreduce: job %s: application name is required", s.ID)
	}
	if _, err := lookupApp(s.App); err != nil {
		return err
	}
	if len(s.Inputs) == 0 {
		return fmt.Errorf("mapreduce: job %s: at least one input file is required", s.ID)
	}
	return nil
}

// Result summarizes a completed job.
type Result struct {
	Job string
	// OutputFiles lists the DHT file system files holding reduce output,
	// one per non-empty partition.
	OutputFiles []string
	// MapTasks / ReduceTasks are the executed task counts (zero map tasks
	// means the job reused tagged intermediates).
	MapTasks    int
	ReduceTasks int
	// MapsSkipped reports that the map phase was skipped via reuse.
	MapsSkipped bool
	// Resumed reports the run was adopted from a durable journal rather
	// than started fresh; MapTasks/ReduceTasks then count only the work
	// this driver re-executed.
	Resumed bool
	// RecoveredPartitions counts reduce partitions whose intermediates
	// were lost with their owner and rebuilt by re-executing the
	// contributing map tasks on surviving nodes (zero on a fault-free
	// run).
	RecoveredPartitions int
	// CacheHits / CacheMisses aggregate worker-side iCache+oCache
	// counters attributable to this job's block reads.
	CacheHits   int64
	CacheMisses int64
	// ShuffleBytes is the total intermediate data pushed by mappers.
	ShuffleBytes int64
	// Elapsed is the wall-clock job time observed by the driver.
	Elapsed time.Duration
}
