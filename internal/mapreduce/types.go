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
//     map-completion barrier and no reducer-side pull. Consecutive
//     partitions of a few KB reduce together, at the owner of the
//     largest, into one output file.
//   - A job may publish its intermediate results under a reuse tag; a
//     later job with the same tag and the same signature (application,
//     parameters and input digests) skips its map phase entirely (§II-B,
//     §II-C).
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

// Emit receives one intermediate or output key-value pair. Every Emit the
// engine hands a function copies key and value before it returns, so a
// function may emit bytes it reuses or shares, read-only, across calls (a
// table of constant values, say) and allocate nothing per pair.
type Emit func(key string, value []byte) error

// MapFunc processes one input block. input is the worker's block buffer,
// shared with the iCache and with other tasks over the same block: it is
// read-only, and valid only until the function returns, when the worker
// gives up its reference and the buffer may be refilled with another
// block (DESIGN.md §14). Whatever must outlive the call is copied; emit
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

// ReduceFunc processes all values of one intermediate key. It gets a
// key's values ordered by map task ID (byte order), then by the task's
// spill sequence, then in emit order within a spill, on every run of the
// job, with or without faults: a reducer that sums floating-point values
// writes the same bits each time. values is the engine's scratch and the
// bytes behind it are the worker's copy of the partition's spills: both
// are read-only, and valid only until the function returns, when the
// slice is refilled for the next key. Whatever must outlive the call is
// copied; emit copies the key and value it is handed, so a function may
// emit shared, read-only bytes (a value of its own table, one of values),
// and key is the function's to keep. Builds with -race overwrite values
// after each call, and the bytes behind them when the task ends, so a
// function that kept either reads 0xDB bytes at once.
type ReduceFunc func(params Params, key string, values [][]byte, emit Emit) error

// Combiner pre-aggregates a map task's output as it is emitted, cutting
// shuffle volume (word count sums counts map-side, etc.): each value is
// folded into its key's accumulator at once, and a spill carries one pair
// per key, the value the accumulator stands for. For a partition's keys
// between two spills the engine calls Start once per key, on the key's
// first value, then Add for each further value in emit order, then Value
// once when the partition spills; the next spill starts over. The keys of
// a spill come in no particular order (today the order each was first
// emitted), so a combiner may not depend on having seen a smaller key
// first. Reduce does see its partition's keys in ascending order, and
// must accept what Value makes as one of its values.
//
// An accumulator is bytes in the engine's arena, so the collector never
// scans it: Start appends it to dst and returns the result, Add rewrites
// it in place, keeping its length, and Value only reads it. acc, dst's
// bytes and value are valid only during the call, and none of the three
// functions may keep them; builds with -race overwrite the accumulators
// when their spill is made. An error from Start or Add fails the map task
// (the first one, for good: every later emit returns it).
type Combiner struct {
	// Start appends the accumulator of key's first value to dst.
	Start func(params Params, key string, dst, value []byte) ([]byte, error)
	// Add folds a further value into acc.
	Add func(params Params, key string, acc, value []byte) error
	// Value appends the value the spill carries for key to dst.
	Value func(params Params, key string, dst, acc []byte) []byte
}

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
	// Combine optionally pre-aggregates map output before each spill;
	// set all three of its functions.
	Combine *Combiner
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
	if c := app.Combine; c != nil && (c.Start == nil || c.Add == nil || c.Value == nil) {
		panic("mapreduce: Register " + name + ": a Combiner needs Start, Add and Value")
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
	// tasks. Required.
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
	// ReuseTag, when set, publishes the job's intermediate results under
	// the tag once its reduce phase is done. A later job with the same
	// tag whose maps would push the same spills (same App, Params,
	// SpillThreshold and input blocks) skips its map phase and reduces
	// them instead.
	ReuseTag string
	// MaxAttempts bounds per-task retries; zero selects 3.
	MaxAttempts int
	// DisableJournal skips the durable job journal. Without a journal an
	// interrupted job cannot be resumed by a restarted or newly elected
	// manager; completed work is lost with the driver.
	DisableJournal bool
}

// DefaultSpillThreshold matches the paper's 32 MB payload buffer.
const DefaultSpillThreshold = 32 << 20

// Namespace returns the namespace the job's maps push their spills into.
func (s JobSpec) Namespace() string { return "job:" + s.ID }

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
	// one per reduce task that wrote any, sorted, which is partition
	// order. A reduce task reduces one partition, or several consecutive
	// small ones (DESIGN.md §10) into one key-sorted file named after its
	// first partition.
	OutputFiles []string
	// MapTasks / ReduceTasks are the executed task counts (zero map tasks
	// when the job reduced a published namespace); ReduceTasks counts the
	// reduce tasks run, not the partitions they covered.
	MapTasks    int
	ReduceTasks int
	// MapsSkipped reports that the map phase was skipped: the job reduced
	// a published namespace, or its journal recorded the maps done.
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
	// CacheHits / CacheMisses count the map tasks whose input the
	// worker's iCache did or did not serve (the block's bytes or its
	// decoded split): map-side iCache hits only.
	CacheHits   int64
	CacheMisses int64
	// ShuffleBytes is the total intermediate data pushed by mappers.
	ShuffleBytes int64
	// Elapsed is the wall-clock job time observed by the driver.
	Elapsed time.Duration
}
