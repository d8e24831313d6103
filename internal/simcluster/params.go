// Package simcluster models the performance of EclipseMR, Hadoop and
// Spark on the paper's testbed using the discrete-event substrate in
// internal/sim, re-using the *real* scheduler implementations (LAF,
// Delay, Fair) and the real LRU cache for placement decisions. It exists
// to regenerate the shape of every figure in §III at the paper's nominal
// scale (250 GB inputs, 40 nodes) deterministically and in milliseconds.
//
// The Hadoop and Spark comparators are cost models calibrated from the
// overheads the paper itself identifies: Hadoop's central NameNode, the
// ~7 s YARN container initialization per task ([16], [17]), its
// disk-based post-map pull shuffle; Spark's 5 s delay scheduling, RDD
// construction on the first iteration, JVM compute penalty relative to
// the C++ EclipseMR implementation, and its policy of keeping iteration
// outputs in memory rather than persisting them.
package simcluster

import (
	"fmt"

	"eclipsemr/internal/hashing"
)

// Params describes the simulated testbed. Defaults mirror §III: 40 nodes
// (two 20-node racks joined by a third switch), dual quad-core servers
// with 8 map + 8 reduce slots, one 7200 rpm data disk, 1 GbE NICs.
// Placement is the Chord ring with the nodes at jittered even positions
// (see NewModel).
type Params struct {
	Nodes    int
	RackSize int
	// MapSlots / ReduceSlots per node.
	MapSlots    int
	ReduceSlots int
	// DiskBandwidth (bytes/s) and DiskSeek (s) model the single data HDD.
	DiskBandwidth float64
	DiskSeek      float64
	// NICBandwidth is each server's link speed; UplinkBandwidth is the
	// shared inter-switch link.
	NICBandwidth    float64
	UplinkBandwidth float64
	// MemoryBandwidth serves in-memory cache reads.
	MemoryBandwidth float64
	// CachePerNode is the distributed in-memory cache per server (iCache
	// + oCache combined, as the paper configures it).
	CachePerNode int64
	// BlockSize is the DHT-FS / HDFS block size.
	BlockSize int64
	// Replicas is the file system replication factor.
	Replicas int
}

// DefaultParams returns the paper's testbed.
func DefaultParams() Params {
	return Params{
		Nodes:           40,
		RackSize:        20,
		MapSlots:        8,
		ReduceSlots:     8,
		DiskBandwidth:   100e6,
		DiskSeek:        8e-3,
		NICBandwidth:    125e6, // 1 Gb/s
		UplinkBandwidth: 125e6,
		MemoryBandwidth: 2e9,
		CachePerNode:    1 << 30, // 1 GB, the common experimental setting
		BlockSize:       128 << 20,
		Replicas:        3,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.Nodes <= 0 {
		p.Nodes = d.Nodes
	}
	if p.RackSize <= 0 {
		p.RackSize = d.RackSize
	}
	if p.MapSlots <= 0 {
		p.MapSlots = d.MapSlots
	}
	if p.ReduceSlots <= 0 {
		p.ReduceSlots = d.ReduceSlots
	}
	if p.DiskBandwidth <= 0 {
		p.DiskBandwidth = d.DiskBandwidth
	}
	if p.DiskSeek <= 0 {
		p.DiskSeek = d.DiskSeek
	}
	if p.NICBandwidth <= 0 {
		p.NICBandwidth = d.NICBandwidth
	}
	if p.UplinkBandwidth <= 0 {
		p.UplinkBandwidth = d.UplinkBandwidth
	}
	if p.MemoryBandwidth <= 0 {
		p.MemoryBandwidth = d.MemoryBandwidth
	}
	if p.CachePerNode <= 0 {
		p.CachePerNode = d.CachePerNode
	}
	if p.BlockSize <= 0 {
		p.BlockSize = d.BlockSize
	}
	if p.Replicas <= 0 {
		p.Replicas = d.Replicas
	}
	return p
}

// AppProfile captures an application's cost coefficients, calibrated so
// the relative behaviour across apps matches §III (sort is shuffle-bound,
// k-means and logistic regression are compute-bound with tiny shuffles,
// page rank produces iteration outputs as large as its input, ...).
type AppProfile struct {
	Name string
	// MapCost / ReduceCost are CPU seconds per input/shuffle byte.
	MapCost    float64
	ReduceCost float64
	// ShuffleRatio is intermediate bytes per input byte (after the
	// combiner, where the app has one).
	ShuffleRatio float64
	// OutputRatio is reduce-output bytes per input byte.
	OutputRatio float64
	// IterOutputRatio is the per-iteration output size relative to the
	// input (k-means ≈ 0, page rank ≈ 1). Only meaningful for iterative
	// apps.
	IterOutputRatio float64
	// Iterative marks apps whose driver re-reads the same input every
	// iteration.
	Iterative bool
}

// Application profiles. Costs are per byte; with 128 MB blocks a map task
// reads for 1.3 s, so MapCost=10e-9 means ~1.3 s of compute per block.
var (
	ProfileWordCount = AppProfile{
		Name: "wordcount", MapCost: 9e-9, ReduceCost: 6e-9,
		ShuffleRatio: 0.05, OutputRatio: 0.02,
	}
	ProfileGrep = AppProfile{
		Name: "grep", MapCost: 3e-9, ReduceCost: 4e-9,
		ShuffleRatio: 0.002, OutputRatio: 0.002,
	}
	ProfileInvertedIndex = AppProfile{
		Name: "invertedindex", MapCost: 11e-9, ReduceCost: 8e-9,
		ShuffleRatio: 0.30, OutputRatio: 0.20,
	}
	ProfileSort = AppProfile{
		Name: "sort", MapCost: 2e-9, ReduceCost: 4e-9,
		ShuffleRatio: 1.0, OutputRatio: 1.0,
	}
	ProfileKMeans = AppProfile{
		Name: "kmeans", MapCost: 150e-9, ReduceCost: 5e-9,
		ShuffleRatio: 1e-7, OutputRatio: 1e-7, IterOutputRatio: 1e-7,
		Iterative: true,
	}
	ProfilePageRank = AppProfile{
		Name: "pagerank", MapCost: 25e-9, ReduceCost: 10e-9,
		ShuffleRatio: 1.0, OutputRatio: 1.0, IterOutputRatio: 1.0,
		Iterative: true,
	}
	ProfileLogReg = AppProfile{
		Name: "logreg", MapCost: 120e-9, ReduceCost: 5e-9,
		ShuffleRatio: 1e-7, OutputRatio: 1e-7, IterOutputRatio: 1e-7,
		Iterative: true,
	}
)

// FrameworkParams captures the per-framework overheads the models apply.
type FrameworkParams struct {
	// TaskOverhead is fixed per-task slot occupancy beyond IO and compute
	// (container/executor bookkeeping).
	TaskOverhead float64
	// JobOverhead is fixed per-job startup cost.
	JobOverhead float64
	// NameNodeLookup is the service time of one central-directory lookup
	// (zero for the decentralized DHT file system).
	NameNodeLookup float64
	// ComputeFactor scales app CPU costs (JVM vs the C++ EclipseMR).
	ComputeFactor float64
	// IOByteCost is extra CPU per input byte for record deserialization
	// and JVM object construction (zero for the C++ prototype).
	IOByteCost float64
	// ShuffleByteCost is CPU per shuffle byte for serialization, charged
	// on both the map and reduce side (Spark's sort-based shuffle; the
	// paper confirms Spark still loses sort at version 1.6).
	ShuffleByteCost float64
	// SerialLaunch > 0 serializes task launches per node through that
	// many launcher slots: YARN's NodeManager starts containers one or
	// two at a time, which is why "Hadoop spends 7 seconds for every
	// 128 MB block" instead of hiding the cost behind its 8 task slots.
	SerialLaunch int
	// DoubleSpill makes mappers write their shuffle output to local disk
	// twice (spill + merge pass of a sort-based shuffle).
	DoubleSpill bool
}

// Framework overheads. EclipseMR is a lightweight C++ prototype; Hadoop
// pays ~7 s of YARN container initialization per task ([16],[17]) plus
// NameNode lookups; Spark launches executors once per job, pays small
// per-task overheads, a central cache/driver round trip per task, and a
// JVM compute penalty (the paper credits EclipseMR's faster C++ k-means /
// logistic regression implementations).
var (
	EclipseOverheads = FrameworkParams{
		TaskOverhead: 0.05, JobOverhead: 0.5, NameNodeLookup: 0, ComputeFactor: 1.0,
		IOByteCost: 0,
	}
	HadoopOverheads = FrameworkParams{
		TaskOverhead: 7.0, JobOverhead: 10, NameNodeLookup: 1.5e-3, ComputeFactor: 2.0,
		IOByteCost: 5e-9, ShuffleByteCost: 4e-9, SerialLaunch: 1,
	}
	// Spark's per-task overhead is calibrated high (JVM task launch, GC
	// pressure and the task instability the paper observed) so that, as
	// in §III-E, Spark trails Hadoop slightly on non-iterative ETL jobs
	// while its RDD caching still wins iterative ones against Hadoop.
	// Spark's per-byte IO cost models JVM record deserialization and GC
	// pressure; it is charged only when input comes from storage — a
	// cached RDD partition is already deserialized objects, which is
	// precisely why Spark's later iterations are fast.
	SparkOverheads = FrameworkParams{
		TaskOverhead: 1.0, JobOverhead: 4, NameNodeLookup: 1.0e-3, ComputeFactor: 2.5,
		IOByteCost: 90e-9, ShuffleByteCost: 24e-9, DoubleSpill: true,
	}
)

// JobDesc describes one simulated job submission.
type JobDesc struct {
	Name string
	App  AppProfile
	// InputBytes is the dataset size; blocks are InputBytes/BlockSize.
	InputBytes int64
	// BlockKeys optionally fixes the input blocks' hash keys (Figure 7's
	// skewed workloads); when nil, keys are uniform from the seed.
	BlockKeys []hashing.Key
	// Iterations > 1 runs an iterative driver re-reading the input.
	Iterations int
	// CacheIterOutputs stores iteration outputs in oCache (§III-B's
	// "with oCache" configurations).
	CacheIterOutputs bool
	// Seed drives deterministic key generation.
	Seed int64
}

// JobStats reports one simulated job.
type JobStats struct {
	Name      string
	Start     float64
	Finish    float64
	MapTasks  int
	CacheHits int64
	CacheMiss int64
	// IterationFinish records the completion time of each iteration.
	IterationFinish []float64
	// BytesRead counts input bytes actually read (cache hits excluded).
	BytesRead int64
	// ReadSeconds sums the service time of every input read (disk seek +
	// transfer, plus the network hop for remote reads; queueing and
	// framework overheads excluded) — the denominator of Figure 5(a)'s
	// bytes-per-map-task-execution-time, which the paper describes as
	// measuring "the read latency of local disks".
	ReadSeconds float64
}

// Elapsed is the job's makespan in seconds.
func (s JobStats) Elapsed() float64 { return s.Finish - s.Start }

// HitRatio is the fraction of block reads served from the distributed
// in-memory cache.
func (s JobStats) HitRatio() float64 {
	total := s.CacheHits + s.CacheMiss
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// IterationTimes converts cumulative iteration finish times to
// per-iteration durations.
func (s JobStats) IterationTimes() []float64 {
	out := make([]float64, len(s.IterationFinish))
	prev := s.Start
	for i, f := range s.IterationFinish {
		out[i] = f - prev
		prev = f
	}
	return out
}

func validateJob(p Params, job JobDesc) error {
	if job.InputBytes <= 0 && len(job.BlockKeys) == 0 {
		return fmt.Errorf("simcluster: job %s has no input", job.Name)
	}
	if job.Iterations < 0 {
		return fmt.Errorf("simcluster: job %s has negative iterations", job.Name)
	}
	_ = p
	return nil
}
