// Package eclipsemr is the public API of the EclipseMR reproduction: a
// MapReduce framework built on double-layered consistent hash rings — a
// decentralized DHT file system and a distributed in-memory key-value
// cache — scheduled by a locality-aware fair (LAF) job scheduler
// (Sanchez et al., "EclipseMR: Distributed and Parallel Task Processing
// with Consistent Hashing", IEEE CLUSTER 2017).
//
// The quickest way in:
//
//	c, err := eclipsemr.NewCluster(8, eclipsemr.Options{})
//	defer c.Close()
//	c.UploadRecords("corpus.txt", "me", eclipsemr.PermPublic, text, '\n')
//	res, err := c.Run(eclipsemr.JobSpec{
//	    ID: "wc-1", App: "wordcount", Inputs: []string{"corpus.txt"}, User: "me",
//	})
//	pairs, err := c.Collect(res, "me")
//
// Applications are registered by name with Register (word count, grep,
// inverted index, sort, k-means, page rank and logistic regression ship
// in this module — import eclipsemr/internal/apps from within the module
// or register your own). Iterative helpers live next to the applications.
package eclipsemr

import (
	"eclipsemr/internal/cluster"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/scheduler"
)

// Re-exported core types. The facade is intentionally thin: the cluster
// package is the real implementation and these aliases keep one import
// path for users.
type (
	// Cluster is a running EclipseMR deployment (in-process by default).
	Cluster = cluster.Cluster
	// Options configures a cluster.
	Options = cluster.Options
	// Config holds node-level parameters.
	Config = cluster.Config
	// Policy selects the scheduling algorithm.
	Policy = cluster.Policy
	// JobSpec describes a MapReduce job.
	JobSpec = mapreduce.JobSpec
	// Result summarizes a completed job.
	Result = mapreduce.Result
	// KV is one key-value pair.
	KV = mapreduce.KV
	// App is a registered MapReduce application: Reduce, an optional
	// Combine, and exactly one map path. Map processes a block's raw
	// bytes, which are the worker's shared, recycled buffer: neither Map
	// nor Decode may write to them or keep any part of them after
	// returning (emit copies what it is handed). Decode + MapDecoded split that in two for applications whose
	// jobs re-read their input (iterative jobs above all): Decode parses
	// a block into an in-memory split and reports its size, the worker
	// keeps the split in its iCache under that size, and MapDecoded runs
	// over it in every later task on the block until the LRU evicts it —
	// so the block is parsed once per cache residency, not once per
	// iteration. Decode must be a pure function of the block's bytes (it
	// sees no Params; MapDecoded checks what they say about the data),
	// the split must not alias the block, and nobody may write to it once
	// Decode has returned, because concurrent tasks share it.
	App = mapreduce.App
	// Combiner is an App's optional map-side fold: Start, Add and Value
	// (see mapreduce.Combiner).
	Combiner = mapreduce.Combiner
	// Params carries per-job application parameters.
	Params = mapreduce.Params
	// Emit receives emitted pairs.
	Emit = mapreduce.Emit
	// Metadata describes a stored file.
	Metadata = dhtfs.Metadata
	// Perm is a file access permission.
	Perm = dhtfs.Perm
	// NodeID names a worker server.
	NodeID = hashing.NodeID
	// LAFConfig parameterizes the LAF scheduler.
	LAFConfig = scheduler.LAFConfig
)

// Scheduling policies.
const (
	PolicyLAF   = cluster.PolicyLAF
	PolicyDelay = cluster.PolicyDelay
	PolicyFair  = cluster.PolicyFair
)

// File permissions.
const (
	PermPrivate = dhtfs.PermPrivate
	PermPublic  = dhtfs.PermPublic
)

// NewCluster boots an in-process cluster of n nodes.
func NewCluster(n int, opts Options) (*Cluster, error) {
	return cluster.New(n, opts)
}

// NewClusterWithNodes boots a cluster with explicit node IDs.
func NewClusterWithNodes(ids []NodeID, opts Options) (*Cluster, error) {
	return cluster.NewWithNodes(ids, opts)
}

// Register installs a MapReduce application under a name; jobs reference
// applications by name because tasks execute on remote workers. It panics
// on a duplicate name and on an App that sets both map paths, neither, or
// half of the Decode/MapDecoded pair.
func Register(name string, app App) {
	mapreduce.Register(name, app)
}

// RegisteredApps lists the registered application names.
func RegisteredApps() []string {
	return mapreduce.RegisteredApps()
}

// DefaultLAFConfig returns the paper's LAF parameters (alpha = 0.001).
func DefaultLAFConfig() LAFConfig {
	return scheduler.DefaultLAFConfig()
}
