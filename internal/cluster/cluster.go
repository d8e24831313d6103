package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

// Policy selects the job-scheduling algorithm.
type Policy string

// Scheduling policies.
const (
	PolicyLAF   Policy = "laf"
	PolicyDelay Policy = "delay"
	PolicyFair  Policy = "fair"
)

// Options configures a Cluster.
type Options struct {
	Config
	// Policy selects the scheduling algorithm; default LAF.
	Policy Policy
	// LAF parameterizes the LAF policy (alpha, KDE bins/bandwidth/window).
	LAF scheduler.LAFConfig
	// DelayWait is the delay-scheduling wait; default 5 s as in Spark.
	DelayWait time.Duration
	// Network overrides the transport; default an in-process network.
	Network transport.Network
	// Retry tunes the transparent retry layer wrapped around the network
	// (zero fields select transport.DefaultRetryPolicy).
	Retry transport.RetryPolicy
	// bareNetwork mounts the network without the retry layer; settable
	// only by this package's tests, which need a path to prove that it
	// retries by itself.
	bareNetwork bool
	// BundleDir, when set, arms the flight recorder: a job failure or a
	// recovery sweep snapshots a cluster-wide debug bundle into this
	// directory as bundle-<job>-<reason>.json. Falls back to the
	// ECLIPSE_BUNDLE_DIR environment variable when empty.
	BundleDir string
}

// Cluster is a running EclipseMR deployment: the entry point for uploads
// and job submission. With the default in-process network it hosts every
// node in one process, which is how the examples, tests and benchmarks
// run; the same Node code serves TCP deployments via cmd/eclipse-node.
// Jobs go to the manager role of whichever node holds it (its scheduler
// and driver, Manager), so a job here runs the code a TCP deployment
// runs, and after a failover the elected manager's own.
type Cluster struct {
	opts  Options
	net   transport.Network
	order []hashing.NodeID
	// mu guards nodes: Kill and FailNow delete from it while the facade
	// reads it.
	mu    sync.Mutex
	nodes map[hashing.NodeID]*Node
}

// New boots a cluster of n in-process nodes named worker-00..worker-(n-1).
func New(n int, opts Options) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one node, got %d", n)
	}
	names := make([]hashing.NodeID, n)
	for i := range names {
		names[i] = hashing.NodeID(fmt.Sprintf("worker-%02d", i))
	}
	return NewWithNodes(names, opts)
}

// NewWithNodes boots a cluster with explicit node IDs.
func NewWithNodes(ids []hashing.NodeID, opts Options) (*Cluster, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("cluster: no node IDs")
	}
	opts.Config = opts.Config.withDefaults()
	role, err := opts.roleConfig()
	if err != nil {
		return nil, err
	}
	net := opts.Network
	if net == nil {
		net = transport.NewLocal()
	}
	if !opts.bareNetwork {
		// Transient message loss (a chaos-injected drop, a TCP timeout) is
		// absorbed here; structural failures still surface immediately.
		net = transport.NewRetry(net, opts.Retry)
	}
	c := &Cluster{
		opts:  opts,
		net:   net,
		nodes: make(map[hashing.NodeID]*Node),
	}
	ring := hashing.NewChordRing()
	for _, id := range ids {
		if err := ring.AddNode(id); err != nil {
			c.Close()
			return nil, err
		}
	}
	for _, id := range ids {
		// Origin-stamped facets let a fault-injecting network attribute
		// each node's outbound calls (asymmetric partitions, crash-stop).
		nodeNet := net
		if on, ok := net.(transport.OriginNetwork); ok {
			nodeNet = on.From(id)
		}
		node, err := NewNode(id, nodeNet, opts.Config)
		if err != nil {
			c.Close()
			return nil, err
		}
		node.role = role
		if err := node.Start(); err != nil {
			c.Close()
			return nil, err
		}
		c.nodes[id] = node
		c.order = append(c.order, id)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })

	// Bootstrap the manager on the highest-ID node — the same node a bully
	// election would pick, so a restarted cluster converges to the same
	// coordinator.
	if _, err := c.nodes[c.order[len(c.order)-1]].BecomeManagerWith(ring, 1); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// roleConfig resolves the Options' scheduling policy and flight-recorder
// directory into what a node builds its manager role from. The recorder
// directory is the explicit option, else the ECLIPSE_BUNDLE_DIR
// environment variable; empty disarms it.
func (o Options) roleConfig() (roleConfig, error) {
	r := roleConfig{bundleDir: o.BundleDir}
	if r.bundleDir == "" {
		r.bundleDir = os.Getenv("ECLIPSE_BUNDLE_DIR")
	}
	switch o.Policy {
	case PolicyLAF, "":
		laf := o.LAF
		if laf.KDE.Bins == 0 {
			laf = scheduler.DefaultLAFConfig()
		}
		r.newScheduler = lafScheduler(laf)
	case PolicyDelay:
		cfg := scheduler.DelayConfig{Wait: o.DelayWait}
		if cfg.Wait == 0 {
			cfg.Wait = 5 * time.Second
		}
		r.newScheduler = func(ring *hashing.ChordRing) (scheduler.Scheduler, error) {
			return scheduler.NewDelay(cfg, ring)
		}
	case PolicyFair:
		r.newScheduler = func(ring *hashing.ChordRing) (scheduler.Scheduler, error) {
			return scheduler.NewFair(ring)
		}
	default:
		return roleConfig{}, fmt.Errorf("cluster: unknown policy %q", o.Policy)
	}
	return r, nil
}

// live returns the live nodes in ID order.
func (c *Cluster) live() []*Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Node, 0, len(c.nodes))
	for _, id := range c.order {
		if n, ok := c.nodes[id]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Manager returns the node currently holding the manager role, or nil
// during a leadership gap.
func (c *Cluster) Manager() *Node {
	for _, n := range c.live() {
		if n.IsManager() {
			return n
		}
	}
	return nil
}

// role returns the current manager node's role: its scheduler and
// driver.
func (c *Cluster) role() (*Manager, error) {
	if n := c.Manager(); n != nil {
		if m := n.Manager(); m != nil {
			return m, nil
		}
	}
	return nil, fmt.Errorf("cluster: no resource manager is live")
}

// Node returns a node by ID.
func (c *Cluster) Node(id hashing.NodeID) (*Node, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.nodes[id]
	return n, ok
}

// Nodes lists live node IDs in sorted order.
func (c *Cluster) Nodes() []hashing.NodeID {
	live := c.live()
	out := make([]hashing.NodeID, len(live))
	for i, n := range live {
		out[i] = n.ID
	}
	return out
}

// Scheduler exposes the current manager's scheduling policy (for stats),
// or nil during a leadership gap.
func (c *Cluster) Scheduler() scheduler.Scheduler {
	m, err := c.role()
	if err != nil {
		return nil
	}
	return m.sched
}

// anyNode returns some live node (preferring the manager).
func (c *Cluster) anyNode() (*Node, error) {
	if n := c.Manager(); n != nil {
		return n, nil
	}
	if live := c.live(); len(live) > 0 {
		return live[0], nil
	}
	return nil, fmt.Errorf("cluster: no live nodes")
}

// rootContext is the one place the facade mints a fresh root context.
// Cluster's ctx-less convenience methods sit at the top of their call
// trees (tests, examples, REPL-style drivers) where no caller context
// exists to thread; everything below them takes the returned ctx as a
// parameter, and every I/O-heavy method has a *Context variant for
// callers that do hold one.
//
//lint:ignore ctxflow the facade's ctx-less entry points root their call trees here; use the *Context variants to pass a real context
func rootContext() context.Context { return context.Background() }

// Upload stores a copy of data as a file in the DHT file system: the
// caller keeps its slice and may reuse it once Upload returns.
func (c *Cluster) Upload(name, owner string, perm dhtfs.Perm, data []byte) (dhtfs.Metadata, error) {
	return c.UploadContext(rootContext(), name, owner, perm, data)
}

// UploadContext is Upload with caller-controlled cancellation.
func (c *Cluster) UploadContext(ctx context.Context, name, owner string, perm dhtfs.Perm, data []byte) (dhtfs.Metadata, error) {
	n, err := c.anyNode()
	if err != nil {
		return dhtfs.Metadata{}, err
	}
	return n.fs.Upload(ctx, name, owner, perm, bytes.Clone(data), c.opts.BlockSize)
}

// UploadRecords stores a copy of a line-oriented file with record-aligned
// blocks; like Upload, the caller keeps its slice.
func (c *Cluster) UploadRecords(name, owner string, perm dhtfs.Perm, data []byte, delim byte) (dhtfs.Metadata, error) {
	return c.UploadRecordsContext(rootContext(), name, owner, perm, data, delim)
}

// UploadRecordsContext is UploadRecords with caller-controlled cancellation.
func (c *Cluster) UploadRecordsContext(ctx context.Context, name, owner string, perm dhtfs.Perm, data []byte, delim byte) (dhtfs.Metadata, error) {
	n, err := c.anyNode()
	if err != nil {
		return dhtfs.Metadata{}, err
	}
	return n.fs.UploadRecords(ctx, name, owner, perm, bytes.Clone(data), c.opts.BlockSize, delim)
}

// ReadFile fetches a file from the DHT file system.
func (c *Cluster) ReadFile(name, user string) ([]byte, error) {
	return c.ReadFileContext(rootContext(), name, user)
}

// ReadFileContext is ReadFile with caller-controlled cancellation.
func (c *Cluster) ReadFileContext(ctx context.Context, name, user string) ([]byte, error) {
	n, err := c.anyNode()
	if err != nil {
		return nil, err
	}
	return n.fs.ReadFile(ctx, name, user)
}

// DeleteFile removes a file (owner only) from the DHT file system.
func (c *Cluster) DeleteFile(name, user string) error {
	return c.DeleteFileContext(rootContext(), name, user)
}

// DeleteFileContext is DeleteFile with caller-controlled cancellation.
func (c *Cluster) DeleteFileContext(ctx context.Context, name, user string) error {
	n, err := c.anyNode()
	if err != nil {
		return err
	}
	return n.fs.Delete(ctx, name, user)
}

// Run executes a MapReduce job to completion.
func (c *Cluster) Run(spec mapreduce.JobSpec) (mapreduce.Result, error) {
	m, err := c.role()
	if err != nil {
		return mapreduce.Result{}, err
	}
	return m.driver.Run(spec)
}

// RunContext executes a MapReduce job with caller-controlled
// cancellation (see mapreduce.Driver.RunContext).
func (c *Cluster) RunContext(ctx context.Context, spec mapreduce.JobSpec) (mapreduce.Result, error) {
	m, err := c.role()
	if err != nil {
		return mapreduce.Result{}, err
	}
	return m.driver.RunContext(ctx, spec)
}

// Resume adopts an interrupted job from its durable journal and drives it
// to completion on the current manager's driver, re-executing only the
// work the journal does not record as done. This is how the cluster picks
// a job back up after the driver (or its whole manager node) died mid-run.
func (c *Cluster) Resume(jobID string) (mapreduce.Result, error) {
	m, err := c.role()
	if err != nil {
		return mapreduce.Result{}, err
	}
	return m.driver.Resume(jobID)
}

// OrphanJobs lists journaled jobs that never reached the done phase — the
// candidates for Resume after a manager failover.
func (c *Cluster) OrphanJobs() ([]string, error) {
	m, err := c.role()
	if err != nil {
		return nil, err
	}
	return m.driver.Orphans(rootContext())
}

// Collect fetches and decodes a completed job's output pairs.
func (c *Cluster) Collect(res mapreduce.Result, user string) ([]mapreduce.KV, error) {
	return c.CollectContext(rootContext(), res, user)
}

// CollectContext is Collect with caller-controlled cancellation.
func (c *Cluster) CollectContext(ctx context.Context, res mapreduce.Result, user string) ([]mapreduce.KV, error) {
	m, err := c.role()
	if err != nil {
		return nil, err
	}
	return m.driver.Collect(ctx, res, user)
}

// DropIntermediates deletes a job's shuffle data cluster-wide.
func (c *Cluster) DropIntermediates(spec mapreduce.JobSpec) {
	if m, err := c.role(); err == nil {
		m.driver.DropIntermediates(rootContext(), spec)
	}
}

// SetTracing turns span recording on or off on every live node. The
// driver records through the manager node's tracer, so it is covered too.
func (c *Cluster) SetTracing(on bool) {
	for _, n := range c.live() {
		n.tracer.SetEnabled(on)
	}
}

// TraceSpans collects the retained spans of one trace (the job ID; empty
// selects everything) from every live node over the cluster.spans RPC,
// returning them deduped in canonical order plus the total number of
// spans nodes dropped before collection. Unreachable nodes are skipped —
// a trace survives node failures with a hole, not an error.
func (c *Cluster) TraceSpans(jobID string) ([]trace.Span, int64, error) {
	return c.TraceSpansContext(rootContext(), jobID)
}

// TraceSpansContext is TraceSpans with caller-controlled cancellation.
func (c *Cluster) TraceSpansContext(ctx context.Context, jobID string) ([]trace.Span, int64, error) {
	var all []trace.Span
	var dropped int64
	err := collect(ctx, c, MethodSpans, SpansReq{Trace: jobID}, func(r *SpansResp) {
		all = append(all, r.Spans...)
		dropped += r.Dropped
	})
	if err != nil {
		return nil, dropped, err
	}
	return trace.Dedupe(all), dropped, nil
}

// collect sends req to every live node and hands each decoded reply to
// add. Unreachable nodes are skipped; an undecodable reply is an error.
func collect[Resp any](ctx context.Context, c *Cluster, method string, req any, add func(*Resp)) error {
	body, err := transport.Encode(req)
	if err != nil {
		return err
	}
	for _, id := range c.Nodes() {
		out, err := c.net.Call(ctx, id, method, body)
		if err != nil {
			continue
		}
		var resp Resp
		if err := transport.Decode(out, &resp); err != nil {
			return err
		}
		add(&resp)
	}
	return nil
}

// Events collects the retained structured events of one job (empty
// selects everything, including cluster-scoped membership events) from
// every live node over the cluster.events RPC. The union is deduped and
// merged into one deterministic timeline; the second return is the total
// number of events nodes overwrote before collection. Unreachable nodes
// are skipped — like a trace, an event timeline survives node failures
// with a hole, not an error.
func (c *Cluster) Events(jobID string) ([]events.Event, int64, error) {
	return c.EventsContext(rootContext(), jobID)
}

// EventsContext is Events with caller-controlled cancellation.
func (c *Cluster) EventsContext(ctx context.Context, jobID string) ([]events.Event, int64, error) {
	var all []events.Event
	var dropped int64
	err := collect(ctx, c, MethodEvents, EventsReq{Job: jobID}, func(r *EventsResp) {
		all = append(all, r.Events...)
		dropped += r.Dropped
	})
	if err != nil {
		return nil, dropped, err
	}
	return events.Merge(all), dropped, nil
}

// DebugBundle assembles a cluster-wide debug bundle for one job ("" =
// everything) with the stated capture reason, canonically encoded. The
// capture runs on the manager node (falling back to any live node), the
// same assembly the cluster.bundle RPC and the flight recorder use.
func (c *Cluster) DebugBundle(jobID, reason string) ([]byte, error) {
	return c.DebugBundleContext(rootContext(), jobID, reason)
}

// DebugBundleContext is DebugBundle with caller-controlled cancellation.
func (c *Cluster) DebugBundleContext(ctx context.Context, jobID, reason string) ([]byte, error) {
	n, err := c.anyNode()
	if err != nil {
		return nil, err
	}
	return n.BuildBundleBytes(ctx, jobID, reason)
}

// Kill crashes a node without any cleanup handshake: it simply vanishes
// from the network, exactly as a machine failure would appear to its
// peers. Detection and recovery run through heartbeats, the resource
// manager and (if the manager died) election.
func (c *Cluster) Kill(id hashing.NodeID) {
	c.mu.Lock()
	n, ok := c.nodes[id]
	delete(c.nodes, id)
	c.mu.Unlock()
	if ok {
		n.Close()
	}
}

// FailNow is deterministic failure handling for tests and benchmarks: the
// node is killed and the resource manager is told immediately, skipping
// the heartbeat wait.
func (c *Cluster) FailNow(id hashing.NodeID) error {
	c.Kill(id)
	m, err := c.role()
	if err != nil {
		return fmt.Errorf("cluster: no manager to process the failure")
	}
	m.Fail(id)
	return nil
}

// MigrateMisplacedCaches runs the §II-E cache-migration option across the
// cluster: every node is told its current scheduler hash-key range and
// pulls cached input blocks that now fall in it from its ring neighbors.
// The paper disables this option for its experiments (few misplaced
// objects are ever needed); it is exposed for workloads with fast-moving
// range boundaries. Returns the number of blocks migrated.
func (c *Cluster) MigrateMisplacedCaches() (int, error) {
	m, err := c.role()
	if err != nil {
		return 0, err
	}
	table := m.sched.RangeTable()
	ring := m.node.Ring()
	total := 0
	for _, id := range table.Servers() {
		if _, ok := c.Node(id); !ok {
			continue
		}
		start, end, ok := table.ServerRange(id)
		if !ok {
			continue
		}
		left, err := ring.Predecessor(id)
		if err != nil {
			return total, err
		}
		right, err := ring.Successor(id)
		if err != nil {
			return total, err
		}
		req := mapreduce.AdoptRangeReq{Start: start, End: end, Left: left, Right: right}
		body, err := transport.Encode(req)
		if err != nil {
			return total, err
		}
		out, err := c.net.Call(rootContext(), id, mapreduce.MethodAdoptRange, body)
		if err != nil {
			return total, err
		}
		var resp mapreduce.AdoptRangeResp
		if err := transport.Decode(out, &resp); err != nil {
			return total, err
		}
		total += resp.Migrated
	}
	return total, nil
}

// MetricsSnapshot aggregates every live node's metrics (the manager
// node's include its scheduler's and driver's) and the network layers'
// counters into one snapshot (values summed, histogram buckets merged).
func (c *Cluster) MetricsSnapshot() metrics.Snapshot {
	total := metrics.NewSnapshot()
	for _, n := range c.live() {
		metrics.Merge(&total, n.MetricsSnapshot())
	}
	// Walk the transport decorator chain (Retry, Chaos, ...) and pick up
	// every layer that exports metrics.
	for net := c.net; net != nil; {
		if ms, ok := net.(transport.MetricsSource); ok {
			metrics.Merge(&total, ms.NetMetrics().Snapshot())
		}
		u, ok := net.(interface{ Unwrap() transport.Network })
		if !ok {
			break
		}
		net = u.Unwrap()
	}
	// Cluster-wide hit ratio must come from summed counters, not summed
	// per-node ratios.
	cs := c.CacheStats()
	total.Values["cache.hit_ratio_bp"] = int64(cs.HitRatio() * 10000)
	return total
}

// CacheStats aggregates every live node's iCache counters, the
// cluster-wide figure the paper reports as the cache hit ratio.
func (c *Cluster) CacheStats() cache.Stats {
	var total cache.Stats
	for _, n := range c.live() {
		s := n.cache.ICache.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Insertions += s.Insertions
		total.Evictions += s.Evictions
	}
	return total
}

// Close shuts every node down; the manager's closes its driver.
func (c *Cluster) Close() {
	for _, n := range c.live() {
		c.Kill(n.ID)
	}
	if c.net != nil {
		// Visible discard: the cluster is going away with every node
		// already stopped, so a listener teardown error has no one left
		// to act on it.
		_ = c.net.Close()
	}
}
