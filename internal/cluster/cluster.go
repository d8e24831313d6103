package cluster

import (
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

// Cluster is a running EclipseMR deployment plus the job-scheduler role:
// the entry point for uploads and job submission. With the default
// in-process network it hosts every node in one process, which is how the
// examples, tests and benchmarks run; the same Node code serves TCP
// deployments via cmd/eclipse-node.
type Cluster struct {
	opts   Options
	net    transport.Network
	nodes  map[hashing.NodeID]*Node
	order  []hashing.NodeID
	sched  scheduler.Scheduler
	driver *mapreduce.Driver
	// driverOn is the node the current driver is bound to.
	driverOn hashing.NodeID
	// schedNodes tracks which workers hold slots in the scheduler. The
	// manager's membership observers run on whichever goroutine reported
	// the change (a heartbeat loop, an inbound suspect RPC), possibly two
	// at once, so schedMu guards the map and keeps it in step with the
	// scheduler.
	schedMu    sync.Mutex
	schedNodes map[hashing.NodeID]bool
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
	if opts.Policy == "" {
		opts.Policy = PolicyLAF
	}
	if opts.LAF.KDE.Bins == 0 {
		opts.LAF = scheduler.DefaultLAFConfig()
	}
	if opts.DelayWait == 0 {
		opts.DelayWait = 5 * time.Second
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
		opts:       opts,
		net:        net,
		nodes:      make(map[hashing.NodeID]*Node),
		schedNodes: make(map[hashing.NodeID]bool),
	}
	ring := hashing.NewChordRing()
	for _, id := range ids {
		if err := ring.AddNode(id); err != nil {
			c.Close()
			return nil, err
		}
	}
	// The scheduler's initial range table comes from the placement ring of
	// the configured algorithm, built in the same member order nodes use
	// when they adopt the bootstrap view.
	schedRing := hashing.Ring(ring)
	if alg := opts.Config.Ring; alg != "" && alg != hashing.AlgorithmChord {
		pr, err := hashing.NewAlgorithmRing(alg)
		if err != nil {
			c.Close()
			return nil, err
		}
		for _, id := range ring.Members() {
			if err := pr.AddNode(id); err != nil {
				c.Close()
				return nil, err
			}
		}
		schedRing = pr
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
		if err := node.Start(); err != nil {
			c.Close()
			return nil, err
		}
		c.nodes[id] = node
		c.order = append(c.order, id)
	}
	sort.Slice(c.order, func(i, j int) bool { return c.order[i] < c.order[j] })

	// Bootstrap the resource manager on the highest-ID node — the same
	// node a bully election would pick, so a restarted cluster converges
	// to the same coordinator.
	mgrID := c.order[len(c.order)-1]
	mgrNode := c.nodes[mgrID]
	mgr := newManager(mgrNode, ring, 1)
	mgrNode.mu.Lock()
	mgrNode.mgr = mgr
	mgrNode.manager = mgrID
	mgrNode.mu.Unlock()
	mgr.broadcastView()

	var sched scheduler.Scheduler
	var err error
	switch opts.Policy {
	case PolicyLAF:
		sched, err = scheduler.NewLAF(opts.LAF, schedRing)
	case PolicyDelay:
		sched, err = scheduler.NewDelay(scheduler.DelayConfig{Wait: opts.DelayWait}, schedRing)
	case PolicyFair:
		sched, err = scheduler.NewFair(schedRing)
	default:
		err = fmt.Errorf("cluster: unknown policy %q", opts.Policy)
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	c.sched = sched
	for _, id := range ids {
		sched.AddNode(id, opts.MapSlots)
		c.schedNodes[id] = true
	}
	c.attachScheduler(mgr)
	if err := c.rebindDriver(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// attachScheduler keeps the scheduler's worker set in sync with the
// manager's membership.
func (c *Cluster) attachScheduler(mgr *Manager) {
	mgr.OnChange(func(joined, failed []hashing.NodeID) {
		c.schedMu.Lock()
		defer c.schedMu.Unlock()
		for _, id := range joined {
			if !c.schedNodes[id] {
				c.sched.AddNode(id, c.opts.MapSlots)
				c.schedNodes[id] = true
			}
		}
		for _, id := range failed {
			if c.schedNodes[id] {
				c.sched.RemoveNode(id)
				delete(c.schedNodes, id)
			}
		}
	})
}

// Manager returns the node currently holding the resource-manager role,
// or nil during a leadership gap.
func (c *Cluster) Manager() *Node {
	for _, id := range c.order {
		if n, ok := c.nodes[id]; ok && n.IsManager() {
			return n
		}
	}
	return nil
}

// rebindDriver points the job driver at the current manager node.
func (c *Cluster) rebindDriver() error {
	mgrNode := c.Manager()
	if mgrNode == nil {
		return fmt.Errorf("cluster: no resource manager is live")
	}
	if c.driver != nil && c.driverOn == mgrNode.ID {
		return nil
	}
	driverNet := c.net
	if on, ok := c.net.(transport.OriginNetwork); ok {
		driverNet = on.From(mgrNode.ID)
	}
	driver, err := mapreduce.NewDriver(mgrNode.ID, driverNet, mgrNode.fs, c.sched, mgrNode.Ring, c.opts.ReduceSlots)
	if err != nil {
		return err
	}
	// The driver's spans record on the manager node's tracer, so one
	// cluster.spans sweep collects driver and worker spans alike; the
	// driver's events likewise record on the manager node's ring.
	driver.SetTracer(mgrNode.tracer)
	driver.SetEvents(mgrNode.events)
	if dir := c.bundleDir(); dir != "" {
		driver.SetFlightRecorder(func(job, reason string) {
			c.captureBundle(dir, job, reason)
		})
	}
	// The old driver's dispatcher must stop before the new one pumps the
	// shared scheduler, or the two loops would steal each other's
	// assignments.
	if c.driver != nil {
		c.driver.Close()
	}
	// A newly elected manager needs the scheduler observer too.
	mgrNode.mu.Lock()
	mgr := mgrNode.mgr
	mgrNode.mu.Unlock()
	if mgr != nil && c.driverOn != mgrNode.ID {
		c.attachScheduler(mgr)
		// Reconcile scheduler membership with the manager's view.
		live := map[hashing.NodeID]bool{}
		members := mgr.Members()
		c.schedMu.Lock()
		for _, id := range members {
			live[id] = true
			if !c.schedNodes[id] {
				c.sched.AddNode(id, c.opts.MapSlots)
				c.schedNodes[id] = true
			}
		}
		for id := range c.schedNodes {
			if !live[id] {
				c.sched.RemoveNode(id)
				delete(c.schedNodes, id)
			}
		}
		c.schedMu.Unlock()
	}
	c.driver = driver
	c.driverOn = mgrNode.ID
	return nil
}

// Node returns a node by ID.
func (c *Cluster) Node(id hashing.NodeID) (*Node, bool) {
	n, ok := c.nodes[id]
	return n, ok
}

// Nodes lists live node IDs in sorted order.
func (c *Cluster) Nodes() []hashing.NodeID {
	out := make([]hashing.NodeID, 0, len(c.nodes))
	for _, id := range c.order {
		if _, ok := c.nodes[id]; ok {
			out = append(out, id)
		}
	}
	return out
}

// Scheduler exposes the scheduling policy (for stats).
func (c *Cluster) Scheduler() scheduler.Scheduler { return c.sched }

// anyNode returns some live node (preferring the manager).
func (c *Cluster) anyNode() (*Node, error) {
	if n := c.Manager(); n != nil {
		return n, nil
	}
	for _, id := range c.order {
		if n, ok := c.nodes[id]; ok {
			return n, nil
		}
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

// Upload stores a file in the DHT file system.
func (c *Cluster) Upload(name, owner string, perm dhtfs.Perm, data []byte) (dhtfs.Metadata, error) {
	return c.UploadContext(rootContext(), name, owner, perm, data)
}

// UploadContext is Upload with caller-controlled cancellation.
func (c *Cluster) UploadContext(ctx context.Context, name, owner string, perm dhtfs.Perm, data []byte) (dhtfs.Metadata, error) {
	n, err := c.anyNode()
	if err != nil {
		return dhtfs.Metadata{}, err
	}
	return n.fs.Upload(ctx, name, owner, perm, data, c.opts.BlockSize)
}

// UploadRecords stores a line-oriented file with record-aligned blocks.
func (c *Cluster) UploadRecords(name, owner string, perm dhtfs.Perm, data []byte, delim byte) (dhtfs.Metadata, error) {
	return c.UploadRecordsContext(rootContext(), name, owner, perm, data, delim)
}

// UploadRecordsContext is UploadRecords with caller-controlled cancellation.
func (c *Cluster) UploadRecordsContext(ctx context.Context, name, owner string, perm dhtfs.Perm, data []byte, delim byte) (dhtfs.Metadata, error) {
	n, err := c.anyNode()
	if err != nil {
		return dhtfs.Metadata{}, err
	}
	return n.fs.UploadRecords(ctx, name, owner, perm, data, c.opts.BlockSize, delim)
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
	if err := c.rebindDriver(); err != nil {
		return mapreduce.Result{}, err
	}
	return c.driver.Run(spec)
}

// RunContext executes a MapReduce job with caller-controlled
// cancellation (see mapreduce.Driver.RunContext).
func (c *Cluster) RunContext(ctx context.Context, spec mapreduce.JobSpec) (mapreduce.Result, error) {
	if err := c.rebindDriver(); err != nil {
		return mapreduce.Result{}, err
	}
	return c.driver.RunContext(ctx, spec)
}

// Resume adopts an interrupted job from its durable journal and drives it
// to completion on the current manager's driver, re-executing only the
// work the journal does not record as done. This is how the cluster picks
// a job back up after the driver (or its whole manager node) died mid-run.
func (c *Cluster) Resume(jobID string) (mapreduce.Result, error) {
	if err := c.rebindDriver(); err != nil {
		return mapreduce.Result{}, err
	}
	return c.driver.Resume(jobID)
}

// OrphanJobs lists journaled jobs that never reached the done phase — the
// candidates for Resume after a manager failover.
func (c *Cluster) OrphanJobs() ([]string, error) {
	if err := c.rebindDriver(); err != nil {
		return nil, err
	}
	n := c.Manager()
	if n == nil {
		return nil, fmt.Errorf("cluster: no resource manager is live")
	}
	return c.driver.Orphans(rootContext())
}

// Collect fetches and decodes a completed job's output pairs.
func (c *Cluster) Collect(res mapreduce.Result, user string) ([]mapreduce.KV, error) {
	return c.CollectContext(rootContext(), res, user)
}

// CollectContext is Collect with caller-controlled cancellation.
func (c *Cluster) CollectContext(ctx context.Context, res mapreduce.Result, user string) ([]mapreduce.KV, error) {
	if err := c.rebindDriver(); err != nil {
		return nil, err
	}
	return c.driver.Collect(ctx, res, user)
}

// DropIntermediates deletes a job's shuffle data cluster-wide.
func (c *Cluster) DropIntermediates(spec mapreduce.JobSpec) {
	if err := c.rebindDriver(); err == nil {
		c.driver.DropIntermediates(rootContext(), spec)
	}
}

// SetTracing turns span recording on or off on every live node. The
// driver records through the manager node's tracer, so it is covered too.
func (c *Cluster) SetTracing(on bool) {
	for _, n := range c.nodes {
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

// bundleDir resolves the flight-recorder directory: the explicit option
// wins, then the ECLIPSE_BUNDLE_DIR environment variable; empty disarms
// the recorder.
func (c *Cluster) bundleDir() string {
	if c.opts.BundleDir != "" {
		return c.opts.BundleDir
	}
	return os.Getenv("ECLIPSE_BUNDLE_DIR")
}

// captureBundle is the armed flight recorder: snapshot the cluster into
// <dir>/bundle-<job>-<reason>.json via the capturing node. Capture
// errors are recorded as a metric rather than surfaced, because the
// recorder fires on paths that are already failing.
func (c *Cluster) captureBundle(dir, job, reason string) {
	n, err := c.anyNode()
	if err != nil {
		return
	}
	if _, err := n.WriteBundleFile(rootContext(), dir, job, reason); err != nil {
		n.worker.Metrics().Counter("bundle.capture_errors").Inc()
		return
	}
	n.worker.Metrics().Counter("bundle.captured").Inc()
}

// Kill crashes a node without any cleanup handshake: it simply vanishes
// from the network, exactly as a machine failure would appear to its
// peers. Detection and recovery run through heartbeats, the resource
// manager and (if the manager died) election.
func (c *Cluster) Kill(id hashing.NodeID) {
	if n, ok := c.nodes[id]; ok {
		n.Close()
		delete(c.nodes, id)
	}
}

// FailNow is deterministic failure handling for tests and benchmarks: the
// node is killed and the resource manager is told immediately, skipping
// the heartbeat wait.
func (c *Cluster) FailNow(id hashing.NodeID) error {
	c.Kill(id)
	mgrNode := c.Manager()
	if mgrNode == nil {
		return fmt.Errorf("cluster: no manager to process the failure")
	}
	mgrNode.mu.Lock()
	mgr := mgrNode.mgr
	mgrNode.mu.Unlock()
	mgr.Fail(id)
	return nil
}

// MigrateMisplacedCaches runs the §II-E cache-migration option across the
// cluster: every node is told its current scheduler hash-key range and
// pulls cached input blocks that now fall in it from its ring neighbors.
// The paper disables this option for its experiments (few misplaced
// objects are ever needed); it is exposed for workloads with fast-moving
// range boundaries. Returns the number of blocks migrated.
func (c *Cluster) MigrateMisplacedCaches() (int, error) {
	table := c.sched.RangeTable()
	mgrNode := c.Manager()
	if mgrNode == nil {
		return 0, fmt.Errorf("cluster: no live manager")
	}
	ring := mgrNode.Ring()
	total := 0
	for _, id := range table.Servers() {
		if _, ok := c.nodes[id]; !ok {
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

// MetricsSnapshot aggregates every live node's metrics, the driver's and
// scheduler's counters and histograms, and the network layers' counters
// into one snapshot (values summed, histogram buckets merged).
func (c *Cluster) MetricsSnapshot() metrics.Snapshot {
	total := metrics.NewSnapshot()
	for _, n := range c.nodes {
		metrics.Merge(&total, n.MetricsSnapshot())
	}
	if c.driver != nil {
		metrics.Merge(&total, c.driver.Metrics().Snapshot())
	}
	if c.sched != nil {
		metrics.Merge(&total, c.sched.Metrics().Snapshot())
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

// CacheStats aggregates every live node's combined iCache+oCache
// counters, the cluster-wide figure the paper reports as the cache hit
// ratio.
func (c *Cluster) CacheStats() cache.Stats {
	var total cache.Stats
	for _, n := range c.nodes {
		s := n.cache.CombinedStats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Insertions += s.Insertions
		total.Evictions += s.Evictions
		total.Expirations += s.Expirations
	}
	return total
}

// Close shuts every node down.
func (c *Cluster) Close() {
	if c.driver != nil {
		c.driver.Close()
		c.driver = nil
	}
	for id, n := range c.nodes {
		n.Close()
		delete(c.nodes, id)
	}
	if c.net != nil {
		// Visible discard: the cluster is going away with every node
		// already stopped, so a listener teardown error has no one left
		// to act on it.
		_ = c.net.Close()
	}
}
