// Package cluster assembles EclipseMR nodes into a running system: each
// worker node combines a DHT file system shard, a distributed in-memory
// cache slice and a MapReduce worker behind one transport endpoint, and
// the package adds the control plane the paper describes in §II — an
// epoch-numbered membership view disseminated by the resource manager,
// neighbor heartbeats for failure detection, bully election of a new
// resource manager / job scheduler when the current one dies, and
// re-replication of file blocks after a failure.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/chord"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

// Config holds per-node and cluster-wide parameters. The defaults mirror
// the paper's testbed where sensible (8 map + 8 reduce slots per server;
// blocks replicated on predecessor and successor). Placement is not
// configurable: blocks, metadata and intermediate keys all go by the Chord
// ring of the adopted membership view, so every node with the same view
// places identically.
type Config struct {
	// Replicas is the total copies per block/metadata entry (owner +
	// predecessor + successor = 3). Default 3.
	Replicas int
	// MapSlots / ReduceSlots per server. Default 8 each.
	MapSlots    int
	ReduceSlots int
	// CacheBytes is the distributed in-memory cache capacity per server,
	// split evenly between the iCache and the oCache: the segment store's
	// finished intermediate namespaces (dhtfs.Store). Default 64 MiB.
	CacheBytes int64
	// BlockSize is the default DHT-FS block size for uploads. The paper
	// uses 128 MB; the in-process default is 256 KiB (experiments scale
	// sizes down uniformly). Default 256 KiB.
	BlockSize int
	// HeartbeatInterval / HeartbeatTimeout drive neighbor failure
	// detection. Defaults 200 ms / 600 ms.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration
	// DataDir, when set, persists each node's file system blocks under
	// DataDir/<node-id>/ (a restarted node recovers its shard); empty
	// keeps blocks in memory.
	DataDir string
	// Trace configures the node's tracer (clock, seed, span-ring capacity,
	// sampling). Tracing always starts disabled; enable it through
	// Node.Tracer().SetEnabled or Cluster.SetTracing.
	Trace trace.Options
	// Events configures the node's structured event log (clock, seed,
	// ring capacity). Unlike tracing the log is always on — it is the
	// flight recorder consulted after failures.
	Events events.Options
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.MapSlots <= 0 {
		c.MapSlots = 8
	}
	if c.ReduceSlots <= 0 {
		c.ReduceSlots = 8
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 64 << 20
	}
	if c.BlockSize <= 0 {
		c.BlockSize = 256 << 10
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 200 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * c.HeartbeatInterval
	}
	return c
}

// Control-plane wire messages.
type (
	pingResp struct {
		Epoch   uint64
		Manager hashing.NodeID
	}
	viewMsg struct {
		View    chord.View
		Manager hashing.NodeID
	}
	suspectMsg struct {
		Suspect  hashing.NodeID
		Reporter hashing.NodeID
	}
	electionMsg struct {
		Candidate hashing.NodeID
	}
	electionResp struct {
		Alive bool
	}
	recoverResp struct {
		Pushed int
	}
	// StatsResp carries one node's metrics snapshot (flat values plus
	// latency histograms).
	StatsResp struct {
		Node    hashing.NodeID
		Metrics metrics.Snapshot
	}
	ack struct{}
)

// Control-plane method names.
const (
	methodPing     = "cluster.ping"
	methodView     = "cluster.view"
	methodSuspect  = "cluster.suspect"
	methodElection = "cluster.election"
	methodRecover  = "cluster.recover"
	// MethodStats returns the node's merged metrics snapshot.
	MethodStats = "cluster.stats"
	// MethodSpans returns the node's retained trace spans for one trace.
	MethodSpans = "cluster.spans"
	// MethodEvents returns the node's retained structured events for one
	// job (plus cluster-scoped events).
	MethodEvents = "cluster.events"
	// MethodBundle asks a node to assemble a cluster-wide debug bundle.
	MethodBundle = "cluster.bundle"
)

// Span-collection wire messages.
type (
	// SpansReq asks a node for its retained spans of one trace (job ID);
	// an empty Trace selects every retained span.
	SpansReq struct {
		Trace string
	}
	// SpansResp carries one node's spans plus how many finished spans its
	// ring buffer has overwritten before collection.
	SpansResp struct {
		Node    hashing.NodeID
		Spans   []trace.Span
		Dropped int64
	}
)

// Event-collection wire messages.
type (
	// EventsReq asks a node for its retained events. A non-empty Job
	// keeps that job's events plus cluster-scoped ones (membership, FS
	// repair); SinceNS, when positive, drops older events.
	EventsReq struct {
		Job     string
		SinceNS int64
	}
	// EventsResp carries one node's events plus how many its ring has
	// overwritten before collection.
	EventsResp struct {
		Node    hashing.NodeID
		Events  []events.Event
		Dropped int64
	}
	// BundleReq asks a node to assemble a cluster-wide debug bundle for
	// one job ("" = everything) with the stated capture reason.
	BundleReq struct {
		Job    string
		Reason string
	}
	// BundleResp carries the serialized bundle.
	BundleResp struct {
		Data []byte
	}
)

// Node is one EclipseMR worker server.
type Node struct {
	ID  hashing.NodeID
	cfg Config
	net transport.Network

	fs     *dhtfs.Service
	cache  *cache.NodeCache
	worker *mapreduce.Worker
	tracer *trace.Tracer
	events *events.Log

	mu      sync.Mutex
	view    chord.View // adopted with its ring built
	manager hashing.NodeID
	mgr     *Manager // non-nil while this node is the resource manager
	closed  bool

	stopHB chan struct{}
	wg     sync.WaitGroup

	// extra, when set, is consulted for methods no built-in service
	// claims (cmd/eclipse-node mounts its job-submission endpoint here).
	extra func(method string, body []byte) ([]byte, bool, error)

	// extraMetrics lists additional snapshot sources merged into
	// MetricsSnapshot (transport decorators); guarded by mu.
	extraMetrics []func() metrics.Snapshot

	// role is what the node builds its job scheduler and flight recorder
	// from if it takes the manager role. Set before Start.
	role roleConfig
}

// roleConfig is the scheduling policy and flight-recorder directory of
// the manager role. A node alone runs LAF with the paper's defaults and
// no recorder; Cluster sets its Options' choice on every node.
type roleConfig struct {
	newScheduler func(*hashing.ChordRing) (scheduler.Scheduler, error)
	// bundleDir, when set, arms the flight recorder: a job failure or a
	// recovery sweep snapshots a debug bundle into it.
	bundleDir string
}

// lafScheduler builds LAF schedulers, the policy a node runs unless told
// otherwise.
func lafScheduler(cfg scheduler.LAFConfig) func(*hashing.ChordRing) (scheduler.Scheduler, error) {
	return func(ring *hashing.ChordRing) (scheduler.Scheduler, error) {
		return scheduler.NewLAF(cfg, ring)
	}
}

// NewNode constructs (but does not start) a node.
func NewNode(id hashing.NodeID, net transport.Network, cfg Config) (*Node, error) {
	cfg = cfg.withDefaults()
	n := &Node{ID: id, cfg: cfg, net: net, stopHB: make(chan struct{}),
		role: roleConfig{newScheduler: lafScheduler(scheduler.DefaultLAFConfig())}}
	store := dhtfs.NewStore()
	if cfg.DataDir != "" {
		var err error
		store, err = dhtfs.NewStoreAt(filepath.Join(cfg.DataDir, string(id)))
		if err != nil {
			return nil, err
		}
	}
	fs, err := dhtfs.NewServiceWithStore(id, net, n.Ring, cfg.Replicas, store)
	if err != nil {
		return nil, err
	}
	n.fs = fs
	// Half the cache bytes go to the iCache; the rest bound the segment
	// store's finished namespaces, the paper's oCache.
	n.cache = cache.New(cfg.CacheBytes/2, 0)
	fs.SetSegmentBudget(cfg.CacheBytes - cfg.CacheBytes/2)
	n.worker = mapreduce.NewWorker(id, fs, n.cache, net)
	n.tracer = trace.New(string(id), cfg.Trace)
	n.fs.SetTracer(n.tracer)
	n.worker.SetTracer(n.tracer)
	n.events = events.New(string(id), cfg.Events)
	n.fs.SetEvents(n.events)
	n.worker.SetEvents(n.events)
	return n, nil
}

// Tracer exposes the node's span recorder (disabled until SetEnabled).
func (n *Node) Tracer() *trace.Tracer { return n.tracer }

// Events exposes the node's structured event log (always on).
func (n *Node) Events() *events.Log { return n.events }

// FS exposes the node's DHT file system service.
func (n *Node) FS() *dhtfs.Service { return n.fs }

// Cache exposes the node's in-memory cache slice.
func (n *Node) Cache() *cache.NodeCache { return n.cache }

// BlockSize returns the node's configured DHT-FS block size.
func (n *Node) BlockSize() int { return n.cfg.BlockSize }

// AddMetricsSource registers an additional snapshot source (transport
// decorators) merged into MetricsSnapshot and thus served over
// cluster.stats and /metrics.
func (n *Node) AddMetricsSource(src func() metrics.Snapshot) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.extraMetrics = append(n.extraMetrics, src)
}

// MetricsSnapshot merges the node's worker and file system counters,
// its cache statistics, its scheduler's and driver's while it holds the
// manager role, and any registered extra sources into one snapshot.
// Cache hit ratios are refreshed at snapshot time, in basis points (a
// ratio of 1.0 = 10000) so they survive the int64 wire format;
// note ratios are per-node values — cluster-wide ratios must be
// recomputed from the summed hit/miss counters, not by adding these.
func (n *Node) MetricsSnapshot() metrics.Snapshot {
	snap := n.worker.Metrics().Snapshot()
	metrics.Merge(&snap, n.fs.Metrics().Snapshot())
	cs := n.cache.ICache.Stats()
	snap.Values["cache.hits"] = int64(cs.Hits)
	snap.Values["cache.misses"] = int64(cs.Misses)
	snap.Values["cache.insertions"] = int64(cs.Insertions)
	snap.Values["cache.evictions"] = int64(cs.Evictions)
	snap.Values["cache.bytes"] = n.cache.ICache.Bytes()
	snap.Values["cache.hit_ratio_bp"] = int64(cs.HitRatio() * 10000)
	// Ring-overflow gauges, refreshed at snapshot time like the cache
	// figures: invisible overflow is how a debugging session discovers too
	// late that its history was overwritten.
	snap.Values["trace.dropped"] = n.tracer.Dropped()
	snap.Values["events.dropped"] = n.events.Dropped()
	n.mu.Lock()
	extra := append([]func() metrics.Snapshot(nil), n.extraMetrics...)
	mgr := n.mgr
	n.mu.Unlock()
	if mgr != nil {
		extra = append(extra, mgr.sched.Metrics().Snapshot, mgr.driver.Metrics().Snapshot)
	}
	for _, src := range extra {
		metrics.Merge(&snap, src())
	}
	return snap
}

// Ring returns the adopted view's ring, shared with every other reader:
// it must not be changed. Before the first view it is empty.
func (n *Node) Ring() *hashing.ChordRing {
	ring, _ := n.View().Ring() // adopted views are built
	return ring
}

// View returns the node's current membership view.
func (n *Node) View() chord.View {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.view
}

// ManagerID returns the node's notion of the current resource manager.
func (n *Node) ManagerID() hashing.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.manager
}

// IsManager reports whether this node currently holds the resource
// manager role.
func (n *Node) IsManager() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mgr != nil
}

// SetBundleDir arms the flight recorder of the manager role this node
// may take: a job its driver fails, or a recovery sweep, snapshots a
// cluster-wide debug bundle into dir as bundle-<job>-<reason>.json. Call
// before Start.
func (n *Node) SetBundleDir(dir string) { n.role.bundleDir = dir }

// SetExtraHandler installs a fallback handler for methods outside the
// built-in services. Call before Start.
func (n *Node) SetExtraHandler(h func(method string, body []byte) ([]byte, bool, error)) {
	n.extra = h
}

// Start registers the node on the network and launches its heartbeat
// loop.
func (n *Node) Start() error {
	if err := n.net.Listen(n.ID, n.handle); err != nil {
		return err
	}
	n.wg.Add(1)
	go n.heartbeatLoop()
	return nil
}

// Close stops the node's background work and removes it from the network.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	mgr := n.mgr
	n.mu.Unlock()
	close(n.stopHB)
	if mgr != nil {
		mgr.stop()
	}
	n.net.Unlisten(n.ID)
	n.wg.Wait()
}

// BecomeManagerWith bootstraps the manager role on this node with an
// explicit initial ring and epoch, broadcasting the view to every member.
// The view takes ring over: the caller must not change it afterwards.
// Cluster and cmd/eclipse-node call it on the designated bootstrap
// coordinator; subsequent failures are handled by election.
func (n *Node) BecomeManagerWith(ring *hashing.ChordRing, epoch uint64) (*Manager, error) {
	mgr, err := n.promote(chord.NewView(epoch, ring))
	if err != nil {
		return nil, err
	}
	mgr.broadcastView()
	return mgr, nil
}

// promote builds the manager role over view and installs it, unless the
// node is closed or holds the role already.
func (n *Node) promote(view chord.View) (*Manager, error) {
	mgr, err := newManager(n, view)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	taken := n.mgr != nil || n.closed
	if !taken {
		n.mgr = mgr
		n.manager = n.ID
	}
	n.mu.Unlock()
	if taken {
		mgr.stop()
		return nil, fmt.Errorf("cluster: node %s is closed or already the manager", n.ID)
	}
	return mgr, nil
}

// Manager returns this node's resource-manager role, or nil if the node
// does not currently hold it.
func (n *Node) Manager() *Manager {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.mgr
}

// adoptView installs a membership view if it is newer than the current
// one, building its ring once. It returns true if the view was adopted.
func (n *Node) adoptView(v chord.View, manager hashing.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v.Epoch < n.view.Epoch {
		return false
	}
	if v.Epoch == n.view.Epoch && manager == n.manager {
		return true // idempotent refresh
	}
	ring, err := v.Ring()
	if err != nil {
		return false
	}
	n.view = chord.NewView(v.Epoch, ring)
	n.manager = manager
	return true
}

// handle dispatches inbound calls: MapReduce worker methods first, then
// file system methods, then the control plane.
func (n *Node) handle(ctx context.Context, method string, body []byte) ([]byte, error) {
	if out, ok, err := n.worker.Handle(ctx, method, body); ok {
		return out, err
	}
	if out, ok, err := n.fs.Handle(ctx, method, body); ok {
		return out, err
	}
	switch method {
	case methodPing:
		n.mu.Lock()
		resp := pingResp{Epoch: n.view.Epoch, Manager: n.manager}
		n.mu.Unlock()
		return transport.Encode(resp)
	case methodView:
		var msg viewMsg
		if err := transport.Decode(body, &msg); err != nil {
			return nil, err
		}
		n.adoptView(msg.View, msg.Manager)
		return transport.Encode(ack{})
	case methodSuspect:
		var msg suspectMsg
		if err := transport.Decode(body, &msg); err != nil {
			return nil, err
		}
		n.mu.Lock()
		mgr := n.mgr
		n.mu.Unlock()
		if mgr == nil {
			return nil, errors.New("cluster: not the resource manager")
		}
		mgr.reportSuspect(msg.Suspect)
		return transport.Encode(ack{})
	case methodElection:
		var msg electionMsg
		if err := transport.Decode(body, &msg); err != nil {
			return nil, err
		}
		// Bully election: a higher-ID node answers "alive" and launches
		// its own election, suppressing the lower candidate.
		if n.ID > msg.Candidate {
			//lint:ignore goroleak bully election is a bounded round of RPCs; runElection returns once a coordinator is settled
			go n.runElection()
			return transport.Encode(electionResp{Alive: true})
		}
		return transport.Encode(electionResp{Alive: false})
	case methodRecover:
		pushed, err := n.fs.ReReplicate(ctx)
		if err != nil {
			return nil, err
		}
		return transport.Encode(recoverResp{Pushed: pushed})
	case MethodStats:
		return transport.Encode(StatsResp{Node: n.ID, Metrics: n.MetricsSnapshot()})
	case MethodSpans:
		var req SpansReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, err
		}
		return transport.Encode(SpansResp{
			Node: n.ID, Spans: n.tracer.Spans(req.Trace), Dropped: n.tracer.Dropped(),
		})
	case MethodEvents:
		var req EventsReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, err
		}
		return transport.Encode(EventsResp{
			Node: n.ID, Events: n.events.Events(req.Job, req.SinceNS), Dropped: n.events.Dropped(),
		})
	case MethodBundle:
		var req BundleReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, err
		}
		data, err := n.BuildBundleBytes(ctx, req.Job, req.Reason)
		if err != nil {
			return nil, err
		}
		return transport.Encode(BundleResp{Data: data})
	}
	if n.extra != nil {
		if out, ok, err := n.extra(method, body); ok {
			return out, err
		}
	}
	return nil, fmt.Errorf("cluster: unknown method %q", method)
}

// call is the node's typed RPC helper. Control-plane calls are untraced
// (they belong to no job), so the context is a fresh background one.
func (n *Node) call(to hashing.NodeID, method string, req, resp any) error {
	//lint:ignore ctxflow control-plane RPCs (election, recovery) belong to no job; see the function comment
	return n.callCtx(context.Background(), to, method, req, resp)
}

// callCtx is call with caller-controlled cancellation (bundle assembly,
// which fans out on behalf of an RPC that does carry a context).
func (n *Node) callCtx(ctx context.Context, to hashing.NodeID, method string, req, resp any) error {
	body, err := transport.Encode(req)
	if err != nil {
		return err
	}
	out, err := n.net.Call(ctx, to, method, body)
	if err != nil {
		return err
	}
	if resp == nil {
		return nil
	}
	return transport.Decode(out, resp)
}

// heartbeatLoop implements the paper's neighbor heartbeats: each server
// periodically pings its ring successor; after HeartbeatTimeout without a
// response it reports the suspect to the resource manager, and if the
// manager itself is gone it starts an election.
func (n *Node) heartbeatLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.HeartbeatInterval)
	defer ticker.Stop()
	lastSeen := make(map[hashing.NodeID]time.Time)
	for {
		select {
		case <-n.stopHB:
			return
		case <-ticker.C:
		}
		n.mu.Lock()
		view, manager := n.view, n.manager
		n.mu.Unlock()
		ring, _ := view.Ring() // adopted views are built
		if ring.Len() < 2 {
			continue
		}
		succ, err := ring.Successor(n.ID)
		if err != nil {
			continue
		}
		var resp pingResp
		if err := n.call(succ, methodPing, ack{}, &resp); err == nil {
			lastSeen[succ] = time.Now()
			continue
		}
		seen, ok := lastSeen[succ]
		if !ok {
			lastSeen[succ] = time.Now()
			continue
		}
		if time.Since(seen) < n.cfg.HeartbeatTimeout {
			continue
		}
		delete(lastSeen, succ)
		// Successor is dead: tell the resource manager. If we *are* the
		// manager, handle it directly; if the manager is unreachable,
		// elect a new one.
		n.mu.Lock()
		mgr := n.mgr
		n.mu.Unlock()
		if mgr != nil {
			mgr.reportSuspect(succ)
			continue
		}
		if err := n.call(manager, methodSuspect, suspectMsg{Suspect: succ, Reporter: n.ID}, nil); err != nil {
			if errors.Is(err, transport.ErrUnreachable) {
				n.runElection()
			}
		}
	}
}

// runElection performs a bully election over the current view: if any
// higher-ID member is alive, it takes over; otherwise this node becomes
// the resource manager with a scheduler and driver over the members it
// reaches, whose view it derives and broadcasts.
func (n *Node) runElection() {
	n.mu.Lock()
	if n.mgr != nil || n.closed {
		n.mu.Unlock()
		return
	}
	view := n.view
	n.mu.Unlock()
	for id := range view.Members {
		if id <= n.ID {
			continue
		}
		var resp electionResp
		if err := n.call(id, methodElection, electionMsg{Candidate: n.ID}, &resp); err == nil && resp.Alive {
			return // a higher node takes over
		}
	}
	// Probe every member of the view, which may have moved on during the
	// round; survivors form the new view.
	view = n.View()
	var dead []hashing.NodeID
	for id := range view.Members {
		if id == n.ID {
			continue
		}
		var resp pingResp
		if err := n.call(id, methodPing, ack{}, &resp); err != nil {
			dead = append(dead, id)
		}
	}
	// Isolation guard: a node that reaches no other member of a
	// multi-node view is far more likely cut off (or crash-stopped at the
	// transport) than the sole survivor. Promoting it would create a
	// zombie manager nobody else can see; stay a worker and let a
	// reachable node win the election.
	if len(view.Members) > 1 && len(dead) >= len(view.Members)-1 {
		return
	}
	mgr, err := n.promote(view.Without(dead...))
	if err != nil {
		return
	}
	n.events.Emit(events.KindMembership, "member.elect", events.F{Detail: string(n.ID)})
	mgr.broadcastView()
	mgr.directRecovery()
}
