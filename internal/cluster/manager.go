package cluster

import (
	"context"
	"sync"
	"time"

	"eclipsemr/internal/chord"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/scheduler"
	"eclipsemr/internal/transport"
)

// Manager is the resource manager and job scheduler role (§II: the
// manager is "responsible for server join, leave, failure recovery, and
// file upload", and the same node runs the job scheduler). Exactly one
// live node holds it at a time; it owns the authoritative membership view
// and derives the next on every change, disseminates views, verifies
// failure reports, directs re-replication, and runs the job scheduler and
// the MapReduce driver that dispatches through it. A node builds all of it when it is
// promoted, at bootstrap or by election, so an elected manager starts a
// fresh scheduler from its own view; joins and failures update the
// scheduler's slots, and stopping the role closes the driver.
type Manager struct {
	node *Node
	// verify wraps the node's network with its own bounded retry for
	// suspect-verification pings: eviction is expensive (re-replication,
	// task failover), so one dropped verify packet on a lossy link must
	// not condemn a healthy node. Never Closed — closing a Retry closes
	// the shared inner network.
	verify  transport.Network
	sched   scheduler.Scheduler
	driver  *mapreduce.Driver
	mu      sync.Mutex
	view    chord.View
	stopped bool
}

// verifyRetryPolicy is the suspect-verification ping budget: generous
// attempts with short, deterministic backoff, so verification stays well
// under a heartbeat period even when several retries are needed.
func verifyRetryPolicy() transport.RetryPolicy {
	return transport.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond,
		MaxDelay: 20 * time.Millisecond, Multiplier: 2, JitterFrac: 0.5, Seed: 1}
}

// newManager builds the role object on a node with an initial view: a
// scheduler holding a slot entry for every member, and a driver that
// records its spans and events on the node and, with the flight recorder
// armed, captures a debug bundle from it.
func newManager(n *Node, view chord.View) (*Manager, error) {
	ring, _ := view.Ring() // promoted views are built
	sched, err := n.role.newScheduler(ring)
	if err != nil {
		return nil, err
	}
	for _, id := range ring.Members() {
		sched.AddNode(id, n.cfg.MapSlots)
	}
	driver, err := mapreduce.NewDriver(n.ID, n.net, n.fs, sched, n.Ring, n.cfg.ReduceSlots)
	if err != nil {
		return nil, err
	}
	driver.SetTracer(n.tracer)
	driver.SetEvents(n.events)
	if dir := n.role.bundleDir; dir != "" {
		driver.SetFlightRecorder(func(job, reason string) { n.captureBundle(dir, job, reason) })
	}
	return &Manager{
		node:   n,
		verify: transport.NewRetry(n.net, verifyRetryPolicy()),
		sched:  sched,
		driver: driver,
		view:   view,
	}, nil
}

// stop deactivates the role and closes its driver: jobs still running on
// it fail with "driver closed", and their journals stay for Resume.
func (m *Manager) stop() {
	m.mu.Lock()
	m.stopped = true
	m.mu.Unlock()
	m.driver.Close()
}

// Driver returns the role's job driver.
func (m *Manager) Driver() *mapreduce.Driver { return m.driver }

// Epoch returns the current membership epoch.
func (m *Manager) Epoch() uint64 {
	return m.current().Epoch
}

// Members returns the live membership in ring order.
func (m *Manager) Members() []hashing.NodeID {
	ring, _ := m.current().Ring() // the role's views are built
	return ring.Members()
}

// Join admits a new worker: the view of the next epoch has it on the
// ring, the view is broadcast, data is re-balanced onto the newcomer and
// the scheduler gives it slots.
func (m *Manager) Join(id hashing.NodeID) error {
	m.mu.Lock()
	next, err := m.view.Join(id)
	if err != nil {
		m.mu.Unlock()
		return err
	}
	m.view = next
	m.mu.Unlock()
	m.node.events.Emit(events.KindMembership, "member.join", events.F{Detail: string(id)})
	m.broadcastView()
	m.directRecovery()
	m.sched.AddNode(id, m.node.cfg.MapSlots)
	return nil
}

// reportSuspect handles a failure report from a neighbor heartbeat: the
// manager verifies the suspect itself before declaring it dead (a report
// may be due to a partition local to the reporter).
func (m *Manager) reportSuspect(suspect hashing.NodeID) {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	if !m.view.Has(suspect) {
		m.mu.Unlock()
		return // already removed
	}
	m.mu.Unlock()
	m.node.events.Emit(events.KindMembership, "member.suspect", events.F{Detail: string(suspect)})
	if err := m.verifyPing(suspect); err == nil {
		return // false alarm
	}
	m.Fail(suspect)
}

// verifyPing probes a suspect through the retried verification network:
// transient drops are absorbed by the retry budget, so only sustained
// unreachability condemns the node.
func (m *Manager) verifyPing(suspect hashing.NodeID) error {
	body, err := transport.Encode(ack{})
	if err != nil {
		return err
	}
	//lint:ignore ctxflow liveness probe on the manager's own clock; it belongs to no job or request, so there is no caller ctx to thread
	out, err := m.verify.Call(context.Background(), suspect, methodPing, body)
	if err != nil {
		return err
	}
	var resp pingResp
	return transport.Decode(out, &resp)
}

// Fail evicts a dead worker: the view of the next epoch lacks it, the
// view is broadcast, every survivor is directed to re-replicate, restoring
// the replication invariant from the copies the predecessor and successor
// hold, and the worker's slots leave the scheduler.
func (m *Manager) Fail(id hashing.NodeID) {
	m.mu.Lock()
	if !m.view.Has(id) {
		m.mu.Unlock()
		return
	}
	m.view = m.view.Without(id)
	m.mu.Unlock()
	m.node.events.Emit(events.KindMembership, "member.evict", events.F{Detail: string(id)})
	m.broadcastView()
	m.directRecovery()
	m.sched.RemoveNode(id)
}

// current returns the authoritative view.
func (m *Manager) current() chord.View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view
}

// broadcastView pushes the current view to every member (including the
// local node, through adoptView directly).
func (m *Manager) broadcastView() {
	v := m.current()
	m.node.adoptView(v, m.node.ID)
	for id := range v.Members {
		if id == m.node.ID {
			continue
		}
		_ = m.node.call(id, methodView, viewMsg{View: v, Manager: m.node.ID}, nil) // best effort
	}
}

// directRecovery asks every member to run re-replication against the new
// view. Errors are tolerated: the next membership change retries.
func (m *Manager) directRecovery() {
	v := m.current()
	for id := range v.Members {
		if id == m.node.ID {
			//lint:ignore ctxflow membership-change recovery runs on the manager's own authority; no request context exists
			_, _ = m.node.fs.ReReplicate(context.Background())
			continue
		}
		var resp recoverResp
		_ = m.node.call(id, methodRecover, ack{}, &resp)
	}
}
