package scheduler

import (
	"sync"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/kde"
	"eclipsemr/internal/metrics"
)

// LAFConfig parameterizes the locality-aware fair scheduler.
type LAFConfig struct {
	// KDE holds the density-estimation parameters (bins, bandwidth,
	// alpha, window). Alpha is the weight factor from Algorithm 1: 1
	// considers only the current workload (perfect load balance), values
	// near 0 track the long-term cached-data distribution. Weight factor
	// exactly 0 disables re-partitioning altogether so the ranges stay
	// fixed at their initial (DHT-aligned) state.
	KDE kde.Config
}

// DefaultLAFConfig mirrors the paper's settled parameters (alpha=0.001).
func DefaultLAFConfig() LAFConfig {
	return LAFConfig{KDE: kde.DefaultConfig()}
}

// LAF implements Algorithm 1. A task is dispatched only to the server
// whose current hash-key range contains the task's input hash key; each
// assignment feeds the density estimator, and every completed window
// re-partitions the key space into equally-probable ranges.
type LAF struct {
	mu    sync.Mutex
	cfg   LAFConfig
	est   *kde.Estimator
	table *hashing.RangeTable
	// order is the fixed server order to which CDF partitions are
	// assigned; it follows ring order so range shifts move load between
	// ring neighbors (enabling the misplaced-cache migration option).
	order []hashing.NodeID
	slots slotTable
	queue []pendingTask
	stats Stats
	// rrOffset rotates the job that leads each dispatch round.
	rrOffset int
	reg      *metrics.Registry
}

type pendingTask struct {
	task     Task
	enqueued time.Duration
}

var _ Scheduler = (*LAF)(nil)

// NewLAF builds a LAF scheduler. The initial hash-key table is the ring's
// RangeTable, aligned with its arcs (the paper's starting state); pass a
// ring containing the worker servers. Workers still must be registered
// with AddNode to receive slots.
func NewLAF(cfg LAFConfig, ring *hashing.ChordRing) (*LAF, error) {
	est, err := kde.New(cfg.KDE)
	if err != nil {
		return nil, err
	}
	table, err := ring.RangeTable()
	if err != nil {
		return nil, err
	}
	return &LAF{
		cfg:   cfg,
		est:   est,
		table: table,
		order: table.Servers(),
		slots: newSlotTable(),
		reg:   metrics.NewRegistry(),
	}, nil
}

// AddNode registers a worker with the given slot count. Nodes unknown to
// the initial ring are appended to the partition order and the key space
// re-cut uniformly. Re-registering a known node (heartbeat refresh)
// updates only its capacity: slots held by in-flight tasks stay
// outstanding, so their eventual Release cannot push the node past its
// configured count.
func (s *LAF) AddNode(id hashing.NodeID, slots int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.slots.known(id) {
		s.slots.add(id, slots)
		return
	}
	s.slots.add(id, slots)
	known := false
	for _, o := range s.order {
		if o == id {
			known = true
			break
		}
	}
	if !known {
		s.order = append(s.order, id)
		s.repartitionLocked()
	}
}

// RemoveNode drops a worker; its hash-key range is redistributed on the
// next repartition (and immediately via a uniform re-cut so queued tasks
// are not orphaned).
func (s *LAF) RemoveNode(id hashing.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots.remove(id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
	if len(s.order) > 0 {
		s.repartitionLocked()
	}
}

// Submit enqueues a task and feeds its hash key to the density estimator
// (line 10 of Algorithm 1). The key is recorded at arrival, not at slot
// assignment: Algorithm 1 handles each incoming task to completion before
// the next, so its distribution sees the workload's true arrival mix. An
// implementation that recorded keys when a slot was found would observe a
// capacity-biased mix — every server's range appears equally popular
// because every server assigns at its slot rate — and the re-partition
// would fix-point at the current ranges instead of adapting.
func (s *LAF) Submit(t Task, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, pendingTask{task: t, enqueued: now})
	if s.cfg.KDE.Alpha > 0 && s.est.Add(t.HashKey) {
		s.repartitionLocked()
		s.stats.Repartitions++
	}
}

// Dispatch assigns every queued task whose range owner has a free slot,
// in FIFO order. This is the paper's while-loop: a task waits for the
// server covering its hash key; because ranges are equally probable, the
// wait is balanced across servers.
func (s *LAF) Dispatch(now time.Duration) []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Assignment
	s.rrOffset++
	s.queue = interleaveByJob(s.queue, func(p pendingTask) string { return p.task.Job }, s.rrOffset)
	remaining := s.queue[:0]
	for _, p := range s.queue {
		owner := s.table.Lookup(p.task.HashKey)
		if s.slots.known(owner) && s.slots.free(owner) > 0 {
			s.slots.take(owner)
			out = append(out, s.assignLocked(p, owner, true, now))
		} else {
			remaining = append(remaining, p)
		}
	}
	s.queue = remaining
	return out
}

// assignLocked records an assignment. Caller holds s.mu.
func (s *LAF) assignLocked(p pendingTask, node hashing.NodeID, local bool, now time.Duration) Assignment {
	s.stats.Assigned++
	if local {
		s.stats.LocalAssigns++
	}
	if s.stats.PerNode == nil {
		s.stats.PerNode = make(map[hashing.NodeID]uint64)
	}
	s.stats.PerNode[node]++
	wait := now - p.enqueued
	s.stats.TotalWait += wait
	s.reg.Histogram("sched.queue_wait_ns").Observe(int64(wait))
	return Assignment{Task: p.task, Node: node, Local: local, Waited: wait}
}

// repartitionLocked re-cuts the key space into equally-probable ranges
// over the current server order. Caller holds s.mu.
func (s *LAF) repartitionLocked() {
	t := s.reg.Histogram("sched.repartition_ns").Start()
	defer t.Stop()
	s.reg.Counter("sched.repartitions").Inc()
	bounds, err := s.est.Partition(len(s.order))
	if err != nil {
		return // no servers; nothing to schedule onto anyway
	}
	table, err := hashing.NewRangeTable(s.order, bounds)
	if err != nil {
		return
	}
	s.table = table
}

// Release returns a slot to the node.
func (s *LAF) Release(node hashing.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots.release(node)
}

// Metrics returns the scheduler's registry.
func (s *LAF) Metrics() *metrics.Registry { return s.reg }

// NextDeadline always reports none: LAF assignments are unlocked only by
// slot releases.
func (s *LAF) NextDeadline() (time.Duration, bool) { return 0, false }

// RangeTable returns the current hash-key table.
func (s *LAF) RangeTable() *hashing.RangeTable {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.table
}

// Slots returns the registered nodes' slots together.
func (s *LAF) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots.total()
}

// Pending returns the queued task count.
func (s *LAF) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Stats returns a snapshot of the counters.
func (s *LAF) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cloneStats(s.stats)
}
