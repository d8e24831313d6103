package scheduler

import (
	"slices"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/kde"
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
	core
	cfg LAFConfig
	est *kde.Estimator
	// order is the fixed server order to which CDF partitions are
	// assigned; it follows ring order so range shifts move load between
	// ring neighbors (enabling the misplaced-cache migration option).
	order []hashing.NodeID
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
	s := &LAF{cfg: cfg, est: est, order: table.Servers()}
	s.init(table)
	return s, nil
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
	if s.addNodeLocked(id, slots) && !slices.Contains(s.order, id) {
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
	s.removeNodeLocked(id)
	if i := slices.Index(s.order, id); i >= 0 {
		s.order = slices.Delete(s.order, i, i+1)
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
	s.enqueueLocked(t, now)
	if s.cfg.KDE.Alpha > 0 && s.est.Add(t.HashKey) {
		s.repartitionLocked()
		s.stats.Repartitions++
	}
}

// Dispatch assigns every queued task whose range owner has a free slot,
// in dispatch order. This is the paper's while-loop: a task waits for the
// server covering its hash key; because ranges are equally probable, the
// wait is balanced across servers.
func (s *LAF) Dispatch(now time.Duration) []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	free := s.beginLocked()
	if free == 0 {
		return nil
	}
	out, _ := s.localLocked(nil, free, now)
	s.endLocked()
	return out
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
	s.gen++
}
