package scheduler

import (
	"sync"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
)

// DelayConfig parameterizes the delay scheduler.
type DelayConfig struct {
	// Wait is how long a task waits for its (static) range owner before
	// being reassigned to any free server. Spark's suggested value, used
	// by the paper, is 5 seconds. Wait < 0 means unlimited waiting, the
	// behaviour the paper ascribes to LAF with weight factor 0.
	Wait time.Duration
}

// DefaultDelayConfig returns the paper's 5-second delay.
func DefaultDelayConfig() DelayConfig { return DelayConfig{Wait: 5 * time.Second} }

// Delay implements the paper's variant of Spark's delay scheduling
// (§II-F): hash-key ranges are fixed and aligned with the DHT file
// system; a task prefers its range owner and is launched non-locally
// only after it has been *skipped* — passed over while some other server
// had a free slot — for cfg.Wait, matching the delay-scheduling rule of
// Zaharia et al. [33] (the wait clock does not run while the whole
// cluster is saturated, since there is no slot the task is declining).
type Delay struct {
	mu    sync.Mutex
	cfg   DelayConfig
	table *hashing.RangeTable
	slots slotTable
	queue []delayTask
	stats Stats
	reg   *metrics.Registry
	// rrOffset rotates the job that leads each dispatch round.
	rrOffset int
}

type delayTask struct {
	pendingTask
	// skippedAt is when the task first declined an available non-local
	// slot; zero means it has not been skipped yet.
	skippedAt time.Duration
	skipped   bool
}

var _ Scheduler = (*Delay)(nil)

// NewDelay builds a Delay scheduler over the DHT file system ring; the
// hash-key table is aligned with the ring and never changes.
func NewDelay(cfg DelayConfig, ring *hashing.ChordRing) (*Delay, error) {
	table, err := ring.RangeTable()
	if err != nil {
		return nil, err
	}
	return &Delay{
		cfg:   cfg,
		table: table,
		slots: newSlotTable(),
		reg:   metrics.NewRegistry(),
	}, nil
}

// AddNode registers a worker or updates a known worker's slot capacity;
// outstanding (in-flight) slots are preserved across re-registration.
func (s *Delay) AddNode(id hashing.NodeID, slots int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots.add(id, slots)
}

// RemoveNode drops a worker.
func (s *Delay) RemoveNode(id hashing.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots.remove(id)
}

// Submit enqueues a task.
func (s *Delay) Submit(t Task, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, delayTask{pendingTask: pendingTask{task: t, enqueued: now}})
}

// Dispatch assigns tasks in two passes, the way delay scheduling offers
// slots: every free slot first goes to a queued task that is local to it;
// only slots that no queued task wants locally are offered to waiting
// tasks, which accept non-local slots once they have been skipped —
// passed over while such a slot was available — for cfg.Wait.
func (s *Delay) Dispatch(now time.Duration) []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Assignment
	s.rrOffset++
	s.queue = interleaveByJob(s.queue, func(p delayTask) string { return p.task.Job }, s.rrOffset)
	// Pass 1: local assignments, FIFO per owner.
	remaining := s.queue[:0]
	for i := range s.queue {
		p := s.queue[i]
		owner := s.table.Lookup(p.task.HashKey)
		if s.slots.known(owner) && s.slots.free(owner) > 0 {
			s.slots.take(owner)
			out = append(out, s.assignLocked(p.pendingTask, owner, true, now))
			continue
		}
		remaining = append(remaining, p)
	}
	s.queue = remaining
	// Pass 2: slots nobody wants locally are offered to waiting tasks.
	// The skip clock starts at the first declined offer; after cfg.Wait
	// the task accepts a non-local slot.
	if _, anyFree := s.mostFreeLocked(); !anyFree {
		return out
	}
	remaining = s.queue[:0]
	for i := range s.queue {
		p := s.queue[i]
		node, anyFree := s.mostFreeLocked()
		if !anyFree {
			remaining = append(remaining, s.queue[i:]...)
			break
		}
		if !p.skipped {
			p.skipped = true
			p.skippedAt = now
		}
		if s.cfg.Wait >= 0 && now-p.skippedAt >= s.cfg.Wait {
			s.slots.take(node)
			s.stats.DelayExpired++
			owner := s.table.Lookup(p.task.HashKey)
			out = append(out, s.assignLocked(p.pendingTask, node, node == owner, now))
			continue
		}
		remaining = append(remaining, p)
	}
	s.queue = remaining
	return out
}

// mostFreeLocked returns the server with the most free slots. Ties break
// deterministically by node ID so simulation runs are reproducible.
// Caller holds s.mu.
func (s *Delay) mostFreeLocked() (hashing.NodeID, bool) {
	var best hashing.NodeID
	bestFree := 0
	for id := range s.slots.caps {
		f := s.slots.free(id)
		if f > bestFree || (f == bestFree && f > 0 && id < best) {
			best, bestFree = id, f
		}
	}
	return best, bestFree > 0
}

func (s *Delay) assignLocked(p pendingTask, node hashing.NodeID, local bool, now time.Duration) Assignment {
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

// Release returns a slot to the node.
func (s *Delay) Release(node hashing.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots.release(node)
}

// Metrics returns the scheduler's registry.
func (s *Delay) Metrics() *metrics.Registry { return s.reg }

// NextDeadline returns the earliest instant a skipped task's delay
// expires, so a virtual-time driver knows when Dispatch could make
// progress without a Release. Tasks that have never been skipped carry no
// deadline: they advance only when their owner frees a slot.
func (s *Delay) NextDeadline() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cfg.Wait < 0 {
		return 0, false
	}
	var earliest time.Duration
	found := false
	for _, p := range s.queue {
		if !p.skipped {
			continue
		}
		d := p.skippedAt + s.cfg.Wait
		if !found || d < earliest {
			earliest, found = d, true
		}
	}
	return earliest, found
}

// RangeTable returns the static hash-key table.
func (s *Delay) RangeTable() *hashing.RangeTable {
	return s.table
}

// Slots returns the registered nodes' slots together.
func (s *Delay) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots.total()
}

// Pending returns the queued task count.
func (s *Delay) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Stats returns a snapshot of the counters.
func (s *Delay) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cloneStats(s.stats)
}
