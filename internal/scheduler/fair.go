package scheduler

import (
	"math/rand"
	"sort"
	"sync"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
)

// Fair is a locality-unaware least-loaded scheduler resembling Hadoop's
// default fair scheduling: each task goes to the server with the most
// free slots, FIFO. It serves as the baseline that trades all cache
// locality for immediate dispatch.
type Fair struct {
	mu    sync.Mutex
	table *hashing.RangeTable // retained only so locality can be *measured*
	slots slotTable
	queue []pendingTask
	stats Stats
	reg   *metrics.Registry
	// rrOffset rotates the job that leads each dispatch round.
	rrOffset int
	// rnd breaks ties between equally loaded servers. Picking by node ID
	// instead would make placement mirror itself across identical job
	// runs, silently granting the locality-unaware baseline warm caches.
	// The fixed seed keeps the scheduler deterministic as a whole while
	// the stream position still separates one dispatch from the next.
	rnd *rand.Rand
}

var _ Scheduler = (*Fair)(nil)

// NewFair builds a Fair scheduler. The ring is used only to report which
// assignments happened to be local; it does not influence placement.
func NewFair(ring *hashing.ChordRing) (*Fair, error) {
	table, err := ring.RangeTable()
	if err != nil {
		return nil, err
	}
	return &Fair{
		table: table,
		slots: newSlotTable(),
		rnd:   rand.New(rand.NewSource(1)),
		reg:   metrics.NewRegistry(),
	}, nil
}

// AddNode registers a worker or updates a known worker's slot capacity;
// outstanding (in-flight) slots are preserved across re-registration.
func (s *Fair) AddNode(id hashing.NodeID, slots int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots.add(id, slots)
}

// RemoveNode drops a worker.
func (s *Fair) RemoveNode(id hashing.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots.remove(id)
}

// Submit enqueues a task.
func (s *Fair) Submit(t Task, now time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queue = append(s.queue, pendingTask{task: t, enqueued: now})
}

// Dispatch assigns queued tasks to the least-loaded servers, FIFO.
func (s *Fair) Dispatch(now time.Duration) []Assignment {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Assignment
	s.rrOffset++
	s.queue = interleaveByJob(s.queue, func(p pendingTask) string { return p.task.Job }, s.rrOffset)
	for len(s.queue) > 0 {
		node, ok := s.mostFreeLocked()
		if !ok {
			break
		}
		p := s.queue[0]
		s.queue = s.queue[1:]
		s.slots.take(node)
		local := s.table.Lookup(p.task.HashKey) == node
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
		out = append(out, Assignment{Task: p.task, Node: node, Local: local, Waited: wait})
	}
	return out
}

func (s *Fair) mostFreeLocked() (hashing.NodeID, bool) {
	bestFree := 0
	var ties []hashing.NodeID
	for id := range s.slots.caps {
		f := s.slots.free(id)
		switch {
		case f > bestFree:
			bestFree = f
			ties = ties[:0]
			ties = append(ties, id)
		case f == bestFree && f > 0:
			ties = append(ties, id)
		}
	}
	if bestFree == 0 {
		return "", false
	}
	sort.Slice(ties, func(i, j int) bool { return ties[i] < ties[j] })
	return ties[s.rnd.Intn(len(ties))], true
}

// Release returns a slot to the node.
func (s *Fair) Release(node hashing.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots.release(node)
}

// Metrics returns the scheduler's registry.
func (s *Fair) Metrics() *metrics.Registry { return s.reg }

// NextDeadline always reports none.
func (s *Fair) NextDeadline() (time.Duration, bool) { return 0, false }

// RangeTable returns the (measurement-only) DHT-aligned table.
func (s *Fair) RangeTable() *hashing.RangeTable { return s.table }

// Slots returns the registered nodes' slots together.
func (s *Fair) Slots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.slots.total()
}

// Pending returns the queued task count.
func (s *Fair) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Stats returns a snapshot of the counters.
func (s *Fair) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cloneStats(s.stats)
}
