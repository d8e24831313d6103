// Package scheduler implements EclipseMR's job scheduling policies:
//
//   - LAF, the locality-aware fair scheduler (Algorithm 1 of the paper):
//     assigns each task to the server whose dynamically re-partitioned
//     hash-key range covers the task's input hash key, and periodically
//     re-cuts the key space into equally-probable ranges using a
//     box-kernel density estimate with a moving average.
//   - Delay, the paper's variant of Spark's delay scheduling: static
//     hash-key ranges aligned with the DHT file system; a task waits up
//     to a configurable delay (5 s in Spark) for its range owner before
//     being reassigned to any free server.
//   - Fair, a locality-unaware least-loaded scheduler resembling Hadoop's
//     default fair scheduling, used as a baseline.
//
// Schedulers are pure state machines over an abstract clock: callers feed
// task submissions, slot releases and the current time, and pull ready
// assignments. Both the real cluster runtime (wall clock) and the
// discrete-event simulator (virtual clock) drive the same code.
package scheduler

import (
	"math"
	"sort"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/metrics"
)

// Task is one schedulable unit of work (a map or reduce task).
type Task struct {
	// Job identifies the owning job.
	Job string
	// ID is unique within the job.
	ID string
	// HashKey is the hash key of the task's input data (the input block
	// for map tasks, the intermediate-result key range for reduce tasks).
	// The scheduler predicts cache locality from it.
	HashKey hashing.Key
}

// Assignment binds a task to a worker server.
type Assignment struct {
	Task Task
	Node hashing.NodeID
	// Local reports whether the node's hash-key range covered the task's
	// key at assignment time, i.e. whether the scheduler predicts a cache
	// hit.
	Local bool
	// Waited is how long the task sat in the queue.
	Waited time.Duration
}

// Scheduler is the interface shared by all policies. Implementations are
// safe for concurrent use.
type Scheduler interface {
	// AddNode registers a worker with the given number of task slots.
	AddNode(id hashing.NodeID, slots int)
	// RemoveNode deregisters a worker; its queued work is reassigned on
	// subsequent Dispatch calls.
	RemoveNode(id hashing.NodeID)
	// Submit enqueues a task at the given time.
	Submit(t Task, now time.Duration)
	// Dispatch returns every assignment that can be made at time now,
	// consuming slots. It never blocks.
	Dispatch(now time.Duration) []Assignment
	// Release returns a slot on the node, typically on task completion.
	Release(node hashing.NodeID)
	// NextDeadline reports the earliest future instant at which Dispatch
	// could produce new assignments without any Release — only the Delay
	// policy has such deadlines.
	NextDeadline() (time.Duration, bool)
	// RangeTable returns the scheduler's current hash-key table.
	RangeTable() *hashing.RangeTable
	// Pending returns the number of queued, unassigned tasks.
	Pending() int
	// Slots returns the task slots of every registered node together:
	// how many tasks the cluster runs at once.
	Slots() int
	// Stats returns a snapshot of scheduling counters.
	Stats() Stats
	// Metrics returns the scheduler's registry (queue-wait histogram,
	// repartition timings) for inclusion in node-level snapshots.
	Metrics() *metrics.Registry
}

// Stats captures the load-balance and locality behaviour the paper
// measures in §III-C.
type Stats struct {
	Assigned     uint64
	LocalAssigns uint64
	// PerNode counts tasks assigned to each node; the paper reports the
	// standard deviation of processed tasks per slot.
	PerNode map[hashing.NodeID]uint64
	// Repartitions counts hash-key-range recomputations (LAF only).
	Repartitions uint64
	// DelayExpired counts tasks that gave up waiting for their range
	// owner (Delay only).
	DelayExpired uint64
	// TotalWait accumulates queue wait across assigned tasks.
	TotalWait time.Duration
}

// LocalityRatio returns the fraction of assignments predicted local.
func (s Stats) LocalityRatio() float64 {
	if s.Assigned == 0 {
		return 0
	}
	return float64(s.LocalAssigns) / float64(s.Assigned)
}

// LoadStdDev returns the standard deviation of per-node assignment counts,
// the paper's load-balance metric.
func (s Stats) LoadStdDev() float64 {
	n := len(s.PerNode)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, c := range s.PerNode {
		sum += float64(c)
	}
	mean := sum / float64(n)
	var ss float64
	for _, c := range s.PerNode {
		d := float64(c) - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// interleaveByJob reorders queued tasks into a round-robin across jobs
// while preserving each job's internal FIFO order. Schedulers apply it at
// dispatch so concurrent jobs share slots fairly (the multi-job fairness
// Hadoop's fair scheduler provides); with a single job the order is
// unchanged. rot rotates which job leads each round so ties do not always
// break toward the same job — callers advance it per dispatch.
func interleaveByJob[T any](q []T, jobOf func(T) string, rot int) []T {
	if len(q) < 2 {
		return q
	}
	// Cheap single-job fast path: the overwhelmingly common case inside
	// one job's map phase needs no regrouping (and no allocations).
	first := jobOf(q[0])
	multi := false
	for i := 1; i < len(q); i++ {
		if jobOf(q[i]) != first {
			multi = true
			break
		}
	}
	if !multi {
		return q
	}
	byJob := make(map[string][]T)
	for _, t := range q {
		j := jobOf(t)
		byJob[j] = append(byJob[j], t)
	}
	if len(byJob) < 2 {
		return q
	}
	// The round order must be independent of the queue's current layout
	// (which the previous interleave already rotated), or the rotation
	// cancels itself and ties permanently favor one job: use the sorted
	// job names, rotated by the caller's counter.
	order := make([]string, 0, len(byJob))
	for j := range byJob {
		order = append(order, j)
	}
	sort.Strings(order)
	if r := rot % len(order); r > 0 {
		order = append(order[r:], order[:r]...)
	}
	out := q[:0:0]
	for len(out) < len(q) {
		for _, j := range order {
			if tasks := byJob[j]; len(tasks) > 0 {
				out = append(out, tasks[0])
				byJob[j] = tasks[1:]
			}
		}
	}
	return out
}

// slotTable tracks per-node task slots as capacity plus outstanding
// (dispatched but not yet released) counts. Keeping the two separate —
// instead of a single decremented "free" number — makes node
// re-registration safe: a heartbeat-driven AddNode for an already-known
// node updates only the capacity, so slots consumed by in-flight tasks
// are still owed and a later Release cannot inflate the node past its
// configured count. Callers hold their scheduler's mutex.
type slotTable struct {
	caps map[hashing.NodeID]int
	used map[hashing.NodeID]int
}

func newSlotTable() slotTable {
	return slotTable{caps: make(map[hashing.NodeID]int), used: make(map[hashing.NodeID]int)}
}

// add registers a node or updates a known node's capacity, preserving its
// outstanding count.
func (t slotTable) add(id hashing.NodeID, slots int) {
	t.caps[id] = slots
}

// known reports whether the node is registered.
func (t slotTable) known(id hashing.NodeID) bool {
	_, ok := t.caps[id]
	return ok
}

// total sums the capacity of every registered node.
func (t slotTable) total() int {
	n := 0
	for _, c := range t.caps {
		n += c
	}
	return n
}

// remove forgets a node entirely, including slots still in flight (the
// node is presumed dead; its tasks are re-dispatched elsewhere).
func (t slotTable) remove(id hashing.NodeID) {
	delete(t.caps, id)
	delete(t.used, id)
}

// free returns the node's currently available slots (never negative: a
// capacity shrink below the outstanding count just blocks new dispatches
// until releases catch up).
func (t slotTable) free(id hashing.NodeID) int {
	f := t.caps[id] - t.used[id]
	if f < 0 {
		return 0
	}
	return f
}

// take consumes one slot on the node.
func (t slotTable) take(id hashing.NodeID) {
	t.used[id]++
}

// release returns one slot, clamping at zero outstanding so spurious
// releases (e.g. a duplicate completion after failover) cannot mint
// capacity.
func (t slotTable) release(id hashing.NodeID) {
	if !t.known(id) {
		return
	}
	if t.used[id] > 0 {
		t.used[id]--
	}
}

// cloneStats deep-copies counters for snapshot returns.
func cloneStats(s Stats) Stats {
	out := s
	out.PerNode = make(map[hashing.NodeID]uint64, len(s.PerNode))
	for k, v := range s.PerNode {
		out.PerNode[k] = v
	}
	return out
}
