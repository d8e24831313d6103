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
// discrete-event simulator (virtual clock) drive the same code. The three
// share one core — queue, slot table, counters — and differ only in where
// a task goes.
package scheduler

import (
	"math"
	"slices"
	"sort"
	"sync"
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

// core is the state and bookkeeping the three policies share; each policy
// embeds it and adds only where a task goes. Every method that takes the
// mutex is the policy's method too, unless the policy overrides it.
type core struct {
	mu    sync.Mutex
	table *hashing.RangeTable
	// gen advances whenever a queued task's owner, or the owner's slot
	// entry, may have changed: a new table, a node registered or removed.
	gen   uint64
	slots slotTable
	// jobs holds one FIFO per job with queued tasks, in job-name order;
	// byJob indexes it.
	jobs    []*jobQueue
	byJob   map[string]*jobQueue
	pending int
	// rot rotates the job that leads each dispatch round.
	rot   int
	walk  []*jobQueue // scratch for each
	stats Stats
	reg   *metrics.Registry
}

// queued is one task waiting in the queue.
type queued struct {
	task     Task
	enqueued time.Duration
	// owner is the task's range owner and node the owner's slot entry
	// (nil while the owner is not registered), both as of generation gen.
	owner hashing.NodeID
	node  *slot
	gen   uint64
	// skippedAt is when the task first declined an available non-local
	// slot (Delay only); it is meaningful once skipped is set.
	skippedAt time.Duration
	skipped   bool
}

// jobQueue is one job's queued tasks, FIFO. A task a Dispatch takes
// leaves a nil hole until the Dispatch ends.
type jobQueue struct {
	name  string
	tasks []*queued
	holes int
}

func (c *core) init(table *hashing.RangeTable) {
	c.table = table
	c.gen = 1
	c.slots = slotTable{byID: make(map[hashing.NodeID]*slot)}
	c.byJob = make(map[string]*jobQueue)
	c.reg = metrics.NewRegistry()
}

// AddNode registers a worker or updates a known worker's slot capacity;
// outstanding (in-flight) slots are preserved across re-registration.
func (c *core) AddNode(id hashing.NodeID, slots int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.addNodeLocked(id, slots)
}

// addNodeLocked reports whether the node is new.
func (c *core) addNodeLocked(id hashing.NodeID, slots int) bool {
	if !c.slots.add(id, slots) {
		return false
	}
	c.gen++
	return true
}

// RemoveNode drops a worker; its queued work goes elsewhere on later
// Dispatch calls.
func (c *core) RemoveNode(id hashing.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.removeNodeLocked(id)
}

func (c *core) removeNodeLocked(id hashing.NodeID) {
	c.slots.remove(id)
	c.gen++
}

// Submit enqueues a task.
func (c *core) Submit(t Task, now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.enqueueLocked(t, now)
}

func (c *core) enqueueLocked(t Task, now time.Duration) {
	j := c.byJob[t.Job]
	if j == nil {
		j = &jobQueue{name: t.Job}
		c.byJob[t.Job] = j
		i := sort.Search(len(c.jobs), func(i int) bool { return c.jobs[i].name >= t.Job })
		c.jobs = slices.Insert(c.jobs, i, j)
	}
	j.tasks = append(j.tasks, &queued{task: t, enqueued: now})
	c.pending++
}

// beginLocked starts a Dispatch: it advances the rotation and returns how
// many slots are free. With none free no task can move, so the caller
// returns at once.
func (c *core) beginLocked() int {
	c.rot++
	return c.slots.free()
}

// each visits the queued tasks in dispatch order: round-robin over the
// jobs in name order, starting from the job the rotation picks, and FIFO
// within each job. That is the order one merged queue would have if every
// Dispatch re-interleaved it by job, because a job's tasks never change
// their relative order. Concurrent jobs thus share slots fairly (the
// multi-job fairness Hadoop's fair scheduler provides), and the rotation
// keeps ties from always breaking toward the same job. visit reports
// whether it took the task and whether to stop. A taken task stays a hole
// until endLocked, so a second walk in the same Dispatch sees the first
// one's order.
func (c *core) each(visit func(*queued) (took, stop bool)) {
	if len(c.jobs) == 0 {
		return
	}
	r := c.rot % len(c.jobs)
	active := append(append(c.walk[:0], c.jobs[r:]...), c.jobs[:r]...)
	c.walk = active
	for k := 0; len(active) > 0; k++ {
		live := active[:0]
		for _, j := range active {
			if k >= len(j.tasks) {
				continue
			}
			live = append(live, j)
			e := j.tasks[k]
			if e == nil {
				continue
			}
			took, stop := visit(e)
			if took {
				j.tasks[k] = nil
				j.holes++
				c.pending--
			}
			if stop {
				return
			}
		}
		active = live
	}
}

// endLocked ends a Dispatch: it closes the holes taken tasks left and
// drops jobs with nothing queued.
func (c *core) endLocked() {
	c.jobs = slices.DeleteFunc(c.jobs, func(j *jobQueue) bool {
		if j.holes == 0 {
			return false
		}
		j.tasks = slices.DeleteFunc(j.tasks, func(e *queued) bool { return e == nil })
		j.holes = 0
		if len(j.tasks) > 0 {
			return false
		}
		delete(c.byJob, j.name)
		return true
	})
}

// localLocked is the local pass LAF and Delay share: it assigns every
// task whose owner has a free slot, in dispatch order, while any of the
// free slots are left, and returns out and the slots still free.
func (c *core) localLocked(out []Assignment, free int, now time.Duration) ([]Assignment, int) {
	c.each(func(e *queued) (bool, bool) {
		n := c.locate(e)
		if n == nil || n.free() == 0 {
			return false, false
		}
		out = append(out, c.assignLocked(e, n, true, now))
		free--
		return true, free == 0
	})
	return out, free
}

// locate refreshes the task's owner if the table or the membership
// changed since it was last looked up, and returns the owner's slot entry.
func (c *core) locate(e *queued) *slot {
	if e.gen != c.gen {
		e.owner = c.table.Lookup(e.task.HashKey)
		e.node = c.slots.byID[e.owner]
		e.gen = c.gen
	}
	return e.node
}

// assignLocked takes a slot on node for the task and records the
// assignment.
func (c *core) assignLocked(e *queued, node *slot, local bool, now time.Duration) Assignment {
	node.used++
	c.stats.Assigned++
	if local {
		c.stats.LocalAssigns++
	}
	if c.stats.PerNode == nil {
		c.stats.PerNode = make(map[hashing.NodeID]uint64)
	}
	c.stats.PerNode[node.id]++
	wait := now - e.enqueued
	c.stats.TotalWait += wait
	c.reg.Histogram("sched.queue_wait_ns").Observe(int64(wait))
	return Assignment{Task: e.task, Node: node.id, Local: local, Waited: wait}
}

// Release returns a slot to the node.
func (c *core) Release(node hashing.NodeID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots.release(node)
}

// Metrics returns the scheduler's registry.
func (c *core) Metrics() *metrics.Registry { return c.reg }

// NextDeadline reports none: only a slot release lets a task move.
func (c *core) NextDeadline() (time.Duration, bool) { return 0, false }

// RangeTable returns the current hash-key table.
func (c *core) RangeTable() *hashing.RangeTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.table
}

// Slots returns the registered nodes' slots together.
func (c *core) Slots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slots.total()
}

// Pending returns the queued task count.
func (c *core) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pending
}

// Stats returns a snapshot of the counters.
func (c *core) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.stats
	out.PerNode = make(map[hashing.NodeID]uint64, len(c.stats.PerNode))
	for k, v := range c.stats.PerNode {
		out.PerNode[k] = v
	}
	return out
}

// slot is one node's task slots as capacity plus outstanding (dispatched
// but not yet released) count. Keeping the two separate — instead of a
// single decremented "free" number — makes node re-registration safe: a
// heartbeat-driven AddNode for an already-known node updates only the
// capacity, so slots consumed by in-flight tasks are still owed and a
// later Release cannot inflate the node past its configured count.
type slot struct {
	id   hashing.NodeID
	cap  int
	used int
}

// free returns the node's available slots (never negative: a capacity
// shrink below the outstanding count just blocks new dispatches until
// releases catch up).
func (n *slot) free() int {
	return max(n.cap-n.used, 0)
}

// slotTable holds one entry per registered node, indexed by ID and listed
// in ID order so that scans break ties deterministically. Callers hold
// their scheduler's mutex.
type slotTable struct {
	byID  map[hashing.NodeID]*slot
	nodes []*slot
	ties  []*slot // scratch for mostFree
}

// add registers a node, or updates a known node's capacity and keeps its
// outstanding count. It reports whether the node is new.
func (t *slotTable) add(id hashing.NodeID, slots int) bool {
	if n := t.byID[id]; n != nil {
		n.cap = slots
		return false
	}
	n := &slot{id: id, cap: slots}
	t.byID[id] = n
	i := sort.Search(len(t.nodes), func(i int) bool { return t.nodes[i].id >= id })
	t.nodes = slices.Insert(t.nodes, i, n)
	return true
}

// known reports whether the node is registered.
func (t *slotTable) known(id hashing.NodeID) bool {
	return t.byID[id] != nil
}

// remove forgets a node entirely, including slots still in flight (the
// node is presumed dead; its tasks are re-dispatched elsewhere).
func (t *slotTable) remove(id hashing.NodeID) {
	if t.byID[id] == nil {
		return
	}
	delete(t.byID, id)
	t.nodes = slices.DeleteFunc(t.nodes, func(n *slot) bool { return n.id == id })
}

// total sums the capacity of every registered node.
func (t *slotTable) total() int {
	n := 0
	for _, s := range t.nodes {
		n += s.cap
	}
	return n
}

// free sums the free slots of every registered node.
func (t *slotTable) free() int {
	n := 0
	for _, s := range t.nodes {
		n += s.free()
	}
	return n
}

// mostFree returns the nodes with the most free slots, in ID order, or
// none if no slot is free. The result is valid until the next call.
func (t *slotTable) mostFree() []*slot {
	best := 0
	t.ties = t.ties[:0]
	for _, n := range t.nodes {
		switch f := n.free(); {
		case f > best:
			best = f
			t.ties = append(t.ties[:0], n)
		case f == best && f > 0:
			t.ties = append(t.ties, n)
		}
	}
	return t.ties
}

// release returns one slot, clamping at zero outstanding so spurious
// releases (e.g. a duplicate completion after failover) cannot mint
// capacity.
func (t *slotTable) release(id hashing.NodeID) {
	if n := t.byID[id]; n != nil && n.used > 0 {
		n.used--
	}
}
