// Package sim is a deterministic discrete-event simulation substrate used
// to regenerate the paper's performance figures at the paper's nominal
// scale (hundreds of gigabytes, 40 nodes) in milliseconds of wall time.
// It provides a virtual clock with an event queue, FCFS queueing
// resources (disks, task slots, a NameNode RPC queue) and a max-min
// fair-shared flow network (NICs and switch uplinks).
package sim

import (
	"container/heap"
	"math"
	"slices"
	"time"
)

// Time is virtual seconds since simulation start.
type Time = float64

type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among simultaneous events
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Sim is one virtual timeline. It is strictly single-threaded: all event
// callbacks run inline in Run, so no synchronization is needed and every
// run is bit-for-bit reproducible.
type Sim struct {
	now Time
	pq  eventHeap
	seq uint64
}

// New returns an empty simulation at time zero.
func New() *Sim { return &Sim{} }

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// At schedules fn at absolute time t (clamped to now).
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (s *Sim) After(d Time, fn func()) { s.At(s.now+d, fn) }

// Run executes events until the queue drains, returning the final time.
func (s *Sim) Run() Time {
	for s.pq.Len() > 0 {
		e := heap.Pop(&s.pq).(event)
		s.now = e.at
		e.fn()
	}
	return s.now
}

// RunUntil executes events with at <= t, then sets the clock to t.
func (s *Sim) RunUntil(t Time) {
	for s.pq.Len() > 0 && s.pq[0].at <= t {
		e := heap.Pop(&s.pq).(event)
		s.now = e.at
		e.fn()
	}
	if t > s.now {
		s.now = t
	}
}

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return s.pq.Len() }

// Clock adapts virtual time to a time.Time source (for cache TTLs).
func (s *Sim) Clock() func() time.Time {
	return func() time.Time {
		return time.Unix(0, int64(s.now*1e9))
	}
}

// Duration converts virtual seconds to a time.Duration (for scheduler
// clocks).
func Duration(t Time) time.Duration { return time.Duration(t * float64(time.Second)) }

// Seconds converts a time.Duration to virtual seconds.
func Seconds(d time.Duration) Time { return d.Seconds() }

// Queue is a FCFS service center with a fixed number of parallel servers
// (an HDD with one head, a pool of task slots, a NameNode handling one
// RPC at a time). Jobs carry explicit service times.
type Queue struct {
	sim     *Sim
	servers int
	busy    int
	waiting []queuedJob
	// Busy integrates server-seconds of work for utilization reporting.
	Busy Time
}

type queuedJob struct {
	service Time
	done    func()
}

// NewQueue creates a queue with the given parallel server count.
func NewQueue(sim *Sim, servers int) *Queue {
	if servers < 1 {
		servers = 1
	}
	return &Queue{sim: sim, servers: servers}
}

// Submit enqueues a job needing `service` seconds of one server; done
// fires at completion.
func (q *Queue) Submit(service Time, done func()) {
	if service < 0 {
		service = 0
	}
	if q.busy < q.servers {
		q.start(service, done)
		return
	}
	q.waiting = append(q.waiting, queuedJob{service: service, done: done})
}

func (q *Queue) start(service Time, done func()) {
	q.busy++
	q.Busy += service
	q.sim.After(service, func() {
		q.busy--
		if len(q.waiting) > 0 {
			next := q.waiting[0]
			q.waiting = q.waiting[1:]
			q.start(next.service, next.done)
		}
		if done != nil {
			done()
		}
	})
}

// QueueLen returns the number of waiting (not yet started) jobs.
func (q *Queue) QueueLen() int { return len(q.waiting) }

// InService returns the number of jobs currently being served.
func (q *Queue) InService() int { return q.busy }

// FlowNet models bandwidth-shared data transfers across a set of capacity
// resources (NICs, switch uplinks). Each flow traverses one or more
// resources; rates follow max-min fairness (progressive water-filling),
// recomputed on every flow arrival and departure.
// FlowNet is deterministic: flows are kept in arrival order and resource
// ties break by declaration order, so identical inputs produce identical
// timelines.
type FlowNet struct {
	sim      *Sim
	index    map[string]int // resource name -> position in res
	res      []resource     // declaration order
	flows    []*flow        // arrival order
	unfrozen []*flow        // recompute's scratch
	gen      uint64         // invalidates stale completion events
	lastCalc Time
	// Transferred accumulates total completed bytes.
	Transferred float64
}

// resource is one declared capacity and its water-filling state.
type resource struct {
	capacity float64 // bytes/sec
	rem      float64 // capacity not yet given to a frozen flow
	count    int     // unfrozen flows through it
}

// flow is one in-flight transfer.
type flow struct {
	res       []int // positions in FlowNet.res
	size      float64
	remaining float64
	rate      float64
	done      func()
}

// NewFlowNet creates an empty flow network.
func NewFlowNet(sim *Sim) *FlowNet {
	return &FlowNet{sim: sim, index: make(map[string]int)}
}

// AddResource declares a capacity resource (bytes/sec). Declaring a name
// again changes its capacity.
func (n *FlowNet) AddResource(name string, capacity float64) {
	if i, ok := n.index[name]; ok {
		n.res[i].capacity = capacity
		return
	}
	n.index[name] = len(n.res)
	n.res = append(n.res, resource{capacity: capacity})
}

// StartFlow begins a transfer of size bytes across the named resources;
// done, if not nil, fires at completion. Unknown resources are ignored
// (treated as infinite capacity). A zero-size flow completes after the
// current event.
func (n *FlowNet) StartFlow(size float64, resources []string, done func()) {
	if size <= 0 {
		if done != nil {
			n.sim.After(0, done)
		}
		return
	}
	f := &flow{size: size, remaining: size, done: done}
	for _, name := range resources {
		if i, ok := n.index[name]; ok {
			f.res = append(f.res, i)
		}
	}
	n.advance()
	n.flows = append(n.flows, f)
	n.recompute()
}

// advance progresses every flow's remaining work to the current time.
func (n *FlowNet) advance() {
	dt := n.sim.Now() - n.lastCalc
	n.lastCalc = n.sim.Now()
	if dt <= 0 {
		return
	}
	for _, f := range n.flows {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
}

// recompute runs max-min water-filling and schedules the next completion.
func (n *FlowNet) recompute() {
	n.gen++
	gen := n.gen
	// Water-filling: repeatedly find the tightest resource and freeze its
	// flows at the fair share. Flows are visited in arrival order and
	// resource ties break by declaration order, keeping runs reproducible.
	for i := range n.res {
		n.res[i].rem, n.res[i].count = n.res[i].capacity, 0
	}
	unfrozen := n.unfrozen[:0]
	for _, f := range n.flows {
		f.rate = 0
		if len(f.res) == 0 {
			f.rate = math.Inf(1) // unconstrained flow
			continue
		}
		unfrozen = append(unfrozen, f)
		for _, r := range f.res {
			n.res[r].count++
		}
	}
	for len(unfrozen) > 0 {
		bottleneck, share := -1, math.Inf(1)
		for i, r := range n.res {
			if r.count == 0 {
				continue
			}
			if s := r.rem / float64(r.count); s < share {
				bottleneck, share = i, s
			}
		}
		if bottleneck < 0 {
			break
		}
		keep := unfrozen[:0]
		for _, f := range unfrozen {
			if !slices.Contains(f.res, bottleneck) {
				keep = append(keep, f)
				continue
			}
			f.rate = share
			for _, r := range f.res {
				n.res[r].rem -= share
				n.res[r].count--
			}
		}
		unfrozen = keep
	}
	n.unfrozen = unfrozen[:0]
	// Schedule the earliest completion.
	next := math.Inf(1)
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		t := f.remaining / f.rate
		if math.IsInf(f.rate, 1) {
			t = 0
		}
		if t < next {
			next = t
		}
	}
	if math.IsInf(next, 1) {
		return
	}
	n.sim.After(next, func() {
		if n.gen != gen {
			return // a newer recompute superseded this event
		}
		n.advance()
		var finished []*flow
		live := n.flows[:0]
		for _, f := range n.flows {
			if f.remaining <= 1e-3 {
				finished = append(finished, f)
			} else {
				live = append(live, f)
			}
		}
		if len(finished) == 0 && len(live) > 0 {
			// Floating-point residue kept the mathematically finished flow
			// marginally above zero; complete the minimum-remaining flow to
			// guarantee progress (the generation guard ensures no newer
			// arrival invalidated this event).
			least := 0
			for i, f := range live {
				if f.remaining < live[least].remaining {
					least = i
				}
			}
			finished = append(finished, live[least])
			live = slices.Delete(live, least, least+1)
		}
		n.flows = live
		for _, f := range finished {
			n.Transferred += f.size
		}
		n.recompute()
		for _, f := range finished {
			if f.done != nil {
				f.done()
			}
		}
	})
}

// ActiveFlows returns the number of in-flight transfers.
func (n *FlowNet) ActiveFlows() int { return len(n.flows) }
