// Package events is the always-on structured event log of the EclipseMR
// runtime — the black-box flight recorder the trace layer is not. Where
// internal/trace records opt-in timed span trees for performance work,
// this package records every *interesting transition* as a small typed
// event: job phases, task dispatch/finish/failover, speculative hedges,
// shuffle batches and supersedes, DHT-FS replication and read failover,
// scheduler admission, membership churn, journal flushes. When a job
// fails or a recovery fires, the last N events from every node are the
// first (often the only) artifact needed to answer "why did it do that".
//
// The design discipline is the same as internal/trace, deliberately:
//
//   - Cheap when filtered: emitting an event whose kind is masked off
//     costs one atomic load and returns.
//   - Bounded: finished events land in a fixed-size lock-free ring;
//     the oldest are overwritten and a dropped counter tells the
//     collector how much history it lost.
//   - Deterministic under simulation: the clock is injectable
//     (metrics.Clock) and event IDs derive from a seeded per-node
//     counter, so a single-threaded simulated run produces
//     byte-identical timelines.
//
// Unlike tracing, the log starts with every kind enabled: a flight
// recorder that must be switched on after the crash records nothing.
package events

import (
	"hash/fnv"
	"sync/atomic"

	"eclipsemr/internal/metrics"
)

// Kind is the coarse event taxonomy. Filters (the collection RPC, the
// CLI, the per-log mask) select on kinds; names stay free to be precise.
type Kind uint8

// The event taxonomy. Every emitted event carries exactly one kind.
const (
	// KindJob covers driver job lifecycle: submit, phase changes, done,
	// failed, recovery rounds.
	KindJob Kind = iota
	// KindTask covers map/reduce task transitions: dispatch, finish,
	// retry, retry give-up, failover, partition re-home.
	KindTask
	// KindSpec covers speculative execution: hedge launch, win, waste.
	KindSpec
	// KindShuffle covers intermediate-data movement: spill batch pushes
	// and attempt supersedes.
	KindShuffle
	// KindFS covers DHT file-system repair: re-replication passes and
	// replica read failover.
	KindFS
	// KindSched covers scheduler admission.
	KindSched
	// KindMembership covers ring membership: join, suspect, evict,
	// manager election.
	KindMembership
	// KindJournal covers the durable job journal: flushes, flush
	// errors, resume adoption.
	KindJournal

	numKinds
)

var kindNames = [numKinds]string{
	"job", "task", "spec", "shuffle", "fs", "sched", "membership", "journal",
}

// Valid reports whether k is a defined kind (bundles validate decoded
// events against this).
func (k Kind) Valid() bool { return k < numKinds }

// String returns the kind's stable lowercase name (used by filters and
// the rendered timeline).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// KindFromString resolves a kind name as printed by String.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Kinds lists every kind name in declaration order, for CLI help text.
func Kinds() []string {
	return append([]string(nil), kindNames[:]...)
}

// AllKinds is the mask with every kind enabled — the default.
const AllKinds uint64 = 1<<numKinds - 1

// Event is one recorded transition. All fields are exported and plain
// data, so events serialize over collection RPCs and into debug bundles
// unchanged.
type Event struct {
	// ID is unique per node: seeded node hash in the high 32 bits, the
	// per-node emission sequence in the low 32. The low bits order a
	// node's own events even when its clock jumps.
	ID   uint64
	Kind Kind
	// Name identifies the transition, e.g. "map.dispatch". Names are
	// statically known — the eventname lint analyzer enforces constant
	// arguments — so dashboards and tests can match on them.
	Name string
	// Job, Task and Attempt scope the event; empty/zero when the event
	// is cluster-level (membership churn, FS repair).
	Job     string
	Task    string
	Attempt int
	// Node is the emitting node.
	Node string
	// AtNS is the emission time in UnixNano on the log's clock.
	AtNS int64
	// Detail carries one free-form value: a target node, an error
	// string, a count.
	Detail string
}

// F carries the optional fields of one emission. Constructing it is a
// plain stack write; no allocation happens for filtered-out kinds.
type F struct {
	Job, Task, Detail string
	Attempt           int
}

// Options configure a Log.
type Options struct {
	// Clock supplies timestamps; nil selects the wall clock. Simulations
	// inject their virtual clock for deterministic timelines.
	Clock metrics.Clock
	// Seed perturbs event-ID generation (mixed with the node name). The
	// zero seed is fine: IDs are already node-unique.
	Seed uint64
	// Capacity bounds the event ring; 0 selects 8192. Oldest events are
	// overwritten when full.
	Capacity int
}

// DefaultCapacity is the ring size when Options.Capacity is zero. Events
// are small and always on, so the default is deeper than the trace ring.
const DefaultCapacity = 8192

// Log records events for one node in a bounded lock-free ring. A nil
// *Log is valid and records nothing.
type Log struct {
	node   string
	clock  metrics.Clock
	idBase uint64 // seeded node hash in the high 32 bits

	mask atomic.Uint64 // bit per Kind; Emit is a no-op for cleared bits
	ctr  atomic.Uint64
	// observer, when set, sees every recorded event (see SetObserver).
	observer atomic.Pointer[func(Event)]
	ring     *metrics.Ring[Event]
}

// New returns an event log for the named node with every kind enabled.
func New(node string, o Options) *Log {
	capacity := o.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	clock := o.Clock
	if clock == nil {
		clock = metrics.WallClock()
	}
	h := fnv.New32a()
	h.Write([]byte(node))
	base := uint64(h.Sum32()) ^ (o.Seed ^ o.Seed>>32&0xffffffff)
	l := &Log{
		node:   node,
		clock:  clock,
		idBase: (base & 0xffffffff) << 32,
		ring:   metrics.NewRing[Event](capacity),
	}
	l.mask.Store(AllKinds)
	return l
}

// Node returns the node name events are stamped with.
func (l *Log) Node() string {
	if l == nil {
		return ""
	}
	return l.node
}

// SetClock replaces the log's time source (nil restores wall time).
func (l *Log) SetClock(c metrics.Clock) {
	if c == nil {
		c = metrics.WallClock()
	}
	l.clock = c
}

// NowNS returns the log clock's current time in UnixNano (0 on a nil
// log), for capture code stamping artifacts on the same clock as the
// events they contain.
func (l *Log) NowNS() int64 {
	if l == nil {
		return 0
	}
	return l.clock.Now().UnixNano()
}

// Mask returns the enabled-kind bitmask.
func (l *Log) Mask() uint64 {
	if l == nil {
		return 0
	}
	return l.mask.Load()
}

// SetMask replaces the enabled-kind bitmask wholesale.
func (l *Log) SetMask(mask uint64) {
	if l != nil {
		l.mask.Store(mask & AllKinds)
	}
}

// SetKindEnabled enables or disables one kind.
func (l *Log) SetKindEnabled(k Kind, on bool) {
	if l == nil || k >= numKinds {
		return
	}
	for {
		old := l.mask.Load()
		next := old | 1<<k
		if !on {
			next = old &^ (1 << k)
		}
		if l.mask.CompareAndSwap(old, next) {
			return
		}
	}
}

// KindEnabled reports whether events of kind k are being recorded.
func (l *Log) KindEnabled(k Kind) bool {
	return l != nil && l.mask.Load()&(1<<k) != 0
}

// SetObserver registers fn to be called synchronously, on the emitting
// goroutine, with every event the log records (masked-out kinds are never
// seen); nil removes it. It is how tests inject a fault at an exact
// lifecycle point. fn may run with the emitter's locks held — the driver
// emits under its own — so it must not call back into the emitting
// component (canceling a context is fine).
func (l *Log) SetObserver(fn func(Event)) {
	if l == nil {
		return
	}
	if fn == nil {
		l.observer.Store(nil)
		return
	}
	l.observer.Store(&fn)
}

// Emit records one event. For a filtered-out kind (or a nil log) the
// cost is one atomic load; otherwise one allocation and one atomic slot
// claim. Safe for concurrent use.
func (l *Log) Emit(k Kind, name string, f F) {
	if l == nil || l.mask.Load()&(1<<k) == 0 {
		return
	}
	e := &Event{
		ID:      l.idBase | (l.ctr.Add(1) & 0xffffffff),
		Kind:    k,
		Name:    name,
		Job:     f.Job,
		Task:    f.Task,
		Attempt: f.Attempt,
		Node:    l.node,
		AtNS:    l.clock.Now().UnixNano(),
		Detail:  f.Detail,
	}
	l.ring.Put(e)
	if fn := l.observer.Load(); fn != nil {
		(*fn)(*e)
	}
}

// Events returns copies of the retained events, oldest first. A
// non-empty job keeps that job's events plus every cluster-scoped event
// (empty Job) — membership churn and FS repair are part of any job's
// story. sinceNS, when positive, drops events before it.
func (l *Log) Events(job string, sinceNS int64) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.ring.Snapshot() {
		if job != "" && e.Job != "" && e.Job != job {
			continue
		}
		if sinceNS > 0 && e.AtNS < sinceNS {
			continue
		}
		out = append(out, *e)
	}
	return out
}

// Dropped returns how many events have been overwritten before
// collection.
func (l *Log) Dropped() int64 {
	if l == nil {
		return 0
	}
	return l.ring.Dropped()
}
