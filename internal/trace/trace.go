// Package trace is a dependency-free distributed tracing layer for the
// EclipseMR runtime. A trace is one job: the trace ID is the job ID, and
// every stage of the job's execution — driver dispatch, map read and
// compute, proactive shuffle, reduce, DHT file-system block IO, cache
// probes, scheduler queue wait — records a span naming the node it ran
// on, its start time and duration, and key/value annotations (cache
// hit/miss, retry attempt, chaos delay).
//
// Spans cross node boundaries through the transport envelope: the caller
// side serializes a SpanContext (trace ID + parent span ID) into the RPC
// frame, and the handler side starts its spans as children of that
// remote parent, so the collected spans from every node merge into one
// tree.
//
// The design goals, in order:
//
//   - Cheap when disabled: starting a span costs one atomic load and
//     returns a nil *Span whose methods are all no-ops.
//   - Deterministic under simulation: the clock is injectable
//     (metrics.Clock) and span IDs derive from a seeded per-node counter,
//     so a single-threaded simulated run produces byte-identical traces.
//   - Bounded: finished spans land in a fixed-size lock-free ring buffer;
//     a long-running node never grows its trace memory.
package trace

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"eclipsemr/internal/metrics"
)

// SpanID identifies one span within a trace. IDs are unique per node
// (counter in the low bits) and effectively unique across nodes (node
// hash in the high bits).
type SpanID uint64

// Annotation is one key/value tag on a span, e.g. {"cache", "miss"}.
type Annotation struct {
	Key, Value string
}

// Event is one timestamped point annotation within a span, e.g. a retry
// attempt.
type Event struct {
	AtNS int64 // absolute, same clock as Span.StartNS
	Msg  string
}

// Span is one timed operation. All exported fields are set by End and
// are gob- and json-serializable for collection RPCs.
type Span struct {
	Trace       string // trace ID = job ID
	ID          SpanID
	Parent      SpanID // 0 for a root span
	Name        string // operation, e.g. "map.compute"
	Node        string // node the span ran on
	StartNS     int64  // ns since the clock's epoch
	DurNS       int64
	Annotations []Annotation
	Events      []Event

	tr *Tracer
	// mu is a pointer so finished spans copy as plain data (snapshots,
	// collection RPCs); only live spans hold a mutex.
	mu    *sync.Mutex
	ended bool
}

// Annotate tags the span. Safe on a nil span and concurrently.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.Annotations = append(s.Annotations, Annotation{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// Eventf records a timestamped event on the span. Safe on a nil span.
func (s *Span) Eventf(format string, args ...interface{}) {
	if s == nil {
		return
	}
	at := s.tr.nowNS()
	s.mu.Lock()
	if !s.ended {
		s.Events = append(s.Events, Event{AtNS: at, Msg: fmt.Sprintf(format, args...)})
	}
	s.mu.Unlock()
}

// End finishes the span, computing its duration and publishing it to the
// tracer's ring buffer. Only the first End takes effect. Safe on nil.
func (s *Span) End() {
	if s != nil {
		s.endAt(s.tr.nowNS())
	}
}

// endAt is End at endNS on the tracer's clock.
func (s *Span) endAt(endNS int64) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.DurNS = endNS - s.StartNS
	if s.DurNS < 0 {
		s.DurNS = 0
	}
	s.mu.Unlock()
	s.tr.ring.Put(s)
}

// snapshot returns a detached copy safe to serialize.
func (s *Span) snapshot() Span {
	s.mu.Lock()
	defer s.mu.Unlock()
	cp := Span{
		Trace: s.Trace, ID: s.ID, Parent: s.Parent, Name: s.Name, Node: s.Node,
		StartNS: s.StartNS, DurNS: s.DurNS,
		Annotations: append([]Annotation(nil), s.Annotations...),
		Events:      append([]Event(nil), s.Events...),
	}
	return cp
}

// Options configure a Tracer.
type Options struct {
	// Clock supplies timestamps; nil selects the wall clock. Simulations
	// inject their virtual clock for deterministic traces.
	Clock metrics.Clock
	// Seed perturbs span-ID generation (mixed with the node name). The
	// zero seed is fine: IDs are already node-unique.
	Seed uint64
	// Capacity bounds the finished-span ring buffer; 0 selects 4096.
	// Oldest spans are overwritten when full.
	Capacity int
	// SampleEvery keeps one of every N traces (decided per trace ID at
	// the root, so a trace is all-or-nothing). 0 or 1 keeps every trace.
	SampleEvery int
}

// DefaultCapacity is the ring size when Options.Capacity is zero.
const DefaultCapacity = 4096

// Tracer creates spans for one node and retains finished spans in a
// bounded lock-free ring buffer until collected.
type Tracer struct {
	node        string
	clock       metrics.Clock
	idBase      uint64 // node/seed hash in the high 32 bits
	sampleEvery uint64

	enabled atomic.Bool
	ctr     atomic.Uint64
	ring    *metrics.Ring[Span]
}

// New returns a tracer for the named node. Tracing starts disabled;
// call SetEnabled(true) to record spans.
func New(node string, o Options) *Tracer {
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
	t := &Tracer{
		node:        node,
		clock:       clock,
		idBase:      (base & 0xffffffff) << 32,
		sampleEvery: uint64(o.SampleEvery),
		ring:        metrics.NewRing[Span](capacity),
	}
	return t
}

// Node returns the node name spans are stamped with.
func (t *Tracer) Node() string { return t.node }

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// SetEnabled turns recording on or off. Spans already started keep
// recording; new Start calls observe the flag immediately.
func (t *Tracer) SetEnabled(on bool) {
	if t != nil {
		t.enabled.Store(on)
	}
}

func (t *Tracer) nowNS() int64 {
	if t == nil {
		return 0
	}
	return t.clock.Now().UnixNano()
}

// NowNS returns the tracer clock's current time in UnixNano (0 on a nil
// tracer), for callers reconstructing start times with StartSpanAt.
func (t *Tracer) NowNS() int64 { return t.nowNS() }

// nextID returns a fresh span ID: node hash high bits, counter low bits.
func (t *Tracer) nextID() SpanID {
	return SpanID(t.idBase | (t.ctr.Add(1) & 0xffffffff))
}

// sampled decides, from the trace ID alone, whether this trace is kept.
// Every node makes the same decision for the same ID.
func (t *Tracer) sampled(traceID string) bool {
	if t.sampleEvery <= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(traceID))
	return h.Sum64()%t.sampleEvery == 0
}

// start builds a span that began at startNS. Callers have already
// checked Enabled.
func (t *Tracer) start(traceID string, parent SpanID, name string, startNS int64) *Span {
	return &Span{
		Trace:   traceID,
		mu:      new(sync.Mutex),
		ID:      t.nextID(),
		Parent:  parent,
		Name:    name,
		Node:    t.node,
		StartNS: startNS,
		tr:      t,
	}
}

// Spans returns detached copies of the retained finished spans for one
// trace (all traces if traceID is empty), oldest first.
func (t *Tracer) Spans(traceID string) []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for _, s := range t.ring.Snapshot() {
		if traceID == "" || s.Trace == traceID {
			out = append(out, s.snapshot())
		}
	}
	return out
}

// Dropped returns how many finished spans have been overwritten before
// collection.
func (t *Tracer) Dropped() int64 { return t.ring.Dropped() }
