// Package metrics is a small dependency-free metrics registry used by the
// node runtime to expose operational counters, gauges and latency
// histograms (tasks executed, bytes moved, cache behaviour, per-stage and
// per-RPC latency) through the cluster.stats endpoint, the optional
// Prometheus-text /metrics endpoint and eclipse-cli. Counters are
// monotonically increasing; gauges are set to the latest value;
// histograms record values into fixed exponential buckets. All operations
// are safe for concurrent use and allocation-free on the hot paths
// (histogram Observe is a couple of atomic adds).
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing 64-bit counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (negative deltas are ignored:
// counters never decrease).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a 64-bit value that can move in both directions.
type Gauge struct {
	v atomic.Int64
}

// Set stores the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefaultLatencyBounds are the bucket upper bounds (nanoseconds) every
// latency histogram shares unless overridden: powers of two from 1 µs to
// ~34 s. Sharing one fixed bound set is what makes cluster-wide Merge a
// bucket-wise addition instead of a lossy re-binning.
var DefaultLatencyBounds = func() []int64 {
	bounds := make([]int64, 26)
	b := int64(time.Microsecond)
	for i := range bounds {
		bounds[i] = b
		b *= 2
	}
	return bounds
}()

// Clock supplies the time source for timers. Production registries use
// the wall clock; deterministic simulations inject a virtual clock so
// instrumented code needs no wall-clock reads.
type Clock interface {
	Now() time.Time
}

// ClockFunc adapts a plain func() time.Time (such as sim.Sim.Clock()) to
// the Clock interface.
type ClockFunc func() time.Time

// Now implements Clock.
func (f ClockFunc) Now() time.Time { return f() }

// wallClock is the default Clock.
type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// WallClock returns the default wall-time Clock.
func WallClock() Clock { return wallClock{} }

// Histogram counts observations into fixed buckets. Recording is
// lock-free: one atomic add into the bucket plus one into the running
// sum. Values are plain int64s; the runtime's convention is nanoseconds
// (see Timer), but byte-size histograms work the same way.
type Histogram struct {
	bounds []int64 // sorted upper bounds; bucket i holds v <= bounds[i]
	counts []atomic.Int64
	// counts has len(bounds)+1 entries; the last is the overflow bucket.
	sum atomic.Int64
	// clock, when set, replaces the wall clock for Start/Stop timers.
	// Stored atomically (boxed, so differing Clock implementations share
	// one stored type) so SetClock races cleanly with in-flight timers.
	clock atomic.Value // clockBox
}

// clockBox wraps a Clock so atomic.Value sees one concrete type.
type clockBox struct{ c Clock }

// newHistogram builds a histogram over the given sorted upper bounds.
func newHistogram(bounds []int64) *Histogram {
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	// Binary search; bounds are tiny (27 buckets) so this is a handful of
	// compares with no allocation.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo].Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Timer measures one interval into a histogram.
type Timer struct {
	h     *Histogram
	start time.Time
}

// now reads the histogram's clock (the wall clock unless SetClock
// injected another source).
func (h *Histogram) now() time.Time {
	if b, ok := h.clock.Load().(clockBox); ok {
		return b.c.Now()
	}
	return time.Now()
}

// SetClock replaces the timer time source; nil restores the wall clock.
func (h *Histogram) SetClock(c Clock) {
	if c == nil {
		c = wallClock{}
	}
	h.clock.Store(clockBox{c})
}

// Start returns a running Timer recording into h.
func (h *Histogram) Start() Timer { return Timer{h: h, start: h.now()} }

// Stop records the elapsed time and returns it. Stop may be called once;
// further calls record again.
func (t Timer) Stop() time.Duration {
	d := t.h.now().Sub(t.start)
	t.h.ObserveDuration(d)
	return d
}

// Snapshot returns the histogram's current state. The counts are copied
// bucket by bucket without a lock, so under concurrent recording the
// snapshot is a consistent-enough view (each bucket atomically read).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: make([]int64, len(h.counts)),
		Sum:    h.sum.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is the serializable state of one histogram: Counts[i]
// holds observations <= Bounds[i], and Counts[len(Bounds)] is the
// overflow bucket.
type HistSnapshot struct {
	Bounds []int64
	Counts []int64
	Sum    int64
}

// Count returns the total number of observations.
func (s HistSnapshot) Count() int64 {
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	return total
}

// Mean returns the average observed value, or 0 with no observations.
func (s HistSnapshot) Mean() float64 {
	n := s.Count()
	if n == 0 {
		return 0
	}
	return float64(s.Sum) / float64(n)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket where the cumulative count crosses q. Observations in
// the overflow bucket are attributed the last finite bound.
func (s HistSnapshot) Quantile(q float64) int64 {
	total := s.Count()
	if total == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			upper := s.Bounds[len(s.Bounds)-1]
			lower := int64(0)
			if i < len(s.Bounds) {
				upper = s.Bounds[i]
			}
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			frac := 1.0
			if c > 0 {
				frac = (rank - cum) / float64(c)
			}
			if frac < 0 {
				frac = 0
			}
			return lower + int64(frac*float64(upper-lower))
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// kind tags a metric name with its registered type so one name cannot be
// two different instruments.
type kind uint8

const (
	kindCounter kind = iota + 1
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry names and collects metrics. The zero value is not usable; use
// NewRegistry.
//
// Lookups of an existing metric — the per-RPC, per-task path, on a
// registry every node of an in-process cluster may share — take only the
// read lock; creating a metric takes the write lock.
type Registry struct {
	mu       sync.RWMutex
	kinds    map[string]kind
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	clock    Clock // nil = wall clock; inherited by every histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:    make(map[string]kind),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// checkKind registers name as k, panicking if it is already registered as
// a different kind: a counter and a gauge sharing a name would silently
// shadow each other in snapshots.
func (r *Registry) checkKind(name string, k kind) {
	if have, ok := r.kinds[name]; ok && have != k {
		panic(fmt.Sprintf("metrics: %q already registered as %s, requested as %s", name, have, k))
	}
	r.kinds[name] = k
}

// SetClock injects the time source used by every histogram timer in the
// registry — existing and future. Deterministic simulations call this
// with a virtual clock; nil restores the wall clock.
func (r *Registry) SetClock(c Clock) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock = c
	for _, h := range r.hists {
		h.SetClock(c)
	}
}

// Counter returns (creating if needed) the named counter. Names should be
// dotted paths like "mr.map.tasks". Requesting a name registered as a
// different kind panics.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, kindCounter)
	c, ok = r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, kindGauge)
	g, ok = r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram over
// DefaultLatencyBounds.
func (r *Registry) Histogram(name string) *Histogram {
	return r.HistogramWith(name, DefaultLatencyBounds)
}

// HistogramWith returns (creating if needed) the named histogram, using
// the given sorted bucket upper bounds on first creation. All nodes must
// use identical bounds for a given name or cluster-wide merges degrade to
// bound-folding (see Merge).
func (r *Registry) HistogramWith(name string, bounds []int64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(name, kindHistogram)
	h, ok = r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		if r.clock != nil {
			h.SetClock(r.clock)
		}
		r.hists[name] = h
	}
	return h
}

// Snapshot is one registry's (or one cluster's, after Merge) metrics
// state: flat counter/gauge values plus histogram states, keyed by name.
// The zero value is not usable; use NewSnapshot (or Registry.Snapshot).
type Snapshot struct {
	Values map[string]int64
	Hists  map[string]HistSnapshot
}

// NewSnapshot returns an empty snapshot ready to Merge into.
func NewSnapshot() Snapshot {
	return Snapshot{Values: make(map[string]int64), Hists: make(map[string]HistSnapshot)}
}

// Get returns a value metric by name (0 if absent).
func (s Snapshot) Get(name string) int64 { return s.Values[name] }

// Snapshot returns every metric's current state, keyed by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := Snapshot{
		Values: make(map[string]int64, len(r.counters)+len(r.gauges)),
		Hists:  make(map[string]HistSnapshot, len(r.hists)),
	}
	for name, g := range r.gauges {
		out.Values[name] = g.Value()
	}
	for name, c := range r.counters {
		out.Values[name] = c.Value()
	}
	for name, h := range r.hists {
		out.Hists[name] = h.Snapshot()
	}
	return out
}

// String renders the snapshot sorted by name: "name value" lines for
// counters and gauges, "name count=N p50=… p99=… (ms)" lines for
// histograms.
func (r *Registry) String() string {
	snap := r.Snapshot()
	var b strings.Builder
	names := make([]string, 0, len(snap.Values))
	for n := range snap.Values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %d\n", n, snap.Values[n])
	}
	names = names[:0]
	for n := range snap.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := snap.Hists[n]
		fmt.Fprintf(&b, "%s count=%d p50=%.3fms p99=%.3fms\n",
			n, h.Count(), ms(h.Quantile(0.50)), ms(h.Quantile(0.99)))
	}
	return b.String()
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// Merge accumulates another snapshot into dst (cluster-wide aggregation):
// values are summed and histograms merged bucket by bucket. Histograms
// with identical bounds merge exactly; a histogram whose bounds differ
// (mixed-version cluster) is folded conservatively, attributing each
// source bucket to the destination bucket covering its upper bound.
func Merge(dst *Snapshot, src Snapshot) {
	if dst.Values == nil {
		dst.Values = make(map[string]int64, len(src.Values))
	}
	if dst.Hists == nil {
		dst.Hists = make(map[string]HistSnapshot, len(src.Hists))
	}
	for name, v := range src.Values {
		dst.Values[name] += v
	}
	for name, h := range src.Hists {
		d, ok := dst.Hists[name]
		if !ok {
			dst.Hists[name] = HistSnapshot{
				Bounds: append([]int64(nil), h.Bounds...),
				Counts: append([]int64(nil), h.Counts...),
				Sum:    h.Sum,
			}
			continue
		}
		dst.Hists[name] = mergeHist(d, h)
	}
}

// mergeHist adds src into dst and returns the result.
func mergeHist(dst, src HistSnapshot) HistSnapshot {
	dst.Sum += src.Sum
	if boundsEqual(dst.Bounds, src.Bounds) {
		for i := range src.Counts {
			dst.Counts[i] += src.Counts[i]
		}
		return dst
	}
	// Fold by upper bound: each src bucket lands in the dst bucket that
	// covers its bound; src overflow joins dst overflow.
	for i, c := range src.Counts {
		if c == 0 {
			continue
		}
		if i >= len(src.Bounds) {
			dst.Counts[len(dst.Counts)-1] += c
			continue
		}
		v := src.Bounds[i]
		j := sort.Search(len(dst.Bounds), func(k int) bool { return v <= dst.Bounds[k] })
		dst.Counts[j] += c
	}
	return dst
}

func boundsEqual(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
