package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterMonotonic(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters never decrease
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
	if r.Counter("a.b") != c {
		t.Fatal("Counter not idempotent per name")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("value = %d", g.Value())
	}
}

func TestSnapshotAndString(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.count").Add(2)
	r.Gauge("a.gauge").Set(9)
	r.Histogram("h.lat").Observe(int64(5 * time.Millisecond))
	snap := r.Snapshot()
	if snap.Get("z.count") != 2 || snap.Get("a.gauge") != 9 {
		t.Fatalf("snapshot = %v", snap.Values)
	}
	if snap.Hists["h.lat"].Count() != 1 {
		t.Fatalf("hist count = %d", snap.Hists["h.lat"].Count())
	}
	s := r.String()
	if !strings.HasPrefix(s, "a.gauge 9\n") || !strings.Contains(s, "z.count 2\n") {
		t.Fatalf("String() = %q", s)
	}
	if !strings.Contains(s, "h.lat count=1") {
		t.Fatalf("String() missing histogram line: %q", s)
	}
}

func TestCrossKindRegistrationPanics(t *testing.T) {
	cases := []struct {
		name  string
		setup func(r *Registry)
		clash func(r *Registry)
	}{
		{"counter-then-gauge", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Gauge("x") }},
		{"gauge-then-counter", func(r *Registry) { r.Gauge("x") }, func(r *Registry) { r.Counter("x") }},
		{"counter-then-histogram", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.Histogram("x") }},
		{"histogram-then-gauge", func(r *Registry) { r.Histogram("x") }, func(r *Registry) { r.Gauge("x") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRegistry()
			tc.setup(r)
			defer func() {
				rec := recover()
				if rec == nil {
					t.Fatal("cross-kind registration did not panic")
				}
				if msg, ok := rec.(string); !ok || !strings.Contains(msg, `"x"`) {
					t.Fatalf("panic message does not name the metric: %v", rec)
				}
			}()
			tc.clash(r)
		})
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for i := 0; i < 90; i++ {
		h.Observe(int64(1 * time.Millisecond))
	}
	for i := 0; i < 10; i++ {
		h.Observe(int64(100 * time.Millisecond))
	}
	s := h.Snapshot()
	if s.Count() != 100 {
		t.Fatalf("count = %d", s.Count())
	}
	wantSum := 90*int64(time.Millisecond) + 10*int64(100*time.Millisecond)
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
	p50 := s.Quantile(0.50)
	if p50 < int64(250*time.Microsecond) || p50 > int64(4*time.Millisecond) {
		t.Fatalf("p50 = %v, want ~1ms", time.Duration(p50))
	}
	p99 := s.Quantile(0.99)
	if p99 < int64(32*time.Millisecond) || p99 > int64(300*time.Millisecond) {
		t.Fatalf("p99 = %v, want ~100ms", time.Duration(p99))
	}
	if s.Quantile(0) > s.Quantile(1) {
		t.Fatal("quantiles not monotone")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]int64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(5000) // beyond the last bound: overflow bucket
	s := h.Snapshot()
	if got := s.Counts[len(s.Counts)-1]; got != 1 {
		t.Fatalf("overflow count = %d", got)
	}
	if s.Count() != 3 {
		t.Fatalf("count = %d", s.Count())
	}
	// Overflow observations are attributed the last finite bound.
	if q := s.Quantile(1); q != 100 {
		t.Fatalf("Quantile(1) = %d", q)
	}
}

func TestTimer(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op")
	tm := h.Start()
	time.Sleep(2 * time.Millisecond)
	d := tm.Stop()
	if d < 2*time.Millisecond {
		t.Fatalf("elapsed = %v", d)
	}
	s := h.Snapshot()
	if s.Count() != 1 || s.Sum < int64(2*time.Millisecond) {
		t.Fatalf("count=%d sum=%v", s.Count(), time.Duration(s.Sum))
	}
}

func TestMergeValues(t *testing.T) {
	dst := NewSnapshot()
	dst.Values["x"] = 1
	Merge(&dst, Snapshot{Values: map[string]int64{"x": 2, "y": 5}})
	if dst.Values["x"] != 3 || dst.Values["y"] != 5 {
		t.Fatalf("merged = %v", dst.Values)
	}
}

// TestMergeHistogramsEqualsCombinedRecordings is the satellite-required
// property: merging the snapshots of two registries must be
// indistinguishable from recording every observation into one registry.
func TestMergeHistogramsEqualsCombinedRecordings(t *testing.T) {
	obsA := []int64{int64(time.Millisecond), int64(3 * time.Millisecond), int64(time.Second)}
	obsB := []int64{int64(500 * time.Microsecond), int64(40 * time.Millisecond)}

	ra, rb, combined := NewRegistry(), NewRegistry(), NewRegistry()
	for _, v := range obsA {
		ra.Histogram("lat").Observe(v)
		combined.Histogram("lat").Observe(v)
	}
	for _, v := range obsB {
		rb.Histogram("lat").Observe(v)
		combined.Histogram("lat").Observe(v)
	}
	ra.Counter("n").Add(int64(len(obsA)))
	rb.Counter("n").Add(int64(len(obsB)))
	combined.Counter("n").Add(int64(len(obsA) + len(obsB)))

	merged := NewSnapshot()
	Merge(&merged, ra.Snapshot())
	Merge(&merged, rb.Snapshot())
	want := combined.Snapshot()

	if merged.Values["n"] != want.Values["n"] {
		t.Fatalf("values: merged %d, combined %d", merged.Values["n"], want.Values["n"])
	}
	mh, wh := merged.Hists["lat"], want.Hists["lat"]
	if mh.Sum != wh.Sum || mh.Count() != wh.Count() {
		t.Fatalf("sum/count: merged %d/%d, combined %d/%d", mh.Sum, mh.Count(), wh.Sum, wh.Count())
	}
	if len(mh.Counts) != len(wh.Counts) {
		t.Fatalf("bucket counts differ in length: %d vs %d", len(mh.Counts), len(wh.Counts))
	}
	for i := range mh.Counts {
		if mh.Counts[i] != wh.Counts[i] {
			t.Fatalf("bucket %d: merged %d, combined %d", i, mh.Counts[i], wh.Counts[i])
		}
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if mh.Quantile(q) != wh.Quantile(q) {
			t.Fatalf("q%.2f: merged %d, combined %d", q, mh.Quantile(q), wh.Quantile(q))
		}
	}
}

func TestMergeMismatchedBoundsFolds(t *testing.T) {
	dst := NewSnapshot()
	dst.Hists["h"] = HistSnapshot{Bounds: []int64{10, 100, 1000}, Counts: []int64{1, 0, 0, 0}, Sum: 5}
	src := Snapshot{Hists: map[string]HistSnapshot{
		"h": {Bounds: []int64{50}, Counts: []int64{2, 1}, Sum: 2000},
	}}
	Merge(&dst, src)
	got := dst.Hists["h"]
	if got.Count() != 4 || got.Sum != 2005 {
		t.Fatalf("count=%d sum=%d", got.Count(), got.Sum)
	}
	// src bucket le=50 folds into dst bucket le=100; src overflow joins
	// dst overflow.
	if got.Counts[1] != 2 || got.Counts[3] != 1 {
		t.Fatalf("counts = %v", got.Counts)
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("mr.map.tasks").Add(7)
	h := r.HistogramWith("net.rpc", []int64{int64(time.Millisecond), int64(time.Second)})
	h.Observe(int64(500 * time.Microsecond))
	h.Observe(int64(2 * time.Second))
	var b strings.Builder
	if err := WriteProm(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"mr_map_tasks 7\n",
		"# TYPE net_rpc histogram\n",
		`net_rpc_bucket{le="0.001"} 1`,
		`net_rpc_bucket{le="1"} 1`,
		`net_rpc_bucket{le="+Inf"} 2`,
		"net_rpc_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prom output missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("hot").Inc()
				r.Gauge("level").Add(1)
				r.Histogram("lat").Observe(int64(j))
			}
		}()
	}
	wg.Wait()
	if r.Counter("hot").Value() != 16000 {
		t.Fatalf("hot = %d", r.Counter("hot").Value())
	}
	if r.Gauge("level").Value() != 16000 {
		t.Fatalf("level = %d", r.Gauge("level").Value())
	}
	if n := r.Histogram("lat").Snapshot().Count(); n != 16000 {
		t.Fatalf("lat count = %d", n)
	}
}

// TestLookupOfExistingMetricIsReadOnly pins the per-RPC path: fetching a
// metric that exists returns the same instrument without allocating, and
// goroutines racing to create one name all end up with one instrument.
func TestLookupOfExistingMetricIsReadOnly(t *testing.T) {
	r := NewRegistry()
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	allocs := testing.AllocsPerRun(100, func() {
		if r.Counter("c") != c || r.Gauge("g") != g || r.Histogram("h") != h {
			t.Fatal("lookup returned a different instrument")
		}
	})
	if allocs != 0 {
		t.Fatalf("lookups of existing metrics allocate %v times", allocs)
	}

	fresh := NewRegistry()
	got := make([]*Counter, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = fresh.Counter("raced")
			got[i].Inc()
		}(i)
	}
	wg.Wait()
	for _, c := range got {
		if c != got[0] {
			t.Fatal("concurrent creation produced two counters for one name")
		}
	}
	if got[0].Value() != 16 {
		t.Fatalf("raced = %d, want 16", got[0].Value())
	}
}
