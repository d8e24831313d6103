package metrics

import "testing"

// TestMergeEmptySnapshots: merging an empty snapshot is a no-op, and
// merging into a zero-valued destination allocates its maps.
func TestMergeEmptySnapshots(t *testing.T) {
	dst := NewSnapshot()
	dst.Values["a"] = 3
	dst.Hists["h"] = HistSnapshot{Bounds: []int64{10}, Counts: []int64{1, 0}, Sum: 4}
	Merge(&dst, NewSnapshot())
	if dst.Values["a"] != 3 || dst.Hists["h"].Count() != 1 {
		t.Fatalf("empty merge mutated dst: %+v", dst)
	}
	Merge(&dst, Snapshot{}) // nil maps in src
	if dst.Values["a"] != 3 {
		t.Fatalf("nil-map merge mutated dst: %+v", dst)
	}

	var zero Snapshot // nil maps in dst
	Merge(&zero, dst)
	if zero.Values["a"] != 3 || zero.Hists["h"].Sum != 4 {
		t.Fatalf("merge into zero dst = %+v", zero)
	}
}

// TestMergeFoldBeyondTopBound: folding a src bucket whose bound exceeds
// every dst bound must land in dst's overflow bucket, not panic.
func TestMergeFoldBeyondTopBound(t *testing.T) {
	dst := NewSnapshot()
	dst.Hists["h"] = HistSnapshot{Bounds: []int64{10}, Counts: []int64{1, 0}, Sum: 5}
	src := Snapshot{Hists: map[string]HistSnapshot{
		"h": {Bounds: []int64{10_000}, Counts: []int64{2, 0}, Sum: 300},
	}}
	Merge(&dst, src)
	got := dst.Hists["h"]
	if got.Counts[len(got.Counts)-1] != 2 {
		t.Fatalf("src bucket le=10000 should fold to overflow: %v", got.Counts)
	}
	if got.Sum != 305 || got.Count() != 3 {
		t.Fatalf("sum=%d count=%d", got.Sum, got.Count())
	}
}

// TestQuantileExtremesSingleBucket pins q=0 and q=1 with all mass in one
// bucket: both must stay within that bucket's bounds, and q=1 must return
// its upper bound.
func TestQuantileExtremesSingleBucket(t *testing.T) {
	s := HistSnapshot{Bounds: []int64{100, 200}, Counts: []int64{0, 7, 0}, Sum: 7 * 150}
	if q := s.Quantile(1); q != 200 {
		t.Fatalf("q=1: got %d, want upper bound 200", q)
	}
	q0 := s.Quantile(0)
	if q0 < 100 || q0 > 200 {
		t.Fatalf("q=0: got %d, want within (100,200]", q0)
	}
	// Out-of-range q clamps rather than panics.
	if s.Quantile(-3) != s.Quantile(0) || s.Quantile(7) != s.Quantile(1) {
		t.Fatalf("q clamping: q=-3 -> %d, q=7 -> %d", s.Quantile(-3), s.Quantile(7))
	}
	// Degenerate single-bound histogram.
	one := HistSnapshot{Bounds: []int64{50}, Counts: []int64{3, 0}, Sum: 60}
	if q := one.Quantile(1); q != 50 {
		t.Fatalf("single bucket q=1 = %d, want 50", q)
	}
	if q := one.Quantile(0); q < 0 || q > 50 {
		t.Fatalf("single bucket q=0 = %d, want in [0,50]", q)
	}
}
