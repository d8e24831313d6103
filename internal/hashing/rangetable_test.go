package hashing

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewRangeTableValidation(t *testing.T) {
	if _, err := NewRangeTable(nil, nil); err == nil {
		t.Fatal("empty table accepted")
	}
	if _, err := NewRangeTable([]NodeID{"a"}, []Key{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
	if _, err := NewRangeTable([]NodeID{"a", "b"}, []Key{5, 3}); err == nil {
		t.Fatal("unsorted bounds accepted")
	}
}

// TestRangeTablePaperFigure3 reproduces the worked example from Figure 3:
// five servers over hash space [0,140) partitioned at 0/35/47/91/102, so
// task T1 (HK=43) goes to server 2 and T2 (HK=69) to server 3.
func TestRangeTablePaperFigure3(t *testing.T) {
	tab, err := NewRangeTable(
		[]NodeID{"server1", "server2", "server3", "server4", "server5"},
		[]Key{0, 35, 47, 91, 102},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Lookup(43); got != "server2" {
		t.Fatalf("T1 (HK=43) scheduled on %s, want server2", got)
	}
	if got := tab.Lookup(69); got != "server3" {
		t.Fatalf("T2 (HK=69) scheduled on %s, want server3", got)
	}
	if got := tab.Lookup(0); got != "server1" {
		t.Fatalf("Lookup(0) = %s want server1", got)
	}
	// Keys past the last bound wrap into server5's range.
	if got := tab.Lookup(139); got != "server5" {
		t.Fatalf("Lookup(139) = %s want server5", got)
	}
	if got := tab.Lookup(MaxKey); got != "server5" {
		t.Fatalf("Lookup(MaxKey) = %s want server5", got)
	}
}

// TestRangeTableHotSpotCollapse models the paper's extreme hot-spot case:
// [0,40], [40,40), [40,40), [40,140) — servers with zero-width ranges must
// never be selected by Lookup.
func TestRangeTableHotSpotCollapse(t *testing.T) {
	tab, err := NewRangeTable(
		[]NodeID{"s1", "s2", "s3", "s4"},
		[]Key{0, 40, 40, 40},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Lookup(20); got != "s1" {
		t.Fatalf("Lookup(20) = %s want s1", got)
	}
	if got := tab.Lookup(100); got != "s4" {
		t.Fatalf("Lookup(100) = %s want s4", got)
	}
	// The boundary key itself belongs to the last server whose range
	// starts there and is non-empty.
	got := tab.Lookup(40)
	if got == "s2" || got == "s3" {
		t.Fatalf("Lookup(40) selected zero-width range server %s", got)
	}
}

func TestUniformRangeTableEqualWidths(t *testing.T) {
	servers := []NodeID{"a", "b", "c", "d"}
	tab, err := UniformRangeTable(servers)
	if err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i := 0; i < tab.Len(); i++ {
		start, end := tab.RangeOf(i)
		width := uint64(end - start)
		if i > 0 && width != prev {
			t.Fatalf("range %d width %d != %d", i, width, prev)
		}
		prev = width
	}
	if _, err := UniformRangeTable(nil); err == nil {
		t.Fatal("empty UniformRangeTable accepted")
	}
}

// TestUniformLookupIsTheSearch: an equal-width table, rebuilt from its
// bounds as a map task's reduce table is, is recognised, and its
// one-division lookup picks the range the bound search picks for every
// key, boundaries and the remainder of the last range included.
func TestUniformLookupIsTheSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for n := 2; n <= 65; n++ {
		servers := make([]NodeID, n)
		for i := range servers {
			servers[i] = NodeID(rune('a' + i))
		}
		uniform, err := UniformRangeTable(servers)
		if err != nil {
			t.Fatal(err)
		}
		tab, err := NewRangeTable(uniform.Servers(), uniform.Bounds())
		if err != nil {
			t.Fatal(err)
		}
		if tab.step == 0 {
			t.Fatalf("n=%d: the equal-width bounds were not recognised", n)
		}
		search := *tab
		search.step = 0
		keys := []Key{0, MaxKey}
		for _, b := range tab.Bounds() {
			keys = append(keys, b, b-1, b+1)
		}
		for i := 0; i < 1000; i++ {
			keys = append(keys, Key(rng.Uint64()))
		}
		for _, k := range keys {
			if got, want := tab.LookupIndex(k), search.LookupIndex(k); got != want {
				t.Fatalf("n=%d: LookupIndex(%v) = %d, the search finds %d", n, k, got, want)
			}
		}
	}
	// Bounds one key off an equal cut are searched.
	tab, err := NewRangeTable([]NodeID{"a", "b"}, []Key{0, Key(uniformStep(2) + 1)})
	if err != nil {
		t.Fatal(err)
	}
	if tab.step != 0 {
		t.Fatal("bounds off the equal cut were taken for it")
	}
}

func TestAlignedRangeTableMatchesRingOwnership(t *testing.T) {
	r := NewChordRing()
	for i := 0; i < 8; i++ {
		if err := r.AddNode(NodeID(rune('a' + i))); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := AlignedRangeTable(r)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		k := Key(rng.Uint64())
		ringOwner, _ := r.Owner(k)
		tabOwner := tab.Lookup(k)
		// The table uses [start,end) where the ring uses (start,end]; they
		// may only disagree on exact node positions.
		if tabOwner != ringOwner {
			if _, isBoundary := r.byID[ringOwner]; !isBoundary {
				t.Fatalf("unexpected disagreement at %v: ring=%s table=%s", k, ringOwner, tabOwner)
			}
			if pos, _ := r.Position(ringOwner); pos != k {
				t.Fatalf("disagreement at non-boundary key %v: ring=%s table=%s", k, ringOwner, tabOwner)
			}
		}
	}
	if _, err := AlignedRangeTable(NewChordRing()); err == nil {
		t.Fatal("AlignedRangeTable on empty ring accepted")
	}
}

func TestRangeTableServerRange(t *testing.T) {
	tab, _ := NewRangeTable([]NodeID{"a", "b"}, []Key{0, 100})
	start, end, ok := tab.ServerRange("b")
	if !ok || start != 100 || end != 0 {
		t.Fatalf("ServerRange(b) = %d,%d,%v", start, end, ok)
	}
	if _, _, ok := tab.ServerRange("zz"); ok {
		t.Fatal("ServerRange of unknown server returned ok")
	}
	if !tab.Contains("a", 50) || tab.Contains("a", 150) {
		t.Fatal("Contains wrong")
	}
}

func TestRangeTableString(t *testing.T) {
	tab, _ := NewRangeTable([]NodeID{"a", "b"}, []Key{0, 100})
	s := tab.String()
	if !strings.Contains(s, "a: [") || !strings.Contains(s, "b: [") {
		t.Fatalf("String() = %q", s)
	}
}

// Property: Lookup always returns a server from the table, and for tables
// with distinct bounds the selected server's range contains the key.
func TestRangeTableLookupInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	servers := make([]NodeID, 6)
	bounds := make([]Key, 6)
	raw := make([]uint64, 6)
	for i := range raw {
		raw[i] = rng.Uint64()
	}
	// Sort and dedupe into strictly increasing bounds.
	for i := range raw {
		for j := i + 1; j < len(raw); j++ {
			if raw[j] < raw[i] {
				raw[i], raw[j] = raw[j], raw[i]
			}
		}
	}
	for i := range servers {
		servers[i] = NodeID(rune('a' + i))
		bounds[i] = Key(raw[i])
	}
	tab, err := NewRangeTable(servers, bounds)
	if err != nil {
		t.Fatal(err)
	}
	f := func(k Key) bool {
		id := tab.Lookup(k)
		start, end, ok := tab.ServerRange(id)
		return ok && InRange(k, start, end)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeTableSingleServer(t *testing.T) {
	tab, err := NewRangeTable([]NodeID{"only"}, []Key{12345})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []Key{0, 12345, MaxKey} {
		if got := tab.Lookup(k); got != "only" {
			t.Fatalf("Lookup(%v) = %s", k, got)
		}
	}
}
