package chord

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"eclipsemr/internal/hashing"
)

func buildRing(t testing.TB, n int, seed int64) *hashing.ChordRing {
	t.Helper()
	r := hashing.NewChordRing()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		if err := r.Add(hashing.NodeID(fmt.Sprintf("n%03d", i)), hashing.Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestBuildValidation(t *testing.T) {
	ring := buildRing(t, 4, 1)
	if _, err := Build(ring, "n000", 0); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := Build(ring, "n000", 65); err == nil {
		t.Fatal("m=65 accepted")
	}
	if _, err := Build(ring, "ghost", 8); err == nil {
		t.Fatal("unknown node accepted")
	}
}

func TestFingerEntriesAreSuccessors(t *testing.T) {
	ring := buildRing(t, 16, 2)
	ft, err := Build(ring, "n005", 64)
	if err != nil {
		t.Fatal(err)
	}
	pos, _ := ring.Position("n005")
	for i, f := range ft.fingers {
		start := pos + hashing.Key(uint64(1)<<uint(i))
		want, _ := ring.Owner(start)
		if f.node != want {
			t.Fatalf("finger[%d] = %s want %s", i, f.node, want)
		}
	}
	if ft.Len() != 64 || ft.Self() != "n005" {
		t.Fatalf("Len=%d Self=%s", ft.Len(), ft.Self())
	}
	succ, _ := ring.Successor("n005")
	if ft.Successor() != succ {
		t.Fatalf("Successor = %s want %s", ft.Successor(), succ)
	}
}

func TestOneHopRouting(t *testing.T) {
	ring := buildRing(t, 32, 3)
	routes, err := BuildOneHopRoutes(ring)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 500; i++ {
		k := hashing.Key(rng.Uint64())
		from := hashing.NodeID(fmt.Sprintf("n%03d", rng.Intn(32)))
		path, err := routes.Route(from, k)
		if err != nil {
			t.Fatal(err)
		}
		owner, _ := ring.Owner(k)
		if len(path) != 1 || path[0] != owner {
			t.Fatalf("one-hop route for %v = %v, owner is %s", k, path, owner)
		}
	}
	if _, err := BuildOneHopRoutes(hashing.NewChordRing()); err == nil {
		t.Fatal("BuildOneHopRoutes accepted empty ring")
	}
}

// TestLogHopRoutingBound: with classic finger tables a lookup from any node
// reaches the owner in O(log n) hops, at most floor(log2 n) + 2. The sizes
// include the rings where a finger table degenerates: one member (every
// finger is the node itself) and two.
func TestLogHopRoutingBound(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ring := buildRing(t, n, 5)
			m := 64 // full span is needed for correctness over the 64-bit space
			routes, err := BuildRoutes(ring, m)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			bound := bits.Len(uint(n)) + 1 // floor(log2 n) + 2
			for i := 0; i < 300; i++ {
				k := hashing.Key(rng.Uint64())
				from := hashing.NodeID(fmt.Sprintf("n%03d", rng.Intn(n)))
				path, err := routes.Route(from, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(path) > bound {
					t.Fatalf("route took %d hops, log bound %d", len(path), bound)
				}
			}
		})
	}
}

// Property: routing always terminates at the ring owner regardless of the
// starting node.
func TestRouteAlwaysFindsOwner(t *testing.T) {
	ring := buildRing(t, 20, 7)
	routes, err := BuildRoutes(ring, 64)
	if err != nil {
		t.Fatal(err)
	}
	members := ring.Members()
	f := func(k hashing.Key, fromIdx uint8) bool {
		from := members[int(fromIdx)%len(members)]
		path, err := routes.Route(from, k)
		if err != nil || len(path) == 0 {
			return false
		}
		owner, _ := ring.Owner(k)
		return path[len(path)-1] == owner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteFromOwnerIsZeroForwarding(t *testing.T) {
	ring := buildRing(t, 8, 8)
	routes, _ := BuildRoutes(ring, 64)
	k := hashing.Key(12345)
	owner, _ := ring.Owner(k)
	path, err := routes.Route(owner, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != owner {
		t.Fatalf("path from owner = %v", path)
	}
}

func TestBuildRoutesEmptyRing(t *testing.T) {
	if _, err := BuildRoutes(hashing.NewChordRing(), 8); err == nil {
		t.Fatal("empty ring accepted")
	}
}

func TestSingleNodeRouting(t *testing.T) {
	ring := hashing.NewChordRing()
	if err := ring.AddNode("solo"); err != nil {
		t.Fatal(err)
	}
	routes, err := BuildRoutes(ring, 64)
	if err != nil {
		t.Fatal(err)
	}
	path, err := routes.Route("solo", 99)
	if err != nil || len(path) != 1 || path[0] != "solo" {
		t.Fatalf("path = %v err = %v", path, err)
	}
}

func TestViewRoundTrip(t *testing.T) {
	ring := buildRing(t, 10, 9)
	v := NewView(7, ring)
	if v.Epoch != 7 || len(v.Members) != 10 {
		t.Fatalf("view = %+v", v)
	}
	if !v.Has("n000") || v.Has("ghost") {
		t.Fatal("Has wrong")
	}
	r2, err := v.Ring()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != ring.Len() {
		t.Fatalf("reconstructed ring has %d members", r2.Len())
	}
	for _, id := range ring.Members() {
		p1, _ := ring.Position(id)
		p2, ok := r2.Position(id)
		if !ok || p1 != p2 {
			t.Fatalf("position mismatch for %s", id)
		}
	}
}

func TestTableAccessor(t *testing.T) {
	ring := buildRing(t, 4, 10)
	routes, _ := BuildRoutes(ring, 8)
	if _, ok := routes.Table("n000"); !ok {
		t.Fatal("Table(n000) missing")
	}
	if _, ok := routes.Table("ghost"); ok {
		t.Fatal("Table(ghost) present")
	}
}
