package chord

import (
	"fmt"
	"math/rand"
	"testing"

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

// TestViewResolvesOwnersInOneHop: the ring a node rebuilds from its view
// names the authoritative owner and replicas of every key, so a read asks
// them directly and no request is forwarded.
func TestViewResolvesOwnersInOneHop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ring := buildRing(t, n, int64(n))
			local, err := NewView(3, ring).Ring()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(n) + 100))
			keys := []hashing.Key{0, ^hashing.Key(0)}
			for _, id := range ring.Members() {
				pos, _ := ring.Position(id)
				keys = append(keys, pos, pos+1)
			}
			for range 500 {
				keys = append(keys, hashing.Key(rng.Uint64()))
			}
			for _, k := range keys {
				want, err := ring.ReplicaSet(k, 3)
				if err != nil {
					t.Fatal(err)
				}
				got, err := local.ReplicaSet(k, 3)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("replicas of %s = %v from the view, want %v", k, got, want)
				}
			}
		})
	}
}

// TestViewRingRejectsCollision: a view whose members share a ring
// position describes no valid ring, and Ring says so.
func TestViewRingRejectsCollision(t *testing.T) {
	v := View{Epoch: 1, Members: map[hashing.NodeID]hashing.Key{"a": 42, "b": 42}}
	if _, err := v.Ring(); err == nil {
		t.Fatal("two members at one position rebuilt into a ring")
	}
}

// TestNewViewIsASnapshot: a view keeps the membership it was built from
// after the ring moves on, as a disseminated view must.
func TestNewViewIsASnapshot(t *testing.T) {
	ring := buildRing(t, 4, 11)
	v := NewView(5, ring)
	ring.Remove("n000")
	if err := ring.AddNode("n999"); err != nil {
		t.Fatal(err)
	}
	if !v.Has("n000") || v.Has("n999") || len(v.Members) != 4 {
		t.Fatalf("view followed the ring: %v", v.Members)
	}
}
