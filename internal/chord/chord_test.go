package chord

import (
	"bytes"
	"encoding/gob"
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
	// Through the wire: only Epoch and Members travel, and the ring is
	// rebuilt from them.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	var got View
	if err := gob.NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	r2, err := got.Ring()
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

// TestViewResolvesOwnersInOneHop: the ring a node rebuilds from the view
// it receives names the authoritative owner and replicas of every key, so
// a read asks them directly and no request is forwarded.
func TestViewResolvesOwnersInOneHop(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			ring := buildRing(t, n, int64(n))
			local, err := View{Epoch: 3, Members: NewView(3, ring).Members}.Ring()
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
// after the membership moves on, as a disseminated view must.
func TestNewViewIsASnapshot(t *testing.T) {
	ring := buildRing(t, 4, 11)
	v := NewView(5, ring)
	if _, err := v.Without("n000").Join("n999"); err != nil {
		t.Fatal(err)
	}
	if !v.Has("n000") || v.Has("n999") || len(v.Members) != 4 {
		t.Fatalf("view followed the ring: %v", v.Members)
	}
}

// TestViewDerivesTheNextEpoch: Join and Without make the view of the next
// epoch with a ring of its own that places as a ring rebuilt from its
// members does, and leave the view they start from, ring and all, as it
// was.
func TestViewDerivesTheNextEpoch(t *testing.T) {
	v := NewView(5, buildRing(t, 6, 13))
	ring, err := v.Ring()
	if err != nil {
		t.Fatal(err)
	}
	positions := fmt.Sprint(v.Members)
	joined, err := v.Join("n999")
	if err != nil {
		t.Fatal(err)
	}
	left := joined.Without("n002", "ghost")
	for _, c := range []struct {
		name    string
		view    View
		epoch   uint64
		members int
	}{{"join", joined, 6, 7}, {"leave", left, 7, 6}} {
		t.Run(c.name, func(t *testing.T) {
			if c.view.Epoch != c.epoch || len(c.view.Members) != c.members {
				t.Fatalf("epoch %d with %d members, want %d with %d", c.view.Epoch, len(c.view.Members), c.epoch, c.members)
			}
			got, err := c.view.Ring()
			if err != nil {
				t.Fatal(err)
			}
			want, err := View{Members: c.view.Members}.Ring()
			if err != nil {
				t.Fatal(err)
			}
			for i := range 200 {
				k := hashing.KeyOfString(fmt.Sprint("probe-", i))
				g, _ := got.ReplicaSet(k, 3)
				w, _ := want.ReplicaSet(k, 3)
				if fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("replicas of %s = %v, rebuilt ring says %v", k, g, w)
				}
			}
		})
	}
	if pos, ok := joined.Members["n999"]; !ok || pos != hashing.KeyOfString("n999") {
		t.Fatalf("joiner at %v, %v; want the hash of its ID", pos, ok)
	}
	t.Run("unchanged", func(t *testing.T) {
		if fmt.Sprint(v.Members) != positions || ring.Len() != 6 || v.Epoch != 5 {
			t.Fatalf("deriving changed the view: epoch %d, %v, ring of %d", v.Epoch, v.Members, ring.Len())
		}
	})
	t.Run("member joins twice", func(t *testing.T) {
		if _, err := v.Join("n001"); err == nil {
			t.Fatal("a member joined twice")
		}
	})
	t.Run("position taken", func(t *testing.T) {
		squatter := View{Epoch: 1, Members: map[hashing.NodeID]hashing.Key{"squatter": hashing.KeyOfString("late")}}
		if _, err := squatter.Join("late"); err == nil {
			t.Fatal("a node joined at a taken position")
		}
	})
}
