package cluster

import (
	"testing"

	"eclipsemr/internal/hashing"
)

// TestRingBackendsPlaceConsistently pins cross-node agreement on the view
// ring: every node derives its placement ring from the adopted membership
// view, so all nodes resolve every probe key to the same owner and replica
// set.
func TestRingBackendsPlaceConsistently(t *testing.T) {
	c := newTestCluster(t, 5, Options{})
	rings := make([]*hashing.ChordRing, 0, 5)
	for _, id := range c.Nodes() {
		n, ok := c.Node(id)
		if !ok {
			t.Fatalf("node %s missing", id)
		}
		rings = append(rings, n.Ring())
	}
	for i := 0; i < 64; i++ {
		k := hashing.KeyOfString("probe-" + string(rune('a'+i%26)) + "-" + string(rune('0'+i%10)))
		owner, err := rings[0].Owner(k)
		if err != nil {
			t.Fatal(err)
		}
		set, err := rings[0].ReplicaSet(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		for j, r := range rings[1:] {
			got, err := r.Owner(k)
			if err != nil || got != owner {
				t.Fatalf("node %d disagrees on owner of %v: %s vs %s (err %v)", j+1, k, got, owner, err)
			}
			gotSet, err := r.ReplicaSet(k, 3)
			if err != nil {
				t.Fatal(err)
			}
			for x := range set {
				if gotSet[x] != set[x] {
					t.Fatalf("node %d disagrees on replica set of %v: %v vs %v", j+1, k, gotSet, set)
				}
			}
		}
	}
}
