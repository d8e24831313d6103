package hashing_test

import (
	"fmt"
	"testing"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/hashing/ringtest"
)

// TestRingConformance runs the invariant suite over an empty ring in each
// state a consumer can be handed one in: new, a Clone (Node.Ring hands out
// clones of the view ring), a ring whose members have all left again (the
// view ring lives through churn), and a Clone of that.
func TestRingConformance(t *testing.T) {
	drained := func() *hashing.ChordRing {
		r := hashing.NewChordRing()
		for i := 0; i < 32; i++ {
			if err := r.AddNode(hashing.NodeID(fmt.Sprintf("gone-%02d", i))); err != nil {
				panic(err) // the names are distinct
			}
		}
		for _, id := range r.Members() {
			r.Remove(id)
		}
		return r
	}
	for _, v := range []struct {
		name    string
		newRing func() *hashing.ChordRing
	}{
		{"New", hashing.NewChordRing},
		{"Clone", func() *hashing.ChordRing { return hashing.NewChordRing().Clone() }},
		{"Drained", drained},
		{"DrainedClone", func() *hashing.ChordRing { return drained().Clone() }},
	} {
		t.Run(v.name, func(t *testing.T) { ringtest.RunRingConformance(t, v.newRing) })
	}
}

// TestChordRingDefaultPlacementUnchanged pins that the interface refactor
// did not move a single key on the default backend: the chord ring places
// ID-derived nodes exactly as the pre-interface ring did (owner at the
// clockwise successor position, replica set owner/predecessor/successor).
func TestChordRingDefaultPlacementUnchanged(t *testing.T) {
	r := hashing.NewChordRing()
	for _, id := range []hashing.NodeID{"worker-00", "worker-01", "worker-02", "worker-03"} {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	k := hashing.KeyOfString("some-block")
	owner, err := r.Owner(k)
	if err != nil {
		t.Fatal(err)
	}
	// The owner must be the member at the first ring position >= the key,
	// computed from first principles.
	var want hashing.NodeID
	var best hashing.Key
	first := true
	for _, id := range r.Members() {
		pos, _ := r.Position(id)
		if pos >= k && (first || pos < best) {
			want, best, first = id, pos, false
		}
	}
	if first { // wrapped: smallest position overall
		for _, id := range r.Members() {
			pos, _ := r.Position(id)
			if first || pos < best {
				want, best, first = id, pos, false
			}
		}
	}
	if owner != want {
		t.Fatalf("Owner(%v) = %s, want clockwise successor %s", k, owner, want)
	}
	set, err := r.ReplicaSet(k, 3)
	if err != nil {
		t.Fatal(err)
	}
	pred, _ := r.Predecessor(owner)
	succ, _ := r.Successor(owner)
	if set[0] != owner || set[1] != pred || set[2] != succ {
		t.Fatalf("ReplicaSet = %v, want [%s %s %s] (owner, predecessor, successor)", set, owner, pred, succ)
	}
}
