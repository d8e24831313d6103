// Package ringtest is the shared conformance suite for hashing.Ring
// implementations. Every backend the -ring flag can select must pass
// RunRingConformance: the rest of the system (dhtfs placement, shuffle
// routing, scheduler range cuts) assumes exactly these invariants and
// nothing stronger, so a new backend that passes the suite is safe to
// deploy without touching any consumer.
package ringtest

import (
	"fmt"
	"testing"
	"testing/quick"

	"eclipsemr/internal/hashing"
)

// probeKeys returns a deterministic sample of the key space: fixed
// landmark keys (0, max, powers of two) plus hashed keys, enough to catch
// per-arc ownership changes on small rings.
func probeKeys(n int) []hashing.Key {
	keys := []hashing.Key{0, 1, 1<<63 - 1, 1 << 63, ^hashing.Key(0)}
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, hashing.KeyOfString(fmt.Sprintf("probe-%d", i)))
	}
	return keys[:n]
}

// nodeIDs returns n deterministic member names.
func nodeIDs(n int) []hashing.NodeID {
	out := make([]hashing.NodeID, n)
	for i := range out {
		out[i] = hashing.NodeID(fmt.Sprintf("worker-%02d", i))
	}
	return out
}

// owners maps every probe key to its owner.
func owners(t *testing.T, r hashing.Ring, keys []hashing.Key) map[hashing.Key]hashing.NodeID {
	t.Helper()
	out := make(map[hashing.Key]hashing.NodeID, len(keys))
	for _, k := range keys {
		id, err := r.Owner(k)
		if err != nil {
			t.Fatalf("Owner(%v) on %d-member ring: %v", k, r.Len(), err)
		}
		out[k] = id
	}
	return out
}

// RunRingConformance asserts the Ring contract on rings produced by
// newRing. It is table-driven over membership sizes and runs
// testing/quick property checks for join monotonicity.
func RunRingConformance(t *testing.T, newRing func() hashing.Ring) {
	t.Run("Empty", func(t *testing.T) { testEmpty(t, newRing) })
	t.Run("Determinism", func(t *testing.T) { testDeterminism(t, newRing) })
	t.Run("TotalCoverage", func(t *testing.T) { testTotalCoverage(t, newRing) })
	t.Run("MonotoneJoin", func(t *testing.T) { testMonotoneJoin(t, newRing) })
	t.Run("MonotoneJoinQuick", func(t *testing.T) { testMonotoneJoinQuick(t, newRing) })
	t.Run("BoundedChurnJoin", func(t *testing.T) { testBoundedChurnJoin(t, newRing) })
	t.Run("BoundedChurnLeave", func(t *testing.T) { testBoundedChurnLeave(t, newRing) })
	t.Run("ReplicaSets", func(t *testing.T) { testReplicaSets(t, newRing) })
	t.Run("Neighbors", func(t *testing.T) { testNeighbors(t, newRing) })
	t.Run("RangeTable", func(t *testing.T) { testRangeTable(t, newRing) })
	t.Run("Snapshot", func(t *testing.T) { testSnapshot(t, newRing) })
	t.Run("Membership", func(t *testing.T) { testMembership(t, newRing) })
}

// testEmpty: lookups on an empty ring fail with ErrEmptyRing, never panic.
func testEmpty(t *testing.T, newRing func() hashing.Ring) {
	r := newRing()
	if r.Len() != 0 {
		t.Fatalf("new ring has %d members, want 0", r.Len())
	}
	if _, err := r.Owner(42); err != hashing.ErrEmptyRing {
		t.Errorf("Owner on empty ring: err = %v, want ErrEmptyRing", err)
	}
	if _, err := r.ReplicaSet(42, 3); err != hashing.ErrEmptyRing {
		t.Errorf("ReplicaSet on empty ring: err = %v, want ErrEmptyRing", err)
	}
	if _, err := r.RangeTable(); err != hashing.ErrEmptyRing {
		t.Errorf("RangeTable on empty ring: err = %v, want ErrEmptyRing", err)
	}
	if r.Remove("ghost") {
		t.Error("Remove of unknown node returned true")
	}
	if _, err := r.Successor("ghost"); err == nil {
		t.Error("Successor of unknown node succeeded")
	}
}

// testDeterminism: two rings built by the same operation sequence agree
// on every owner and replica set — no hidden randomness or clock state.
func testDeterminism(t *testing.T, newRing func() hashing.Ring) {
	build := func() hashing.Ring {
		r := newRing()
		for _, id := range nodeIDs(9) {
			if err := r.AddNode(id); err != nil {
				t.Fatal(err)
			}
		}
		r.Remove("worker-03")
		r.Remove("worker-07")
		if err := r.AddNode("worker-99"); err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := build(), build()
	keys := probeKeys(512)
	ao, bo := owners(t, a, keys), owners(t, b, keys)
	for _, k := range keys {
		if ao[k] != bo[k] {
			t.Fatalf("same op sequence, different owner for %v: %s vs %s", k, ao[k], bo[k])
		}
		ra, err := a.ReplicaSet(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.ReplicaSet(k, 3)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ra) != fmt.Sprint(rb) {
			t.Fatalf("same op sequence, different replica set for %v: %v vs %v", k, ra, rb)
		}
	}
}

// testTotalCoverage: every key has an owner and the owner is a member.
func testTotalCoverage(t *testing.T, newRing func() hashing.Ring) {
	for _, n := range []int{1, 2, 3, 8, 40} {
		r := newRing()
		live := make(map[hashing.NodeID]bool, n)
		for _, id := range nodeIDs(n) {
			if err := r.AddNode(id); err != nil {
				t.Fatal(err)
			}
			live[id] = true
		}
		for k, id := range owners(t, r, probeKeys(1024)) {
			if !live[id] {
				t.Fatalf("n=%d: key %v owned by non-member %q", n, k, id)
			}
		}
	}
}

// testMonotoneJoin: adding a node moves keys only onto the new node;
// no key moves between two pre-existing nodes.
func testMonotoneJoin(t *testing.T, newRing func() hashing.Ring) {
	for _, n := range []int{1, 2, 4, 7, 16, 31, 32, 40, 63, 64} {
		r := newRing()
		for _, id := range nodeIDs(n) {
			if err := r.AddNode(id); err != nil {
				t.Fatal(err)
			}
		}
		keys := probeKeys(2048)
		before := owners(t, r, keys)
		joined := hashing.NodeID("joiner-xx")
		if err := r.AddNode(joined); err != nil {
			t.Fatal(err)
		}
		after := owners(t, r, keys)
		moved := 0
		for _, k := range keys {
			if before[k] == after[k] {
				continue
			}
			moved++
			if after[k] != joined {
				t.Fatalf("n=%d: key %v moved %s -> %s on join of %s (must move only to the joiner)",
					n, k, before[k], after[k], joined)
			}
		}
		// The joiner should take a nonzero share once rings are big enough
		// for the probe sample to see its arcs (tiny rings always do).
		if moved == 0 && n <= 16 {
			t.Errorf("n=%d: join of %s moved no probed keys", n, joined)
		}
	}
}

// testMonotoneJoinQuick: the same property over quick-generated keys and
// ring sizes.
func testMonotoneJoinQuick(t *testing.T, newRing func() hashing.Ring) {
	prop := func(rawKeys []uint64, sz uint8) bool {
		n := int(sz%24) + 1
		r := newRing()
		for _, id := range nodeIDs(n) {
			if err := r.AddNode(id); err != nil {
				return false
			}
		}
		keys := make([]hashing.Key, 0, len(rawKeys))
		for _, rk := range rawKeys {
			keys = append(keys, hashing.Key(rk))
		}
		before := owners(t, r, keys)
		if err := r.AddNode("joiner-xx"); err != nil {
			return false
		}
		after := owners(t, r, keys)
		for _, k := range keys {
			if before[k] != after[k] && after[k] != "joiner-xx" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// churnSizes are the member counts the churn bounds are checked at, and
// churnProbes the keys traced across each membership change: enough that
// the ideal share at the largest size (1/257) is still dozens of keys.
var churnSizes = []int{16, 64, 256}

const churnProbes = 8192

// churned builds an n-member ring, applies change to it and returns how
// many probe keys changed owner, with the owners after the change.
func churned(t *testing.T, newRing func() hashing.Ring, n int, change func(hashing.Ring)) (int, map[hashing.Key]hashing.NodeID) {
	t.Helper()
	r := newRing()
	for _, id := range nodeIDs(n) {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	keys := probeKeys(churnProbes)
	before := owners(t, r, keys)
	change(r)
	after := owners(t, r, keys)
	moved := 0
	for _, k := range keys {
		if before[k] != after[k] {
			moved++
		}
	}
	return moved, after
}

// testBoundedChurnJoin: one join remaps close to the ideal 1/(n+1) of the
// key space — the property consistent hashing is chosen for (Lamping &
// Veach, arXiv 1406.2294) — never an order of magnitude more.
// MonotoneJoin pins where moved keys go; this pins how many move: at most
// 4x the fair share plus 1% for sampling noise, far below the n/(n+1) of
// a mod-N rehash.
func testBoundedChurnJoin(t *testing.T, newRing func() hashing.Ring) {
	for _, n := range churnSizes {
		moved, _ := churned(t, newRing, n, func(r hashing.Ring) {
			if err := r.AddNode("joiner-xx"); err != nil {
				t.Fatal(err)
			}
		})
		if limit := 4*churnProbes/(n+1) + churnProbes/100; moved > limit {
			t.Errorf("n=%d: one join moved %d/%d probed keys (limit %d, ideal %d)",
				n, moved, churnProbes, limit, churnProbes/(n+1))
		}
	}
}

// testBoundedChurnLeave: removing one node remaps a bounded slice of the
// key space. The departed node's keys must move (about 1/n); backends may
// shuffle bookkeeping for at most another node's worth. We allow 3x the
// fair share plus 1% for sampling noise — far below the ~100% a
// non-consistent rehash would show.
func testBoundedChurnLeave(t *testing.T, newRing func() hashing.Ring) {
	for _, n := range churnSizes {
		departed := nodeIDs(n)[n/2]
		moved, after := churned(t, newRing, n, func(r hashing.Ring) {
			if !r.Remove(departed) {
				t.Fatalf("Remove(%s) returned false", departed)
			}
		})
		for k, id := range after {
			if id == departed {
				t.Fatalf("n=%d: key %v still owned by departed node %s", n, k, departed)
			}
		}
		if limit := 3*churnProbes/n + churnProbes/100; moved > limit {
			t.Errorf("n=%d: one leave moved %d/%d probed keys (limit %d, ideal %d)",
				n, moved, churnProbes, limit, churnProbes/n)
		}
	}
}

// testReplicaSets: duplicate-free, live, owner-first, clamped to Len.
func testReplicaSets(t *testing.T, newRing func() hashing.Ring) {
	for _, n := range []int{1, 2, 3, 5, 12} {
		r := newRing()
		live := make(map[hashing.NodeID]bool, n)
		for _, id := range nodeIDs(n) {
			if err := r.AddNode(id); err != nil {
				t.Fatal(err)
			}
			live[id] = true
		}
		for _, k := range probeKeys(256) {
			for _, want := range []int{1, 3, n + 5} {
				set, err := r.ReplicaSet(k, want)
				if err != nil {
					t.Fatal(err)
				}
				expect := want
				if expect > n {
					expect = n
				}
				if len(set) != expect {
					t.Fatalf("n=%d: ReplicaSet(%v, %d) returned %d nodes, want %d", n, k, want, len(set), expect)
				}
				owner, err := r.Owner(k)
				if err != nil {
					t.Fatal(err)
				}
				if set[0] != owner {
					t.Fatalf("n=%d: ReplicaSet(%v)[0] = %s, want owner %s", n, k, set[0], owner)
				}
				seen := make(map[hashing.NodeID]bool, len(set))
				for _, id := range set {
					if seen[id] {
						t.Fatalf("n=%d: duplicate %s in ReplicaSet(%v, %d) = %v", n, id, k, want, set)
					}
					seen[id] = true
					if !live[id] {
						t.Fatalf("n=%d: non-member %s in ReplicaSet(%v, %d)", n, id, k, want)
					}
				}
			}
		}
	}
}

// testNeighbors: Successor/Predecessor stay on the ring, invert each
// other, and a sole member neighbors itself.
func testNeighbors(t *testing.T, newRing func() hashing.Ring) {
	r := newRing()
	if err := r.AddNode("solo"); err != nil {
		t.Fatal(err)
	}
	if s, err := r.Successor("solo"); err != nil || s != "solo" {
		t.Errorf("sole member successor = %q, %v; want itself", s, err)
	}
	for _, id := range nodeIDs(7) {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	live := make(map[hashing.NodeID]bool)
	for _, id := range r.Members() {
		live[id] = true
	}
	for _, id := range r.Members() {
		succ, err := r.Successor(id)
		if err != nil {
			t.Fatal(err)
		}
		if !live[succ] {
			t.Fatalf("Successor(%s) = non-member %s", id, succ)
		}
		if succ == id {
			t.Fatalf("Successor(%s) is itself on an %d-member ring", id, r.Len())
		}
		back, err := r.Predecessor(succ)
		if err != nil {
			t.Fatal(err)
		}
		if back != id {
			t.Fatalf("Predecessor(Successor(%s)) = %s, want %s", id, back, id)
		}
	}
}

// testRangeTable: one range per member, each member present exactly once.
func testRangeTable(t *testing.T, newRing func() hashing.Ring) {
	for _, n := range []int{1, 3, 8, 40} {
		r := newRing()
		for _, id := range nodeIDs(n) {
			if err := r.AddNode(id); err != nil {
				t.Fatal(err)
			}
		}
		table, err := r.RangeTable()
		if err != nil {
			t.Fatal(err)
		}
		if table.Len() != n {
			t.Fatalf("n=%d: RangeTable has %d servers", n, table.Len())
		}
		seen := make(map[hashing.NodeID]bool, n)
		for _, id := range table.Servers() {
			if seen[id] {
				t.Fatalf("n=%d: server %s appears twice in RangeTable", n, id)
			}
			seen[id] = true
		}
		for _, id := range r.Members() {
			if !seen[id] {
				t.Fatalf("n=%d: member %s missing from RangeTable", n, id)
			}
		}
		// Every key resolves to some member through the table.
		for _, k := range probeKeys(64) {
			if !seen[table.Lookup(k)] {
				t.Fatalf("n=%d: table lookup of %v returned non-member", n, k)
			}
		}
	}
}

// testSnapshot: a snapshot agrees with its source and is independent of
// later mutation.
func testSnapshot(t *testing.T, newRing func() hashing.Ring) {
	r := newRing()
	for _, id := range nodeIDs(10) {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	snap := r.Snapshot()
	if snap.Algorithm() != r.Algorithm() {
		t.Fatalf("snapshot algorithm %q != source %q", snap.Algorithm(), r.Algorithm())
	}
	keys := probeKeys(512)
	src, dup := owners(t, r, keys), owners(t, snap, keys)
	for _, k := range keys {
		if src[k] != dup[k] {
			t.Fatalf("snapshot disagrees on %v: %s vs %s", k, src[k], dup[k])
		}
	}
	// Mutate the source; the snapshot must not change.
	if err := r.AddNode("late-joiner"); err != nil {
		t.Fatal(err)
	}
	r.Remove("worker-02")
	after := owners(t, snap, keys)
	for _, k := range keys {
		if dup[k] != after[k] {
			t.Fatalf("snapshot changed after source mutation: key %v %s -> %s", k, dup[k], after[k])
		}
	}
	if snap.Len() != 10 {
		t.Fatalf("snapshot Len %d changed by source mutation", snap.Len())
	}
}

// testMembership: duplicate joins fail, Members matches joins minus
// leaves, Len agrees.
func testMembership(t *testing.T, newRing func() hashing.Ring) {
	r := newRing()
	for _, id := range nodeIDs(5) {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.AddNode("worker-03"); err == nil {
		t.Error("duplicate AddNode succeeded")
	}
	if r.Len() != 5 {
		t.Fatalf("Len = %d after duplicate join, want 5", r.Len())
	}
	if !r.Remove("worker-00") {
		t.Error("Remove of member returned false")
	}
	if r.Remove("worker-00") {
		t.Error("second Remove of same node returned true")
	}
	members := r.Members()
	if len(members) != 4 || r.Len() != 4 {
		t.Fatalf("Members/Len = %d/%d after one leave, want 4/4", len(members), r.Len())
	}
	for _, id := range members {
		if id == "worker-00" {
			t.Error("departed node still in Members")
		}
	}
}
