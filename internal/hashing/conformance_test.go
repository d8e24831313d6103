package hashing

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

// probeKeys returns a deterministic sample of the key space: fixed
// landmark keys (0, max, powers of two) plus hashed keys, enough to catch
// per-arc ownership changes on small rings.
func probeKeys(n int) []Key {
	keys := []Key{0, 1, 1<<63 - 1, 1 << 63, ^Key(0)}
	for i := 0; len(keys) < n; i++ {
		keys = append(keys, KeyOfString(fmt.Sprintf("probe-%d", i)))
	}
	return keys[:n]
}

// nodeIDs returns n deterministic member names.
func nodeIDs(n int) []NodeID {
	out := make([]NodeID, n)
	for i := range out {
		out[i] = NodeID(fmt.Sprintf("worker-%02d", i))
	}
	return out
}

// owners maps every probe key to its owner.
func owners(t *testing.T, r *ChordRing, keys []Key) map[Key]NodeID {
	t.Helper()
	out := make(map[Key]NodeID, len(keys))
	for _, k := range keys {
		id, err := r.Owner(k)
		if err != nil {
			t.Fatalf("Owner(%v) on %d-member ring: %v", k, r.Len(), err)
		}
		out[k] = id
	}
	return out
}

// TestRingConformance asserts the ring contract that the rest of the
// system (dhtfs placement, shuffle routing, scheduler range cuts) assumes,
// exactly and nothing stronger: a change to the ring that passes it is
// safe without touching any consumer. It is table-driven over membership
// sizes and runs testing/quick property checks for join monotonicity. A
// shared ring is never changed, so a leave is checked on a ring rebuilt
// without the member.
func TestRingConformance(t *testing.T) {
	for _, c := range []struct {
		name string
		test func(*testing.T)
	}{
		{"Empty", testEmpty},
		{"Determinism", testDeterminism},
		{"TotalCoverage", testTotalCoverage},
		{"MonotoneJoin", testMonotoneJoin},
		{"MonotoneJoinQuick", testMonotoneJoinQuick},
		{"BoundedChurnJoin", testBoundedChurnJoin},
		{"BoundedChurnLeave", testBoundedChurnLeave},
		{"ReplicaSets", testReplicaSets},
		{"Neighbors", testNeighbors},
		{"RangeTable", testRangeTable},
		{"Membership", testMembership},
		{"Owns", testOwns},
		{"Positions", testPositions},
		{"ExplicitPositions", testExplicitPositions},
		{"ReplicaSetShape", testReplicaSetShape},
		{"RangeTableAligned", testRangeTableAligned},
		{"LeaveToSuccessor", testLeaveToSuccessor},
		{"JoinLeaveRoundTrip", testJoinLeaveRoundTrip},
	} {
		t.Run(c.name, c.test)
	}
}

// without rebuilds r less the given members, at their old positions.
func without(t testing.TB, r *ChordRing, gone ...NodeID) *ChordRing {
	t.Helper()
	out := NewChordRing()
	for _, e := range r.entries {
		if slices.Contains(gone, e.id) {
			continue
		}
		if err := out.Add(e.id, e.pos); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// populated returns a ring with the first n of nodeIDs joined.
func populated(t *testing.T, n int) *ChordRing {
	t.Helper()
	r := NewChordRing()
	for _, id := range nodeIDs(n) {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// memberKeys returns the probe sample plus every member's own position and
// the keys on either side of it: the arc boundaries where an off-by-one in
// the (pred, pos] convention would show.
func memberKeys(r *ChordRing, n int) []Key {
	keys := probeKeys(n)
	for _, id := range r.Members() {
		pos, _ := r.Position(id)
		keys = append(keys, pos-1, pos, pos+1)
	}
	return keys
}

// testOwns: Owns(id, k) holds for exactly one member, the owner of k, as
// it does for Owner: a key two members both claimed, or none did, would be
// stored twice or lost.
func testOwns(t *testing.T) {
	for _, n := range []int{1, 2, 5, 12} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := populated(t, n)
			for _, k := range memberKeys(r, 256) {
				owner, err := r.Owner(k)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range r.Members() {
					if got := r.Owns(id, k); got != (id == owner) {
						t.Fatalf("n=%d: Owns(%s, %v) = %v, owner is %s", n, id, k, got, owner)
					}
				}
				if r.Owns("ghost", k) {
					t.Fatalf("n=%d: non-member owns %v", n, k)
				}
			}
		})
	}
}

// testPositions: AddNode places a node at the hash of its ID, a node owns
// its own position, Members is in ascending position order, and RangeOf is
// the arc (predecessor's position, own position]. The membership protocol
// ships these positions.
func testPositions(t *testing.T) {
	for _, n := range []int{1, 3, 12} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := populated(t, n)
			var prev Key
			for i, id := range r.Members() {
				pos, ok := r.Position(id)
				if !ok || pos != KeyOfString(string(id)) {
					t.Fatalf("n=%d: Position(%s) = %v, %v; want the hash of its ID", n, id, pos, ok)
				}
				//lint:ignore ringcmp Members is specified in ascending ordinal position on the linear [0,2^64) axis
				if i > 0 && pos <= prev {
					t.Fatalf("n=%d: Members out of position order at %s", n, id)
				}
				prev = pos
				if owner, _ := r.Owner(pos); owner != id {
					t.Fatalf("n=%d: %s does not own its own position (owner %s)", n, id, owner)
				}
				start, end, err := r.RangeOf(id)
				if err != nil {
					t.Fatal(err)
				}
				pred, _ := r.Predecessor(id)
				predPos, _ := r.Position(pred)
				if end != pos || start != predPos {
					t.Fatalf("n=%d: RangeOf(%s) = (%v, %v], want (%v, %v]", n, id, start, end, predPos, pos)
				}
			}
			if _, ok := r.Position("ghost"); ok {
				t.Fatalf("n=%d: non-member has a position", n)
			}
			if _, _, err := r.RangeOf("ghost"); err == nil {
				t.Fatalf("n=%d: RangeOf of non-member succeeded", n)
			}
		})
	}
}

// testExplicitPositions: Add places a node at the position it is given (the
// simulator and the membership view do), a taken position or a duplicate ID
// is refused without changing the ring, and a position freed by a leave can
// be reused.
func testExplicitPositions(t *testing.T) {
	r := NewChordRing()
	for _, m := range []struct {
		id  NodeID
		pos Key
	}{{"a", 100}, {"b", 200}, {"c", 1 << 63}} {
		if err := r.Add(m.id, m.pos); err != nil {
			t.Fatal(err)
		}
	}
	want := map[Key]NodeID{
		0: "a", 100: "a", 101: "b", 200: "b", 201: "c", 1 << 63: "c", 1<<63 + 1: "a", ^Key(0): "a",
	}
	check := func(want map[Key]NodeID) {
		t.Helper()
		for k, id := range want {
			if got, err := r.Owner(k); err != nil || got != id {
				t.Fatalf("Owner(%v) = %s, %v; want %s", k, got, err, id)
			}
		}
	}
	check(want)
	if err := r.Add("d", 200); err == nil {
		t.Fatal("Add at a taken position succeeded")
	}
	if err := r.Add("a", 300); err == nil {
		t.Fatal("Add of a duplicate ID succeeded")
	}
	if _, ok := r.Position("d"); ok || r.Len() != 3 {
		t.Fatalf("refused Add changed the ring: Len %d", r.Len())
	}
	if pos, _ := r.Position("a"); pos != 100 {
		t.Fatalf("refused duplicate moved a to %v", pos)
	}
	check(want)
	r = without(t, r, "b")
	if err := r.Add("d", 200); err != nil {
		t.Fatalf("Add at a freed position: %v", err)
	}
	want[101], want[200] = "d", "d"
	check(want)
}

// testReplicaSetShape: the replica set is the paper's scheme exactly, the
// owner, its predecessor, then successors clockwise.
func testReplicaSetShape(t *testing.T) {
	for _, n := range []int{2, 3, 5, 12} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := populated(t, n)
			for _, k := range memberKeys(r, 256) {
				owner, _ := r.Owner(k)
				expect := []NodeID{owner}
				if pred, _ := r.Predecessor(owner); pred != owner {
					expect = append(expect, pred)
				}
				for cur := owner; len(expect) < n && len(expect) < 5; {
					cur, _ = r.Successor(cur)
					expect = append(expect, cur)
				}
				set, err := r.ReplicaSet(k, 5)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(set) != fmt.Sprint(expect) {
					t.Fatalf("n=%d: ReplicaSet(%v, 5) = %v, want %v (owner, predecessor, successors)", n, k, set, expect)
				}
			}
		})
	}
}

// testRangeTableAligned: the scheduler's initial table mirrors the ring's
// arcs, so task locality and block placement agree at startup. The table's
// ranges are [start, end) where arcs are (start, end], so the two may
// differ only on a key that is exactly a member's position.
func testRangeTableAligned(t *testing.T) {
	for _, n := range []int{1, 3, 8, 40} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := populated(t, n)
			table, err := r.RangeTable()
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range memberKeys(r, 1024) {
				owner, _ := r.Owner(k)
				if got := table.Lookup(k); got != owner {
					if pos, _ := r.Position(owner); pos != k {
						t.Fatalf("n=%d: table sends %v to %s, ring owner is %s", n, k, got, owner)
					}
				}
			}
		})
	}
}

// testLeaveToSuccessor: a departed node's keys go to its successor and no
// other key moves, which is how a failed server's range is handed to the
// take-over node.
func testLeaveToSuccessor(t *testing.T) {
	for _, n := range []int{2, 5, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := populated(t, n)
			departed := nodeIDs(n)[n/2]
			heir, err := r.Successor(departed)
			if err != nil {
				t.Fatal(err)
			}
			keys := memberKeys(r, 2048)
			before := owners(t, r, keys)
			after := owners(t, without(t, r, departed), keys)
			for _, k := range keys {
				switch {
				case before[k] == departed && after[k] != heir:
					t.Fatalf("n=%d: key %v of departed %s went to %s, want successor %s", n, k, departed, after[k], heir)
				case before[k] != departed && after[k] != before[k]:
					t.Fatalf("n=%d: key %v moved %s -> %s on leave of %s", n, k, before[k], after[k], departed)
				}
			}
		})
	}
}

// testJoinLeaveRoundTrip: a node that joins and leaves again leaves every
// owner and replica set as it was, so a transient member strands nothing.
func testJoinLeaveRoundTrip(t *testing.T) {
	for _, n := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := populated(t, n)
			keys := probeKeys(1024)
			before := make(map[Key]string, len(keys))
			for _, k := range keys {
				set, err := r.ReplicaSet(k, 3)
				if err != nil {
					t.Fatal(err)
				}
				before[k] = fmt.Sprint(set)
			}
			if err := r.AddNode("transient-xx"); err != nil {
				t.Fatal(err)
			}
			r = without(t, r, "transient-xx")
			for _, k := range keys {
				set, err := r.ReplicaSet(k, 3)
				if err != nil {
					t.Fatal(err)
				}
				if got := fmt.Sprint(set); got != before[k] {
					t.Fatalf("n=%d: ReplicaSet(%v) = %s after a join and leave, was %s", n, k, got, before[k])
				}
			}
		})
	}
}

// testEmpty: lookups on an empty ring fail with ErrEmptyRing, never panic.
func testEmpty(t *testing.T) {
	r := NewChordRing()
	if r.Len() != 0 {
		t.Fatalf("new ring has %d members, want 0", r.Len())
	}
	if _, err := r.Owner(42); err != ErrEmptyRing {
		t.Errorf("Owner on empty ring: err = %v, want ErrEmptyRing", err)
	}
	if _, err := r.ReplicaSet(42, 3); err != ErrEmptyRing {
		t.Errorf("ReplicaSet on empty ring: err = %v, want ErrEmptyRing", err)
	}
	if _, err := r.RangeTable(); err != ErrEmptyRing {
		t.Errorf("RangeTable on empty ring: err = %v, want ErrEmptyRing", err)
	}
	if _, err := r.Successor("ghost"); err == nil {
		t.Error("Successor of unknown node succeeded")
	}
}

// testDeterminism: two rings built by the same operation sequence agree
// on every owner and replica set — no hidden randomness or clock state.
func testDeterminism(t *testing.T) {
	build := func() *ChordRing {
		r := NewChordRing()
		for _, id := range nodeIDs(9) {
			if err := r.AddNode(id); err != nil {
				t.Fatal(err)
			}
		}
		r = without(t, r, "worker-03", "worker-07")
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
func testTotalCoverage(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 40} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := NewChordRing()
			live := make(map[NodeID]bool, n)
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
		})
	}
}

// testMonotoneJoin: adding a node moves keys only onto the new node;
// no key moves between two pre-existing nodes.
func testMonotoneJoin(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16, 31, 32, 40, 63, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := NewChordRing()
			for _, id := range nodeIDs(n) {
				if err := r.AddNode(id); err != nil {
					t.Fatal(err)
				}
			}
			keys := probeKeys(2048)
			before := owners(t, r, keys)
			joined := NodeID("joiner-xx")
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
		})
	}
}

// testMonotoneJoinQuick: the same property over quick-generated keys and
// ring sizes.
func testMonotoneJoinQuick(t *testing.T) {
	prop := func(rawKeys []uint64, sz uint8) bool {
		n := int(sz%24) + 1
		r := NewChordRing()
		for _, id := range nodeIDs(n) {
			if err := r.AddNode(id); err != nil {
				return false
			}
		}
		keys := make([]Key, 0, len(rawKeys))
		for _, rk := range rawKeys {
			keys = append(keys, Key(rk))
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

// churned builds an n-member ring, changes it to the ring change returns
// and returns how many probe keys changed owner, with the owners after the
// change.
func churned(t *testing.T, n int, change func(*ChordRing) *ChordRing) (int, map[Key]NodeID) {
	t.Helper()
	r := NewChordRing()
	for _, id := range nodeIDs(n) {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	keys := probeKeys(churnProbes)
	before := owners(t, r, keys)
	after := owners(t, change(r), keys)
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
func testBoundedChurnJoin(t *testing.T) {
	for _, n := range churnSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			moved, _ := churned(t, n, func(r *ChordRing) *ChordRing {
				if err := r.AddNode("joiner-xx"); err != nil {
					t.Fatal(err)
				}
				return r
			})
			if limit := 4*churnProbes/(n+1) + churnProbes/100; moved > limit {
				t.Errorf("n=%d: one join moved %d/%d probed keys (limit %d, ideal %d)",
					n, moved, churnProbes, limit, churnProbes/(n+1))
			}
		})
	}
}

// testBoundedChurnLeave: removing one node remaps a bounded slice of the
// key space. The departed node's keys must move (about 1/n), and on a
// single-token ring an arc can be several times the mean. We allow 3x the
// fair share plus 1% for sampling noise — far below the ~100% a
// non-consistent rehash would show.
func testBoundedChurnLeave(t *testing.T) {
	for _, n := range churnSizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			departed := nodeIDs(n)[n/2]
			moved, after := churned(t, n, func(r *ChordRing) *ChordRing {
				return without(t, r, departed)
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
		})
	}
}

// testReplicaSets: duplicate-free, live, owner-first, clamped to Len.
func testReplicaSets(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 12} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := NewChordRing()
			live := make(map[NodeID]bool, n)
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
					seen := make(map[NodeID]bool, len(set))
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
		})
	}
}

// testNeighbors: Successor/Predecessor stay on the ring, invert each
// other, and a sole member neighbors itself.
func testNeighbors(t *testing.T) {
	r := NewChordRing()
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
	live := make(map[NodeID]bool)
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
func testRangeTable(t *testing.T) {
	for _, n := range []int{1, 3, 8, 40} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			r := NewChordRing()
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
			seen := make(map[NodeID]bool, n)
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
		})
	}
}

// testMembership: duplicate joins fail, Members matches joins minus
// leaves, Len agrees.
func testMembership(t *testing.T) {
	r := NewChordRing()
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
	r = without(t, r, "worker-00")
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

// TestChordRingDefaultPlacementUnchanged pins that the interface refactor
// did not move a single key on the default backend: the chord ring places
// ID-derived nodes exactly as the pre-interface ring did (owner at the
// clockwise successor position, replica set owner/predecessor/successor).
func TestChordRingDefaultPlacementUnchanged(t *testing.T) {
	r := NewChordRing()
	for _, id := range []NodeID{"worker-00", "worker-01", "worker-02", "worker-03"} {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	k := KeyOfString("some-block")
	owner, err := r.Owner(k)
	if err != nil {
		t.Fatal(err)
	}
	// The owner must be the member at the first ring position >= the key,
	// computed from first principles.
	var want NodeID
	var best Key
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
