package hashing

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// paperRing reproduces the six-server ring from Figure 1 of the paper,
// scaled to our 64-bit space by using the raw positions directly.
func paperRing(t *testing.T) *ChordRing {
	t.Helper()
	r := NewChordRing()
	for _, n := range []struct {
		id  NodeID
		pos Key
	}{
		{"A", 5}, {"B", 15}, {"C", 26}, {"D", 39}, {"E", 47}, {"F", 57},
	} {
		if err := r.Add(n.id, n.pos); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestRingOwnerMatchesPaperFigure1(t *testing.T) {
	r := paperRing(t)
	// Figure 1: A owns [55~5), i.e. keys after F's position 57 wrap to A.
	cases := []struct {
		k    Key
		want NodeID
	}{
		{5, "A"}, {60, "A"}, {0, "A"},
		{6, "B"}, {15, "B"}, {11, "B"},
		{18, "C"}, {26, "C"},
		{38, "D"}, {39, "D"},
		{47, "E"},
		{55, "F"}, {57, "F"},
	}
	for _, c := range cases {
		got, err := r.Owner(c.k)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("Owner(%d) = %s want %s", c.k, got, c.want)
		}
	}
}

func TestRingEmpty(t *testing.T) {
	r := NewChordRing()
	if _, err := r.Owner(1); err != ErrEmptyRing {
		t.Fatalf("Owner on empty ring: err = %v, want ErrEmptyRing", err)
	}
	if _, err := r.ReplicaSet(1, 3); err != ErrEmptyRing {
		t.Fatalf("ReplicaSet on empty ring: err = %v, want ErrEmptyRing", err)
	}
}

func TestRingDuplicateAddRejected(t *testing.T) {
	r := NewChordRing()
	if err := r.Add("A", 10); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("A", 20); err == nil {
		t.Fatal("duplicate node ID accepted")
	}
	if err := r.Add("B", 10); err == nil {
		t.Fatal("duplicate position accepted")
	}
}

func TestRingSuccessorPredecessor(t *testing.T) {
	r := paperRing(t)
	cases := []struct{ id, succ, pred NodeID }{
		{"A", "B", "F"},
		{"B", "C", "A"},
		{"F", "A", "E"},
	}
	for _, c := range cases {
		s, err := r.Successor(c.id)
		if err != nil || s != c.succ {
			t.Errorf("Successor(%s) = %s,%v want %s", c.id, s, err, c.succ)
		}
		p, err := r.Predecessor(c.id)
		if err != nil || p != c.pred {
			t.Errorf("Predecessor(%s) = %s,%v want %s", c.id, p, err, c.pred)
		}
	}
	if _, err := r.Successor("Z"); err == nil {
		t.Fatal("Successor of unknown node did not error")
	}
}

func TestRingReplicaSetPredAndSucc(t *testing.T) {
	r := paperRing(t)
	// Key 20 is owned by C; replicas should be C (owner), B (pred), D (succ).
	set, err := r.ReplicaSet(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []NodeID{"C", "B", "D"}
	if fmt.Sprint(set) != fmt.Sprint(want) {
		t.Fatalf("ReplicaSet(20,3) = %v want %v", set, want)
	}
}

func TestRingReplicaSetSmallRing(t *testing.T) {
	r := NewChordRing()
	if err := r.Add("A", 10); err != nil {
		t.Fatal(err)
	}
	set, err := r.ReplicaSet(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 || set[0] != "A" {
		t.Fatalf("single-node ReplicaSet = %v", set)
	}
	if err := r.Add("B", 20); err != nil {
		t.Fatal(err)
	}
	set, _ = r.ReplicaSet(5, 3)
	if len(set) != 2 {
		t.Fatalf("two-node ReplicaSet = %v", set)
	}
	if set[0] == set[1] {
		t.Fatalf("ReplicaSet returned duplicates: %v", set)
	}
}

func TestRingRemoveSuccessorTakesOver(t *testing.T) {
	// B owns key 10. Remove B: C (successor) must take over.
	r := without(t, paperRing(t), "B")
	got, err := r.Owner(10)
	if err != nil {
		t.Fatal(err)
	}
	if got != "C" {
		t.Fatalf("after removing B, Owner(10) = %s want C", got)
	}
	if r.Len() != 5 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
}

func TestRingRangeOfAndOwns(t *testing.T) {
	r := paperRing(t)
	start, end, err := r.RangeOf("B")
	if err != nil {
		t.Fatal(err)
	}
	if start != 5 || end != 15 {
		t.Fatalf("RangeOf(B) = (%d,%d] want (5,15]", start, end)
	}
	if !r.Owns("B", 10) || r.Owns("B", 20) || r.Owns("B", 5) || !r.Owns("B", 15) {
		t.Fatal("Owns(B, ·) boundary behaviour wrong")
	}
}

func TestRingMembersSorted(t *testing.T) {
	r := NewChordRing()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		if err := r.Add(NodeID(fmt.Sprintf("n%02d", i)), Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	members := r.Members()
	positions := make([]uint64, len(members))
	for i, m := range members {
		p, ok := r.Position(m)
		if !ok {
			t.Fatalf("Position(%s) missing", m)
		}
		positions[i] = uint64(p)
	}
	if !sort.SliceIsSorted(positions, func(i, j int) bool { return positions[i] < positions[j] }) {
		t.Fatal("Members() not in ring order")
	}
}

// Property: every key has exactly one owner, and the owner actually Owns it.
func TestRingOwnershipConsistent(t *testing.T) {
	r := NewChordRing()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		if err := r.Add(NodeID(fmt.Sprintf("n%02d", i)), Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	f := func(k Key) bool {
		owner, err := r.Owner(k)
		if err != nil {
			return false
		}
		if !r.Owns(owner, k) {
			return false
		}
		// No other node owns it.
		for _, m := range r.Members() {
			if m != owner && r.Owns(m, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: removing a node only reassigns keys that node owned; all other
// keys keep their owner (the minimal-disruption guarantee of consistent
// hashing).
func TestRingConsistentHashingMinimalDisruption(t *testing.T) {
	r := NewChordRing()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		if err := r.Add(NodeID(fmt.Sprintf("n%02d", i)), Key(rng.Uint64())); err != nil {
			t.Fatal(err)
		}
	}
	victim := NodeID("n07")
	before := map[Key]NodeID{}
	keys := make([]Key, 2000)
	for i := range keys {
		keys[i] = Key(rng.Uint64())
		owner, _ := r.Owner(keys[i])
		before[keys[i]] = owner
	}
	r = without(t, r, victim)
	for _, k := range keys {
		after, _ := r.Owner(k)
		if before[k] != victim && after != before[k] {
			t.Fatalf("key %v moved from %s to %s although %s was removed",
				k, before[k], after, victim)
		}
		if before[k] == victim && after == victim {
			t.Fatalf("key %v still owned by removed node", k)
		}
	}
}

func TestAddNodeUsesDerivedPosition(t *testing.T) {
	r := NewChordRing()
	if err := r.AddNode("worker-1"); err != nil {
		t.Fatal(err)
	}
	pos, ok := r.Position("worker-1")
	if !ok || pos != KeyOfString("worker-1") {
		t.Fatalf("AddNode position = %v, %v", pos, ok)
	}
}
