package hashing_test

import (
	"fmt"
	"slices"
	"testing"

	"eclipsemr/internal/hashing"
)

// Both targets keep a leading selector byte that once picked one of several
// ring algorithms. Only the Chord ring is left, so the byte is ignored; it
// stays in the argument list so the committed corpora still load.

// finalMembers replays a fuzzed membership script: each byte joins (high
// bit clear) or leaves (high bit set) one of 16 pool nodes. Duplicate
// joins and missing leaves are ignored. It returns the members left, in
// the order they last joined.
func finalMembers(ops []byte) []hashing.NodeID {
	var members []hashing.NodeID
	for _, op := range ops {
		id := hashing.NodeID(fmt.Sprintf("pool-%02d", op&0x0f))
		i := slices.Index(members, id)
		switch {
		case op&0x80 != 0 && i >= 0:
			members = slices.Delete(members, i, i+1)
		case op&0x80 == 0 && i < 0:
			members = append(members, id)
		}
	}
	return members
}

// ringOf builds a ring by joining members in the order given.
func ringOf(t *testing.T, members []hashing.NodeID) *hashing.ChordRing {
	t.Helper()
	r := hashing.NewChordRing()
	for _, id := range members {
		if err := r.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// FuzzRingLookupConsistency pins the consistency contract under arbitrary
// membership histories: the same key and membership always resolve to the
// same owner and replica set, whatever order the members joined in. A
// shared ring is never changed, so the script's final membership is built
// into a ring in join order and in reverse.
func FuzzRingLookupConsistency(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 2, 3}, uint64(42), uint64(1<<63))
	f.Add(uint8(1), []byte{0, 1, 0x81, 2}, uint64(0), uint64(^uint64(0)))
	f.Add(uint8(2), []byte{5, 9, 12, 0x85, 3, 7}, uint64(123456789), uint64(987654321))
	f.Add(uint8(3), []byte{1, 2, 3, 4, 5, 6, 7, 8}, uint64(1), uint64(2))
	f.Add(uint8(4), []byte{0, 0x80, 0, 0x80, 1}, uint64(7), uint64(7))
	f.Fuzz(func(t *testing.T, _ uint8, ops []byte, k1, k2 uint64) {
		members := finalMembers(ops)
		ring := ringOf(t, members)
		reversed := slices.Clone(members)
		slices.Reverse(reversed)
		replay := ringOf(t, reversed)
		if ring.Len() != len(members) || replay.Len() != ring.Len() {
			t.Fatalf("membership diverged: %d members, ring %d, reverse-order ring %d",
				len(members), ring.Len(), replay.Len())
		}
		for _, k := range []hashing.Key{hashing.Key(k1), hashing.Key(k2)} {
			owner, err := ring.Owner(k)
			if err != nil {
				if err == hashing.ErrEmptyRing && ring.Len() == 0 {
					continue
				}
				t.Fatalf("Owner(%v): %v", k, err)
			}
			if got, err := replay.Owner(k); err != nil || got != owner {
				t.Fatalf("reverse-order ring owner of %v = %s, %v; ring says %s", k, got, err, owner)
			}
			set, err := ring.ReplicaSet(k, 3)
			if err != nil {
				t.Fatalf("ReplicaSet(%v): %v", k, err)
			}
			replaySet, err := replay.ReplicaSet(k, 3)
			if err != nil || fmt.Sprint(set) != fmt.Sprint(replaySet) {
				t.Fatalf("reverse-order replica set of %v = %v, %v; ring says %v", k, replaySet, err, set)
			}
		}
	})
}

// FuzzRangeTableCoversSpace pins that the ring's range table, and a job's
// equal-width reduce table over the same members, partition the key
// space: each key falls in exactly the range the lookup reports (no
// gaps), every server appears exactly once (no overlapping ownership),
// and boundary keys land on their own range.
func FuzzRangeTableCoversSpace(f *testing.F) {
	f.Add(uint8(0), uint8(1), uint64(0))
	f.Add(uint8(1), uint8(3), uint64(1<<32))
	f.Add(uint8(2), uint8(40), uint64(^uint64(0)))
	f.Add(uint8(3), uint8(7), uint64(1<<63))
	f.Add(uint8(4), uint8(64), uint64(3))
	f.Fuzz(func(t *testing.T, _ uint8, nodes uint8, rawKey uint64) {
		n := int(nodes)%64 + 1
		ring := hashing.NewChordRing()
		for i := 0; i < n; i++ {
			if err := ring.AddNode(hashing.NodeID(fmt.Sprintf("worker-%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
		arcs, err := ring.RangeTable()
		if err != nil {
			t.Fatal(err)
		}
		even, err := hashing.UniformRangeTable(ring.Members())
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range []*hashing.RangeTable{arcs, even} {
			coversSpace(t, table, n, hashing.Key(rawKey))
		}
	})
}

// coversSpace checks one table of n servers against key and every
// boundary key.
func coversSpace(t *testing.T, table *hashing.RangeTable, n int, key hashing.Key) {
	t.Helper()
	if table.Len() != n {
		t.Fatalf("table has %d servers for %d members", table.Len(), n)
	}
	seen := make(map[hashing.NodeID]bool, n)
	for _, id := range table.Servers() {
		if seen[id] {
			t.Fatalf("server %s owns two ranges", id)
		}
		seen[id] = true
	}
	// The fuzzed key and every boundary key must resolve to the range
	// that actually contains them: no gaps, no overlaps.
	keys := []hashing.Key{key}
	for _, b := range table.Bounds() {
		keys = append(keys, b, b-1, b+1)
	}
	for _, k := range keys {
		idx := table.LookupIndex(k)
		if idx < 0 || idx >= table.Len() {
			t.Fatalf("LookupIndex(%v) = %d out of range", k, idx)
		}
		start, end := table.RangeOf(idx)
		if start != end && !hashing.InRange(k, start, end) {
			t.Fatalf("key %v resolved to range %d [%v, %v) that does not contain it", k, idx, start, end)
		}
		if !seen[table.Lookup(k)] {
			t.Fatalf("key %v resolved to unknown server %s", k, table.Lookup(k))
		}
	}
}
