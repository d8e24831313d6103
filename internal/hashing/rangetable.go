package hashing

import (
	"fmt"
	"sort"
	"strings"
)

// RangeTable maps the full key space onto an ordered list of servers using
// explicit boundaries, independent of the servers' ring positions. This is
// the job scheduler's hash-key table from the paper: the LAF scheduler
// re-partitions the CDF of recent accesses into equally-probable ranges,
// so the cache layer's ranges can be deliberately misaligned with the DHT
// file system's static ranges.
//
// Server i owns [bounds[i], bounds[i+1]) with the last range wrapping
// around to bounds[0]. Zero-width ranges are legal: the paper's hot-spot
// example collapses a server's range to nothing so all incoming tasks go
// elsewhere.
type RangeTable struct {
	servers []NodeID
	bounds  []Key // len == len(servers); bounds[i] is the start of server i's range
	// step is the width of every range but the last, which also takes
	// the remainder, when the bounds are UniformRangeTable's cut: a lookup
	// is then one division, not a search. 0 for any other table.
	step uint64
}

// NewRangeTable builds a table from parallel server and boundary slices.
// Boundaries must be non-decreasing after the first element when traversed
// clockwise from bounds[0]; in practice callers supply sorted bounds.
func NewRangeTable(servers []NodeID, bounds []Key) (*RangeTable, error) {
	if len(servers) == 0 {
		return nil, ErrEmptyRing
	}
	if len(servers) != len(bounds) {
		return nil, fmt.Errorf("hashing: %d servers but %d bounds", len(servers), len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("hashing: bounds not sorted at index %d", i)
		}
	}
	t := &RangeTable{
		servers: append([]NodeID(nil), servers...),
		bounds:  append([]Key(nil), bounds...),
		step:    uniformStep(len(bounds)),
	}
	// A table that travels (a map task's reduce table, a journaled one)
	// arrives as bounds alone, so the cut is recognised, not remembered.
	for i, b := range bounds {
		if uint64(b) != uint64(i)*t.step {
			t.step = 0
			break
		}
	}
	return t, nil
}

// uniformStep is the range width of an n-server equal-width cut: 2^64/n,
// rounded down to an even number so it fits in 64 bits; 0 for n < 2,
// where there is nothing to cut.
func uniformStep(n int) uint64 {
	if n < 2 {
		return 0
	}
	return (uint64(1) << 63) / uint64(n) * 2
}

// UniformRangeTable assigns each server an equal-width slice of the key
// space, in the given server order: what a uniform access PDF partitions
// into.
func UniformRangeTable(servers []NodeID) (*RangeTable, error) {
	if len(servers) == 0 {
		return nil, ErrEmptyRing
	}
	bounds := make([]Key, len(servers))
	step := uniformStep(len(servers))
	for i := range bounds {
		bounds[i] = Key(uint64(i) * step)
	}
	return NewRangeTable(servers, bounds)
}

// AlignedRangeTable builds a table whose ranges exactly mirror the DHT
// file system ring: each server's range is its ring arc. This is the
// weight-factor-zero / delay-scheduling configuration in which the cache
// layer is perfectly aligned with the file system layer.
func AlignedRangeTable(r *ChordRing) (*RangeTable, error) {
	if r.Len() == 0 {
		return nil, ErrEmptyRing
	}
	members := r.Members() // ascending ring position
	n := len(members)
	servers := make([]NodeID, n)
	bounds := make([]Key, n)
	// A ring node at position p owns the arc (pred, p]. Expressed as
	// half-open [start, end) table ranges, the range [pos[j], pos[j+1])
	// belongs to the node at pos[j+1]; the final range wraps around to the
	// first node. The one-key shift at the exact boundary is harmless here:
	// scheduler ranges are a locality hint, not an ownership property.
	for j, id := range members {
		pos, _ := r.Position(id)
		bounds[j] = pos
		servers[j] = members[(j+1)%n]
	}
	return NewRangeTable(servers, bounds)
}

// Len returns the number of servers in the table.
func (t *RangeTable) Len() int { return len(t.servers) }

// Servers returns the servers in table order.
func (t *RangeTable) Servers() []NodeID {
	return append([]NodeID(nil), t.servers...)
}

// Bounds returns the range-start boundaries in table order.
func (t *RangeTable) Bounds() []Key {
	return append([]Key(nil), t.bounds...)
}

// Lookup returns the server whose range contains k.
func (t *RangeTable) Lookup(k Key) NodeID {
	return t.servers[t.LookupIndex(k)]
}

// LookupIndex returns the table index of the server whose range contains
// k. MapReduce partitioning uses the index directly as the reduce
// partition number.
func (t *RangeTable) LookupIndex(k Key) int {
	if t.step != 0 {
		return int(min(uint64(k)/t.step, uint64(len(t.servers)-1)))
	}
	// Find the last bound <= k; keys below bounds[0] wrap into the final
	// server's range.
	i := sort.Search(len(t.bounds), func(i int) bool { return t.bounds[i] > k })
	// i is the first bound > k, so server i-1 owns k; i == 0 wraps.
	idx := (i - 1 + len(t.servers)) % len(t.servers)
	// Skip zero-width ranges backwards: a server whose range is empty
	// cannot own any key. bounds[idx] == bounds[idx+1] means empty.
	for n := 0; n < len(t.servers); n++ {
		next := (idx + 1) % len(t.servers)
		if t.bounds[idx] != t.bounds[next] || len(t.servers) == 1 {
			return idx
		}
		idx = (idx - 1 + len(t.servers)) % len(t.servers)
	}
	return idx
}

// RangeOf returns the half-open range [start, end) of the i-th server.
func (t *RangeTable) RangeOf(i int) (start, end Key) {
	return t.bounds[i], t.bounds[(i+1)%len(t.bounds)]
}

// ServerRange returns the range of the named server, or ok=false if the
// server is not in the table.
func (t *RangeTable) ServerRange(id NodeID) (start, end Key, ok bool) {
	for i, s := range t.servers {
		if s == id {
			start, end = t.RangeOf(i)
			return start, end, true
		}
	}
	return 0, 0, false
}

// Contains reports whether key k falls in the range of server id.
func (t *RangeTable) Contains(id NodeID, k Key) bool {
	return t.Lookup(k) == id
}

// String renders the table in the paper's "server: [start~end)" style.
func (t *RangeTable) String() string {
	var b strings.Builder
	for i, s := range t.servers {
		start, end := t.RangeOf(i)
		fmt.Fprintf(&b, "%s: [%s~%s)\n", s, start, end)
	}
	return b.String()
}
