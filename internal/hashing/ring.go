package hashing

import (
	"errors"
	"sort"
)

// NodeID identifies a worker server in the cluster. The DHT file system
// places a node on the ring at KeyOfString(string(id)) unless an explicit
// position is supplied.
type NodeID string

// ErrEmptyRing is returned by lookups on a ring with no members.
var ErrEmptyRing = errors.New("hashing: ring has no members")

type ringEntry struct {
	pos Key
	id  NodeID
}

// ChordRing is the paper's consistent-hash ring of named nodes and the one
// ring everything places by: file blocks, metadata, intermediate keys and
// the scheduler's initial range table. A node at ring position p owns the
// arc (pred(p), p]: every key is owned by its clockwise successor node,
// exactly as in Chord, and its replicas sit on the owner's predecessor and
// successor. The membership protocol ships positions on the wire. The
// invariants callers rely on are pinned by TestRingConformance.
//
// A ring is built with Add and AddNode and then shared, read-only: the
// membership view (chord.View) owns one ring per epoch, and a membership
// change builds a new view and ring rather than changing this one. Reads
// are safe concurrently; a ring must not be changed once shared.
type ChordRing struct {
	entries []ringEntry // sorted by pos, positions strictly increasing
	byID    map[NodeID]Key
}

// NewChordRing returns an empty ring.
func NewChordRing() *ChordRing {
	return &ChordRing{byID: make(map[NodeID]Key)}
}

// Len returns the number of member nodes.
func (r *ChordRing) Len() int { return len(r.entries) }

// Members returns the node IDs in ring order (ascending position).
func (r *ChordRing) Members() []NodeID {
	out := make([]NodeID, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.id
	}
	return out
}

// Position returns the ring position of id.
func (r *ChordRing) Position(id NodeID) (Key, bool) {
	pos, ok := r.byID[id]
	return pos, ok
}

// Add inserts a node at an explicit ring position. It returns an error if
// the node is already a member or the position is taken: positions must be
// unique for arcs to be well defined.
func (r *ChordRing) Add(id NodeID, pos Key) error {
	if _, ok := r.byID[id]; ok {
		return errors.New("hashing: node " + string(id) + " already on ring")
	}
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].pos >= pos })
	if i < len(r.entries) && r.entries[i].pos == pos {
		return errors.New("hashing: ring position collision at " + pos.String())
	}
	r.entries = append(r.entries, ringEntry{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = ringEntry{pos: pos, id: id}
	r.byID[id] = pos
	return nil
}

// AddNode inserts a node at the position derived from its ID.
func (r *ChordRing) AddNode(id NodeID) error {
	return r.Add(id, KeyOfString(string(id)))
}

// successorIndex returns the index of the first entry with position >= k,
// wrapping to 0 past the end.
func (r *ChordRing) successorIndex(k Key) int {
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].pos >= k })
	if i == len(r.entries) {
		return 0
	}
	return i
}

// Owner returns the node that owns key k: the first node at or clockwise
// after k.
func (r *ChordRing) Owner(k Key) (NodeID, error) {
	if len(r.entries) == 0 {
		return "", ErrEmptyRing
	}
	return r.entries[r.successorIndex(k)].id, nil
}

// Successor returns the node immediately clockwise of id.
func (r *ChordRing) Successor(id NodeID) (NodeID, error) {
	i, err := r.indexOf(id)
	if err != nil {
		return "", err
	}
	return r.entries[(i+1)%len(r.entries)].id, nil
}

// Predecessor returns the node immediately counter-clockwise of id.
func (r *ChordRing) Predecessor(id NodeID) (NodeID, error) {
	i, err := r.indexOf(id)
	if err != nil {
		return "", err
	}
	return r.entries[(i-1+len(r.entries))%len(r.entries)].id, nil
}

func (r *ChordRing) indexOf(id NodeID) (int, error) {
	pos, ok := r.byID[id]
	if !ok {
		return 0, errors.New("hashing: node " + string(id) + " not on ring")
	}
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].pos >= pos })
	return i, nil
}

// ReplicaSet returns the n distinct nodes that should hold copies of key
// k: the owner, its predecessor, and its successor (then further
// successors for n > 3). This matches the paper's fault-tolerance scheme
// of replicating file blocks and metadata "in predecessors and
// successors". If the ring has fewer than n members every member is
// returned.
func (r *ChordRing) ReplicaSet(k Key, n int) ([]NodeID, error) {
	if len(r.entries) == 0 {
		return nil, ErrEmptyRing
	}
	if n > len(r.entries) {
		n = len(r.entries)
	}
	out := make([]NodeID, 0, n)
	oi := r.successorIndex(k)
	out = append(out, r.entries[oi].id)
	if n >= 2 {
		out = append(out, r.entries[(oi-1+len(r.entries))%len(r.entries)].id)
	}
	for i := 1; len(out) < n; i++ {
		out = append(out, r.entries[(oi+i)%len(r.entries)].id)
	}
	return out, nil
}

// RangeOf returns the arc (pred, pos] owned by id, expressed as the
// half-open range (start, end] with start = predecessor position and end =
// the node's own position.
func (r *ChordRing) RangeOf(id NodeID) (start, end Key, err error) {
	i, err := r.indexOf(id)
	if err != nil {
		return 0, 0, err
	}
	pred := r.entries[(i-1+len(r.entries))%len(r.entries)]
	return pred.pos, r.entries[i].pos, nil
}

// Owns reports whether id owns key k.
func (r *ChordRing) Owns(id NodeID, k Key) bool {
	start, end, err := r.RangeOf(id)
	if err != nil {
		return false
	}
	if len(r.entries) == 1 {
		return true
	}
	return Between(k, start, end)
}

// RangeTable returns the scheduler's initial hash-key table aligned with
// this ring's arcs, so DHT placement and task locality agree at startup.
func (r *ChordRing) RangeTable() (*RangeTable, error) {
	return AlignedRangeTable(r)
}
