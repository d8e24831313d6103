// Package chord holds the epoch-numbered membership views that the
// resource manager disseminates on join, leave and failure. Every node
// adopts the full view, so every node knows every owner and one-hop
// routing (the paper's m = S setting, after [13]) holds by construction:
// a block read asks the key's replicas directly (dhtfs.Service.PinBlock).
package chord

import (
	"errors"
	"maps"

	"eclipsemr/internal/hashing"
)

// View is an epoch-numbered snapshot of cluster membership and the ring
// it places by. The resource manager derives the view of the next epoch
// on every join/leave/failure and pushes it to all workers; stale epochs
// are ignored, making dissemination idempotent and order-insensitive.
//
// A view is immutable once made: its ring is built when the view is, and
// every holder of the view reads that one ring, so nothing may change
// either. Only Epoch and Members travel on the wire.
type View struct {
	Epoch uint64
	// Members maps each node to its ring position.
	Members map[hashing.NodeID]hashing.Key

	ring *hashing.ChordRing // nil on a view that came off the wire
}

// NewView makes the view of epoch over ring. The view takes ring over:
// the caller must not change it afterwards.
func NewView(epoch uint64, ring *hashing.ChordRing) View {
	v := View{Epoch: epoch, Members: make(map[hashing.NodeID]hashing.Key, ring.Len()), ring: ring}
	for _, id := range ring.Members() {
		pos, _ := ring.Position(id)
		v.Members[id] = pos
	}
	return v
}

// Ring returns the view's ring, which every holder shares. A view off the
// wire has none: Ring builds one from Members, failing if two share a
// position, on every call, so an adopting node keeps NewView of it.
func (v View) Ring() (*hashing.ChordRing, error) {
	if v.ring != nil {
		return v.ring, nil
	}
	r := hashing.NewChordRing()
	for id, pos := range v.Members {
		if err := r.Add(id, pos); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Has reports membership of a node.
func (v View) Has(id hashing.NodeID) bool {
	_, ok := v.Members[id]
	return ok
}

// Join returns the view of the next epoch with id added at the position
// derived from its ID. It fails if id is a member or its position is
// taken.
func (v View) Join(id hashing.NodeID) (View, error) {
	if v.Has(id) {
		return View{}, errors.New("chord: node " + string(id) + " is already a member")
	}
	return v.next(map[hashing.NodeID]hashing.Key{id: hashing.KeyOfString(string(id))})
}

// Without returns the view of the next epoch less the given nodes; those
// that are not members are ignored.
func (v View) Without(gone ...hashing.NodeID) View {
	next, _ := v.next(nil, gone...) // a subset of distinct positions
	return next
}

// next returns the view of the next epoch with join added and gone left
// out, its ring built from its members.
func (v View) next(join map[hashing.NodeID]hashing.Key, gone ...hashing.NodeID) (View, error) {
	next := View{Epoch: v.Epoch + 1, Members: make(map[hashing.NodeID]hashing.Key, len(v.Members)+len(join))}
	maps.Copy(next.Members, v.Members)
	maps.Copy(next.Members, join)
	for _, id := range gone {
		delete(next.Members, id)
	}
	ring, err := next.Ring()
	next.ring = ring
	return next, err
}
