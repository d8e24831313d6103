// Package chord holds the epoch-numbered membership views that the
// resource manager disseminates on join, leave and failure. Every node
// adopts the full view, so every node knows every owner and one-hop
// routing (the paper's m = S setting, after [13]) holds by construction:
// a block read asks the key's replicas directly (dhtfs.Service.PinBlock).
package chord

import "eclipsemr/internal/hashing"

// View is an epoch-numbered snapshot of cluster membership. The resource
// manager increments the epoch on every join/leave/failure and pushes the
// view to all workers; stale epochs are ignored, making dissemination
// idempotent and order-insensitive.
type View struct {
	Epoch uint64
	// Members maps each node to its ring position.
	Members map[hashing.NodeID]hashing.Key
}

// NewView builds a view from a ring.
func NewView(epoch uint64, ring *hashing.ChordRing) View {
	v := View{Epoch: epoch, Members: make(map[hashing.NodeID]hashing.Key, ring.Len())}
	for _, id := range ring.Members() {
		pos, _ := ring.Position(id)
		v.Members[id] = pos
	}
	return v
}

// Ring reconstructs the consistent-hash ring described by the view.
func (v View) Ring() (*hashing.ChordRing, error) {
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
