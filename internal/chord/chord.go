// Package chord models the DHT routing of EclipseMR's file system layer:
// per-node finger tables in the style of Chord [29] and the one-hop routing
// configuration the paper adopts for cluster-scale deployments (m chosen so
// every server knows every other, after [13]), walked in memory. It also
// holds the epoch-numbered membership views that the resource manager
// disseminates on join, leave and failure. Every node adopts the full view,
// so the running file system only ever reads one hop (dhtfs.Service.PinBlock);
// the finger-table walk pins the paper's O(log n) claim without a network.
package chord

import (
	"errors"
	"fmt"

	"eclipsemr/internal/hashing"
)

// finger is one routing-table entry: the node succeeding start on the ring.
type finger struct {
	start hashing.Key
	node  hashing.NodeID
	pos   hashing.Key
}

// FingerTable is one node's DHT routing table. With m fingers the i-th
// entry points at successor(self + 2^i); when 2^m - 1 >= ring size the
// table effectively contains every server and lookups resolve in one hop.
type FingerTable struct {
	self    hashing.NodeID
	selfPos hashing.Key
	succ    hashing.NodeID
	succPos hashing.Key
	fingers []finger
}

// Build constructs the finger table for node self over the given ring with
// m entries. m must be in [1, 64].
func Build(ring *hashing.ChordRing, self hashing.NodeID, m int) (*FingerTable, error) {
	if m < 1 || m > 64 {
		return nil, fmt.Errorf("chord: m must be in [1,64], got %d", m)
	}
	selfPos, ok := ring.Position(self)
	if !ok {
		return nil, fmt.Errorf("chord: node %s not on ring", self)
	}
	succ, err := ring.Successor(self)
	if err != nil {
		return nil, err
	}
	succPos, _ := ring.Position(succ)
	ft := &FingerTable{self: self, selfPos: selfPos, succ: succ, succPos: succPos}
	for i := 0; i < m; i++ {
		start := selfPos + hashing.Key(uint64(1)<<uint(i))
		node, err := ring.Owner(start)
		if err != nil {
			return nil, err
		}
		pos, _ := ring.Position(node)
		ft.fingers = append(ft.fingers, finger{start: start, node: node, pos: pos})
	}
	return ft, nil
}

// The paper sets m "to the total number of servers to enable the one hop
// DHT routing [13]": each server stores complete routing information, so
// lookups resolve directly at the owner. BuildOneHopRoutes models that
// default; BuildRoutes with finger tables models the classic multi-hop
// DHT used "if zero hop routing is not enabled".

// Self returns the owning node.
func (ft *FingerTable) Self() hashing.NodeID { return ft.self }

// Successor returns the node's direct ring successor.
func (ft *FingerTable) Successor() hashing.NodeID { return ft.succ }

// Len returns the number of finger entries.
func (ft *FingerTable) Len() int { return len(ft.fingers) }

// NextHop returns the node to forward a lookup for key k to, and whether
// the lookup is already resolved (self owns k, or the successor owns k so
// the successor is the final answer).
func (ft *FingerTable) NextHop(k hashing.Key) (node hashing.NodeID, resolved bool) {
	// k in (self, successor] => successor owns k.
	if hashing.Between(k, ft.selfPos, ft.succPos) {
		return ft.succ, true
	}
	// Closest preceding finger: the finger whose position most closely
	// precedes k clockwise from self.
	best := ft.succ
	bestPos := ft.succPos
	for _, f := range ft.fingers {
		if f.node == ft.self {
			continue
		}
		if hashing.Between(f.pos, ft.selfPos, k-1) && hashing.Distance(f.pos, k) < hashing.Distance(bestPos, k) {
			best, bestPos = f.node, f.pos
		}
	}
	return best, false
}

// Routes holds the finger tables of every node, supporting full lookups
// with hop counting. It exists for the routing ablation and for unit
// testing the topology logic without a network.
type Routes struct {
	ring   *hashing.ChordRing
	tables map[hashing.NodeID]*FingerTable
	oneHop bool
}

// BuildRoutes constructs finger tables for every ring member (multi-hop
// routing).
func BuildRoutes(ring *hashing.ChordRing, m int) (*Routes, error) {
	if ring.Len() == 0 {
		return nil, hashing.ErrEmptyRing
	}
	r := &Routes{ring: ring, tables: make(map[hashing.NodeID]*FingerTable)}
	for _, id := range ring.Members() {
		ft, err := Build(ring, id, m)
		if err != nil {
			return nil, err
		}
		r.tables[id] = ft
	}
	return r, nil
}

// BuildOneHopRoutes constructs the paper's default topology: every server
// holds the complete ring, so any lookup is answered by forwarding
// directly to the owner.
func BuildOneHopRoutes(ring *hashing.ChordRing) (*Routes, error) {
	if ring.Len() == 0 {
		return nil, hashing.ErrEmptyRing
	}
	return &Routes{ring: ring, oneHop: true}, nil
}

// Table returns the finger table of a node.
func (r *Routes) Table(id hashing.NodeID) (*FingerTable, bool) {
	ft, ok := r.tables[id]
	return ft, ok
}

// ErrRoutingLoop reports a lookup that failed to converge, which indicates
// inconsistent finger tables.
var ErrRoutingLoop = errors.New("chord: lookup did not converge")

// Route resolves key k starting at node from, returning the full node path
// (excluding from, including the owner). Path length is the hop count.
func (r *Routes) Route(from hashing.NodeID, k hashing.Key) ([]hashing.NodeID, error) {
	if r.oneHop {
		owner, err := r.ring.Owner(k)
		if err != nil {
			return nil, err
		}
		return []hashing.NodeID{owner}, nil
	}
	cur := from
	var path []hashing.NodeID
	limit := 2*r.ring.Len() + 64
	for step := 0; step < limit; step++ {
		ft, ok := r.tables[cur]
		if !ok {
			return nil, fmt.Errorf("chord: no table for %s", cur)
		}
		if r.ring.Owns(cur, k) {
			if len(path) == 0 {
				path = append(path, cur)
			}
			return path, nil
		}
		next, resolved := ft.NextHop(k)
		path = append(path, next)
		if resolved {
			return path, nil
		}
		cur = next
	}
	return nil, ErrRoutingLoop
}

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
