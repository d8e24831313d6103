package dhtfs

import (
	"context"
	"fmt"

	"eclipsemr/internal/chord"
	"eclipsemr/internal/hashing"
)

// Zero-hop vs classic DHT routing (§II-A): with complete routing tables
// (m set to the number of servers) every block request goes directly to
// its owner — the paper's default for cluster-scale deployments. "If zero
// hop routing is not enabled, it routes the request to another server
// that owns the hash key as in the classic DHT routing algorithm [29]":
// each hop forwards the request to the closest preceding finger until the
// owner answers. The routed path exists for very large or churny rings
// where complete tables are impractical, and for the routing ablation.

type (
	routedGetReq struct {
		Key hashing.Key
		// Hops counts forwards so far; guards against routing loops.
		Hops int
	}
	// routedGetResp is the block as getBlockResp's, through however many
	// hops: the reader at the end checks it.
	routedGetResp struct {
		Data  []byte
		Check BlockCheck
		Hops  int
	}
)

// MethodRoutedGet is the hop-by-hop block fetch.
const MethodRoutedGet = "fs.routedGet"

// maxRouteHops bounds forwarding; with consistent finger tables a lookup
// needs O(log n) hops, so anything past this indicates divergent views.
const maxRouteHops = 64

// SetZeroHop selects between direct owner access (true, the default) and
// classic multi-hop DHT routing for block reads.
func (s *Service) SetZeroHop(enabled bool) { s.zeroHopOff = !enabled }

// routedGet serves one hop of a routed block fetch: answer from the
// local shard if the block is here, otherwise forward to the next hop
// from this node's finger table.
func (s *Service) routedGet(ctx context.Context, req *routedGetReq, resp *routedGetResp) error {
	// The reference behind the block is left to the collector.
	if buf, check, err := s.store.pin(req.Key); err == nil {
		*resp = routedGetResp{Data: buf.Bytes(), Check: check, Hops: req.Hops}
		return nil
	}
	if req.Hops >= maxRouteHops {
		return fmt.Errorf("dhtfs: routed lookup for %s exceeded %d hops", req.Key, maxRouteHops)
	}
	ring := s.ring()
	if owner, err := ring.Owner(req.Key); err == nil && owner == s.self {
		// We own the key but do not hold the block: it does not exist.
		return fmt.Errorf("%w: block %s", ErrNotFound, req.Key)
	}
	next, err := s.nextHop(ring, req.Key)
	if err != nil {
		return err
	}
	return s.call(ctx, next, MethodRoutedGet, &routedGetReq{Key: req.Key, Hops: req.Hops + 1}, resp)
}

// nextHop computes this node's forwarding target for key k. On the chord
// backend the target comes from the finger table (rebuilt from the
// current view; rings are small and membership changes rare, so this
// costs microseconds). The other ring algorithms have no positional
// finger geometry — bucket indices and rendezvous scores are not ring
// arcs — so routing degenerates to one direct hop to the key's owner,
// which is still correct multi-hop semantics: the owner either serves the
// block or reports it missing.
func (s *Service) nextHop(ring hashing.Ring, k hashing.Key) (hashing.NodeID, error) {
	cr, ok := ring.(*hashing.ChordRing)
	if !ok {
		next, err := ring.Owner(k)
		if err != nil {
			return "", err
		}
		if next == s.self {
			return "", fmt.Errorf("dhtfs: no forward progress for key %s", k)
		}
		return next, nil
	}
	ft, err := chord.Build(cr, s.self, 64)
	if err != nil {
		return "", err
	}
	next, _ := ft.NextHop(k)
	if next == s.self {
		return "", fmt.Errorf("dhtfs: no forward progress for key %s", k)
	}
	return next, nil
}

// ReadBlockRouted fetches a block via classic DHT routing, returning the
// data and the number of hops taken.
func (s *Service) ReadBlockRouted(ctx context.Context, k hashing.Key) ([]byte, int, error) {
	// Serve locally when possible (hop zero).
	if data, err := s.store.GetBlock(k); err == nil {
		return data, 0, nil
	}
	ring := s.ring()
	if owner, err := ring.Owner(k); err == nil && owner == s.self {
		return nil, 0, fmt.Errorf("%w: block %s", ErrNotFound, k)
	}
	next, err := s.nextHop(ring, k)
	if err != nil {
		return nil, 0, err
	}
	var resp routedGetResp
	if err := s.call(ctx, next, MethodRoutedGet, &routedGetReq{Key: k, Hops: 1}, &resp); err != nil {
		return nil, 0, err
	}
	if err := resp.Check.verify(k, resp.Data); err != nil {
		return nil, 0, err
	}
	return resp.Data, resp.Hops, nil
}
