package dhtfs

import (
	"context"
	"crypto/sha1"
	"errors"
	"fmt"

	"eclipsemr/internal/blockbuf"
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
	// hops: the reader at the end checks it (see readBlockRouted).
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

// nextHop computes this node's forwarding target for key k from its
// finger table, rebuilt from the current view (rings are small and
// membership changes rare, so this costs microseconds).
func (s *Service) nextHop(ring *hashing.ChordRing, k hashing.Key) (hashing.NodeID, error) {
	ft, err := chord.Build(ring, s.self, 64)
	if err != nil {
		return "", err
	}
	next, _ := ft.NextHop(k)
	if next == s.self {
		return "", fmt.Errorf("dhtfs: no forward progress for key %s", k)
	}
	return next, nil
}

// readBlockRouted is PinBlock with zero-hop routing disabled: this node's
// own copy when it holds a good one (hop zero), otherwise the copy of the
// first node on the finger-table route that holds the block. Both pass
// checkCopy; a bad reply is counted against the first hop, the node it
// came back through.
func (s *Service) readBlockRouted(ctx context.Context, k hashing.Key, want [sha1.Size]byte) (*blockbuf.Buf, int, error) {
	buf, _, err := s.pinLocal(k, want)
	if err == nil {
		return buf, 0, nil
	}
	if errors.Is(err, ErrCorrupt) {
		s.noteCorrupt(s.self)
	}
	ring := s.ring()
	if owner, oerr := ring.Owner(k); oerr == nil && owner == s.self {
		return nil, 0, err // we own the key: no other node is asked
	}
	next, err := s.nextHop(ring, k)
	if err != nil {
		return nil, 0, err
	}
	var resp routedGetResp
	if err := s.call(ctx, next, MethodRoutedGet, &routedGetReq{Key: k, Hops: 1}, &resp); err != nil {
		return nil, 0, err
	}
	if err := s.checkCopy(k, resp.Data, resp.Check, false, want); err != nil {
		s.noteCorrupt(next)
		return nil, 0, err
	}
	return blockbuf.Adopt(resp.Data), resp.Hops, nil
}
