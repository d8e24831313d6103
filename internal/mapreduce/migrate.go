package mapreduce

import (
	"bytes"
	"context"
	"fmt"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/cache"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// Misplaced-cache migration (§II-E): when the LAF scheduler shifts a
// server's hash-key range, blocks cached under the old ranges can end up
// on a neighbor whose range no longer covers them. EclipseMR "provides an
// option to check if a left or a right neighbor worker server has cached
// data objects, and to migrate the cached data if either one has". The
// worker serves its cached blocks by range (mr.cacheRange) and adopts a
// new range by pulling misplaced entries from both ring neighbors
// (mr.adoptRange). Only the blocks' bytes migrate: a decoded split is
// rebuilt from them where it is next needed.

// Wire messages for cache migration.
type (
	// CacheRangeReq asks a node for its cached input blocks within
	// [Start, End).
	CacheRangeReq struct {
		Start hashing.Key
		End   hashing.Key
	}
	// CachedBlock is one migrating iCache entry: the block's bytes, the
	// digest they are cached under (zero when it was not known) and a CRC
	// taken as they leave, which the adopting node checks them against.
	CachedBlock struct {
		Key   hashing.Key
		Check dhtfs.BlockCheck
		Data  []byte
	}
	// CacheRangeResp carries the matching entries.
	CacheRangeResp struct {
		Blocks []CachedBlock
	}
	// AdoptRangeReq tells a node its new cache range and its current ring
	// neighbors to check for misplaced entries.
	AdoptRangeReq struct {
		Start hashing.Key
		End   hashing.Key
		Left  hashing.NodeID
		Right hashing.NodeID
	}
	// AdoptRangeResp reports how many blocks were migrated in.
	AdoptRangeResp struct {
		Migrated int
	}
)

// Migration method names.
const (
	MethodCacheRange = "mr.cacheRange"
	MethodAdoptRange = "mr.adoptRange"
)

// handleMigration serves the migration methods; called from
// Worker.Handle.
func (w *Worker) handleMigration(ctx context.Context, method string, body []byte) ([]byte, bool, error) {
	switch method {
	case MethodCacheRange:
		var req CacheRangeReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, true, err
		}
		var resp CacheRangeResp
		entries := w.cache.ICache.EntriesInRange(req.Start, req.End)
		for _, e := range entries {
			id, isBlock := cache.BlockIDOf(e)
			if buf, ok := e.Value.(*blockbuf.Buf); ok && isBlock {
				check := dhtfs.BlockCheck{CRC: dhtfs.BlockCRC(buf.Bytes()), Sum: id.Sum}
				resp.Blocks = append(resp.Blocks, CachedBlock{Key: id.Key, Check: check, Data: buf.Bytes()})
			}
		}
		out, err := transport.Encode(resp)
		// The reply has its copy; the blocks may leave the cache.
		for _, e := range entries {
			e.Release()
		}
		return out, true, err
	case MethodAdoptRange:
		var req AdoptRangeReq
		if err := transport.Decode(body, &req); err != nil {
			return nil, true, err
		}
		migrated, err := w.adoptRange(ctx, req)
		if err != nil {
			return nil, true, err
		}
		out, err := transport.Encode(AdoptRangeResp{Migrated: migrated})
		return out, true, err
	}
	return nil, false, nil
}

// adoptRange pulls cached blocks in [Start, End) from both neighbors into
// the local iCache, skipping anything already cached here.
func (w *Worker) adoptRange(ctx context.Context, req AdoptRangeReq) (int, error) {
	migrated := 0
	var firstErr error
	for _, neighbor := range []hashing.NodeID{req.Left, req.Right} {
		if neighbor == "" || neighbor == w.self {
			continue
		}
		body, err := transport.Encode(CacheRangeReq{Start: req.Start, End: req.End})
		if err != nil {
			return migrated, err
		}
		out, err := w.net.Call(ctx, neighbor, MethodCacheRange, body)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("mapreduce: migrate from %s: %w", neighbor, err)
			}
			continue // a dead neighbor is not fatal; recovery handles it
		}
		var resp CacheRangeResp
		if err := transport.Decode(out, &resp); err != nil {
			return migrated, err
		}
		for _, blk := range resp.Blocks {
			// The block keeps the name it was cached under; one damaged on
			// the way is left behind, to be read again from the file system.
			id := cache.BlockID{Key: blk.Key, Sum: blk.Check.Sum}
			if w.cache.HasBlockVersion(id) || dhtfs.BlockCRC(blk.Data) != blk.Check.CRC {
				continue
			}
			// blk.Data is a view of the one reply body that carried every
			// block: cache a copy, or a single surviving entry would pin
			// the whole reply behind the cache's byte accounting.
			buf := blockbuf.Adopt(bytes.Clone(blk.Data))
			if w.cache.PutBlockVersion(id, buf) {
				migrated++
			}
			buf.Release()
		}
	}
	if migrated == 0 && firstErr != nil {
		return 0, firstErr
	}
	return migrated, nil
}
