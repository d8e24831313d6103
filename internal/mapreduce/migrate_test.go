package mapreduce

import (
	"bytes"
	"context"
	"testing"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/cache"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// putCached caches data on w the way a map task over the block does: under
// the block's ring key and content digest.
func putCached(w *Worker, k hashing.Key, data string) cache.BlockID {
	id := cache.BlockID{Key: k, Sum: hashing.BlockDigest([]byte(data))}
	w.Cache().PutBlockVersion(id, blockbuf.Of([]byte(data)))
	return id
}

// callWorker invokes a worker method through the test network.
func callWorker(t *testing.T, ec *engineCluster, to hashing.NodeID, method string, req, resp any) {
	t.Helper()
	body, err := transport.Encode(req)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ec.net.Call(context.Background(), to, method, body)
	if err != nil {
		t.Fatal(err)
	}
	if err := transport.Decode(out, resp); err != nil {
		t.Fatal(err)
	}
}

func TestCacheRangeServesOnlyMatchingBlocks(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	w := ec.workers[ec.ids[0]]
	putCached(w, 100, "inside")
	putCached(w, 900, "outside")
	var resp CacheRangeResp
	callWorker(t, ec, ec.ids[0], MethodCacheRange, CacheRangeReq{Start: 50, End: 500}, &resp)
	if len(resp.Blocks) != 1 || resp.Blocks[0].Key != 100 || string(resp.Blocks[0].Data) != "inside" {
		t.Fatalf("blocks = %+v", resp.Blocks)
	}
}

func TestAdoptRangeMigratesFromNeighbors(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3, cacheSize: 4 << 20})
	left, mid, right := ec.workers[ec.ids[0]], ec.workers[ec.ids[1]], ec.workers[ec.ids[2]]
	// Blocks cached on the neighbors under old ranges, now covered by
	// mid's new range [0, 1000).
	putCached(left, 10, "from-left")
	migrating := putCached(right, 20, "from-right")
	staying := putCached(right, 5000, "stays") // outside the range
	// mid already holds one of them: no double count.
	putCached(mid, 10, "from-left")

	var resp AdoptRangeResp
	callWorker(t, ec, ec.ids[1], MethodAdoptRange, AdoptRangeReq{
		Start: 0, End: 1000, Left: ec.ids[0], Right: ec.ids[2],
	}, &resp)
	if resp.Migrated != 1 {
		t.Fatalf("migrated = %d, want 1 (only the right neighbor's block 20)", resp.Migrated)
	}
	if data, ok := mid.Cache().GetBlockVersion(migrating); !ok || string(data.Bytes()) != "from-right" {
		t.Fatalf("block 20 not migrated: %q %v", data.Bytes(), ok)
	}
	if _, ok := mid.Cache().GetBlockVersion(staying); ok {
		t.Fatal("out-of-range block migrated")
	}
}

func TestAdoptRangeToleratesDeadNeighbor(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	putCached(ec.workers[ec.ids[2]], 42, "survivor")
	ec.net.Unlisten(ec.ids[0]) // left neighbor is dead
	var resp AdoptRangeResp
	callWorker(t, ec, ec.ids[1], MethodAdoptRange, AdoptRangeReq{
		Start: 0, End: 1000, Left: ec.ids[0], Right: ec.ids[2],
	}, &resp)
	if resp.Migrated != 1 {
		t.Fatalf("migrated = %d despite live right neighbor", resp.Migrated)
	}
}

func TestAdoptRangeAllNeighborsDeadErrors(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	ec.net.Unlisten(ec.ids[0])
	ec.net.Unlisten(ec.ids[2])
	body, err := transport.Encode(AdoptRangeReq{Start: 0, End: 10, Left: ec.ids[0], Right: ec.ids[2]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ec.net.Call(context.Background(), ec.ids[1], MethodAdoptRange, body); err == nil {
		t.Fatal("adopt with all neighbors dead succeeded")
	}
}

// TestAdoptRangeDropsDamagedBlock: a migrating block keeps the digest it
// was cached under, and one whose bytes were damaged in the reply body is
// left behind rather than cached under any name.
func TestAdoptRangeDropsDamagedBlock(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3, cacheSize: 4 << 20})
	mid, right := ec.workers[ec.ids[1]], ec.workers[ec.ids[2]]
	whole := putCached(right, 20, "arrives whole")
	damaged := putCached(right, 30, "arrives damaged")
	// The right neighbour's replies pass through a network that flips one
	// byte of the second block's payload.
	ec.net.Unlisten(ec.ids[2])
	err := ec.net.Listen(ec.ids[2], func(ctx context.Context, method string, body []byte) ([]byte, error) {
		out, _, err := right.Handle(ctx, method, body)
		if i := bytes.Index(out, []byte("arrives damaged")); i >= 0 {
			out[i] ^= 0x01
		}
		return out, err
	})
	if err != nil {
		t.Fatal(err)
	}
	var resp AdoptRangeResp
	callWorker(t, ec, ec.ids[1], MethodAdoptRange, AdoptRangeReq{Start: 0, End: 1000, Right: ec.ids[2]}, &resp)
	if resp.Migrated != 1 {
		t.Fatalf("migrated = %d, want the undamaged block alone", resp.Migrated)
	}
	if data, ok := mid.Cache().GetBlockVersion(whole); !ok || string(data.Bytes()) != "arrives whole" {
		t.Fatalf("block 20 not migrated under its digest: %q %v", data.Bytes(), ok)
	}
	if entries := mid.Cache().ICache.EntriesInRange(30, 31); len(entries) != 0 || mid.Cache().HasBlockVersion(damaged) {
		t.Fatalf("the damaged block was cached: %d entries under its key", len(entries))
	}
}
