package mapreduce

import (
	"bytes"
	"context"
	"crypto/sha1"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// sumCheck counts what the "test-sumcheck" map tasks saw.
var sumCheck struct {
	matched, mismatched atomic.Int64
}

func init() {
	// The map fails unless its input is, before and after it yields the
	// processor, one of the blocks whose SHA-1 digests the "sums" parameter
	// lists: a buffer recycled under a running task shows as a mismatch.
	Register("test-sumcheck", App{
		Map: func(params Params, input []byte, emit Emit) error {
			for pass := 0; pass < 2; pass++ {
				sum := sha1.Sum(input)
				if !bytes.Contains(params["sums"], sum[:]) {
					sumCheck.mismatched.Add(1)
					return fmt.Errorf("input of %d bytes (%x...) is no block of the job's file", len(input), input[:4])
				}
				runtime.Gosched()
			}
			sumCheck.matched.Add(1)
			return emit("blocks", []byte("1"))
		},
		Reduce: testSumReduce,
	})
}

// TestBufferLifecycleUnderChurn runs the whole life of a block buffer at
// once, on disk shards behind two-block iCaches so that every read fills a
// buffer and every insert evicts one: concurrent map tasks over two files,
// one of them deleted and uploaded again with new content under the same
// name (so the same ring keys), while every node keeps adopting its
// neighbours' cached blocks over mr.cacheRange. Every task must see bytes
// of the file version its job started on. Under the race detector recycled
// arrays are overwritten at once (blockbuf), so a reference given up early
// anywhere on those paths fails here and not only under memory pressure.
func TestBufferLifecycleUnderChurn(t *testing.T) {
	const (
		blockSize = 4096
		blocks    = 8 // per file: 16 in all
		rounds    = 6
	)
	ec := newEngineCluster(t, engineOpts{nodes: 4, disk: true, cacheSize: 4 * blockSize})
	ctx := context.Background()
	fs := ec.fs[ec.ids[0]]
	// upload stores blocks of pseudo-random bytes and returns the digests
	// a job over the file hands its tasks.
	upload := func(name string, seed int64) ([]byte, error) {
		data := make([]byte, blocks*blockSize)
		rand.New(rand.NewSource(seed)).Read(data)
		meta, err := fs.Upload(ctx, name, "tester", dhtfs.PermPublic, data, blockSize)
		if err != nil {
			return nil, err
		}
		var sums []byte
		for _, sum := range meta.BlockSums {
			sums = append(sums, sum[:]...)
		}
		return sums, nil
	}
	run := func(id, file string, sums []byte) error {
		res, err := ec.driver.Run(JobSpec{
			ID: id, App: "test-sumcheck", Inputs: []string{file}, User: "tester",
			Params: Params{"sums": sums}, DisableJournal: true,
		})
		if err == nil && res.MapTasks != blocks {
			err = fmt.Errorf("%d map tasks, want %d", res.MapTasks, blocks)
		}
		return err
	}
	sumCheck.matched.Store(0)
	sumCheck.mismatched.Store(0)
	stableSums, err := upload("stable.bin", 1)
	if err != nil {
		t.Fatal(err)
	}

	var jobs sync.WaitGroup
	jobs.Add(2)
	go func() { // the file that stays
		defer jobs.Done()
		for r := 0; r < rounds; r++ {
			if err := run(fmt.Sprintf("stable-%d", r), "stable.bin", stableSums); err != nil {
				t.Errorf("stable round %d: %v", r, err)
			}
		}
	}()
	go func() { // the file that is deleted and uploaded again
		defer jobs.Done()
		for r := 0; r < rounds; r++ {
			sums, err := upload("churn.bin", int64(100+r))
			if err == nil {
				err = run(fmt.Sprintf("churn-%d", r), "churn.bin", sums)
			}
			if err == nil {
				err = fs.Delete(ctx, "churn.bin", "tester")
			}
			if err != nil {
				t.Errorf("churn round %d: %v", r, err)
				return
			}
		}
	}()
	stop := make(chan struct{})
	migrated := make(chan int)
	go func() { // cached blocks keep moving between neighbours
		total := 0
		defer func() { migrated <- total }()
		for {
			for i, id := range ec.ids {
				select {
				case <-stop:
					return
				default:
				}
				n := len(ec.ids)
				body, err := transport.Encode(AdoptRangeReq{Left: ec.ids[(i+n-1)%n], Right: ec.ids[(i+1)%n]})
				if err != nil {
					t.Error(err)
					return
				}
				out, err := ec.net.Call(ctx, id, MethodAdoptRange, body)
				if err != nil {
					t.Errorf("adopt range on %s: %v", id, err)
					return
				}
				var resp AdoptRangeResp
				if err := transport.Decode(out, &resp); err != nil {
					t.Error(err)
					return
				}
				total += resp.Migrated
			}
		}
	}()
	jobs.Wait()
	close(stop)
	moved := <-migrated

	if n := sumCheck.mismatched.Load(); n != 0 {
		t.Fatalf("%d map tasks read bytes that were not their block's", n)
	}
	if got, want := sumCheck.matched.Load(), int64(2*rounds*blocks); got < want {
		t.Fatalf("%d map tasks checked their input, want at least %d", got, want)
	}
	if moved == 0 {
		t.Fatal("no cached block migrated: the test did not exercise mr.cacheRange")
	}
	var evictions uint64
	for _, w := range ec.workers {
		evictions += w.Cache().ICache.Stats().Evictions
	}
	if evictions < uint64(rounds*blocks) {
		t.Fatalf("%d iCache evictions: the caches were not under pressure", evictions)
	}
	t.Logf("%d tasks checked, %d blocks migrated, %d evictions", sumCheck.matched.Load(), moved, evictions)
}

// TestStaleLocalCopyIsNeverCached: a replica left holding the previous
// version of a block (it missed a re-upload's write) does not feed it to a
// map task scheduled on it. The file system reads that node's own shard
// first, finds another version than the task names, counts it and reads a
// neighbour's copy: the task maps the current bytes, and those are what
// iCache keeps under the current digest.
func TestStaleLocalCopyIsNeverCached(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	ctx := context.Background()
	old, current := corpus(map[string]int{"before": 30}), corpus(map[string]int{"after": 30})
	ec.upload(t, "v.txt", old, 1<<20)
	ec.upload(t, "v.txt", current, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(ctx, "v.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	id := cache.BlockID{Key: meta.BlockKeys[0], Sum: meta.BlockSums[0]}
	set, err := ec.ring.ReplicaSet(id.Key, 2)
	if err != nil {
		t.Fatal(err)
	}
	node := set[0]
	if err := ec.fs[node].Store().PutBlock(id.Key, old); err != nil {
		t.Fatal(err)
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	req := RunMapReq{
		Job: "stale", Namespace: "job:stale", App: "test-wordcount",
		BlockKey: id.Key, BlockSum: id.Sum, Task: "m0",
		ReduceServers: table.Servers(), ReduceBounds: table.Bounds(),
	}
	w := ec.workers[node]
	resp, err := w.runMap(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	var words []string
	for part, owner := range table.Servers() {
		for _, seg := range ec.fs[owner].Store().ReadSegments(req.Namespace, partitionName(part)) {
			kvs, err := DecodeKVs(seg)
			if err != nil {
				t.Fatal(err)
			}
			for _, kv := range kvs {
				words = append(words, kv.Key)
			}
		}
	}
	if fmt.Sprint(words) != "[after]" {
		t.Fatalf("the task mapped %v, want the current version's [after]", words)
	}
	buf, ok := w.Cache().GetBlockVersion(id)
	if !ok || !bytes.Equal(buf.Bytes(), current) {
		t.Fatalf("iCache holds %q under the current digest (present %v)", buf.Bytes(), ok)
	}
	buf.Release()
	if !resp.RemoteRead {
		t.Fatal("the task reports a local read: its input was the stale copy")
	}
	if n := ec.fs[node].Metrics().Snapshot().Get("fs.read.corrupt"); n != 1 {
		t.Fatalf("fs.read.corrupt on %s = %d, want the stale copy counted once", node, n)
	}
}

// BenchmarkColdBlockRead is one cold map read without the map: a block
// goes from the node's own shard through the file system's read into a
// two-block iCache (evicting one), is read through the task's reference,
// and is released. 64 blocks of 256 KiB take turns, so nothing is ever a
// hit. B/op is what a cold read costs the collector: about a block's worth
// before buffers were shared and recycled, the bookkeeping of an entry
// after.
func BenchmarkColdBlockRead(b *testing.B) {
	const (
		blockSize = 256 << 10
		blocks    = 64
	)
	for _, backend := range []string{"disk", "mem"} {
		b.Run(backend, func(b *testing.B) {
			store := dhtfs.NewStore()
			if backend == "disk" {
				var err error
				if store, err = dhtfs.NewStoreAt(b.TempDir()); err != nil {
					b.Fatal(err)
				}
			}
			block := make([]byte, blockSize)
			ids := make([]cache.BlockID, blocks)
			for i := range ids {
				block[0] = byte(i)
				ids[i] = cache.BlockID{Key: hashing.BlockKey("cold", i), Sum: dhtfs.SumBlock(block)}
				if err := store.PutBlock(ids[i].Key, block); err != nil {
					b.Fatal(err)
				}
			}
			ring := hashing.NewChordRing()
			if err := ring.AddNode("solo"); err != nil {
				b.Fatal(err)
			}
			fs, err := dhtfs.NewServiceWithStore("solo", transport.NewLocal(), func() hashing.Ring { return ring }, 1, store)
			if err != nil {
				b.Fatal(err)
			}
			nc := cache.New(2*blockSize, 0)
			ctx := context.Background()
			b.ReportAllocs()
			b.SetBytes(blockSize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := ids[i%blocks]
				buf, _, err := fs.PinBlock(ctx, id.Key, id.Sum)
				if err != nil {
					b.Fatal(err)
				}
				nc.PutBlockVersion(id, buf)
				if data := buf.Bytes(); data[0] != byte(i%blocks) || len(data) != blockSize {
					b.Fatalf("block %d: read %d bytes starting %#x", i%blocks, len(data), data[0])
				}
				buf.Release()
			}
		})
	}
}
