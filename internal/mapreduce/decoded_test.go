package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/trace"
)

// intSplit is the decoded form of a block of decimal lines.
type intSplit struct{ vals []int64 }

// decodeGate, when set, is called inside testDecodeInts before it parses,
// so a test can hold a decode open while other tasks arrive.
var (
	decodeCalls atomic.Int64
	decodeGate  atomic.Pointer[func()]
)

func testDecodeInts(block []byte) (any, int64, error) {
	decodeCalls.Add(1)
	if gate := decodeGate.Load(); gate != nil {
		(*gate)()
	}
	s := &intSplit{}
	for _, line := range strings.Fields(string(block)) {
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("bad number %q", line)
		}
		s.vals = append(s.vals, v)
	}
	return s, int64(8 * cap(s.vals)), nil
}

// testMapInts emits every value times the "scale" parameter under its
// residue mod 7, so the output depends on the split and on the job.
func testMapInts(p Params, split any, emit Emit) error {
	scale, err := strconv.ParseInt(p.Get("scale"), 10, 64)
	if err != nil {
		return err
	}
	for _, v := range split.(*intSplit).vals {
		if err := emit("r"+strconv.FormatInt(v%7, 10), []byte(strconv.FormatInt(v*scale, 10))); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	Register("test-decoded-sum", App{
		Decode: testDecodeInts, MapDecoded: testMapInts,
		Reduce: testSumReduce, Combine: testSumCombiner,
	})
}

// numbers is n decimal lines.
func numbers(n int) []byte {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d\n", 1000+i*37)
	}
	return []byte(b.String())
}

// counters sums a counter over every worker.
func (ec *engineCluster) counter(name string) int64 {
	var total int64
	for _, w := range ec.workers {
		total += w.Metrics().Counter(name).Value()
	}
	return total
}

func (ec *engineCluster) runDecoded(t *testing.T, id string, scale int) (Result, map[string]int) {
	t.Helper()
	res, err := ec.driver.Run(JobSpec{
		ID: id, App: "test-decoded-sum", Inputs: []string{"nums.txt"}, User: "tester",
		Params: Params{"scale": []byte(strconv.Itoa(scale))},
	})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	return res, countsFromKVs(t, kvs)
}

func TestRegisterRejectsMixedMapPaths(t *testing.T) {
	noop := func(Params, []byte, Emit) error { return nil }
	mapDecoded := func(Params, any, Emit) error { return nil }
	reduce := func(Params, string, [][]byte, Emit) error { return nil }
	for name, app := range map[string]App{
		"both paths":      {Map: noop, Decode: testDecodeInts, MapDecoded: mapDecoded, Reduce: reduce},
		"decode alone":    {Decode: testDecodeInts, Reduce: reduce},
		"mapdecoded only": {MapDecoded: mapDecoded, Reduce: reduce},
		"map and decode":  {Map: noop, Decode: testDecodeInts, Reduce: reduce},
		"no map path":     {Reduce: reduce},
		"no reduce":       {Map: noop},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("Register accepted the application")
				}
			}()
			Register("test-rejected-"+name, app)
		})
	}
}

// TestIterationsDecodeEachBlockOnce: on one node, whose iCache holds the
// whole input, five jobs with five different parameter sets decode every
// block in the first and never again, and every later task's one cache
// hit is its decoded split.
func TestIterationsDecodeEachBlockOnce(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 1, cacheSize: 8 << 20})
	ec.upload(t, "nums.txt", numbers(2000), 1024)
	before := decodeCalls.Load()
	const iters = 5
	var blocks int64
	for it := 0; it < iters; it++ {
		res, got := ec.runDecoded(t, fmt.Sprintf("iter-%d", it), it+1)
		blocks = int64(res.MapTasks)
		wantHits := int64(0)
		if it > 0 {
			wantHits = blocks
		}
		if res.CacheHits != wantHits {
			t.Fatalf("iteration %d: %d cache hits over %d tasks, want %d", it, res.CacheHits, blocks, wantHits)
		}
		total := 0
		for _, n := range got {
			total += n
		}
		want := 0
		for i := 0; i < 2000; i++ {
			want += (1000 + i*37) * (it + 1)
		}
		if total != want {
			t.Fatalf("iteration %d: sum %d, want %d", it, total, want)
		}
	}
	if blocks < 8 {
		t.Fatalf("only %d blocks: the case exercises nothing", blocks)
	}
	if calls := decodeCalls.Load() - before; calls != blocks {
		t.Fatalf("Decode ran %d times for %d blocks over %d iterations", calls, blocks, iters)
	}
	if misses := ec.counter("mr.map.decode_misses"); misses != blocks {
		t.Fatalf("mr.map.decode_misses = %d, want %d", misses, blocks)
	}
	if hits := ec.counter("mr.map.decode_hits"); hits != (iters-1)*blocks {
		t.Fatalf("mr.map.decode_hits = %d, want %d", hits, (iters-1)*blocks)
	}
	if hits := ec.counter("mr.map.cache_hits"); hits != (iters-1)*blocks {
		t.Fatalf("mr.map.cache_hits = %d, want one per warm task (%d)", hits, (iters-1)*blocks)
	}
}

// decodedReq is one map task of the decoding test application over the
// first block of nums.txt.
func decodedReq(t *testing.T, ec *engineCluster, task string) RunMapReq {
	t.Helper()
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "nums.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	return RunMapReq{
		Job: "dec", Namespace: "job:dec-" + task, App: "test-decoded-sum",
		Params:   Params{"scale": []byte("1")},
		BlockKey: meta.BlockKeys[0], BlockSum: meta.BlockSums[0], Task: task,
		ReduceServers: table.Servers(), ReduceBounds: table.Bounds(),
	}
}

// TestConcurrentTasksDecodeColdBlockOnce: eight map tasks started together
// on one cold block all get past their iCache miss before the first
// decode is allowed to finish, and still the block is decoded once.
func TestConcurrentTasksDecodeColdBlockOnce(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	ec.upload(t, "nums.txt", numbers(300), 1<<20)
	w := ec.workers[ec.ids[0]]
	const tasks = 8
	gate := func() {
		for w.Metrics().Counter("mr.map.tasks").Value() < tasks {
			runtime.Gosched()
		}
	}
	decodeGate.Store(&gate)
	defer decodeGate.Store(nil)
	before := decodeCalls.Load()

	var wg sync.WaitGroup
	resps := make([]RunMapResp, tasks)
	errs := make([]error, tasks)
	for i := 0; i < tasks; i++ {
		req := decodedReq(t, ec, fmt.Sprintf("m%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = w.runMap(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("task %d: %v", i, err)
		}
		if fmt.Sprint(resps[i].PartBytes) != fmt.Sprint(resps[0].PartBytes) {
			t.Fatalf("task %d pushed %v, task 0 pushed %v", i, resps[i].PartBytes, resps[0].PartBytes)
		}
	}
	if calls := decodeCalls.Load() - before; calls != 1 {
		t.Fatalf("Decode ran %d times for 8 concurrent tasks on one block", calls)
	}
	misses, hits := w.Metrics().Counter("mr.map.decode_misses").Value(), w.Metrics().Counter("mr.map.decode_hits").Value()
	if misses != 1 || hits != tasks-1 {
		t.Fatalf("decode misses/hits = %d/%d, want 1/%d", misses, hits, tasks-1)
	}
}

// TestDecodedSplitsEvictAndRebuild: with an iCache that holds less than
// the blocks and their splits together, splits are evicted and decoded
// again from the raw blocks, and no output changes.
func TestDecodedSplitsEvictAndRebuild(t *testing.T) {
	data := numbers(4000)
	roomy := newEngineCluster(t, engineOpts{nodes: 1, cacheSize: 8 << 20})
	roomy.upload(t, "nums.txt", data, 2048)
	// iCache is half the figure: 12 KiB against ~27 KiB of blocks and as
	// much again of splits.
	tight := newEngineCluster(t, engineOpts{nodes: 1, cacheSize: 24 << 10})
	tight.upload(t, "nums.txt", data, 2048)
	var blocks int64
	for it := 0; it < 3; it++ {
		id := fmt.Sprintf("evict-%d", it)
		res, want := roomy.runDecoded(t, id, it+2)
		_, got := tight.runDecoded(t, id, it+2)
		blocks = int64(res.MapTasks)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("iteration %d: evicting cache produced %v, roomy cache %v", it, got, want)
		}
	}
	if misses := roomy.counter("mr.map.decode_misses"); misses != blocks {
		t.Fatalf("roomy cache decoded %d times for %d blocks", misses, blocks)
	}
	if misses := tight.counter("mr.map.decode_misses"); misses <= blocks {
		t.Fatalf("tight cache decoded %d times for %d blocks: nothing was rebuilt", misses, blocks)
	}
	ic := tight.workers[tight.ids[0]].Cache().ICache
	if ic.Stats().Evictions == 0 {
		t.Fatal("tight cache evicted nothing")
	}
	if ic.Bytes() > ic.Capacity() {
		t.Fatalf("iCache holds %d bytes of a %d-byte budget", ic.Bytes(), ic.Capacity())
	}
}

// TestDecodeErrorFailsAttemptAndCachesNothing: a block the decoder
// rejects fails the map attempt with the block named, and leaves no split
// behind that a later task could be served.
func TestDecodeErrorFailsAttemptAndCachesNothing(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	ec.upload(t, "nums.txt", []byte("12\nthirteen\n14\n"), 1<<20)
	w := ec.workers[ec.ids[0]]
	req := decodedReq(t, ec, "m0")
	id := cache.BlockID{Key: req.BlockKey, Sum: req.BlockSum}
	for attempt := 0; attempt < 2; attempt++ {
		_, err := w.runMap(context.Background(), req)
		if err == nil {
			t.Fatal("map over an undecodable block succeeded")
		}
		for _, want := range []string{req.BlockKey.String(), "decode", `bad number "thirteen"`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not mention %q", err, want)
			}
		}
		if _, ok := w.Cache().GetDecoded(req.App, id); ok {
			t.Fatal("a failed decode left a split in iCache")
		}
	}
	if misses := w.Metrics().Counter("mr.map.decode_misses").Value(); misses != 2 {
		t.Fatalf("decode ran %d times over two attempts, want 2 (errors are not cached)", misses)
	}
	// The job-level view: the error reaches the caller.
	_, err := ec.driver.Run(JobSpec{
		ID: "bad-input", App: "test-decoded-sum", Inputs: []string{"nums.txt"}, User: "tester",
		Params: Params{"scale": []byte("1")}, MaxAttempts: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "thirteen") {
		t.Fatalf("job over an undecodable block: %v", err)
	}
}

// TestMigrationSkipsDecodedSplits: a node's decoded splits sit in iCache
// under their block's ring key, so EntriesInRange sees them, but only the
// blocks' bytes travel: mr.cacheRange serves none and the adopting node
// decodes its own.
func TestMigrationSkipsDecodedSplits(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3, cacheSize: 4 << 20})
	ec.upload(t, "nums.txt", numbers(300), 1<<20)
	left, mid := ec.workers[ec.ids[0]], ec.workers[ec.ids[1]]
	req := decodedReq(t, ec, "m0")
	if _, err := left.runMap(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	id := cache.BlockID{Key: req.BlockKey, Sum: req.BlockSum}
	entries := left.Cache().ICache.EntriesInRange(req.BlockKey, req.BlockKey+1)
	if len(entries) != 2 {
		t.Fatalf("iCache holds %d entries under the block's key, want its bytes and its split", len(entries))
	}
	var served CacheRangeResp
	callWorker(t, ec, ec.ids[0], MethodCacheRange, CacheRangeReq{Start: req.BlockKey, End: req.BlockKey + 1}, &served)
	if len(served.Blocks) != 1 || served.Blocks[0].Key != req.BlockKey {
		t.Fatalf("cacheRange served %d entries, want the block's bytes alone", len(served.Blocks))
	}
	var adopted AdoptRangeResp
	callWorker(t, ec, ec.ids[1], MethodAdoptRange, AdoptRangeReq{
		Start: req.BlockKey, End: req.BlockKey + 1, Left: ec.ids[0], Right: ec.ids[2],
	}, &adopted)
	if adopted.Migrated != 1 {
		t.Fatalf("migrated %d entries, want 1", adopted.Migrated)
	}
	if !mid.Cache().HasBlockVersion(id) {
		t.Fatal("the block's bytes did not migrate under their digest")
	}
	if _, ok := mid.Cache().GetDecoded(req.App, id); ok {
		t.Fatal("a decoded split migrated")
	}
	// The adopter's first task hits the migrated bytes and decodes them.
	req.Task, req.Namespace = "m1", "job:dec-m1"
	resp, err := mid.runMap(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.CacheHit || mid.Metrics().Counter("mr.map.decode_misses").Value() != 1 {
		t.Fatalf("adopter's task: cache hit %v, decode misses %d; want a hit on the migrated bytes and one decode",
			resp.CacheHit, mid.Metrics().Counter("mr.map.decode_misses").Value())
	}
}

// TestDecodeAnnotatesComputeSpan: decoding adds no span; map.compute says
// whether the task found its split.
func TestDecodeAnnotatesComputeSpan(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	ec.upload(t, "nums.txt", numbers(300), 1<<20)
	w := ec.workers[ec.ids[0]]
	tr := trace.New(string(ec.ids[0]), trace.Options{})
	tr.SetEnabled(true)
	w.SetTracer(tr)
	for i, want := range []string{"miss", "hit"} {
		req := decodedReq(t, ec, fmt.Sprintf("m%d", i))
		ctx, root := tr.StartRoot(context.Background(), fmt.Sprintf("trace-%d", i), "test.root")
		_, err := w.runMap(ctx, req)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		names := map[string]string{}
		for _, s := range tr.Spans(fmt.Sprintf("trace-%d", i)) {
			got := ""
			for _, a := range s.Annotations {
				if a.Key == "decoded" {
					got = a.Value
				}
			}
			names[s.Name] = got
		}
		if names["map.compute"] != want {
			t.Fatalf("task %d: map.compute annotated decoded=%q, want %q (spans %v)", i, names["map.compute"], want, names)
		}
		for name := range names {
			switch name {
			case "test.root", "task.map", "map.read", "map.compute", "shuffle.send", "fs.read_block":
			default:
				t.Fatalf("task %d recorded an unexpected span %q", i, name)
			}
		}
	}
}

// TestStaleBlockVersionMisses: what iCache holds of a block is named by
// the block's digest, so a request carrying another digest for the same
// ring key is served neither the old bytes nor the old split.
func TestStaleBlockVersionMisses(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 1})
	ec.upload(t, "nums.txt", numbers(50), 1<<20)
	w := ec.workers[ec.ids[0]]
	old := decodedReq(t, ec, "m0")
	if _, err := w.runMap(context.Background(), old); err != nil {
		t.Fatal(err)
	}
	if err := ec.fs[ec.ids[0]].Delete(context.Background(), "nums.txt", "tester"); err != nil {
		t.Fatal(err)
	}
	ec.upload(t, "nums.txt", []byte("5\n6\n"), 1<<20)
	fresh := decodedReq(t, ec, "m1")
	if fresh.BlockKey != old.BlockKey || fresh.BlockSum == old.BlockSum {
		t.Fatalf("re-upload: key %s -> %s, digest changed %v", old.BlockKey, fresh.BlockKey, fresh.BlockSum != old.BlockSum)
	}
	resp, err := w.runMap(context.Background(), fresh)
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit {
		t.Fatal("the re-uploaded block was served from the deleted file's cache entries")
	}
	var pushed int64
	for _, n := range resp.PartBytes {
		pushed += n
	}
	var want []byte
	want = AppendKV(want, KV{Key: "r5", Value: []byte("5")})
	want = AppendKV(want, KV{Key: "r6", Value: []byte("6")})
	if pushed != int64(len(want)) {
		t.Fatalf("map over the re-uploaded block pushed %d bytes, want %d", pushed, len(want))
	}
}
