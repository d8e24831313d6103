package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/workloads"
)

// referenceCombineStream is the oracle for what a combined spill must
// contain: decode one raw spill (the pairs an appendEmitter buffered for
// the partition), collect each key's values in emit order, run the
// combiner once per key in the order the keys first appear, and re-encode.
// It shares nothing with the grouping kernel.
func referenceCombineStream(fn ReduceFunc, params Params, data []byte) ([]byte, error) {
	var keys []string
	values := make(map[string][][]byte)
	for off := 0; off < len(data); {
		key, value, next, err := nextKV(data, off)
		if err != nil {
			return nil, err
		}
		if _, seen := values[string(key)]; !seen {
			keys = append(keys, string(key))
		}
		values[string(key)] = append(values[string(key)], value)
		off = next
	}
	out := []byte{}
	emit := func(key string, value []byte) error {
		out = AppendKV(out, KV{Key: key, Value: value})
		return nil
	}
	for _, key := range keys {
		if err := fn(params, key, values[key], emit); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// spillRecord is one spill as it leaves a map task's emitter.
type spillRecord struct {
	part, seq int
	data      []byte
}

// emitterSpills runs the application's map path over input through the
// engine's emitter, a combining one working in state (nil: a fresh one),
// and records every spill handed off, in hand-off order, also when the
// task fails.
func emitterSpills(app App, table *hashing.RangeTable, req RunMapReq, input []byte, state *combineState) ([]spillRecord, error) {
	var spills []spillRecord
	out := newMapEmitter(table, req, app.Combine, state, func(part, seq int, buf *[]byte) {
		spills = append(spills, spillRecord{part, seq, append([]byte{}, *buf...)})
		putSpillBuf(buf)
	})
	defer out.release()
	if err := mapUncached(app, req.Params, input, out.emit); err != nil {
		return spills, err
	}
	return spills, out.flushAll()
}

// referenceSpills is the pipeline a combined spill is defined by: every
// pair appended raw to its partition's buffer, and a buffer that reaches
// the threshold run through the reference combiner before it is pushed.
func referenceSpills(app App, table *hashing.RangeTable, req RunMapReq, input []byte) ([]spillRecord, error) {
	var spills []spillRecord
	var combineErr error
	out := newAppendEmitter(newSpillRoute(table, req, func(part, seq int, buf *[]byte) {
		data := append([]byte{}, *buf...)
		putSpillBuf(buf)
		if app.Combine != nil {
			var err error
			if data, err = referenceCombineStream(app.Combine, req.Params, data); err != nil {
				combineErr = errors.Join(combineErr, err)
				return
			}
		}
		spills = append(spills, spillRecord{part, seq, data})
	}))
	defer out.release()
	if err := mapUncached(app, req.Params, input, out.emit); err != nil {
		return nil, err
	}
	if err := out.flushAll(); err != nil {
		return nil, err
	}
	return spills, combineErr
}

// mapUncached runs the application's map path over a raw block with no
// cache in between: a decoding application decodes, then maps.
func mapUncached(app App, params Params, input []byte, emit Emit) error {
	if app.Decode == nil {
		return app.Map(params, input, emit)
	}
	split, _, err := app.Decode(input)
	if err != nil {
		return err
	}
	return app.MapDecoded(params, split, emit)
}

func mustLookup(name string) App {
	app, err := lookupApp(name)
	if err != nil {
		panic(err)
	}
	return app
}

// TestEmitterSpillsMatchReference checks both emitters, spill by spill
// and byte for byte, against the reference pipeline over the in-package
// test applications: same spill boundaries, same partition and sequence
// numbers, each combined spill's keys in first-emit order. The registered
// paper applications are covered by the external identity test.
func TestEmitterSpillsMatchReference(t *testing.T) {
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0", "n1", "n2"})
	if err != nil {
		t.Fatal(err)
	}
	text, _ := wideCorpus(120, 7)
	for _, appName := range []string{"test-wordcount", "test-wordcount-nocombine"} {
		for _, req := range []RunMapReq{
			{SpillThreshold: 1},       // every pair its own spill
			{SpillThreshold: 64},      // many mid-map flushes
			{SpillThreshold: 1 << 30}, // one spill per partition at the end
			{SpillThreshold: 64, OnlyPartitions: []int{1}},
			{SpillThreshold: 64, OnlyPartitions: []int{0, 2, 7, -1}}, // out-of-range entries select nothing
		} {
			t.Run(fmt.Sprintf("%s/threshold=%d/only=%v", appName, req.SpillThreshold, req.OnlyPartitions), func(t *testing.T) {
				app := mustLookup(appName)
				got, err := emitterSpills(app, table, req, text, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceSpills(app, table, req, text)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSpills(got, want); err != nil {
					t.Fatal(err)
				}
				if len(got) == 0 {
					t.Fatal("no spills: the case exercises nothing")
				}
			})
		}
	}
}

func sameSpills(got, want []spillRecord) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d spills, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.part != w.part || g.seq != w.seq {
			return fmt.Errorf("spill %d is (partition %d, seq %d), want (%d, %d)", i, g.part, g.seq, w.part, w.seq)
		}
		if string(g.data) != string(w.data) {
			return fmt.Errorf("spill %d (partition %d, seq %d) differs:\n got %q\nwant %q", i, g.part, g.seq, g.data, w.data)
		}
	}
	return nil
}

// TestCombinerErrorFailsAttempt pins the failure path of the emit-side
// combiner on a real worker: the attempt fails with the combiner's error,
// emit keeps returning it instead of blocking or combining further, the
// sender drains, and nothing lands for the failed spill.
func TestCombinerErrorFailsAttempt(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, _ := wideCorpus(200, 3)
	ec.upload(t, "poison.txt", text, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "poison.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	w := ec.workers[ec.ids[0]]
	for _, threshold := range []int{32, 1 << 30} { // fails mid-map, fails in the final flush
		req := RunMapReq{
			Job: "poison", Namespace: fmt.Sprintf("job:poison-%d", threshold), App: "test-failing-combine",
			Params:   Params{"poison": []byte("word150")},
			BlockKey: meta.BlockKeys[0], BlockSum: meta.BlockSums[0], Task: "t0",
			ReduceServers: table.Servers(), ReduceBounds: table.Bounds(),
			SpillThreshold: threshold,
		}
		done := make(chan error, 1)
		go func() {
			_, err := w.runMap(context.Background(), req)
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "combine key \"word150\"") || !strings.Contains(err.Error(), "poisoned key") {
				t.Fatalf("threshold %d: err = %v, want the combiner's failure", threshold, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("threshold %d: runMap did not return after a combiner error", threshold)
		}
		if v := w.Metrics().Gauge("mr.shuffle.inflight").Value(); v != 0 {
			t.Fatalf("threshold %d: inflight gauge = %d after failed attempt, want 0", threshold, v)
		}
	}
}

// TestCombinerErrorIsStickyAndReturnsBuffer drives the emitter directly:
// after a combiner failure every emit and flush returns the same error
// without running the combiner again, and the spill buffer the failed
// flush had taken is back in the pool.
func TestCombinerErrorIsStickyAndReturnsBuffer(t *testing.T) {
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0"})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	// sync.Pool may drop a Put (it does so at random under -race), so one
	// round proves nothing either way; a buffer that is never returned
	// fails every round.
	returned := false
	for round := 0; round < 50 && !returned; round++ {
		calls := 0
		shipped := 0
		out := newMapEmitter(table, RunMapReq{SpillThreshold: 1 << 30}, func(Params, string, [][]byte, Emit) error {
			calls++
			return boom
		}, nil, func(int, int, *[]byte) { shipped++ })
		if err := out.emit("k", []byte("v")); err != nil {
			t.Fatalf("emit below the threshold: %v", err)
		}
		marker := getSpillBuf()
		putSpillBuf(marker) // the buffer the failing flush will take
		if err := out.flushAll(); !errors.Is(err, boom) {
			t.Fatalf("flushAll = %v, want the combiner's error", err)
		}
		back := getSpillBuf()
		returned = back == marker
		putSpillBuf(back)
		if err := out.emit("k2", []byte("v")); !errors.Is(err, boom) {
			t.Fatalf("emit after failure = %v, want the combiner's error", err)
		}
		if err := out.flushAll(); !errors.Is(err, boom) {
			t.Fatalf("second flushAll = %v, want the combiner's error", err)
		}
		out.release()
		if calls != 1 || shipped != 0 {
			t.Fatalf("combiner ran %d times and %d spills shipped after a failure, want 1 and 0", calls, shipped)
		}
	}
	if !returned {
		t.Fatal("the failed flush never returned its spill buffer to the pool")
	}
}

// TestFullArenaSpillsEarly: a pair whose value would carry a partition's
// arena past what a 32-bit offset addresses spills the partition first,
// below the threshold, instead of wrapping the offset.
func TestFullArenaSpillsEarly(t *testing.T) {
	defer func(limit uint64) { maxArenaLen = limit }(maxArenaLen)
	maxArenaLen = 3
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0"})
	if err != nil {
		t.Fatal(err)
	}
	var spills []string
	out := newMapEmitter(table, RunMapReq{SpillThreshold: 1 << 30}, testSumReduce, nil, func(_, _ int, buf *[]byte) {
		spills = append(spills, string(*buf))
		putSpillBuf(buf)
	})
	for _, v := range []string{"1", "2", "3", "4", "5"} {
		if err := out.emit("k", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.flushAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{string(EncodeKVs([]KV{{Key: "k", Value: []byte("6")}})), string(EncodeKVs([]KV{{Key: "k", Value: []byte("9")}}))}
	if fmt.Sprint(spills) != fmt.Sprint(want) {
		t.Fatalf("spills %q, want %q", spills, want)
	}
}

// emitOnWorker runs the emit side of one map task with combine on a
// combine state borrowed from w: every pair, then the final flush, each
// spill recycled as it is handed off. The state goes back to w.
func emitOnWorker(t testing.TB, w *Worker, table *hashing.RangeTable, combine ReduceFunc, pairs []KV) {
	state := w.borrowCombineState()
	out := newMapEmitter(table, RunMapReq{}, combine, state, func(_, _ int, buf *[]byte) { putSpillBuf(buf) })
	for _, kv := range pairs {
		if err := out.emit(kv.Key, kv.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.flushAll(); err != nil {
		t.Fatal(err)
	}
	out.release()
	w.returnCombineState(state)
}

// borrowedTaskAllocs is what one 64 KiB word-count map task allocates on
// the emit side, every pair emitted and every partition flushed, once an
// earlier task on the same worker has grown the combine state: the
// emitter and its spill route (two), and per flushed partition the
// closure that appends the combiner's output to the spill (four). Nothing
// scales with the pairs or keys; on a fresh state the same task allocates
// some 240 times, growing each array from empty.
const borrowedTaskAllocs = 6

// TestBorrowedStateTaskAllocates pins the reason a worker lends its map
// tasks one combine state: the second task on it finds every array large
// enough. The combiner reuses its own digits so that only the emitter's
// allocations are counted (testSumReduce allocates one string per key).
func TestBorrowedStateTaskAllocates(t *testing.T) {
	if blockbuf.RaceEnabled {
		t.Skip("the race detector allocates too")
	}
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0", "n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []KV
	for _, word := range strings.Fields(string(workloads.Text(1, 64<<10, 20000))) {
		pairs = append(pairs, KV{Key: word, Value: []byte("1")})
	}
	var digits []byte
	count := func(_ Params, key string, values [][]byte, emit Emit) error {
		digits = strconv.AppendInt(digits[:0], int64(len(values)), 10)
		return emit(key, digits)
	}
	w := &Worker{}
	task := func() { emitOnWorker(t, w, table, count, pairs) }
	task() // grows the worker's state
	if n := testing.AllocsPerRun(20, task); n > borrowedTaskAllocs {
		t.Errorf("a task on a borrowed combine state allocates %v times, want at most %d", n, borrowedTaskAllocs)
	}
}
