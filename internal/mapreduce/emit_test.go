package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
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

// emitterSpills runs app.Map over input through the engine's emitter and
// records every spill handed off, in hand-off order.
func emitterSpills(app App, table *hashing.RangeTable, req RunMapReq, input []byte) ([]spillRecord, error) {
	var spills []spillRecord
	out := newMapEmitter(table, req, app.Combine, len(input), func(part, seq int, buf *[]byte) {
		spills = append(spills, spillRecord{part, seq, append([]byte{}, *buf...)})
		putSpillBuf(buf)
	})
	defer out.release()
	if err := app.Map(req.Params, input, out.emit); err != nil {
		return nil, err
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
				got, err := emitterSpills(app, table, req, text)
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
		}, 0, func(int, int, *[]byte) { shipped++ })
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

// TestEmitOfSeenKeyDoesNotAllocate pins the steady state of both
// emitters: with their arrays sized from the input's length, a pair whose
// key the task has already emitted is hashed, looked up and buffered
// without touching the allocator.
func TestEmitOfSeenKeyDoesNotAllocate(t *testing.T) {
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0", "n1", "n2", "n3"})
	if err != nil {
		t.Fatal(err)
	}
	for name, combine := range map[string]ReduceFunc{"append": nil, "combine": testSumReduce} {
		out := newMapEmitter(table, RunMapReq{}, combine, 64<<10, func(_, _ int, buf *[]byte) { putSpillBuf(buf) })
		one := []byte("1")
		if err := out.emit("seen", one); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(1000, func() { _ = out.emit("seen", one) }); n != 0 {
			t.Errorf("%s emitter: %v allocations per emit of an already-seen key, want 0", name, n)
		}
		out.release()
	}
}
