package mapreduce

import (
	"context"
	"encoding/binary"
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
// application's reducer once per key in the order the keys first appear,
// and re-encode. It shares nothing with the combiner or the grouping
// kernel.
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

// referenceSpills is the pipeline a combined spill is defined by, made
// with the application's reducer alone: every pair appended raw to its
// partition's buffer, and, for an application with a combiner, a buffer
// that reaches the threshold reduced (referenceCombineStream) before it is
// pushed. A fold fails on the first pair at which the reducer rejects its
// key's values so far in the spill, with the error the emitter wraps the
// combiner's in; the spills pushed before it are returned with it.
func referenceSpills(app App, table *hashing.RangeTable, req RunMapReq, input []byte) ([]spillRecord, error) {
	var spills []spillRecord
	var reduceErr error
	values := make([]map[string][][]byte, table.Len()) // of the spill each partition is filling
	route := newSpillRoute(table, req, func(part, seq int, buf *[]byte) {
		data := append([]byte{}, *buf...)
		putSpillBuf(buf)
		if app.Combine != nil {
			var err error
			data, err = referenceCombineStream(app.Reduce, req.Params, data)
			reduceErr = errors.Join(reduceErr, err)
		}
		spills = append(spills, spillRecord{part, seq, data})
		values[part] = nil
	})
	out := newAppendEmitter(route)
	defer out.release()
	emit := out.emit
	if app.Combine != nil {
		discard := func(string, []byte) error { return nil }
		emit = func(key string, value []byte) error {
			if part := route.partition(hashing.ShuffleKey(key)); part >= 0 {
				if values[part] == nil {
					values[part] = make(map[string][][]byte)
				}
				sofar := append(values[part][key], value)
				if err := app.Reduce(req.Params, key, sofar, discard); err != nil {
					return fmt.Errorf("mapreduce: combine key %q: %w", key, err)
				}
				values[part][key] = sofar
			}
			return out.emit(key, value)
		}
	}
	if err := mapUncached(app, req.Params, input, emit); err != nil {
		return spills, err
	}
	if err := out.flushAll(); err != nil {
		return spills, err
	}
	return spills, reduceErr
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
// emit keeps returning it instead of blocking or folding further, and the
// sender drains the spills shipped before the failure.
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
	for _, threshold := range []int{32, 1 << 30} { // spills in flight when the fold fails, none
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

// TestCombinerErrorIsSticky drives the emitter directly: the pair a fold
// fails on fails its emit, after which every emit and flushAll returns
// the same error without calling the combiner again, and nothing is
// shipped, not even the keys folded before the failure.
func TestCombinerErrorIsSticky(t *testing.T) {
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0"})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls, shipped := 0, 0
	fold := &Combiner{
		Start: func(_ Params, _ string, dst, value []byte) ([]byte, error) {
			calls++
			return append(dst, value...), nil
		},
		Add: func(_ Params, _ string, _, value []byte) error {
			calls++
			if string(value) == "x" {
				return boom
			}
			return nil
		},
		Value: func(_ Params, _ string, dst, acc []byte) []byte { return append(dst, acc...) },
	}
	out := newMapEmitter(table, RunMapReq{SpillThreshold: 1 << 30}, fold, nil, func(int, int, *[]byte) { shipped++ })
	for _, kv := range []KV{{Key: "k", Value: []byte("1")}, {Key: "k2", Value: []byte("1")}} {
		if err := out.emit(kv.Key, kv.Value); err != nil {
			t.Fatalf("emit before the failure: %v", err)
		}
	}
	const want = `mapreduce: combine key "k": boom`
	err = out.emit("k", []byte("x"))
	if !errors.Is(err, boom) || err.Error() != want {
		t.Fatalf("emit of the failing pair = %v, want %s", err, want)
	}
	for i, again := range []func() error{
		func() error { return out.emit("k2", []byte("1")) },
		out.flushAll,
		out.flushAll,
	} {
		if got := again(); got != err {
			t.Fatalf("call %d after the failure = %v, want the first error", i, got)
		}
	}
	out.release()
	if calls != 3 || shipped != 0 {
		t.Fatalf("combiner ran %d times and %d spills shipped, want 3 and 0", calls, shipped)
	}
}

// TestFullArenaSpillsEarly: an accumulator that would carry a partition's
// arena past what a 32-bit offset addresses spills the partition first,
// below the threshold, instead of wrapping the offset; one that does not
// fit an empty arena fails the task.
func TestFullArenaSpillsEarly(t *testing.T) {
	defer func(limit uint64) { maxArenaLen = limit }(maxArenaLen)
	maxArenaLen = 20 // two of testSumCombiner's eight-byte accumulators
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0"})
	if err != nil {
		t.Fatal(err)
	}
	var spills []string
	out := newMapEmitter(table, RunMapReq{SpillThreshold: 1 << 30}, testSumCombiner, nil, func(_, _ int, buf *[]byte) {
		spills = append(spills, string(*buf))
		putSpillBuf(buf)
	})
	for _, kv := range []string{"a1", "b2", "a3", "c4", "c5", "d6", "a7"} {
		if err := out.emit(kv[:1], []byte(kv[1:])); err != nil {
			t.Fatal(err)
		}
	}
	if err := out.flushAll(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		string(EncodeKVs([]KV{{Key: "a", Value: []byte("4")}, {Key: "b", Value: []byte("2")}})),
		string(EncodeKVs([]KV{{Key: "c", Value: []byte("9")}, {Key: "d", Value: []byte("6")}})),
		string(EncodeKVs([]KV{{Key: "a", Value: []byte("7")}})),
	}
	if fmt.Sprint(spills) != fmt.Sprint(want) {
		t.Fatalf("spills %q, want %q", spills, want)
	}

	maxArenaLen = 4
	out = newMapEmitter(table, RunMapReq{}, testSumCombiner, nil, func(int, int, *[]byte) { t.Fatal("a spill was shipped") })
	if err := out.emit("a", []byte("1")); err == nil || err.Error() != `mapreduce: combine key "a": an accumulator of 8 bytes` {
		t.Fatalf("emit of an accumulator past the limit = %v", err)
	}
}

// emitOnWorker runs the emit side of one map task with combine on a
// combine state borrowed from w: every pair, then the final flush, each
// spill recycled as it is handed off. The state goes back to w.
func emitOnWorker(t testing.TB, w *Worker, table *hashing.RangeTable, combine *Combiner, pairs []KV) {
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

// digitSum sums one-digit counts with nothing to parse or allocate, so
// that what a test or benchmark counts is the emitter's work, not the
// combiner's.
var digitSum = &Combiner{
	Start: func(_ Params, _ string, dst, value []byte) ([]byte, error) {
		return binary.LittleEndian.AppendUint64(dst, uint64(value[0]-'0')), nil
	},
	Add: func(_ Params, _ string, acc, value []byte) error {
		binary.LittleEndian.PutUint64(acc, binary.LittleEndian.Uint64(acc)+uint64(value[0]-'0'))
		return nil
	},
	Value: func(_ Params, _ string, dst, acc []byte) []byte {
		return strconv.AppendUint(dst, binary.LittleEndian.Uint64(acc), 10)
	},
}

// What one 64 KiB word-count map task allocates on the emit side, every
// pair folded and every partition flushed. On a state an earlier task on
// the same worker has grown: the emitter and its spill route (two),
// nothing per pair, key or spill. On a private state 144: the state, and
// every array of the table and of the four partitions grown from empty by
// doubling, for the block's 2 550 distinct words.
const (
	borrowedTaskAllocs = 2
	privateTaskAllocs  = 144
)

// TestBorrowedStateTaskAllocates pins the reason a worker lends its map
// tasks one combine state: the second task on it finds every array large
// enough, where a task on a state of its own grows them all.
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
	w := &Worker{}
	task := func() { emitOnWorker(t, w, table, digitSum, pairs) }
	task() // grows the worker's state
	if n := testing.AllocsPerRun(20, task); n > borrowedTaskAllocs {
		t.Errorf("a task on a borrowed combine state allocates %v times, want at most %d", n, borrowedTaskAllocs)
	}
	private := func() {
		out := newMapEmitter(table, RunMapReq{}, digitSum, nil, func(_, _ int, buf *[]byte) { putSpillBuf(buf) })
		for _, kv := range pairs {
			if err := out.emit(kv.Key, kv.Value); err != nil {
				t.Fatal(err)
			}
		}
		if err := out.flushAll(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, private); n > privateTaskAllocs {
		t.Errorf("a task on a private combine state allocates %v times, want at most %d", n, privateTaskAllocs)
	}
}
