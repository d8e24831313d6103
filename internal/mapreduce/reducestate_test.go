package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"eclipsemr/internal/blockbuf"
)

// TestReduceStateReuseIsInvisible runs partitions of every shape through
// one worker's reduce state, a corrupt one among them, and checks each
// against a fresh state's grouping; in race builds a value a reducer kept
// past its call reads poison once its task has handed the state back.
func TestReduceStateReuseIsInvisible(t *testing.T) {
	w := &Worker{}
	shapes := reducePartitionShapes()
	var kept []byte
	for i, name := range []string{"sort", "wc", "corrupt", "one key", "shared-prefix", "hot-key", "one pair", "one-bucket"} {
		var streams [][]byte
		switch name {
		case "corrupt":
			streams = [][]byte{EncodeKVs([]KV{{Key: "a", Value: []byte("1")}}), {0, 0, 0, 9, 'x'}}
		case "one key":
			streams = cutStreams(groupingCases()["all equal"], 3)
		case "one pair":
			streams = [][]byte{nil, EncodeKVs([]KV{{Key: "k", Value: []byte("v")}})}
		default:
			streams = shapes[name]
		}
		g := w.borrowReduceState()
		if i > 0 && len(g.buf) != 0 {
			t.Fatalf("%s: the worker lent a state holding %d bytes", name, len(g.buf))
		}
		err := g.group(streams)
		if name == "corrupt" {
			if err == nil {
				t.Fatal("a corrupt partition grouped")
			}
			w.returnReduceState(g)
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []Group
		if err := g.each(func(key string, values [][]byte) error {
			got = append(got, Group{Key: key, Values: bytesClones(values)})
			kept = values[0]
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		w.returnReduceState(g)
		if blockbuf.RaceEnabled && strings.Trim(string(kept), "\xdb") != "" {
			t.Errorf("%s: a value kept past the partition reads %q, want poison", name, kept)
		}
		if err := sameGroups(got, streamGroups(t, streams)); err != nil {
			t.Errorf("%s on a reused state: %v", name, err)
		}
	}
	if w.idleReduce.Load() == nil {
		t.Fatal("the worker keeps no idle reduce state")
	}
	// The idle state is bounded: one that outgrew maxIdleReduce is dropped.
	w.borrowReduceState()
	big := &streamOrder{buf: make([]byte, 0, maxIdleReduce+1)}
	w.returnReduceState(big)
	if w.idleReduce.Load() != nil {
		t.Fatalf("the worker kept a reduce state of %d bytes, the bound is %d", big.footprint(), maxIdleReduce)
	}
	small := new(streamOrder)
	w.returnReduceState(small)
	if w.idleReduce.Load() != small {
		t.Fatal("the worker dropped a reduce state inside the bound")
	}
}

func bytesClones(values [][]byte) [][]byte {
	out := make([][]byte, len(values))
	for i, v := range values {
		out[i] = bytes.Clone(v)
	}
	return out
}

// TestReduceStateReuseConcurrent runs reduce tasks through one Worker
// from eight goroutines at once, so that tasks borrow its reduce state,
// find it taken and build their own, and give states back over each other:
// every task must write exactly what it writes when the tasks run one at a
// time, and afterwards the worker keeps one idle state, empty.
func TestReduceStateReuseConcurrent(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	owner := ec.ids[0]
	w := ec.workers[owner]
	shapes := reducePartitionShapes()
	tasks := []struct{ app, shape string }{
		{"test-wordcount", "wc"}, {"test-concat", "hot-key"}, {"test-concat", "sort"}, {"test-concat", "shared-prefix"},
	}
	for i, tk := range tasks {
		for seq, seg := range shapes[tk.shape] {
			ec.fs[owner].Store().AppendTaskSegment(fmt.Sprintf("job:r%d", i), partitionName(0), "m0", 0, seq, seg)
		}
	}
	// run reduces task i's partition into a file of its own and returns
	// the file's bytes.
	run := func(i int, out string) string {
		req := RunReduceReq{
			Job: fmt.Sprintf("r%d", i), Namespace: fmt.Sprintf("job:r%d", i), App: tasks[i].app,
			Parts: []ReducePart{{Holder: owner, Bytes: spillBytes(shapes[tasks[i].shape])}}, OutputFile: out, User: "tester",
		}
		if _, err := w.runReduce(context.Background(), req); err != nil {
			return "error: " + err.Error()
		}
		data, err := ec.fs[owner].ReadFile(context.Background(), out, "tester")
		if err != nil {
			return "error: " + err.Error()
		}
		return string(data)
	}
	want := make([]string, len(tasks))
	for i := range tasks {
		want[i] = run(i, fmt.Sprintf("alone-%d", i))
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := range tasks {
				i := (g + r) % len(tasks)
				if got := run(i, fmt.Sprintf("g%d-%d", g, i)); got != want[i] {
					t.Errorf("goroutine %d, task %d (%s over %s) wrote %d bytes that differ from the %d it wrote alone",
						g, i, tasks[i].app, tasks[i].shape, len(got), len(want[i]))
				}
			}
		}(g)
	}
	wg.Wait()
	idle := w.idleReduce.Load()
	if idle == nil {
		t.Fatal("the worker keeps no idle reduce state after its tasks")
	}
	if len(idle.buf) != 0 || idle.keys.Len() != 0 {
		t.Fatalf("the idle reduce state was not reset: %d bytes, %d key bytes", len(idle.buf), idle.keys.Len())
	}
}

// TestReduceOutputIsClipped: a reduce output far smaller than the input it
// was sized to is not stored as a view of that array. The store keeps the
// bytes it is handed, the local replica without a copy, so before outputs
// were clipped a few bytes of output kept an input-sized array alive
// until the file was deleted.
func TestReduceOutputIsClipped(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3, replicas: 3}) // the reducing node holds a replica
	owner := ec.ids[0]
	ctx := context.Background()
	const inputBytes = 4 << 20
	pair := EncodeKVs([]KV{{Key: "k", Value: []byte("1")}})
	spill := bytes.Repeat(pair, inputBytes/len(pair))
	req := RunReduceReq{
		Job: "clip", Namespace: "job:clip", App: "test-wordcount",
		Parts: []ReducePart{{Holder: owner, Bytes: int64(len(spill))}}, OutputFile: "clip.out", User: "tester",
	}
	ec.fs[owner].Store().AppendTaskSegment(req.Namespace, partitionName(0), "m0", 0, 0, spill)
	if _, err := ec.workers[owner].runReduce(ctx, req); err != nil {
		t.Fatal(err)
	}
	ec.fs[owner].Store().DropJobSegments(req.Namespace)
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	if err := ec.fs[owner].Delete(ctx, req.OutputFile, req.User); err != nil {
		t.Fatal(err)
	}
	if freed := before - live(); freed > inputBytes/4 {
		t.Fatalf("deleting a one-pair output freed %d bytes: it pinned the %d-byte array it was sized to", freed, inputBytes)
	}
}
