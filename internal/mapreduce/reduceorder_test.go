package mapreduce

import (
	"bytes"
	"context"
	"testing"

	"eclipsemr/internal/hashing"
)

func init() {
	// test-concat's reducer writes a key's values joined in the order it
	// was handed them, so its output shows that order.
	Register("test-concat", App{Map: testWordCountMap, Reduce: func(_ Params, key string, values [][]byte, emit Emit) error {
		return emit(key, bytes.Join(values, []byte(",")))
	}})
}

// TestReduceReadsSpillsInTaskOrder: a partition's spills reach the reducer
// ordered by map task, then spill sequence, whatever order they arrived in
// and whether the reduce runs on their holder or reads them from it.
func TestReduceReadsSpillsInTaskOrder(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	ctx := context.Background()
	ns := "job:order-1"
	owner := ec.ids[1]
	var stored int64
	spill := func(task string, seq int, value string) {
		data := EncodeKVs([]KV{{Key: "k", Value: []byte(value)}})
		stored += int64(len(data))
		ec.fs[owner].Store().AppendTaskSegment(ns, partitionName(0), task, 0, seq, data)
	}
	// m1's spills arrive first, and m0's out of sequence.
	spill("m1", 0, "m1.0")
	spill("m0", 1, "m0.1")
	spill("m1", 1, "m1.1")
	spill("m0", 0, "m0.0")
	for _, node := range []hashing.NodeID{owner, ec.ids[0]} {
		req := RunReduceReq{
			Job: "order-1", Namespace: ns, App: "test-concat",
			Parts: []ReducePart{{Holder: owner, Bytes: stored}}, OutputFile: "order-1.out." + string(node), User: "tester",
		}
		if _, err := ec.workers[node].runReduce(ctx, req); err != nil {
			t.Fatal(err)
		}
		out, err := ec.fs[node].ReadFile(ctx, req.OutputFile, req.User)
		if err != nil {
			t.Fatal(err)
		}
		kvs, err := DecodeKVs(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != 1 || string(kvs[0].Value) != "m0.0,m0.1,m1.0,m1.1" {
			t.Errorf("reduce on %s got %q, want k's values in (task, seq) order", node, kvs)
		}
	}
}
