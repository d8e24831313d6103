package mapreduce

import (
	"context"
	"slices"
	"testing"

	"eclipsemr/internal/cache"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

// TestUnreachedPartitionTimesItsRecv: a reduce task whose only partition's
// holder cannot be read returns it as unreached, and its shuffle.recv stage
// is recorded like any other: one mr.shuffle.recv_ns observation for its
// one shuffle.recv span, and no compute stage.
func TestUnreachedPartitionTimesItsRecv(t *testing.T) {
	const self, holder = hashing.NodeID("worker-00"), hashing.NodeID("worker-01")
	ring := hashing.NewChordRing()
	for _, id := range []hashing.NodeID{self, holder} {
		if err := ring.AddNode(id); err != nil {
			t.Fatal(err)
		}
	}
	net := transport.NewLocal() // holder never listens: it is unreachable
	fs, err := dhtfs.NewService(self, net, func() *hashing.ChordRing { return ring }, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker(self, fs, cache.New(1<<20, 1<<20), net)
	tr := trace.New(string(self), trace.Options{})
	tr.SetEnabled(true)
	w.SetTracer(tr)

	ctx, root := tr.StartRoot(context.Background(), "stage-job", "driver.job")
	resp, err := w.runReduce(ctx, RunReduceReq{
		Job: "stage-job", Namespace: "stage-job", App: "test-slow-wordcount",
		Parts: []ReducePart{{Partition: 0, Holder: holder}}, OutputFile: "stage-job/out-0", User: "u",
	})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(resp.Unreached, []int{0}) {
		t.Fatalf("Unreached = %v, want [0]", resp.Unreached)
	}
	spans := 0
	for _, s := range tr.Spans("stage-job") {
		if s.Name == "shuffle.recv" {
			spans++
		}
	}
	snap := w.Metrics().Snapshot()
	if got := snap.Hists["mr.shuffle.recv_ns"].Count(); spans != 1 || got != 1 {
		t.Fatalf("shuffle.recv: %d spans, %d mr.shuffle.recv_ns observations; want 1 and 1", spans, got)
	}
	if got := snap.Hists["mr.reduce.compute_ns"].Count(); got != 0 {
		t.Fatalf("mr.reduce.compute_ns count = %d for a task that computed nothing", got)
	}
}
