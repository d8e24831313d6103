package dhtfs

import (
	"bytes"
	"context"
	"testing"

	"eclipsemr/internal/transport"
)

// TestPushTaggedSegmentBatch drives the coalesced raw-frame push path:
// one RPC carrying spills for several partitions must land each entry
// with AppendTaskSegment semantics, both across the network and through
// the local self short-circuit.
func TestPushTaggedSegmentBatch(t *testing.T) {
	tc := newTestCluster(t, 3, 2)
	a, b := tc.services[tc.ids[0]], tc.services[tc.ids[1]]
	entries := []SegBatchEntry{
		{Partition: "p0000", Tag: SegTag{Task: "m1", Attempt: 0, Seq: 0}, Data: []byte("aaa")},
		{Partition: "p0001", Tag: SegTag{Task: "m1", Attempt: 0, Seq: 0}, Data: []byte("bb")},
		{Partition: "p0000", Tag: SegTag{Task: "m1", Attempt: 0, Seq: 1}, Data: nil},
		{Partition: "p0000", Tag: SegTag{Task: "m2", Attempt: 0, Seq: 0}, Data: []byte("cccc")},
	}
	if err := a.PushTaggedSegmentBatch(context.Background(), tc.ids[1], "jobB", entries); err != nil {
		t.Fatal(err)
	}
	p0 := b.Store().ReadTaggedSegments("jobB", "p0000")
	if len(p0) != 3 {
		t.Fatalf("p0000 segments = %d, want 3", len(p0))
	}
	if string(p0[0].Data) != "aaa" || len(p0[1].Data) != 0 || string(p0[2].Data) != "cccc" {
		t.Fatalf("p0000 payloads = %q %q %q", p0[0].Data, p0[1].Data, p0[2].Data)
	}
	if p0[1].Task != "m1" || p0[1].Seq != 1 {
		t.Fatalf("p0000[1] tag = %+v", p0[1])
	}
	if p1 := b.Store().ReadTaggedSegments("jobB", "p0001"); len(p1) != 1 || string(p1[0].Data) != "bb" {
		t.Fatalf("p0001 = %+v", p1)
	}

	// Self short-circuit: a batch pushed at the sender's own node.
	if err := a.PushTaggedSegmentBatch(context.Background(), tc.ids[0], "jobB",
		[]SegBatchEntry{{Partition: "p0002", Tag: SegTag{Task: "m3"}, Data: []byte("self")}}); err != nil {
		t.Fatal(err)
	}
	if segs := a.Store().ReadTaggedSegments("jobB", "p0002"); len(segs) != 1 || string(segs[0].Data) != "self" {
		t.Fatalf("self batch = %q", segs)
	}
}

// TestBatchRetransmitAndSupersede pins that batch entries keep the
// store's exact (task, attempt, seq) dedup semantics.
func TestBatchRetransmitAndSupersede(t *testing.T) {
	tc := newTestCluster(t, 2, 1)
	a := tc.services[tc.ids[0]]
	to := tc.ids[1]
	push := func(attempt int, data string) {
		t.Helper()
		err := a.PushTaggedSegmentBatch(context.Background(), to, "jobD",
			[]SegBatchEntry{{Partition: "p0000", Tag: SegTag{Task: "m1", Attempt: attempt, Seq: 0}, Data: []byte(data)}})
		if err != nil {
			t.Fatal(err)
		}
	}
	push(0, "first")
	push(0, "first") // exact retransmit replaces, not duplicates
	segs, err := a.FetchTaggedSegments(context.Background(), to, "jobD", "p0000")
	if err != nil || len(segs) != 1 {
		t.Fatalf("after retransmit: %d segments, %v", len(segs), err)
	}
	push(1, "second") // higher attempt supersedes
	segs, err = a.FetchTaggedSegments(context.Background(), to, "jobD", "p0000")
	if err != nil || len(segs) != 1 || string(segs[0].Data) != "second" {
		t.Fatalf("after supersede: %q, %v", segs, err)
	}
	push(0, "stale") // straggler from a superseded attempt is ignored
	segs, err = a.FetchTaggedSegments(context.Background(), to, "jobD", "p0000")
	if err != nil || len(segs) != 1 || string(segs[0].Data) != "second" {
		t.Fatalf("after straggler: %q, %v", segs, err)
	}
}

// TestBatchMalformedEntryRejected covers the untrusted-length check in
// the batch handler: an entry whose Len overruns the payload must error,
// not panic or write garbage.
func TestBatchMalformedEntryRejected(t *testing.T) {
	tc := newTestCluster(t, 2, 1)
	svc := tc.services[tc.ids[0]]
	body, err := transport.EncodeFrame(segBatchHdr{
		Job:     "jobE",
		Entries: []segBatchPart{{Partition: "p0000", Task: "m1", Len: 99}},
	}, []byte("short"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := svc.Handle(context.Background(), MethodAppendSegBatch, body); err == nil {
		t.Fatal("overrunning batch entry accepted")
	}
	if segs := svc.Store().ReadTaggedSegments("jobE", "p0000"); len(segs) != 0 {
		t.Fatalf("malformed batch stored %d segments", len(segs))
	}
}

// TestRawTaggedFetchRoundTrip checks the raw-frame read path end to end
// against data written one spill per push, empty spill included.
func TestRawTaggedFetchRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 2, 1)
	a := tc.services[tc.ids[0]]
	to := tc.ids[1]
	want := [][]byte{[]byte("s0"), {}, bytes.Repeat([]byte{0xab}, 1<<10)}
	for i, data := range want {
		if err := a.PushTaggedSegmentBatch(context.Background(), to, "jobF",
			[]SegBatchEntry{{Partition: "p0000", Tag: SegTag{Task: "m1", Seq: i}, Data: data}}); err != nil {
			t.Fatal(err)
		}
	}
	tagged, err := a.FetchTaggedSegments(context.Background(), to, "jobF", "p0000")
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) != len(want) {
		t.Fatalf("tagged = %d, want %d", len(tagged), len(want))
	}
	for i, seg := range tagged {
		if seg.Task != "m1" || seg.Seq != i || !bytes.Equal(seg.Data, want[i]) {
			t.Fatalf("tagged[%d] = %+v", i, seg)
		}
	}
}

// TestRawTaggedFetchRejectsOverrun: the lengths in a read reply come off
// the wire, so one that runs past the payload is an error, not a slice
// of whatever follows.
func TestRawTaggedFetchRejectsOverrun(t *testing.T) {
	tc := newTestCluster(t, 1, 1)
	a := tc.services[tc.ids[0]]
	body, err := transport.EncodeFrame(rawTaggedHdr{Tags: []rawTaggedPart{{Task: "m1", Len: 2}, {Task: "m1", Seq: 1, Len: 99}}}, []byte("short"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.net.Listen("liar", func(context.Context, string, []byte) ([]byte, error) { return body, nil }); err != nil {
		t.Fatal(err)
	}
	if segs, err := a.FetchTaggedSegments(context.Background(), "liar", "jobG", "p0000"); err == nil {
		t.Fatalf("overrunning reply accepted as %+v", segs)
	}
}
