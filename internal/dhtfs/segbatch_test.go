package dhtfs

import (
	"bytes"
	"context"
	"slices"
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

// TestSegmentBudgetEvictsFinishedNamespaces: a namespace is charged once a
// fetch has read each of its partitions since their last append; over
// budget, the least recently fetched finished namespace goes whole, never
// an unfinished one and never the one just fetched.
func TestSegmentBudgetEvictsFinishedNamespaces(t *testing.T) {
	s := NewStore()
	var evicted []string
	s.setSegmentBudget(100, func(ns string) { evicted = append(evicted, ns) })
	put := func(ns, part string, n int) { s.AppendTaskSegment(ns, part, "m0", 0, 0, make([]byte, n)) }
	fetch := func(ns, part string) { s.ReadTaggedSegments(ns, part) }
	check := func(step string, finished int64, gone ...string) {
		t.Helper()
		if got := s.FinishedBytes(); got != finished {
			t.Fatalf("%s: %d finished bytes, want %d", step, got, finished)
		}
		if !slices.Equal(evicted, gone) {
			t.Fatalf("%s: evicted %q, want %q", step, evicted, gone)
		}
	}

	put("a", "p0", 40)
	put("a", "p1", 40)
	fetch("a", "p0")
	check("a half fetched", 0)
	fetch("a", "p1")
	check("a fetched", 80)
	put("b", "p0", 60)
	check("b mapping", 80)
	put("c", "p0", 40)
	fetch("c", "p0")
	check("c fetched", 40, "a")
	put("c", "p1", 10)
	check("c appended to", 0, "a")
	fetch("c", "p1")
	check("c fetched again", 50, "a")

	put("d", "p0", 200)
	fetch("d", "p0")
	check("d alone over budget", 200, "a", "c")
	fetch("b", "p0")
	check("b fetched", 60, "a", "c", "d")
	if _, _, segs := s.Counts(); segs != 1 || s.Bytes() != 60 {
		t.Fatalf("%d segment streams, %d bytes resident, want b's 1 and 60", segs, s.Bytes())
	}
	s.DropJobSegments("b")
	check("b dropped", 0, "a", "c", "d")
	if got := s.ReadTaggedSegments("a", "p0"); got != nil {
		t.Fatalf("an evicted namespace still reads %d spills", len(got))
	}
}

// TestSegmentBudgetStaleStragglerKeepsNamespaceFinished: a spill of a
// superseded attempt that arrives after the reduce's fetch is ignored, so
// it neither unfinishes the namespace nor changes its bytes; a newer
// attempt does both, and its fetch charges the new attempt's bytes alone.
func TestSegmentBudgetStaleStragglerKeepsNamespaceFinished(t *testing.T) {
	s := NewStore()
	s.setSegmentBudget(1000, func(string) { t.Fatal("nothing should be evicted") })
	s.AppendTaskSegment("a", "p0", "m0", 1, 0, make([]byte, 30))
	s.ReadTaggedSegments("a", "p0")
	if got := s.FinishedBytes(); got != 30 {
		t.Fatalf("%d finished bytes after the fetch, want 30", got)
	}
	if d := s.AppendTaskSegment("a", "p0", "m0", 0, 0, make([]byte, 70)); d != SegStale {
		t.Fatalf("a superseded attempt's spill was taken as %v", d)
	}
	if got := s.FinishedBytes(); got != 30 || s.Bytes() != 30 {
		t.Fatalf("after a stale straggler: %d finished, %d resident bytes, want 30 and 30", got, s.Bytes())
	}
	if d := s.AppendTaskSegment("a", "p0", "m0", 2, 0, make([]byte, 50)); d != SegSuperseded {
		t.Fatalf("a newer attempt's spill was taken as %v", d)
	}
	if got := s.FinishedBytes(); got != 0 {
		t.Fatalf("a namespace appended to since its fetch is charged %d bytes", got)
	}
	s.ReadTaggedSegments("a", "p0")
	if got := s.FinishedBytes(); got != 50 || s.Bytes() != 50 {
		t.Fatalf("after the refetch: %d finished, %d resident bytes, want 50 and 50", got, s.Bytes())
	}
}

// TestSegmentBudgetUnboundedByDefault: a store given no budget keeps every
// finished namespace, however many bytes they hold.
func TestSegmentBudgetUnboundedByDefault(t *testing.T) {
	s := NewStore()
	for i := 0; i < 8; i++ {
		ns := string(rune('a' + i))
		s.AppendTaskSegment(ns, "p0", "m0", 0, 0, make([]byte, 1<<16))
		s.ReadTaggedSegments(ns, "p0")
	}
	if _, _, segs := s.Counts(); segs != 8 || s.FinishedBytes() != 8<<16 {
		t.Fatalf("%d segment streams, %d finished bytes, want 8 and %d", segs, s.FinishedBytes(), 8<<16)
	}
}
