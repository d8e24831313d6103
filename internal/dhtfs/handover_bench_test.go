package dhtfs

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkUploadHandOver writes a 16-block file into a 4-node in-process
// cluster of memory shards, 3 replicas, from one of its nodes. B/op is
// what a write allocates: the encoded request bound for the remote
// replicas and the copy the in-process network makes of it. A memory shard
// keeps the bytes it is handed (DESIGN.md §12), so the uploader's own
// replica adds nothing; one more copy of the file per op means a store
// copies what it keeps again.
func BenchmarkUploadHandOver(b *testing.B) {
	tc := newTestCluster(b, 4, 3)
	svc := tc.services[tc.ids[0]]
	const blockSize = 64 << 10
	data := randomData(16*blockSize, 11)
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Upload(ctx, "handed.dat", "u", PermPublic, data, blockSize); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSegmentAppendRead is one batch push of 8 spills of 32 KiB to a
// remote node, that node's reduce read of them and the job's drop. B/op is
// the frame and the in-process network's copy of it: the holder keeps the
// spills as views of the body it received and its own read returns them in
// place. A store that copies a spill on append or on read adds the batch
// once more per copy.
func BenchmarkSegmentAppendRead(b *testing.B) {
	tc := newTestCluster(b, 2, 1)
	from, to := tc.services[tc.ids[0]], tc.services[tc.ids[1]]
	entries := make([]SegBatchEntry, 8)
	size := 0
	for i := range entries {
		entries[i] = SegBatchEntry{Partition: "p0000", Tag: SegTag{Task: "m-0", Seq: i}, Data: randomData(32<<10, int64(i))}
		size += len(entries[i].Data)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := fmt.Sprintf("job:%d", i)
		if err := from.PushTaggedSegmentBatch(ctx, tc.ids[1], job, entries, 0); err != nil {
			b.Fatal(err)
		}
		segs, err := to.FetchTaggedSegments(ctx, tc.ids[1], job, "p0000")
		if err != nil || len(segs) != len(entries) {
			b.Fatalf("read %d spills, %v", len(segs), err)
		}
		to.Store().DropJobSegments(job)
	}
}
