package dhtfs

import (
	"bytes"
	"context"
	"crypto/sha1"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
	"eclipsemr/internal/transport/wiretest"
)

// wireTypes is a zero value of every fs.* message, in the order the
// FuzzWireDecode corpus tags them (append only).
var wireTypes = []transport.Wire{
	&putBlockReq{}, &getBlockReq{}, &getBlockResp{}, &hasResp{}, &getMetaReq{},
	&nameReq{}, &listMetaResp{}, &empty{}, &readSegReq{},
	&segBatchHdr{}, &rawTaggedHdr{}, &Metadata{}, &putFileReq{}, &getFileResp{},
}

const maxKey = ^hashing.Key(0)

// notUTF8 is a string no text encoding would produce.
const notUTF8 = "\xff\xfe\x00bad\x80"

// wireCases covers each message with zero, typical and extreme values.
func wireCases() []transport.Wire {
	big := bytes.Repeat([]byte("0123456789abcdef"), 3<<16) // 3 MiB
	sum := func(s string) [sha1.Size]byte { return sha1.Sum([]byte(s)) }
	small := Metadata{
		Name: "out/part-0003", Owner: "alice", Perm: PermPublic, Size: 5, BlockSize: 1 << 20,
		BlockKeys: []hashing.Key{hashing.KeyOfString("out/part-0003")}, BlockSums: [][sha1.Size]byte{sum("block")},
		Created: time.Date(2017, 9, 5, 12, 30, 0, 0, time.UTC),
	}
	// What travels beside a block, and the extremes the codec carries
	// whether or not a replica would store them.
	check := BlockCheck{CRC: BlockCRC([]byte("block")), Sum: sum("block")}
	noSum := BlockCheck{CRC: math.MaxUint32}
	// A reduce reading a partition every map task of a large job spilled to.
	manyTags := make([]rawTaggedPart, 300)
	for i := range manyTags {
		manyTags[i] = rawTaggedPart{Task: fmt.Sprintf("m-%d", i/2), Attempt: i % 3, Seq: i % 2, Len: 1 << 12}
	}
	// The same job's batch push of one spill to each of 128 partitions.
	manyParts := make([]segBatchPart, 128)
	for i := range manyParts {
		manyParts[i] = segBatchPart{Partition: fmt.Sprintf("p%04d", i), Task: "m-7", Attempt: 2, Seq: i % 4, Len: 1 << 10}
	}
	// A listing of a job's output directory, and the metadata of a
	// 64-block file.
	listing := make([]string, 256)
	for i := range listing {
		listing[i] = fmt.Sprintf("out/part-%04d", i)
	}
	wide := Metadata{Name: "corpus/part-0007", Owner: "alice", Perm: PermPublic, Size: 64 << 20, BlockSize: 1 << 20}
	for i := 0; i < 64; i++ {
		wide.BlockKeys = append(wide.BlockKeys, hashing.BlockKey(wide.Name, i))
		wide.BlockSums = append(wide.BlockSums, sum(fmt.Sprint(i)))
	}
	return []transport.Wire{
		&putBlockReq{},
		&putBlockReq{Key: 42, Check: check, Data: []byte("block")},
		&putBlockReq{Key: maxKey, Check: noSum, Data: []byte{}},
		&putBlockReq{Key: 1 << 63, Check: check, Data: big},
		&getBlockReq{},
		&getBlockReq{Key: maxKey},
		&getBlockResp{},
		&getBlockResp{Check: noSum, Data: []byte{0}},
		&getBlockResp{Check: check, Data: big},
		&hasResp{},
		&hasResp{Has: true},
		&getMetaReq{},
		&getMetaReq{Name: "corpus.txt", User: "alice"},
		&getMetaReq{Name: notUTF8, User: string(big[:70000])},
		&nameReq{},
		&nameReq{Name: "job:wc-1"},
		&nameReq{Name: notUTF8},
		&listMetaResp{},
		&listMetaResp{Names: []string{}},
		&listMetaResp{Names: []string{"a", "", notUTF8, "out/part-0003"}},
		&listMetaResp{Names: listing},
		&empty{},
		&readSegReq{},
		&readSegReq{Job: "tag:shared", Partition: "p0000"},
		&readSegReq{Job: notUTF8, Partition: string(big[:4096])},
		&segBatchHdr{},
		&segBatchHdr{Job: "job:sort", TTL: time.Hour, Entries: []segBatchPart{
			{Partition: "p0000", Task: "m-1", Attempt: 0, Seq: 0, Len: 128},
			{Partition: "p0003", Task: "m-1", Attempt: 1, Seq: 4, Len: 0},
		}},
		&segBatchHdr{TTL: math.MinInt64, Entries: []segBatchPart{{}, {Partition: notUTF8, Attempt: -1, Seq: math.MaxInt, Len: math.MinInt}}},
		&segBatchHdr{Job: "job:sort", TTL: math.MaxInt64, Entries: manyParts},
		&rawTaggedHdr{},
		&rawTaggedHdr{Tags: []rawTaggedPart{{Task: "m-2", Attempt: 1, Seq: 2, Len: 77}, {}}},
		&rawTaggedHdr{Tags: []rawTaggedPart{{Task: notUTF8, Attempt: -1, Seq: math.MaxInt, Len: math.MinInt}}},
		&rawTaggedHdr{Tags: manyTags},
		&Metadata{},
		&Metadata{
			Name: "corpus.txt", Owner: "alice", Perm: PermPublic, Size: 3 << 26, BlockSize: 64 << 20,
			BlockKeys: []hashing.Key{0, 7, maxKey}, BlockSums: [][sha1.Size]byte{sum("a"), sum("b"), sum("c")},
			Created: time.Date(2017, 9, 5, 12, 30, 0, 123456789, time.UTC),
		},
		&Metadata{
			Name: notUTF8, Perm: 255, BlockSize: math.MinInt,
			BlockKeys: []hashing.Key{}, BlockSums: [][sha1.Size]byte{},
			Created: time.Date(-9, 1, 1, 0, 0, 0, 0, time.FixedZone("odd", -(7*3600+1800))),
		},
		// Every key has its digest, whatever the digest holds.
		&Metadata{Name: "zeros", BlockSize: 1, BlockKeys: []hashing.Key{maxKey, 0}, BlockSums: [][sha1.Size]byte{{}, sum("z")}},
		&wide,
		// Blocks whose total size overflows an int64 hold any size.
		&Metadata{Name: "vast", Size: 10, BlockSize: 1 << 62, BlockKeys: []hashing.Key{1, 2, 3, 4}, BlockSums: make([][sha1.Size]byte, 4)},
		&putFileReq{},
		&putFileReq{Meta: small, Check: check, Data: []byte("block")},
		&putFileReq{Meta: Metadata{Name: notUTF8, BlockSize: 1, BlockKeys: []hashing.Key{0, maxKey}, BlockSums: [][sha1.Size]byte{{}, sum("b")}}},
		&putFileReq{Meta: small, Check: noSum, Data: big},
		&getFileResp{},
		&getFileResp{Meta: small, HasData: true, Check: check, Data: []byte("block")},
		&getFileResp{Meta: small, HasData: true, Check: noSum, Data: []byte{}},
		&getFileResp{Meta: Metadata{Name: "corpus.txt", BlockSize: 1 << 20, BlockKeys: []hashing.Key{1, 2, 3}, BlockSums: make([][sha1.Size]byte, 3)}},
		&getFileResp{Meta: small, HasData: true, Check: check, Data: big},
	}
}

func TestWireCodecs(t *testing.T) { wiretest.CheckAll(t, wireTypes, wireCases()) }

// TestWireMetadataLocalTime: a timestamp taken from the wall clock keeps
// its instant and zone across the wire (the monotonic reading does not
// travel, exactly as under gob).
func TestWireMetadataLocalTime(t *testing.T) {
	wiretest.Check(t, &Metadata{Name: "now", Created: time.Now().Round(0)})
}

// metaSized is a file's metadata with the given size, block size and
// number of blocks.
func metaSized(size int64, blockSize, blocks int) Metadata {
	m := Metadata{Name: "sized", Size: size, BlockSize: blockSize, BlockSums: make([][sha1.Size]byte, blocks)}
	for i := 0; i < blocks; i++ {
		m.BlockKeys = append(m.BlockKeys, hashing.BlockKey(m.Name, i))
	}
	return m
}

// TestWireHostileCounts: a count or length larger than the bytes behind
// it is rejected before anything is sized by it, and so is metadata whose
// digests and blocks differ in number (a reader indexes one by the other)
// or whose size its blocks cannot hold.
func TestWireHostileCounts(t *testing.T) {
	huge := transport.AppendUvarint(nil, math.MaxUint64)
	check := slices.Clip(AppendBlockCheck(nil, BlockCheck{})) // what sits before a block's length
	digestShort := Metadata{Name: "short", BlockKeys: []hashing.Key{1, 2}, BlockSums: make([][sha1.Size]byte, 1)}
	blockShort := Metadata{Name: "long", BlockKeys: []hashing.Key{1}, BlockSums: make([][sha1.Size]byte, 2)}
	// Sizes no upload writes: ReadFile sizes its result by them.
	negSize, overSize, noBlocks, zeroBlockSize, vastSize := metaSized(-5, 4, 1), metaSized(9, 4, 2), metaSized(1, 4, 0), metaSized(0, 0, 1), metaSized(math.MaxInt64, 1<<62, 1)
	cases := map[string]struct {
		m    transport.Wire
		body []byte
	}{
		"listMeta names":  {&listMetaResp{}, huge},
		"listMeta name":   {&listMetaResp{}, append([]byte{1}, huge...)},
		"getMeta name":    {&getMetaReq{}, huge},
		"getMeta user":    {&getMetaReq{}, append([]byte{0}, huge...)},
		"name":            {&nameReq{}, huge},
		"readSeg job":     {&readSegReq{}, huge},
		"readSeg part":    {&readSegReq{}, append([]byte{0}, huge...)},
		"getBlock data":   {&getBlockResp{}, append(transport.AppendUvarint(check, 1<<62), 'x')},
		"putBlock data":   {&putBlockReq{}, append(transport.AppendUvarint(append(make([]byte, 8), check...), 1<<62), 'x')},
		"batch job":       {&segBatchHdr{}, huge},
		"batch entries":   {&segBatchHdr{}, append([]byte{0, 0}, huge...)},
		"batch partition": {&segBatchHdr{}, append([]byte{0, 0, 1}, huge...)},
		"metadata name":   {&Metadata{}, huge},
		"metadata keys":   {&Metadata{}, append([]byte{0, 0, 0, 0, 0}, huge...)},
		"metadata sums":   {&Metadata{}, append([]byte{0, 0, 0, 0, 0, 0}, huge...)},
		"metadata time":   {&Metadata{}, append([]byte{0, 0, 0, 0, 0, 0, 0}, huge...)},
		"putFile keys":    {&putFileReq{}, append([]byte{0, 0, 0, 0, 0}, huge...)},
		"putFile data":    {&putFileReq{}, append(Metadata{}.AppendWire(nil), append(transport.AppendUvarint(check, 1<<62), 'x')...)},
		"getFile data":    {&getFileResp{}, append(Metadata{}.AppendWire(nil), append(append([]byte{1}, check...), huge...)...)},
		"tagged tags":     {&rawTaggedHdr{}, transport.AppendUvarint(nil, 1<<33)},
		"tagged task":     {&rawTaggedHdr{}, append([]byte{1}, huge...)},
		"overlong varint": {&rawTaggedHdr{}, bytes.Repeat([]byte{0xff}, 11)},
		"sums < keys":     {&Metadata{}, digestShort.AppendWire(nil)},
		"sums > keys":     {&Metadata{}, blockShort.AppendWire(nil)},
		"putFile sums":    {&putFileReq{}, putFileReq{Meta: digestShort}.AppendWire(nil)},
		"getFile sums":    {&getFileResp{}, getFileResp{Meta: blockShort}.AppendWire(nil)},
		"negative size":   {&Metadata{}, negSize.AppendWire(nil)},
		"size > blocks":   {&Metadata{}, overSize.AppendWire(nil)},
		"size, no blocks": {&Metadata{}, noBlocks.AppendWire(nil)},
		"zero block size": {&Metadata{}, zeroBlockSize.AppendWire(nil)},
		"vast size":       {&Metadata{}, vastSize.AppendWire(nil)},
		"putFile size":    {&putFileReq{}, putFileReq{Meta: overSize}.AppendWire(nil)},
		"getFile size":    {&getFileResp{}, getFileResp{Meta: negSize}.AppendWire(nil)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { wiretest.Rejects(t, c.m, c.body) })
	}
}

// TestWireDataAliasesBodyAndStoreKeepsIt pins the ownership rule of the
// zero-copy decode (DESIGN.md §12): Data is a view of the received body,
// which is its receiver's to give. A memory store keeps a block and a
// spill as the body's own bytes, a disk store writes the block out, and
// nothing writes through the view.
func TestWireDataAliasesBodyAndStoreKeepsIt(t *testing.T) {
	payload := bytes.Repeat([]byte("payload-"), 512)
	check := BlockCheck{CRC: BlockCRC(payload), Sum: SumBlock(payload)}
	block, err := transport.Encode(putBlockReq{Key: 9, Check: check, Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	var req putBlockReq
	if err := transport.Decode(block, &req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req.Data, payload) {
		t.Fatal("decoded Data differs from what was encoded")
	}
	if &req.Data[0] != &block[len(block)-len(payload)] {
		t.Fatal("decoded Data is a copy, not a view of the body")
	}
	if cap(req.Data) != len(req.Data) {
		t.Fatalf("decoded Data has spare capacity %d: an append would write into the body", cap(req.Data)-len(req.Data))
	}
	spill, err := transport.EncodeFrame(segBatchHdr{Job: "job", Entries: []segBatchPart{{Partition: "p0", Task: "m-1", Len: len(payload)}}}, payload)
	if err != nil {
		t.Fatal(err)
	}

	for _, disk := range []bool{false, true} {
		name := map[bool]string{false: "memory", true: "disk"}[disk]
		tc, _ := integrityCluster(t, 1, 1, disk)
		svc := tc.any()
		// Each store is handed bodies of its own, as a transport hands them.
		bodies := map[string][]byte{MethodPutBlock: bytes.Clone(block), MethodAppendSegBatch: bytes.Clone(spill)}
		for method, body := range bodies {
			if _, _, err := svc.Handle(context.Background(), method, body); err != nil {
				t.Fatalf("%s: %s: %v", name, method, err)
			}
		}
		buf, _, err := svc.Store().pin(9)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		stored := buf.Bytes()
		segs := svc.Store().ReadTaggedSegments("job", "p0")
		if !bytes.Equal(bodies[MethodPutBlock], block) || !bytes.Equal(bodies[MethodAppendSegBatch], spill) {
			t.Fatalf("%s: the store wrote through the decoded view", name)
		}
		body := bodies[MethodPutBlock]
		if aliased := &stored[0] == &body[len(body)-len(payload)]; aliased == disk {
			t.Fatalf("%s: the stored block aliases the body = %v, want %v", name, aliased, !disk)
		}
		body = bodies[MethodAppendSegBatch]
		if len(segs) != 1 || &segs[0].Data[0] != &body[len(body)-len(payload)] || cap(segs[0].Data) != len(payload) {
			t.Fatalf("%s: the stored spill is not the body's own bytes, capacity clipped", name)
		}
		buf.Release()
		if disk {
			// A block written out does not move with the body it came in.
			clear(bodies[MethodPutBlock])
			if got, err := svc.Store().GetBlock(9); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("disk: stored block changed with the request body (err %v)", err)
			}
		}
	}
}

// TestSelfCallSharesNoMemory: a call to this node itself skips the codec,
// so serve must give the isolation the codec used to: metadata kept by
// the store and metadata held by callers never share slices, and a batch
// push to this node stores its own copy of the spills, whose buffers the
// caller recycles once the push returns.
func TestSelfCallSharesNoMemory(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(map[bool]string{false: "memory", true: "disk"}[disk], func(t *testing.T) {
			tc, _ := integrityCluster(t, 1, 1, disk)
			svc := tc.any()
			ctx := context.Background()
			meta, err := svc.Upload(ctx, "f", "u", PermPublic, []byte("0123456789"), 4)
			if err != nil {
				t.Fatal(err)
			}
			wantKey, wantSum := meta.BlockKeys[0], meta.BlockSums[0]
			meta.BlockKeys[0], meta.BlockSums[0] = 0, [sha1.Size]byte{}
			got, err := svc.Lookup(ctx, "f", "u")
			if err != nil {
				t.Fatal(err)
			}
			if got.BlockKeys[0] != wantKey || got.BlockSums[0] != wantSum {
				t.Fatal("mutating Upload's result changed the stored metadata")
			}
			got.BlockKeys[0] = 0
			if again, _ := svc.Lookup(ctx, "f", "u"); again.BlockKeys[0] != wantKey {
				t.Fatal("mutating Lookup's result changed the stored metadata")
			}

			entries := []SegBatchEntry{
				{Partition: "p0", Tag: SegTag{Task: "m-0"}, Data: []byte("spill-zero")},
				{Partition: "p0", Tag: SegTag{Task: "m-0", Seq: 1}, Data: []byte("spill-one")},
			}
			if err := svc.PushTaggedSegmentBatch(ctx, tc.ids[0], "job", entries, 0); err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				clear(e.Data)
			}
			segs := svc.Store().ReadTaggedSegments("job", "p0")
			if len(segs) != 2 || string(segs[0].Data) != "spill-zero" || string(segs[1].Data) != "spill-one" {
				t.Fatalf("scribbling on pushed entries changed the stored spills: %q", segs)
			}
		})
	}
}

// TestReadFileRefusesImpossibleSize: a replica that answers with metadata
// whose size its blocks cannot hold makes ReadFile fail, not panic sizing
// its result.
func TestReadFileRefusesImpossibleSize(t *testing.T) {
	for name, meta := range map[string]Metadata{
		"negative": {Name: "f", Size: -5},
		"oversize": {Name: "f", Size: 10, BlockSize: 4, BlockKeys: []hashing.Key{1}, BlockSums: make([][sha1.Size]byte, 1)},
	} {
		t.Run(name, func(t *testing.T) {
			tc := newTestCluster(t, 2, 2)
			liar := tc.ids[1]
			tc.net.Unlisten(liar)
			err := tc.net.Listen(liar, func(context.Context, string, []byte) ([]byte, error) {
				return getFileResp{Meta: meta}.AppendWire(nil), nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tc.services[tc.ids[0]].ReadFile(context.Background(), "f", "u"); err == nil {
				t.Fatal("metadata with an impossible size was read")
			}
		})
	}
}

// FuzzWireDecode parses arbitrary bytes as each fs.* message: never a
// panic, and whatever is accepted round-trips.
func FuzzWireDecode(f *testing.F) { wiretest.Fuzz(f, wireTypes, wireCases()) }

// BenchmarkWire: a replicated block write, a file's metadata (64 blocks)
// and the header of an 8-spill batch push.
func BenchmarkWire(b *testing.B) {
	b.Run("PutBlock256K", func(b *testing.B) {
		wiretest.Bench(b, &putBlockReq{Key: 0x9e3779b97f4a7c15, Data: make([]byte, 256<<10)})
	})
	// The encode alone: one allocation of the message's size, written once
	// (about 270 KB/op; a pre-sized dst costs the same bytes and a clear).
	b.Run("PutBlock256K/encode", func(b *testing.B) {
		req := &putBlockReq{Key: 0x9e3779b97f4a7c15, Data: make([]byte, 256<<10)}
		b.ReportAllocs()
		b.SetBytes(int64(len(req.Data)))
		for i := 0; i < b.N; i++ {
			enc, err := transport.Encode(req)
			if err != nil || len(enc) < len(req.Data) {
				b.Fatal(len(enc), err)
			}
		}
	})
	b.Run("Metadata", func(b *testing.B) {
		meta := &Metadata{Name: "corpus/part-0007", Owner: "bench", Perm: PermPublic, Size: 64 << 20, BlockSize: 1 << 20, Created: time.Now().Round(0)}
		for i := 0; i < 64; i++ {
			meta.BlockKeys = append(meta.BlockKeys, hashing.BlockKey(meta.Name, i))
			meta.BlockSums = append(meta.BlockSums, sha1.Sum([]byte{byte(i)}))
		}
		wiretest.Bench(b, meta)
	})
	b.Run("SegBatchHdr", func(b *testing.B) {
		hdr := &segBatchHdr{Job: "job:sort-000042", TTL: 10 * time.Minute}
		for i := 0; i < 8; i++ {
			hdr.Entries = append(hdr.Entries, segBatchPart{
				Partition: fmt.Sprintf("p%04d", i), Task: "sort-000042/m-0003", Attempt: 0, Seq: i, Len: 32 << 10,
			})
		}
		wiretest.Bench(b, hdr)
	})
}
