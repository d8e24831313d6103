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
	&segBatchHdr{}, &rawSegsHdr{}, &rawTaggedHdr{}, &routedGetReq{}, &routedGetResp{},
	&Metadata{}, &putFileReq{}, &getFileResp{},
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
	// What travels beside a block: with a digest, and as Store.PutBlock
	// leaves it, without one.
	check := BlockCheck{CRC: BlockCRC([]byte("block")), Sum: sum("block")}
	noSum := BlockCheck{CRC: math.MaxUint32}
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
		&empty{},
		&readSegReq{},
		&readSegReq{Job: "tag:shared", Partition: "p0000"},
		&segBatchHdr{},
		&segBatchHdr{Job: "job:sort", TTL: time.Hour, Entries: []segBatchPart{
			{Partition: "p0000", Task: "m-1", Attempt: 0, Seq: 0, Len: 128},
			{Partition: "p0003", Task: "m-1", Attempt: 1, Seq: 4, Len: 0},
		}},
		&segBatchHdr{TTL: math.MinInt64, Entries: []segBatchPart{{}, {Partition: notUTF8, Attempt: -1, Seq: math.MaxInt, Len: math.MinInt}}},
		&rawSegsHdr{},
		&rawSegsHdr{Lens: []int{}},
		&rawSegsHdr{Lens: []int{0, 1, 300, math.MaxInt, -5}},
		&rawTaggedHdr{},
		&rawTaggedHdr{Tags: []rawTaggedPart{{Task: "m-2", Attempt: 1, Seq: 2, Len: 77}, {}}},
		&routedGetReq{},
		&routedGetReq{Key: maxKey, Hops: maxRouteHops},
		&routedGetResp{},
		&routedGetResp{Data: []byte("blk"), Check: check, Hops: 3},
		&routedGetResp{Data: []byte{}, Check: noSum, Hops: maxRouteHops},
		&Metadata{},
		&Metadata{
			Name: "corpus.txt", Owner: "alice", Perm: PermPublic, Size: 1 << 40, BlockSize: 64 << 20,
			BlockKeys: []hashing.Key{0, 7, maxKey}, BlockSums: [][sha1.Size]byte{sum("a"), sum("b"), sum("c")},
			Created: time.Date(2017, 9, 5, 12, 30, 0, 123456789, time.UTC),
		},
		&Metadata{
			Name: notUTF8, Perm: 255, Size: -1, BlockSize: math.MinInt,
			BlockKeys: []hashing.Key{}, BlockSums: [][sha1.Size]byte{{}},
			Created: time.Date(-9, 1, 1, 0, 0, 0, 0, time.FixedZone("odd", -(7*3600+1800))),
		},
		&putFileReq{},
		&putFileReq{Meta: small, Check: check, Data: []byte("block")},
		&putFileReq{Meta: Metadata{Name: notUTF8, BlockKeys: []hashing.Key{0, maxKey}, BlockSums: [][sha1.Size]byte{{}, sum("b")}}},
		&putFileReq{Meta: small, Check: noSum, Data: big},
		&getFileResp{},
		&getFileResp{Meta: small, HasData: true, Check: check, Data: []byte("block")},
		&getFileResp{Meta: small, HasData: true, Check: noSum, Data: []byte{}},
		&getFileResp{Meta: Metadata{Name: "corpus.txt", BlockKeys: []hashing.Key{1, 2, 3}}},
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

// TestWireHostileCounts: a count or length larger than the bytes behind
// it is rejected before anything is sized by it.
func TestWireHostileCounts(t *testing.T) {
	huge := transport.AppendUvarint(nil, math.MaxUint64)
	check := slices.Clip(AppendBlockCheck(nil, BlockCheck{})) // what sits before a block's length
	cases := map[string]struct {
		m    transport.Wire
		body []byte
	}{
		"listMeta names":  {&listMetaResp{}, huge},
		"rawSegs lens":    {&rawSegsHdr{}, append(transport.AppendUvarint(nil, 1<<40), 0)},
		"getBlock data":   {&getBlockResp{}, append(transport.AppendUvarint(check, 1<<62), 'x')},
		"putBlock data":   {&putBlockReq{}, append(transport.AppendUvarint(append(make([]byte, 8), check...), 1<<62), 'x')},
		"batch entries":   {&segBatchHdr{}, append([]byte{0, 0}, huge...)},
		"metadata keys":   {&Metadata{}, append([]byte{0, 0, 0, 0, 0}, huge...)},
		"putFile keys":    {&putFileReq{}, append([]byte{0, 0, 0, 0, 0}, huge...)},
		"putFile data":    {&putFileReq{}, append(Metadata{}.AppendWire(nil), append(transport.AppendUvarint(check, 1<<62), 'x')...)},
		"getFile data":    {&getFileResp{}, append(Metadata{}.AppendWire(nil), append(append([]byte{1}, check...), huge...)...)},
		"routedGet data":  {&routedGetResp{}, append(transport.AppendUvarint(nil, 1<<62), 'x')},
		"tagged tags":     {&rawTaggedHdr{}, transport.AppendUvarint(nil, 1<<33)},
		"overlong varint": {&rawSegsHdr{}, bytes.Repeat([]byte{0xff}, 11)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { wiretest.Rejects(t, c.m, c.body) })
	}
}

// TestWireDataAliasesBodyAndStoreCopies pins the ownership rule of the
// zero-copy decode: Data is a view of the received body, the store copies
// what it keeps, and nothing writes through the view.
func TestWireDataAliasesBodyAndStoreCopies(t *testing.T) {
	payload := bytes.Repeat([]byte("payload-"), 512)
	body, err := transport.Encode(putBlockReq{Key: 9, Data: payload})
	if err != nil {
		t.Fatal(err)
	}
	pristine := bytes.Clone(body)
	var req putBlockReq
	if err := transport.Decode(body, &req); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(req.Data, payload) {
		t.Fatal("decoded Data differs from what was encoded")
	}
	if &req.Data[0] != &body[len(body)-len(payload)] {
		t.Fatal("decoded Data is a copy, not a view of the body")
	}
	if cap(req.Data) != len(req.Data) {
		t.Fatalf("decoded Data has spare capacity %d: an append would write into the body", cap(req.Data)-len(req.Data))
	}

	disk, err := NewStoreAt(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, store := range map[string]*Store{"memory": NewStore(), "disk": disk} {
		if err := store.PutBlock(req.Key, req.Data); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		store.AppendTaskSegment("job", "p0", "m-1", 0, 0, req.Data, 0)
		store.AppendTaskSegment("job", "p0", "m-1", 1, 0, req.Data, 0) // supersede path
		if !bytes.Equal(body, pristine) {
			t.Fatalf("%s: the store wrote through the decoded view", name)
		}
		// The body's owner may recycle it: what the store kept must not move.
		for i := range body {
			body[i] ^= 0xff
		}
		got, err := store.GetBlock(req.Key)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%s: stored block changed with the request body (err %v)", name, err)
		}
		if segs := store.ReadSegments("job", "p0"); len(segs) != 1 || !bytes.Equal(segs[0], payload) {
			t.Fatalf("%s: stored segment changed with the request body", name)
		}
		copy(body, pristine)
	}
}

// TestSelfCallSharesNoMemory: a call to this node itself skips the codec,
// so serve must give the isolation the codec used to: metadata kept by
// the store and metadata held by callers never share slices.
func TestSelfCallSharesNoMemory(t *testing.T) {
	tc := newTestCluster(t, 1, 1)
	svc := tc.services[tc.ids[0]]
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
