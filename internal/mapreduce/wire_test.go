package mapreduce

import (
	"bytes"
	"crypto/sha1"
	"math"
	"testing"
	"time"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
	"eclipsemr/internal/transport/wiretest"
)

// wireTypes is a zero value of every mr.* message, in the order the
// FuzzWireDecode corpus tags them (append only).
var wireTypes = []transport.Wire{
	&RunMapReq{}, &RunMapResp{}, &RunReduceReq{}, &RunReduceResp{},
	&CacheRangeReq{}, &CacheRangeResp{}, &AdoptRangeReq{}, &AdoptRangeResp{},
}

const (
	maxKey  = ^hashing.Key(0)
	notUTF8 = "\xff\xfe\x00bad\x80"
)

// typicalMapReq is the dispatch of one map task of a 4-node job, the
// message BenchmarkWire measures.
func typicalMapReq() *RunMapReq {
	return &RunMapReq{
		Job: "grep-000123", Namespace: "job:grep-000123", App: "grep",
		Params:   Params{"pattern": []byte("needle[0-9]+")},
		BlockKey: 0x9e3779b97f4a7c15, BlockSum: sha1.Sum([]byte("block 7")),
		Task: "grep-000123/m-0007", Attempt: 1,
		ReduceServers:  []hashing.NodeID{"worker-00", "worker-01", "worker-02", "worker-03"},
		ReduceBounds:   []hashing.Key{1 << 62, 1 << 63, 3 << 62, maxKey},
		SpillThreshold: DefaultSpillThreshold, TTL: 10 * time.Minute,
	}
}

// lostAll is every partition of an n-partition table, as a map that lost
// all its owners reports them.
func lostAll(n int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i
	}
	return parts
}

// wireCases covers each message with zero, typical and extreme values.
func wireCases() []transport.Wire {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<17) // 2 MiB
	return []transport.Wire{
		&RunMapReq{},
		typicalMapReq(),
		&RunMapReq{
			Job: notUTF8, Params: Params{"": nil, "empty": {}, notUTF8: big[:100000]},
			BlockKey: maxKey, BlockSum: [sha1.Size]byte(bytes.Repeat([]byte{0xff}, sha1.Size)), Attempt: math.MinInt,
			ReduceServers: []hashing.NodeID{"", notUTF8}, ReduceBounds: []hashing.Key{0, maxKey},
			OnlyPartitions: []int{0, -1, math.MaxInt},
			SpillThreshold: math.MaxInt, TTL: -time.Second,
		},
		&RunMapResp{},
		&RunMapResp{PartBytes: []int64{0, 4096, 0, 12}, Lost: []int{1}, CacheHit: true},
		&RunMapResp{PartBytes: []int64{math.MaxInt64, math.MinInt64}, Lost: []int{}, RemoteRead: true},
		&RunMapResp{PartBytes: make([]int64, 300), Lost: lostAll(300)},
		&RunMapResp{Lost: []int{math.MinInt, -1, 0, math.MaxInt}, CacheHit: true, RemoteRead: true},
		&RunReduceReq{},
		&RunReduceReq{
			Job: "wc-9", Namespace: "tag:shared", App: "wordcount", Params: Params{"k": []byte("3")},
			Partition: 3, SegmentOwner: "worker-03",
			OutputFile: "wc-9/part-0003", OutputBlockSize: 64 << 20,
			CacheOutputs: true, TTL: time.Hour, User: "alice",
		},
		&RunReduceReq{Job: notUTF8, Partition: math.MinInt, SegmentOwner: notUTF8, OutputBlockSize: math.MaxInt, TTL: math.MinInt64, User: notUTF8},
		&RunReduceResp{},
		&RunReduceResp{Keys: 1 << 40, OutputBytes: math.MaxInt64, HasOutput: true},
		&RunReduceResp{Keys: -1, OutputBytes: math.MinInt64},
		&CacheRangeReq{},
		&CacheRangeReq{Start: maxKey, End: 0},
		&CacheRangeResp{},
		&CacheRangeResp{Blocks: []CachedBlock{}},
		&CacheRangeResp{Blocks: []CachedBlock{
			{Key: 1, Check: dhtfs.BlockCheck{CRC: dhtfs.BlockCRC([]byte("a")), Sum: dhtfs.SumBlock([]byte("a"))}, Data: []byte("a")},
			{},
			{Key: maxKey, Check: dhtfs.BlockCheck{CRC: math.MaxUint32}, Data: big},
		}},
		&AdoptRangeReq{},
		&AdoptRangeReq{Start: 5, End: maxKey, Left: "worker-00", Right: notUTF8},
		&AdoptRangeResp{},
		&AdoptRangeResp{Migrated: math.MaxInt},
		&AdoptRangeResp{Migrated: -1},
	}
}

func TestWireCodecs(t *testing.T) { wiretest.CheckAll(t, wireTypes, wireCases()) }

// TestWireHostileCounts: a count larger than the bytes behind it is
// rejected before anything is sized by it.
func TestWireHostileCounts(t *testing.T) {
	huge := transport.AppendUvarint(nil, math.MaxUint64)
	cases := map[string]struct {
		m    transport.Wire
		body []byte
	}{
		"map resp parts": {&RunMapResp{}, huge},
		"map resp lost":  {&RunMapResp{}, append([]byte{0}, huge...)},
		"params":         {&RunMapReq{}, append([]byte{0, 0, 0}, huge...)},
		"cached blocks":  {&CacheRangeResp{}, append(transport.AppendUvarint(nil, 1<<40), make([]byte, 64)...)},
		"owner":          {&RunReduceReq{}, append([]byte{0, 0, 0, 0, 0}, huge...)},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { wiretest.Rejects(t, c.m, c.body) })
	}
}

// FuzzWireDecode parses arbitrary bytes as each mr.* message: never a
// panic, and whatever is accepted round-trips.
func FuzzWireDecode(f *testing.F) { wiretest.Fuzz(f, wireTypes, wireCases()) }

// BenchmarkWire: one map-task dispatch is a RunMapReq and a RunMapResp.
func BenchmarkWire(b *testing.B) {
	b.Run("RunMapReq", func(b *testing.B) { wiretest.Bench(b, typicalMapReq()) })
	b.Run("RunMapResp", func(b *testing.B) {
		wiretest.Bench(b, &RunMapResp{PartBytes: []int64{4096, 0, 12288, 512}, CacheHit: true})
	})
}
