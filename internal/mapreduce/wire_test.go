package mapreduce

import (
	"bytes"
	"fmt"
	"math"
	"testing"

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
	&journal{}, &marker{},
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
		BlockKey: 0x9e3779b97f4a7c15, BlockSum: hashing.BlockDigest([]byte("block 7")),
		Task: "grep-000123/m-0007", Attempt: 1,
		ReduceServers:  []hashing.NodeID{"worker-00", "worker-01", "worker-02", "worker-03"},
		ReduceBounds:   []hashing.Key{1 << 62, 1 << 63, 3 << 62, maxKey},
		SpillThreshold: DefaultSpillThreshold,
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

// typicalGroupReduceReq is the reduce task of a small 4-node job: its
// four partitions, reduced together into the first one's file.
func typicalGroupReduceReq() *RunReduceReq {
	return &RunReduceReq{
		Job: "grep-000123", Namespace: "job:grep-000123", App: "grep",
		Params: Params{"pattern": []byte("needle[0-9]+")},
		Parts: []ReducePart{
			{Partition: 0, Holder: "worker-00", Bytes: 4096}, {Partition: 1, Holder: "worker-01", Bytes: 64},
			{Partition: 2, Holder: "worker-02", Bytes: 12288}, {Partition: 3, Holder: "worker-03", Bytes: 512},
		},
		OutputFile: "grep-000123.out.p0000", User: "alice",
	}
}

// typicalMarker is the published partition table of a 4-node job.
func typicalMarker() *marker {
	return &marker{
		Servers:     []hashing.NodeID{"worker-00", "worker-01", "worker-02", "worker-03"},
		Bounds:      []hashing.Key{1 << 62, 1 << 63, 3 << 62, maxKey},
		PartBytes:   []int64{4096, 0, 12288, 512},
		Partitioner: partitionerID,
		Namespace:   "job:grep-000123",
		Sig:         hashing.BlockDigest([]byte("grep over logs/a and logs/b")),
	}
}

// typicalJournal is the journal of a 4-map job in its reduce phase.
func typicalJournal() *journal {
	j := &journal{
		Spec: JobSpec{
			ID: "grep-000123", App: "grep", Inputs: []string{"logs/a", "logs/b"}, User: "alice",
			Params: Params{"pattern": []byte("needle[0-9]+"), "flags": {}}, ReuseTag: "logs",
			MaxAttempts: 5,
		},
		Phase: phaseReduce, Generation: 1, Mk: *typicalMarker(),
		MapsDone: map[string]bool{}, Attempts: map[string]int{},
		PartsDone: map[int]string{0: "grep-000123.out.p0000", 1: ""},
		Lost:      map[int]bool{},
	}
	for i := 0; i < 4; i++ {
		task := fmt.Sprintf("grep-000123/m/logs/a/%d", i)
		j.MapsDone[task], j.Attempts[task] = true, attemptStride+i%2
	}
	return j
}

// bigJournal is a 4 000-map job over 64 partitions with binary params
// and two partitions lost.
func bigJournal() *journal {
	centroids := make([]byte, 4096)
	for i := range centroids {
		centroids[i] = byte(i * 7)
	}
	j := &journal{
		Spec:  JobSpec{ID: "kmeans-7", App: "kmeans", Inputs: []string{"points"}, Params: Params{"centroids": centroids, "k": {0, 0xff}}},
		Phase: phaseMap, MapsDone: map[string]bool{}, Attempts: map[string]int{}, Lost: map[int]bool{5: true, 63: true},
	}
	for p := 0; p < 64; p++ {
		j.Mk.Servers = append(j.Mk.Servers, hashing.NodeID(fmt.Sprintf("worker-%02d", p%16)))
		j.Mk.Bounds = append(j.Mk.Bounds, hashing.Key(p+1)<<58-1)
		j.Mk.PartBytes = append(j.Mk.PartBytes, int64(p)<<20)
	}
	for i := 0; i < 4000; i++ {
		task := fmt.Sprintf("kmeans-7/m/points/%d", i)
		j.MapsDone[task], j.Attempts[task] = true, i%3
	}
	return j
}

// wireCases covers each message with zero, typical and extreme values.
func wireCases() []transport.Wire {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<17) // 2 MiB
	return []transport.Wire{
		&RunMapReq{},
		typicalMapReq(),
		&RunMapReq{
			Job: notUTF8, Params: Params{"": nil, "empty": {}, notUTF8: big[:100000]},
			BlockKey: maxKey, BlockSum: hashing.Digest(bytes.Repeat([]byte{0xff}, hashing.DigestSize)), Attempt: math.MinInt,
			ReduceServers: []hashing.NodeID{"", notUTF8}, ReduceBounds: []hashing.Key{0, maxKey},
			OnlyPartitions: []int{0, -1, math.MaxInt},
			SpillThreshold: math.MaxInt,
		},
		&RunMapResp{},
		&RunMapResp{PartBytes: []int64{0, 4096, 0, 12}, Lost: []int{1}, CacheHit: true},
		&RunMapResp{PartBytes: []int64{math.MaxInt64, math.MinInt64}, Lost: []int{}, RemoteRead: true},
		&RunMapResp{PartBytes: make([]int64, 300), Lost: lostAll(300)},
		&RunMapResp{Lost: []int{math.MinInt, -1, 0, math.MaxInt}, CacheHit: true, RemoteRead: true},
		&RunReduceReq{},
		&RunReduceReq{
			Job: "wc-9", Namespace: "job:wc-7", App: "wordcount", Params: Params{"k": []byte("3")},
			Parts:      []ReducePart{{Partition: 3, Holder: "worker-03", Bytes: 12288}},
			OutputFile: "wc-9/part-0003", User: "alice",
		},
		&RunReduceReq{Job: notUTF8, Parts: []ReducePart{{Partition: math.MinInt, Holder: notUTF8, Bytes: math.MinInt64}, {Bytes: math.MaxInt64}}, User: notUTF8},
		&RunReduceResp{},
		&RunReduceResp{Keys: 1 << 40, OutputBytes: math.MaxInt64, HasOutput: true},
		&RunReduceResp{Keys: -1, OutputBytes: math.MinInt64},
		&CacheRangeReq{},
		&CacheRangeReq{Start: maxKey, End: 0},
		&CacheRangeResp{},
		&CacheRangeResp{Blocks: []CachedBlock{}},
		&CacheRangeResp{Blocks: []CachedBlock{
			{Key: 1, Check: dhtfs.BlockCheck{CRC: dhtfs.BlockCRC([]byte("a")), Sum: hashing.BlockDigest([]byte("a"))}, Data: []byte("a")},
			{},
			{Key: maxKey, Check: dhtfs.BlockCheck{CRC: math.MaxUint32}, Data: big},
		}},
		&AdoptRangeReq{},
		&AdoptRangeReq{Start: 5, End: maxKey, Left: "worker-00", Right: notUTF8},
		&AdoptRangeResp{},
		&AdoptRangeResp{Migrated: math.MaxInt},
		&AdoptRangeResp{Migrated: -1},
		&journal{},
		typicalJournal(),
		bigJournal(),
		&journal{
			Spec: JobSpec{ID: notUTF8, Inputs: []string{""}, Params: Params{notUTF8: {0}}, SpillThreshold: math.MinInt,
				MaxAttempts: math.MaxInt, DisableJournal: true},
			Generation: math.MaxInt, PartsDone: map[int]string{math.MinInt: notUTF8, math.MaxInt: ""},
			Lost: map[int]bool{-1: true, 0: false},
		},
		&marker{},
		&marker{Servers: []hashing.NodeID{""}, Bounds: []hashing.Key{maxKey}, PartBytes: []int64{math.MinInt64},
			Partitioner: math.MinInt, Namespace: notUTF8, Sig: hashing.Digest(bytes.Repeat([]byte{0xff}, hashing.DigestSize))},
		typicalMarker(),
		typicalGroupReduceReq(),
		&RunReduceReq{Parts: []ReducePart{}},
		&RunReduceResp{Unreached: []int{0, 2, math.MaxInt, math.MinInt}},
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
		// A reduce request's partition list: its count, the bytes behind a
		// count of pairs, a holder's name.
		"reduce parts":       {&RunReduceReq{}, append([]byte{0, 0, 0, 0}, huge...)},
		"reduce parts bytes": {&RunReduceReq{}, append(transport.AppendUvarint([]byte{0, 0, 0, 0}, 1<<40), make([]byte, 64)...)},
		"owner":              {&RunReduceReq{}, append([]byte{0, 0, 0, 0, 1, 0}, huge...)},
		"unreached":          {&RunReduceResp{}, append([]byte{0, 0, 0}, huge...)},
	}
	// A journal's or marker's count is found where its encoding first
	// differs from the empty value's once the field holds one element.
	at := func(zero, one transport.Wire) []byte {
		z, o := zero.AppendWire(nil), one.AppendWire(nil)
		i := 0
		for i < len(z) && z[i] == o[i] {
			i++
		}
		return append(z[:i:i], huge...)
	}
	for name, one := range map[string]transport.Wire{
		"journal inputs":     &journal{Spec: JobSpec{Inputs: []string{""}}},
		"journal params":     &journal{Spec: JobSpec{Params: Params{"": nil}}},
		"journal servers":    &journal{Mk: marker{Servers: []hashing.NodeID{""}}},
		"journal bounds":     &journal{Mk: marker{Bounds: []hashing.Key{0}}},
		"journal part sizes": &journal{Mk: marker{PartBytes: []int64{0}}},
		"journal maps done":  &journal{MapsDone: map[string]bool{"": true}},
		"journal attempts":   &journal{Attempts: map[string]int{"": 0}},
		"journal parts done": &journal{PartsDone: map[int]string{0: ""}},
		"journal lost":       &journal{Lost: map[int]bool{0: true}},
		"journal namespace":  &journal{Mk: marker{Namespace: "job:j"}},
		"marker servers":     &marker{Servers: []hashing.NodeID{""}},
		"marker bounds":      &marker{Bounds: []hashing.Key{0}},
		"marker part sizes":  &marker{PartBytes: []int64{0}},
		"marker namespace":   &marker{Namespace: "job:j"},
	} {
		zero := transport.Wire(&journal{})
		if _, ok := one.(*marker); ok {
			zero = &marker{}
		}
		cases[name] = struct {
			m    transport.Wire
			body []byte
		}{zero, at(zero, one)}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { wiretest.Rejects(t, c.m, c.body) })
	}
}

// TestDurableFormatIsTwo: a journal or marker file whose first byte is
// not format 0x02 is refused, the earlier 0x00 and 0x01 included.
func TestDurableFormatIsTwo(t *testing.T) {
	for i, m := range wireCases() {
		var fresh transport.Wire
		switch m.(type) {
		case *journal:
			fresh = &journal{}
		case *marker:
			fresh = &marker{}
		default:
			continue
		}
		data := m.AppendWire(nil)
		if data[0] != durableFormat {
			t.Fatalf("case %d opens with %#x", i, data[0])
		}
		for _, b := range []byte{0x00, 0x01, 0x03, 0xff} {
			data[0] = b
			if err := fresh.ParseWire(data); err == nil {
				t.Fatalf("case %d (%T) with format %#x was read", i, m, b)
			}
		}
	}
}

// TestJournalReservedByteIsSkipped: the job spec's reserved byte, once
// CacheOutputs, is written false and skipped on read, so a journal a
// parent wrote for a job with CacheOutputs set reads as the same state.
func TestJournalReservedByteIsSkipped(t *testing.T) {
	j := typicalJournal()
	j.Spec.ReuseTag = "reserved-byte-follows"
	data := j.AppendWire(nil)
	at := bytes.Index(data, []byte(j.Spec.ReuseTag)) + len(j.Spec.ReuseTag)
	if data[at] != 0 {
		t.Fatalf("the reserved byte is written %#x, want 0", data[at])
	}
	data[at] = 1
	var got journal
	if err := got.ParseWire(data); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.AppendWire(nil), j.AppendWire(nil)) {
		t.Fatalf("a journal with the reserved byte set reads as %+v, want %+v", got, *j)
	}
}

// TestJournalEncodingIsCanonical: one state has one encoding, whatever
// order its maps were filled in.
func TestJournalEncodingIsCanonical(t *testing.T) {
	fill := func(order []int) *journal {
		j := &journal{Spec: JobSpec{ID: "c", Params: Params{}}, MapsDone: map[string]bool{},
			Attempts: map[string]int{}, PartsDone: map[int]string{}, Lost: map[int]bool{}}
		for _, i := range order {
			task := fmt.Sprintf("c/m/in/%d", i)
			j.Spec.Params[task] = []byte{byte(i)}
			j.MapsDone[task], j.Attempts[task] = true, i
			j.PartsDone[i-100] = task
			j.Lost[i*7] = i%2 == 0
		}
		return j
	}
	up, down := make([]int, 200), make([]int, 200)
	for i := range up {
		up[i], down[i] = i, len(down)-1-i
	}
	a, b := fill(up).AppendWire(nil), fill(down).AppendWire(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("journals filled in opposite orders encode to %d and %d different bytes", len(a), len(b))
	}
	if again := fill(up).AppendWire(nil); !bytes.Equal(a, again) {
		t.Fatal("one journal encoded twice differs")
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
