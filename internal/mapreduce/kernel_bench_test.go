package mapreduce

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/workloads"
)

// The micro-benchmarks below show the reduce side's ordering kernel's and
// the emit path's cost per pair without the ten-second repository
// benchmark. Inputs have the shapes of the wc_warm and sort_shuffle
// workloads: 64 KiB blocks of Zipf(1.2) text over a 20000-word vocabulary,
// 31-byte random records.

var benchSink int

func zipfBlockPairs() []KV {
	var kvs []KV
	for _, w := range strings.Fields(string(workloads.Text(1, 64<<10, 20000))) {
		kvs = append(kvs, KV{Key: w, Value: []byte("1")})
	}
	return kvs
}

func BenchmarkGroupByKey(b *testing.B) {
	zipf := zipfBlockPairs()
	distinct := make([]KV, len(zipf))
	for i := range distinct {
		distinct[i] = KV{Key: fmt.Sprintf("%08x", uint32(i)*2654435761), Value: []byte("1")}
	}
	for _, c := range []struct {
		name string
		kvs  []KV
	}{{"zipf", zipf}, {"distinct", distinct}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(GroupByKey(c.kvs))
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.kvs)), "ns/pair")
		})
	}
}

// BenchmarkMapEmit drives the emit closure runMap hands to app.Map over
// the block's words, then the final flush, with a hand-off that only
// recycles the spill: everything a map task does between app.Map's
// tokenizing and the sender. "combine" is a task on a fresh combine state
// (what a worker's second concurrent task gets), "combine-reused" one on
// the state a worker lends every task, reset in between. Their fold,
// digitSum, parses and allocates nothing, so the figures are the
// emitter's own.
func BenchmarkMapEmit(b *testing.B) {
	words := strings.Fields(string(workloads.Text(1, 64<<10, 20000)))
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0", "n1", "n2", "n3"})
	if err != nil {
		b.Fatal(err)
	}
	one := []byte("1")
	for _, c := range []struct {
		name    string
		combine *Combiner
		reuse   bool
	}{{"combine", digitSum, false}, {"combine-reused", digitSum, true}, {"append", nil, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			w := &Worker{}
			for i := 0; i < b.N; i++ {
				var state *combineState
				if c.reuse {
					state = w.borrowCombineState()
				}
				out := newMapEmitter(table, RunMapReq{}, c.combine, state, func(_, _ int, buf *[]byte) {
					benchSink += len(*buf)
					putSpillBuf(buf)
				})
				for _, word := range words {
					if err := out.emit(word, one); err != nil {
						b.Fatal(err)
					}
				}
				if err := out.flushAll(); err != nil {
					b.Fatal(err)
				}
				out.release()
				w.returnCombineState(state)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(words)), "ns/pair")
		})
	}
}

// reducePartitionShapes are the partitions BenchmarkGroupStreams orders,
// 16 spills each: "sort" is one of sort_shuffle's (16 K distinct 31-byte
// records), "wc" one of wc_warm's (the words of 16 Zipf blocks that fall
// in one of four ranges, each block combined: 10 K pairs, 3 K keys),
// "shared-prefix" URL-like keys that are equal for three of the kernel's
// eight-byte windows and in a hundred clusters for a fourth, "hot-key" three
// pairs in four on one key, "one-bucket" sort's keys behind one first
// byte that all of them share.
func reducePartitionShapes() map[string][][]byte {
	one := []byte("1")
	lines := strings.Fields(string(workloads.Records(1, 16384, 31)))
	var sortKVs, prefixKVs, hotKVs, oneBucketKVs []KV
	for i, l := range lines {
		sortKVs = append(sortKVs, KV{Key: l, Value: one})
		oneBucketKVs = append(oneBucketKVs, KV{Key: "/" + l, Value: one})
		prefixKVs = append(prefixKVs, KV{Key: fmt.Sprintf("https://www.example.org/user/%04d/%s", i%1000, l[:8]), Value: one})
		if i%4 != 0 {
			l = "the"
		}
		hotKVs = append(hotKVs, KV{Key: l, Value: one})
	}
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0", "n1", "n2", "n3"})
	if err != nil {
		panic(err)
	}
	var wc [][]byte
	text := workloads.Text(1, 1<<20, 20000)
	for off := 0; off < len(text); off += 64 << 10 {
		counts := make(map[string]int)
		var order []string
		for _, w := range bytes.Fields(text[off:min(off+64<<10, len(text))]) {
			if table.LookupIndex(hashing.ShuffleKey(w)) != 0 {
				continue
			}
			if counts[string(w)] == 0 {
				order = append(order, string(w))
			}
			counts[string(w)]++
		}
		var spill []byte
		for _, w := range order {
			spill = AppendKV(spill, KV{Key: w, Value: []byte(fmt.Sprint(counts[w]))})
		}
		wc = append(wc, spill)
	}
	return map[string][][]byte{
		"sort":          cutStreams(sortKVs, 16),
		"wc":            wc,
		"shared-prefix": cutStreams(prefixKVs, 16),
		"hot-key":       cutStreams(hotKVs, 16),
		"one-bucket":    cutStreams(oneBucketKVs, 16),
	}
}

// BenchmarkGroupStreams is what runReduce does between reading a
// partition's spills and calling the reducer, per pair, on the reduce
// state a worker lends each partition.
func BenchmarkGroupStreams(b *testing.B) {
	shapes := reducePartitionShapes()
	for _, name := range []string{"sort", "wc", "shared-prefix", "hot-key", "one-bucket"} {
		streams := shapes[name]
		pairs, groups := 0, 0
		for _, s := range streams {
			kvs, err := DecodeKVs(s)
			if err != nil {
				b.Fatal(err)
			}
			pairs += len(kvs)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			w := &Worker{}
			for i := 0; i < b.N; i++ {
				gd := w.borrowReduceState()
				if err := gd.group(streams); err != nil {
					b.Fatal(err)
				}
				groups = 0
				if err := gd.each(func(key string, values [][]byte) error {
					groups++
					benchSink += len(key) + len(values)
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				w.returnReduceState(gd)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
			b.ReportMetric(float64(groups), "groups")
			b.ReportMetric(float64(pairs), "pairs")
		})
	}
}

// BenchmarkDecodeKVs decodes what Collect reads back of a sort job: one
// partition's output file, 16 K pairs of a 31-byte key and a count.
func BenchmarkDecodeKVs(b *testing.B) {
	file := bytes.Join(reducePartitionShapes()["sort"], nil)
	pairs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kvs, err := DecodeKVs(file)
		if err != nil {
			b.Fatal(err)
		}
		pairs = len(kvs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
}
