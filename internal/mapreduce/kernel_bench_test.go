package mapreduce

import (
	"fmt"
	"strings"
	"testing"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/workloads"
)

// The micro-benchmarks below show the grouping kernel's and the emit
// path's cost per pair without the ten-second repository benchmark.
// Inputs have the shape of the wc_warm workload: one 64 KiB block of
// Zipf(1.2) text over a 20000-word vocabulary.

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
// tokenizing and the sender.
func BenchmarkMapEmit(b *testing.B) {
	words := strings.Fields(string(workloads.Text(1, 64<<10, 20000)))
	table, err := hashing.UniformRangeTable([]hashing.NodeID{"n0", "n1", "n2", "n3"})
	if err != nil {
		b.Fatal(err)
	}
	one := []byte("1")
	for _, c := range []struct {
		name    string
		combine ReduceFunc
	}{{"combine", testSumReduce}, {"append", nil}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := newMapEmitter(table, RunMapReq{}, c.combine, 64<<10, func(_, _ int, buf *[]byte) {
					benchSink += len(*buf)
					putSpillBuf(buf)
				})
				for _, w := range words {
					if err := out.emit(w, one); err != nil {
						b.Fatal(err)
					}
				}
				if err := out.flushAll(); err != nil {
					b.Fatal(err)
				}
				out.release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(words)), "ns/pair")
		})
	}
}
