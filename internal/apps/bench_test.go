package apps

import (
	"testing"

	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/workloads"
)

// The map functions over one 256 KiB block, the block size of the
// repository benchmark. `make bench-micro` runs each once.

const benchBlock = 256 << 10

func discard(string, []byte) error { return nil }

// BenchmarkKMeansMap: a k-means map task that has to decode its block
// (what every iteration paid before splits were cached) against one
// served its split from iCache.
func BenchmarkKMeansMap(b *testing.B) {
	data, centers := workloads.Points(1, benchBlock/31, 4, 4)
	params := mapreduce.Params{"k": []byte("4"), "dim": []byte("4"), "centroids": encodeMat(centers)}
	b.Run("decode-miss", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			split, _, err := decodePoints(data)
			if err != nil {
				b.Fatal(err)
			}
			if err := kmeansMap(params, split, discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode-hit", func(b *testing.B) {
		split, _, err := decodePoints(data)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := kmeansMap(params, split, discard); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGrepMap: the scan that finds nothing (scan_cold, most of
// jobs_skewed) and one whose pattern is in nearly every line, the worst
// case for cutting matching lines out one at a time.
func BenchmarkGrepMap(b *testing.B) {
	text := workloads.Text(1, benchBlock, 20000)
	for _, c := range []struct{ name, pattern string }{
		{"nomatch", "ZQX-never-matches"},
		{"match", "ba"},
	} {
		b.Run(c.name, func(b *testing.B) {
			params := mapreduce.Params{"pattern": []byte(c.pattern)}
			b.SetBytes(int64(len(text)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := grepMap(params, text, discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSplitLines: the line walk every decoder sits on.
func BenchmarkSplitLines(b *testing.B) {
	data, _ := workloads.Points(1, benchBlock/31, 4, 4)
	b.SetBytes(int64(len(data)))
	lines := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lines = 0
		if err := splitLines(data, func([]byte) error { lines++; return nil }); err != nil {
			b.Fatal(err)
		}
	}
	if lines == 0 {
		b.Fatal("no lines")
	}
}

// BenchmarkWordCountMap: the tokenizer alone (wc_warm's map function with
// an emit that does nothing) over Zipf text, all ASCII.
func BenchmarkWordCountMap(b *testing.B) {
	text := workloads.Text(1, benchBlock, 20000)
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := wordCountMap(nil, text, discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReduceFuncs: sort's and word count's reducers per key, with an
// emit that copies as the engine's does; sort's key has one value (a
// distinct record), word count's a hundred "1"s.
func BenchmarkReduceFuncs(b *testing.B) {
	emit, _ := copyingEmit()
	for _, c := range []struct {
		name   string
		reduce mapreduce.ReduceFunc
		values [][]byte
	}{{"sort", sortReduce, ones(1)}, {"sum", sumReduce, ones(100)}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.reduce(nil, "0123456789ABCDEFGHIJKLMNOPQRSTU", c.values, emit); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
