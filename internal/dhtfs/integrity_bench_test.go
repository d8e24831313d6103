package dhtfs

import (
	"context"
	"crypto/sha1"
	"fmt"
	"hash/crc32"
	"testing"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// BenchmarkSumBlock is the arithmetic behind the block integrity design
// (DESIGN.md "Block integrity"): what one pass over a block costs as the
// SHA-1 that names its version and as the CRC-32C that checks a copy.
func BenchmarkSumBlock(b *testing.B) {
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	sums := []struct {
		name string
		sum  func([]byte) uint32
	}{
		{"sha1", func(p []byte) uint32 { s := sha1.Sum(p); return uint32(s[0]) }},
		{"crc32c", func(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }},
	}
	sizes := []struct {
		name string
		n    int
	}{{"256K", 256 << 10}, {"1M", 1 << 20}}
	var sink uint32
	for _, s := range sums {
		for _, size := range sizes {
			b.Run(s.name+"/"+size.name, func(b *testing.B) {
				block := randomData(size.n, 7)
				b.SetBytes(int64(size.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink += s.sum(block)
				}
			})
		}
	}
	_ = sink
}

// BenchmarkReadFile reads a 1 MiB file of four 256 KiB blocks from the
// node that holds them. B/op is the 1 MiB result plus whatever the block
// reads leave to the collector: nothing on either backend once ReadFile
// gives its block buffers back (1 MiB more on disk when it did not).
func BenchmarkReadFile(b *testing.B) {
	for _, backend := range []string{"mem", "disk"} {
		b.Run(backend, func(b *testing.B) {
			store := NewStore()
			if backend == "disk" {
				var err error
				if store, err = NewStoreAt(b.TempDir()); err != nil {
					b.Fatal(err)
				}
			}
			ring := hashing.NewChordRing()
			if err := ring.AddNode("solo"); err != nil {
				b.Fatal(err)
			}
			svc, err := NewServiceWithStore("solo", transport.NewLocal(), func() hashing.Ring { return ring }, 1, store)
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			data := randomData(1<<20, 9)
			const files = 8 // reads rotate over them, as a client's do
			for f := 0; f < files; f++ {
				if _, err := svc.Upload(ctx, fmt.Sprintf("bench-%d.dat", f), "u", PermPublic, data, 256<<10); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := svc.ReadFile(ctx, fmt.Sprintf("bench-%d.dat", i%files), "u")
				if err != nil || len(got) != len(data) {
					b.Fatalf("read %d bytes, %v", len(got), err)
				}
			}
		})
	}
}
