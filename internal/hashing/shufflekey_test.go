package hashing_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/workloads"
)

// goldenKey is byte i of every golden input: 'a', 'b', ... wrapping after
// 'z', so a key of length n is the first n bytes of the repeated alphabet.
func goldenKey(n int) []byte {
	key := make([]byte, n)
	for i := range key {
		key[i] = 'a' + byte(i%26)
	}
	return key
}

// TestShuffleKeyGolden pins the function: stored intermediates were placed
// by it, so a change here is a new partitioner (mapreduce.partitionerID),
// never an edit of these values. Lengths 0-17 cover every tail shape and
// the first full 16-byte round; 32 is a sort record, 1024 many rounds.
func TestShuffleKeyGolden(t *testing.T) {
	golden := map[int]hashing.Key{
		0:    0x48bd251d2cd5a570,
		1:    0x563735108e8c9c8e,
		2:    0xac24ed6362a14391,
		3:    0x91865a8d24bbbdd5,
		4:    0x5da92f08da31a4cd,
		5:    0x32b7aa51a1fab678,
		6:    0xcadff35f691609ce,
		7:    0x23c283640f4b9950,
		8:    0x72191e3ed99fb34a,
		9:    0x70e2800d26e941af,
		10:   0x56272a40b3fd96ee,
		11:   0x70418a7aeceacf30,
		12:   0x50a9a2ff4e91ce09,
		13:   0x085ba0632de2b730,
		14:   0x67e3073a4231b8b9,
		15:   0x0a586918d7e80868,
		16:   0xfc3cef0a8599419d,
		17:   0x8a6a046a6e38cfc4,
		32:   0x996a56efca0def3c,
		1024: 0xd38d1653283ed9a2,
	}
	for n, want := range golden {
		if got := hashing.ShuffleKey(goldenKey(n)); got != want {
			t.Errorf("ShuffleKey(%d-byte key) = 0x%016x, want 0x%016x", n, uint64(got), uint64(want))
		}
		if got := hashing.ShuffleKey(string(goldenKey(n))); got != want {
			t.Errorf("ShuffleKey(%d-byte string) = 0x%016x, want 0x%016x", n, uint64(got), uint64(want))
		}
	}
}

// FuzzShuffleKey: the string and []byte forms agree on every input, and a
// key embedded in a longer buffer hashes as it does alone (no read past
// either end).
func FuzzShuffleKey(f *testing.F) {
	for _, n := range []int{0, 1, 3, 4, 7, 8, 15, 16, 17, 32, 33} {
		f.Add(goldenKey(n))
	}
	f.Add([]byte("\x00"))
	f.Add([]byte("\xff\xfe non-UTF-8 \x80"))
	f.Fuzz(func(t *testing.T, key []byte) {
		want := hashing.ShuffleKey(key)
		if got := hashing.ShuffleKey(string(key)); got != want {
			t.Fatalf("ShuffleKey(string %q) = %v, ShuffleKey([]byte) = %v", key, got, want)
		}
		framed := append(append([]byte{0xA5}, key...), 0x5A)
		if got := hashing.ShuffleKey(framed[1 : 1+len(key)]); got != want {
			t.Fatalf("ShuffleKey(%q) = %v inside a larger buffer, %v alone", key, got, want)
		}
	})
}

// shuffleKeySets are the key populations of the benchmark's shuffles:
// the distinct words of its Zipf text, decimal integers (k-means cluster
// ids, counters) and random fixed-width sort records.
func shuffleKeySets() map[string][]string {
	seen := make(map[string]bool)
	var words []string
	for _, w := range strings.Fields(string(workloads.Text(1, 8<<20, 20000))) {
		if !seen[w] {
			seen[w] = true
			words = append(words, w)
		}
	}
	ints := make([]string, 200_000)
	for i := range ints {
		ints[i] = strconv.Itoa(i)
	}
	records := strings.Fields(string(workloads.Records(1, 200_000, 32)))
	return map[string][]string{"zipf words": words, "decimal integers": ints, "32-byte records": records}
}

// chiSquare is Pearson's statistic of observed counts against expected
// ones (which need not be equal: a chord table's ranges are not).
func chiSquare(observed []int, expected []float64) float64 {
	x := 0.0
	for i, o := range observed {
		d := float64(o) - expected[i]
		x += d * d / expected[i]
	}
	return x
}

// chiLimit bounds the statistic at about p = 1e-4 for df degrees of
// freedom (Wilson-Hilferty); the inputs are fixed, so a pass is a pass on
// every run, and a function that clumps fails by orders of magnitude.
func chiLimit(df int) float64 {
	const z = 3.72
	k := float64(df)
	c := 1 - 2/(9*k) + z*math.Sqrt(2/(9*k))
	return k * c * c * c
}

func benchmarkTable(t testing.TB) *hashing.RangeTable {
	t.Helper()
	ring := hashing.NewChordRing()
	for i := 0; i < 4; i++ {
		if err := ring.AddNode(hashing.NodeID(fmt.Sprintf("worker-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	table, err := ring.RangeTable()
	if err != nil {
		t.Fatal(err)
	}
	return table
}

// TestShuffleKeyUniform checks what the engine needs of the function on
// the keys it will see: partitions of the benchmark's 4-node chord table
// and of a 64-way table fill in proportion to their width (the high bits),
// and within one partition the low 16 bits, which pick the grouping
// kernel's slots, are uniform too.
func TestShuffleKeyUniform(t *testing.T) {
	chord := benchmarkTable(t)
	servers := make([]hashing.NodeID, 64)
	for i := range servers {
		servers[i] = hashing.NodeID(fmt.Sprintf("n%02d", i))
	}
	even, err := hashing.UniformRangeTable(servers)
	if err != nil {
		t.Fatal(err)
	}
	for name, keys := range shuffleKeySets() {
		t.Run(name, func(t *testing.T) {
			for _, table := range []*hashing.RangeTable{chord, even} {
				observed := make([]int, table.Len())
				for _, k := range keys {
					observed[table.LookupIndex(hashing.ShuffleKey(k))]++
				}
				expected := make([]float64, table.Len())
				for i := range expected {
					start, end := table.RangeOf(i)
					expected[i] = float64(len(keys)) * float64(hashing.Distance(start, end)) / (1 << 64)
				}
				if x, limit := chiSquare(observed, expected), chiLimit(table.Len()-1); x > limit {
					t.Errorf("%d-way table: chi-square %.1f over %d keys, limit %.1f\nobserved %v\nexpected %.0f",
						table.Len(), x, len(keys), limit, observed, expected)
				}
			}
			var lo, hi [256]int
			n := 0
			for _, k := range keys {
				h := hashing.ShuffleKey(k)
				if chord.LookupIndex(h) != 0 {
					continue
				}
				lo[h&0xff]++
				hi[h>>8&0xff]++
				n++
			}
			expected := make([]float64, 256)
			for i := range expected {
				expected[i] = float64(n) / 256
			}
			if expected[0] < 5 {
				t.Fatalf("only %d keys in partition 0: too few for 256 cells", n)
			}
			for name, cells := range map[string][]int{"bits 0-7": lo[:], "bits 8-15": hi[:]} {
				if x, limit := chiSquare(cells, expected), chiLimit(255); x > limit {
					t.Errorf("%s of partition 0's %d keys: chi-square %.1f, limit %.1f", name, n, x, limit)
				}
			}
		})
	}
}

var shuffleKeySink hashing.Key

// BenchmarkShuffleKey is the cost of placing one intermediate key, beside
// the SHA-1 derivation placement keys keep: 8 bytes is a word, 32 a sort
// record.
func BenchmarkShuffleKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []int{8, 32} {
		keys := make([]string, 1024)
		for i := range keys {
			raw := make([]byte, size)
			rng.Read(raw)
			keys[i] = string(raw)
		}
		b.Run(fmt.Sprintf("shuffle/%dB", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				shuffleKeySink ^= hashing.ShuffleKey(keys[i&1023])
			}
		})
		b.Run(fmt.Sprintf("sha1/%dB", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				shuffleKeySink ^= hashing.KeyOfString(keys[i&1023])
			}
		})
	}
}
