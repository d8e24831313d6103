package apps

import (
	"bytes"
	"strconv"
	"testing"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/mapreduce"
)

// copyingEmit is an Emit like the engine's: it copies what it is handed,
// here into one reused buffer, so the emit side allocates nothing and
// whatever an AllocsPerRun counts is the reducer's.
func copyingEmit() (mapreduce.Emit, *[]byte) {
	var out []byte
	return func(key string, value []byte) error {
		out = append(append(out[:0], key...), value...)
		return nil
	}, &out
}

// ones is n values of "1", the mapper's count.
func ones(n int) [][]byte {
	values := make([][]byte, n)
	for i := range values {
		values[i] = one
	}
	return values
}

// TestReducersAllocateNothingPerKey: sort's and word count's reducers emit
// every count inside the table without allocating, and every count
// outside it, negative ones included, as strconv writes it.
func TestReducersAllocateNothingPerKey(t *testing.T) {
	emit, out := copyingEmit()
	if !blockbuf.RaceEnabled { // the race detector allocates too
		for _, c := range []struct {
			name   string
			reduce mapreduce.ReduceFunc
			values [][]byte
		}{{"sortReduce", sortReduce, ones(1)}, {"sumReduce", sumReduce, ones(500)}} {
			if n := testing.AllocsPerRun(100, func() {
				if err := c.reduce(nil, "key", c.values, emit); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s allocates %v times per key", c.name, n)
			}
		}
	}
	for _, c := range []struct {
		name   string
		reduce func() error
		want   string
	}{
		{"sort, last in the table", func() error { return sortReduce(nil, "k", ones(len(decimals)-1), emit) }, strconv.Itoa(len(decimals) - 1)},
		{"sort, first past the table", func() error { return sortReduce(nil, "k", ones(len(decimals)), emit) }, strconv.Itoa(len(decimals))},
		{"sum past the table", func() error { return sumReduce(nil, "k", [][]byte{[]byte("1000000"), one}, emit) }, "1000001"},
		{"sum negative", func() error { return sumReduce(nil, "k", [][]byte{[]byte("-7"), one}, emit) }, "-6"},
		{"sum zero", func() error { return sumReduce(nil, "k", [][]byte{[]byte("0")}, emit) }, "0"},
	} {
		if err := c.reduce(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := string(bytes.TrimPrefix(*out, []byte("k"))); got != c.want {
			t.Errorf("%s: emitted %q, want %q", c.name, got, c.want)
		}
	}
	for n, d := range decimals {
		if string(d) != strconv.Itoa(n) || cap(d) != len(d) {
			t.Fatalf("decimals[%d] is %q with capacity %d, want %q with capacity %d", n, d, cap(d), strconv.Itoa(n), len(d))
		}
	}
}
