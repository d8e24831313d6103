package apps

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"eclipsemr/internal/mapreduce"
)

// fold runs values through c as the emitter does for one key in one
// spill: Start on the first, Add on each further one, then Value.
func fold(c *mapreduce.Combiner, key string, values [][]byte) ([]byte, error) {
	acc, err := c.Start(nil, key, nil, values[0])
	if err != nil {
		return nil, err
	}
	for _, v := range values[1:] {
		if err := c.Add(nil, key, acc, v); err != nil {
			return nil, err
		}
	}
	return c.Value(nil, key, nil, acc), nil
}

// reduceOnce is the value fn emits for key over values.
func reduceOnce(fn mapreduce.ReduceFunc, key string, values [][]byte) ([]byte, error) {
	var out []byte
	err := fn(nil, key, values, func(_ string, value []byte) error {
		out = append([]byte{}, value...)
		return nil
	})
	return out, err
}

// TestCombinersMatchReducers: a spill's value for a key, folded, is what
// the application's reducer makes of the same values in the same order,
// bit for bit, and so is the first error. The float rows hold a one-value
// spill of -0 (0 + -0 is +0: a Start that copied its value would keep
// -0), subnormals, sums whose order shows and mixed signs of zero.
func TestCombinersMatchReducers(t *testing.T) {
	vec := func(v ...float64) []byte { return encodeVec(v) }
	negZero := math.Copysign(0, -1)
	tiny := math.SmallestNonzeroFloat64
	for _, c := range []struct {
		name    string
		combine *mapreduce.Combiner
		reduce  mapreduce.ReduceFunc
		values  [][]byte
	}{
		{"kmeans/one -0 value", vecSumCombiner, kmeansReduce, [][]byte{vec(negZero, negZero, 1)}},
		{"kmeans/-0 sums", vecSumCombiner, kmeansReduce, [][]byte{vec(negZero, 1, negZero), vec(negZero, -1, 0)}},
		{"kmeans/subnormals", vecSumCombiner, kmeansReduce, [][]byte{vec(tiny, -tiny, 3*tiny), vec(tiny, tiny, 0x1p-1040), vec(-tiny, 0, -tiny)}},
		{"kmeans/order shows", vecSumCombiner, kmeansReduce, [][]byte{vec(1e16, 0.1), vec(1, 0.2), vec(-1e16, 0.3), vec(1, 1e-17)}},
		{"kmeans/infinities", vecSumCombiner, kmeansReduce, [][]byte{vec(math.Inf(1), 2), vec(math.Inf(-1), math.Inf(1))}},
		{"kmeans/empty vectors", vecSumCombiner, kmeansReduce, [][]byte{vec(), vec()}},
		{"kmeans/ragged payload", vecSumCombiner, kmeansReduce, [][]byte{vec(1), []byte("1234567")}},
		{"kmeans/ragged first payload", vecSumCombiner, kmeansReduce, [][]byte{[]byte("123")}},
		{"kmeans/length mismatch", vecSumCombiner, kmeansReduce, [][]byte{vec(1, 2), vec(1)}},
		{"logreg/one -0 value", vecSumCombiner, logRegReduce, [][]byte{vec(negZero, negZero)}},
		{"logreg/gradients", vecSumCombiner, logRegReduce, [][]byte{vec(0.125, -tiny), vec(-0.375, tiny), vec(1e-300, 1e300)}},
		{"sum/ones", sumCombiner, sumReduce, ones(700)},
		{"sum/one value", sumCombiner, sumReduce, [][]byte{[]byte("42")}},
		{"sum/signs and digits", sumCombiner, sumReduce, [][]byte{[]byte("-7"), one, []byte("+12"), []byte("1000000")}},
		{"sum/wraps", sumCombiner, sumReduce, [][]byte{[]byte("9223372036854775807"), one}},
		{"sum/malformed", sumCombiner, sumReduce, [][]byte{one, []byte("1x"), []byte("")}},
		{"sum/empty first", sumCombiner, sumReduce, [][]byte{[]byte(""), one}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, gotErr := fold(c.combine, "c3", c.values)
			want, wantErr := reduceOnce(c.reduce, "c3", c.values)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("fold fails with %v, the reducer with %v", gotErr, wantErr)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("fold made %x, the reducer %x", got, want)
			}
		})
	}
}
