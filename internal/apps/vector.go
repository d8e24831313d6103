package apps

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Float vectors cross the engine as fixed-width little-endian IEEE-754
// streams — compact, allocation-light and byte-order explicit.

// encodeVec serializes a float64 vector.
func encodeVec(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// decodeVec parses a float64 vector.
func decodeVec(data []byte) ([]float64, error) {
	if err := checkVec(data); err != nil {
		return nil, err
	}
	out := make([]float64, len(data)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
	}
	return out, nil
}

// checkVec fails where data cannot be a vector.
func checkVec(data []byte) error {
	if len(data)%8 != 0 {
		return fmt.Errorf("apps: vector payload of %d bytes is not a multiple of 8", len(data))
	}
	return nil
}

// addVec accumulates b into a (equal lengths assumed by callers).
func addVec(a, b []float64) {
	for i := range a {
		a[i] += b[i]
	}
}

// addEncoded accumulates b into a, both encodeVec's format of equal
// lengths, in place: addVec without decoding either.
func addEncoded(a, b []byte) {
	for i := 0; i+8 <= len(a); i += 8 {
		x := math.Float64frombits(binary.LittleEndian.Uint64(a[i:])) + math.Float64frombits(binary.LittleEndian.Uint64(b[i:]))
		binary.LittleEndian.PutUint64(a[i:], math.Float64bits(x))
	}
}

// encodeMat serializes k vectors of dimension d as one stream.
func encodeMat(m [][]float64) []byte {
	var out []byte
	for _, row := range m {
		out = append(out, encodeVec(row)...)
	}
	return out
}

// decodeMat parses k rows of dimension d.
func decodeMat(data []byte, k, d int) ([][]float64, error) {
	flat, err := decodeVec(data)
	if err != nil {
		return nil, err
	}
	if len(flat) != k*d {
		return nil, fmt.Errorf("apps: matrix payload has %d values, want %d×%d", len(flat), k, d)
	}
	out := make([][]float64, k)
	for i := range out {
		out[i] = flat[i*d : (i+1)*d]
	}
	return out, nil
}
