package main

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"eclipsemr/internal/mapreduce"
)

// The reference implementations below are sequential pure Go written
// against the applications' documented behaviour, not against their code:
// every job output the runner collects is compared to one of them.

// fingerprint is an order-independent digest of a job's output pairs: the
// pair count and the wrapping sum of a 64-bit hash of each pair. Reduce
// partitions arrive in partition order, the references in map order.
type fingerprint struct {
	pairs int
	sum   uint64
}

// add folds one pair in: FNV-1a over key, a zero byte, value (inlined;
// the digest runs once per output pair of every job).
func (f *fingerprint) add(key string, value []byte) {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime64
	}
	h *= prime64 // the zero separator byte: h ^ 0 == h
	for _, b := range value {
		h = (h ^ uint64(b)) * prime64
	}
	f.pairs++
	f.sum += h
}

func fingerprintOf(kvs []mapreduce.KV) fingerprint {
	var f fingerprint
	for _, kv := range kvs {
		f.add(kv.Key, kv.Value)
	}
	return f
}

func fingerprintOfCounts(counts map[string]int) fingerprint {
	var f fingerprint
	for k, n := range counts {
		f.add(k, []byte(strconv.Itoa(n)))
	}
	return f
}

func (f fingerprint) check(got []mapreduce.KV) error {
	if g := fingerprintOf(got); g != f {
		return fmt.Errorf("output mismatch: got %d pairs (digest %x), reference has %d (digest %x)",
			g.pairs, g.sum, f.pairs, f.sum)
	}
	return nil
}

// refWordCount counts whitespace-separated tokens.
func refWordCount(text []byte) fingerprint {
	counts := make(map[string]int)
	for _, w := range bytes.Fields(text) {
		counts[string(w)]++
	}
	return fingerprintOfCounts(counts)
}

// refSort counts each distinct non-empty line: the sort job's output is
// one pair per distinct record with its multiplicity.
func refSort(records []byte) fingerprint {
	counts := make(map[string]int)
	for _, line := range bytes.Split(records, []byte{'\n'}) {
		if len(line) > 0 {
			counts[string(line)]++
		}
	}
	return fingerprintOfCounts(counts)
}

// refGrep counts each distinct line containing pattern across files.
func refGrep(pattern string, files ...[]byte) fingerprint {
	counts := make(map[string]int)
	pat := []byte(pattern)
	for _, data := range files {
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if bytes.Contains(line, pat) {
				counts[string(line)]++
			}
		}
	}
	return fingerprintOfCounts(counts)
}

// parsePoints parses "x1,x2,...\n" lines into vectors.
func parsePoints(data []byte, dim int) ([][]float64, error) {
	var pts [][]float64
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != dim {
			return nil, fmt.Errorf("point %q has %d coordinates, want %d", line, len(parts), dim)
		}
		p := make([]float64, dim)
		for j, s := range parts {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return nil, err
			}
			p[j] = v
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// lloydStep is one k-means iteration: assign each point to its nearest
// centroid (lowest index on ties), move each non-empty centroid to the
// mean of its points.
func lloydStep(points, centroids [][]float64) [][]float64 {
	k, dim := len(centroids), len(centroids[0])
	sums := make([][]float64, k)
	counts := make([]float64, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	for _, p := range points {
		best, bestD := 0, math.Inf(1)
		for c, cen := range centroids {
			d := 0.0
			for j := range p {
				d += (p[j] - cen[j]) * (p[j] - cen[j])
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		for j := range p {
			sums[best][j] += p[j]
		}
		counts[best]++
	}
	next := make([][]float64, k)
	for c := range next {
		next[c] = append([]float64(nil), centroids[c]...)
		if counts[c] > 0 {
			for j := range next[c] {
				next[c][j] = sums[c][j] / counts[c]
			}
		}
	}
	return next
}

// centroidsWithin reports whether two centroid sets agree coordinate by
// coordinate within tol.
func centroidsWithin(a, b [][]float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if len(a[c]) != len(b[c]) {
			return false
		}
		for j := range a[c] {
			if math.Abs(a[c][j]-b[c][j]) > tol {
				return false
			}
		}
	}
	return true
}
