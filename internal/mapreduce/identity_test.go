package mapreduce_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"eclipsemr/internal/apps"
	"eclipsemr/internal/mapreduce"
)

func vec(v ...float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// identityInputs are the paper's three applications with a combiner, each
// over an input that fills several spills at a small threshold.
func identityInputs() []identityInput {
	rng := rand.New(rand.NewSource(11))
	var text, points, labeled strings.Builder
	for i := 0; i < 6000; i++ {
		fmt.Fprintf(&text, "w%d", int(rng.ExpFloat64()*40))
		if i%9 == 8 {
			text.WriteByte('\n')
		} else {
			text.WriteByte(' ')
		}
	}
	for i := 0; i < 400; i++ {
		x, y := rng.NormFloat64()*3, rng.NormFloat64()*3
		fmt.Fprintf(&points, "%.6f,%.6f\n", x, y)
		fmt.Fprintf(&labeled, "%d %.6f,%.6f\n", 2*rng.Intn(2)-1, x, y)
	}
	return []identityInput{
		{apps.WordCount, nil, text.String()},
		{apps.KMeans, mapreduce.Params{
			"k": []byte("5"), "dim": []byte("2"),
			"centroids": vec(-4, -4, -1, 2, 0, 0, 2, -1, 4, 4),
		}, points.String()},
		{apps.LogReg, mapreduce.Params{"dim": []byte("2"), "weights": vec(0.25, -0.5)}, labeled.String()},
	}
}

type identityInput struct {
	app    string
	params mapreduce.Params
	input  string
}

// TestMapSpillsByteIdenticalToReferencePipeline pins the emit-side
// combiner's contract on the applications the paper evaluates: the
// segments a map task pushes are, byte for byte and spill for spill, what
// the reference pipeline produces (raw per-partition append, then each
// spill combined key by key in first-emit order), so spill boundaries,
// shuffle volume and every job output follow from the raw pairs alone.
func TestMapSpillsByteIdenticalToReferencePipeline(t *testing.T) {
	shapes := []struct {
		name string
		req  mapreduce.RunMapReq
	}{
		{"one spill per partition", mapreduce.RunMapReq{Task: "m0", Attempt: 1}},
		{"tiny threshold", mapreduce.RunMapReq{Task: "m0", SpillThreshold: 48}},
		// logreg emits one key, so only one of the two filters lets it through.
		{"only partitions 0 and 2", mapreduce.RunMapReq{Task: "m0", SpillThreshold: 48, OnlyPartitions: []int{0, 2}}},
		{"only partitions 1 and 3", mapreduce.RunMapReq{Task: "m0", SpillThreshold: 48, OnlyPartitions: []int{1, 3}}},
		{"legacy untracked task", mapreduce.RunMapReq{SpillThreshold: 48}},
	}
	for _, in := range identityInputs() {
		for _, shape := range shapes {
			t.Run(in.app+"/"+shape.name, func(t *testing.T) {
				req := shape.req
				req.App, req.Params = in.app, in.params
				pushed, reference := mapreduce.MapTaskSegments(t, req, []byte(in.input))
				segments := 0
				for part := range reference {
					if len(pushed[part]) != len(reference[part]) {
						t.Fatalf("partition %d holds %d segments, the reference pipeline pushes %d",
							part, len(pushed[part]), len(reference[part]))
					}
					for i := range reference[part] {
						if !bytes.Equal(pushed[part][i], reference[part][i]) {
							t.Fatalf("partition %d segment %d differs:\n got %q\nwant %q",
								part, i, pushed[part][i], reference[part][i])
						}
					}
					segments += len(pushed[part])
				}
				if segments == 0 && len(req.OnlyPartitions) == 0 {
					t.Fatal("the map task pushed nothing: the case exercises nothing")
				}
				for part := range pushed {
					if len(req.OnlyPartitions) > 0 && part%2 != req.OnlyPartitions[0]%2 && len(pushed[part]) != 0 {
						t.Fatalf("filtered partition %d holds %d segments", part, len(pushed[part]))
					}
				}
			})
		}
	}
}

// TestReduceOutputIgnoresKeyOrderWithinSpills is why a combined spill may
// list its keys in any order: the same map output, reduced from the spills
// as pushed (first-emit order), from the same spills with their pairs
// sorted by key (what the emit side shipped before it stopped sorting) and
// from those reversed, gives byte-identical reduce output each time,
// floating-point sums included.
func TestReduceOutputIgnoresKeyOrderWithinSpills(t *testing.T) {
	for _, in := range identityInputs() {
		t.Run(in.app, func(t *testing.T) {
			req := mapreduce.RunMapReq{Task: "m0", SpillThreshold: 512, App: in.app, Params: in.params}
			pushed, _ := mapreduce.MapTaskSegments(t, req, []byte(in.input))
			reordered := 0
			for part, asPushed := range pushed {
				if len(asPushed) == 0 {
					continue
				}
				sorted := make([][]byte, len(asPushed))
				reversed := make([][]byte, len(asPushed))
				for i, seg := range asPushed {
					kvs, err := mapreduce.DecodeKVs(seg)
					if err != nil {
						t.Fatal(err)
					}
					sort.SliceStable(kvs, func(a, b int) bool { return kvs[a].Key < kvs[b].Key })
					sorted[i] = mapreduce.EncodeKVs(kvs)
					slices.Reverse(kvs) // a combined spill holds each key once
					reversed[i] = mapreduce.EncodeKVs(kvs)
					if !bytes.Equal(sorted[i], seg) {
						reordered++
					}
					if !bytes.Equal(reversed[i], seg) {
						reordered++
					}
				}
				want := mapreduce.ReduceSegments(t, in.app, in.params, asPushed)
				for order, segments := range map[string][][]byte{"sorted": sorted, "reverse-sorted": reversed} {
					if got := mapreduce.ReduceSegments(t, in.app, in.params, segments); !bytes.Equal(got, want) {
						t.Fatalf("partition %d reduces to\n%q\nfrom %s spills and to\n%q\nfrom the spills as pushed", part, got, order, want)
					}
				}
			}
			// logreg emits one key per task: its spills have no order to lose.
			if reordered == 0 && in.app != apps.LogReg {
				t.Fatal("no spill changed under sorting or reversal: the case compares nothing")
			}
		})
	}
}
