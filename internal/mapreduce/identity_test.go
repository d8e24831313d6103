package mapreduce_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
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

// TestMapSpillsByteIdenticalToParentPipeline pins the emit-side combiner's
// contract on the applications the paper evaluates: the segments a map
// task pushes are, byte for byte and spill for spill, what the parent
// pipeline produced (raw per-partition append, then the stable-sort
// combiner over each spill), so neither spill boundaries nor shuffle
// volume nor any job output can differ.
func TestMapSpillsByteIdenticalToParentPipeline(t *testing.T) {
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
	inputs := []struct {
		app    string
		params mapreduce.Params
		input  string
	}{
		{apps.WordCount, nil, text.String()},
		{apps.KMeans, mapreduce.Params{
			"k": []byte("5"), "dim": []byte("2"),
			"centroids": vec(-4, -4, -1, 2, 0, 0, 2, -1, 4, 4),
		}, points.String()},
		{apps.LogReg, mapreduce.Params{"dim": []byte("2"), "weights": vec(0.25, -0.5)}, labeled.String()},
	}
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
	for _, in := range inputs {
		for _, shape := range shapes {
			t.Run(in.app+"/"+shape.name, func(t *testing.T) {
				req := shape.req
				req.App, req.Params = in.app, in.params
				pushed, reference := mapreduce.MapTaskSegments(t, req, []byte(in.input))
				segments := 0
				for part := range reference {
					if len(pushed[part]) != len(reference[part]) {
						t.Fatalf("partition %d holds %d segments, the parent pipeline pushes %d",
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
