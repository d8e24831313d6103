package apps

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/cluster"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
	"eclipsemr/internal/workloads"
)

// emitted runs one map function and returns what it emitted, encoded in
// emit order.
func emitted(t *testing.T, run func(emit mapreduce.Emit) error) []byte {
	t.Helper()
	var out []byte
	if err := run(func(key string, value []byte) error {
		out = mapreduce.AppendKV(out, mapreduce.KV{Key: key, Value: value})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// viaSplit is a decoding application's whole map path over one block. The
// bytes Decode saw are overwritten as soon as it returns, as the worker's
// block buffer may be (mapreduce.App): a split that aliased its input
// would map poison.
func viaSplit(decode mapreduce.DecodeFunc, mapDecoded mapreduce.MapDecodedFunc) mapreduce.MapFunc {
	return func(p mapreduce.Params, block []byte, emit mapreduce.Emit) error {
		input := bytes.Clone(block)
		split, _, err := decode(input)
		if err != nil {
			return err
		}
		for i := range input {
			input[i] = 0xDB
		}
		return mapDecoded(p, split, emit)
	}
}

// lineBlocks cuts data at line ends into blocks of about size bytes, the
// way UploadRecords does, plus the whole of it as one block.
func lineBlocks(data []byte, size int) [][]byte {
	blocks := [][]byte{data}
	for len(data) > 0 {
		end := min(size, len(data))
		if nl := bytes.IndexByte(data[end-1:], '\n'); nl >= 0 {
			end += nl
		} else {
			end = len(data)
		}
		blocks = append(blocks, data[:end])
		data = data[end:]
	}
	return blocks
}

// TestDecodedMapsEmitWhatTheParentMapsDid holds every rewritten map
// function to the parent commit's, pair for pair and bit for bit, on the
// seeded inputs of this package's job tests and of the engine's identity
// test, cut into blocks as uploads cut them.
func TestDecodedMapsEmitWhatTheParentMapsDid(t *testing.T) {
	points, centers := workloads.Points(11, 600, 2, 3)
	labeled, weights := workloads.LabeledPoints(13, 800, 4)
	graph := workloads.Graph(12, 60, 3)
	rng := rand.New(rand.NewSource(11))
	var points6, labeled6 strings.Builder
	for i := 0; i < 400; i++ {
		x, y := rng.NormFloat64()*3, rng.NormFloat64()*3
		fmt.Fprintf(&points6, "%.6f,%.6f\n", x, y)
		fmt.Fprintf(&labeled6, "%d %.6f,%.6f\n", 2*rng.Intn(2)-1, x, y)
	}
	ranks := map[string]float64{}
	for i := 0; i < 60; i += 2 {
		ranks[fmt.Sprintf("n%d", i)] = 1 / float64(i+3)
	}
	type variant struct {
		name           string
		params         mapreduce.Params
		data           []byte
		legacy         mapreduce.MapFunc
		current        mapreduce.MapFunc
		mustEmitPerRun bool
	}
	kmeans, logReg, pageRank := viaSplit(decodePoints, kmeansMap), viaSplit(decodeLabeledPoints, logRegMap), viaSplit(decodeGraph, pageRankMap)
	kmeansParams := func(c [][]float64) mapreduce.Params {
		return mapreduce.Params{
			"k": []byte(fmt.Sprint(len(c))), "dim": []byte(fmt.Sprint(len(c[0]))), "centroids": encodeMat(c),
		}
	}
	variants := []variant{
		{name: "kmeans/poor start", params: kmeansParams([][]float64{{0, 0}, {1, 1}, {-1, -1}}), data: points,
			legacy: legacyKMeansMap, current: kmeans, mustEmitPerRun: true},
		{name: "kmeans/true centers", params: kmeansParams(centers), data: points,
			legacy: legacyKMeansMap, current: kmeans, mustEmitPerRun: true},
		{name: "kmeans/identity input", params: kmeansParams([][]float64{{-4, -4}, {-1, 2}, {0, 0}, {2, -1}, {4, 4}}),
			data: []byte(points6.String()), legacy: legacyKMeansMap, current: kmeans, mustEmitPerRun: true},
		{name: "logreg/zero weights", params: mapreduce.Params{"dim": []byte("4"), "weights": encodeVec(make([]float64, 4))},
			data: labeled, legacy: legacyLogRegMap, current: logReg, mustEmitPerRun: true},
		{name: "logreg/true weights", params: mapreduce.Params{"dim": []byte("4"), "weights": encodeVec(weights)},
			data: labeled, legacy: legacyLogRegMap, current: logReg, mustEmitPerRun: true},
		{name: "logreg/identity input", params: mapreduce.Params{"dim": []byte("2"), "weights": encodeVec([]float64{0.25, -0.5})},
			data: []byte(labeled6.String()), legacy: legacyLogRegMap, current: logReg, mustEmitPerRun: true},
		{name: "pagerank/first iteration", params: mapreduce.Params{"n": []byte("60"), "ranks": nil},
			data: graph, legacy: legacyPageRankMap, current: pageRank, mustEmitPerRun: true},
		{name: "pagerank/some ranks", params: mapreduce.Params{"n": []byte("60"), "ranks": []byte(formatRanks(ranks))},
			data: graph, legacy: legacyPageRankMap, current: pageRank, mustEmitPerRun: true},
		{name: "grep/common", params: mapreduce.Params{"pattern": []byte("ba")}, data: workloads.Text(8, 8<<10, 200),
			legacy: legacyGrepMap, current: grepMap},
		{name: "grep/never", params: mapreduce.Params{"pattern": []byte("ZQX-never-matches")}, data: workloads.Text(8, 8<<10, 200),
			legacy: legacyGrepMap, current: grepMap},
		{name: "sort/records", data: workloads.Records(9, 500, 10), legacy: legacySortMap, current: sortMap, mustEmitPerRun: true},
	}
	// Shapes no generator produces: no final line break, blank lines, a
	// match at either end of the block or twice in a line, a whole-line
	// pattern, the empty block.
	for i, text := range []string{
		"", "\n", "\n\n\n", "ab", "ab\n", "\nab", "ab\n\ncd\n\n\nab", "xx ab ab xx\nab\nno\nzab", "a\nb\na\nb",
	} {
		for _, pattern := range []string{"ab", "a", "b\na", "\n", "xx ab ab xx"} {
			variants = append(variants, variant{
				name: fmt.Sprintf("grep/shape %d pattern %q", i, pattern), params: mapreduce.Params{"pattern": []byte(pattern)},
				data: []byte(text), legacy: legacyGrepMap, current: grepMap,
			})
		}
		variants = append(variants, variant{name: fmt.Sprintf("sort/shape %d", i), data: []byte(text), legacy: legacySortMap, current: sortMap})
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			for i, block := range lineBlocks(v.data, 2048) {
				want := emitted(t, func(emit mapreduce.Emit) error { return v.legacy(v.params, block, emit) })
				got := emitted(t, func(emit mapreduce.Emit) error { return v.current(v.params, block, emit) })
				if !bytes.Equal(got, want) {
					t.Fatalf("block %d (%d bytes): emitted %d bytes, the parent's map %d bytes:\n got %q\nwant %q",
						i, len(block), len(got), len(want), got, want)
				}
				if v.mustEmitPerRun && len(want) == 0 {
					t.Fatalf("block %d: nothing emitted: the case exercises nothing", i)
				}
			}
		})
	}
}

// TestSplitLinesMatchesParent: the in-place walk yields the lines the
// strings.Split one did.
func TestSplitLinesMatchesParent(t *testing.T) {
	for _, text := range []string{"", "\n", "a", "a\n", "\na", "a\n\nb\n\n\nc", strings.Repeat("line\n", 100) + "tail"} {
		var got, want []string
		if err := splitLines([]byte(text), func(line []byte) error { got = append(got, string(line)); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := legacySplitLines([]byte(text), func(line string) error { want = append(want, line); return nil }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: lines %q, want %q", text, got, want)
		}
	}
	stop := fmt.Errorf("stop")
	if err := splitLines([]byte("a\nb\n"), func([]byte) error { return stop }); err != stop {
		t.Fatalf("callback error not returned: %v", err)
	}
}

// TestDecodersRejectMalformedBlocks: what the parent's maps refused, the
// decoders (or, for what only the job's parameters can tell, the map
// functions) refuse too.
func TestDecodersRejectMalformedBlocks(t *testing.T) {
	for name, c := range map[string]struct {
		decode mapreduce.DecodeFunc
		block  string
	}{
		"bad coordinate":   {decodePoints, "1,2\n3,x\n"},
		"empty coordinate": {decodePoints, "1,2\n3,\n"},
		"ragged points":    {decodePoints, "1,2\n3,4,5\n"},
		"no label":         {decodeLabeledPoints, "1,2\n"},
		"bad label":        {decodeLabeledPoints, "+ 1,2\n"},
		"ragged labeled":   {decodeLabeledPoints, "1 1,2\n-1 3\n"},
	} {
		if split, _, err := c.decode([]byte(c.block)); err == nil {
			t.Errorf("%s: decoded %q to %+v", name, c.block, split)
		}
	}
	noEmit := func(string, []byte) error { return nil }
	split, size, err := decodePoints([]byte("1,2,3\n4,5,6\n"))
	if err != nil || size < 6*8 {
		t.Fatalf("decodePoints: size %d, err %v", size, err)
	}
	p := mapreduce.Params{"k": []byte("1"), "dim": []byte("2"), "centroids": encodeMat([][]float64{{0, 0}})}
	if err := kmeansMap(p, split, noEmit); err == nil {
		t.Error("kmeans mapped 3-dimensional points with dim=2")
	}
	if err := logRegMap(mapreduce.Params{"dim": []byte("3"), "weights": encodeVec(make([]float64, 3))}, split, noEmit); err == nil {
		t.Error("logreg mapped rows of 3 values with dim=3 (label plus 3 expected)")
	}
	if err := pageRankMap(mapreduce.Params{"n": []byte("3")}, split, noEmit); err == nil {
		t.Error("pagerank mapped a point split")
	}
	// An empty block decodes to an empty split any job accepts.
	empty, _, err := decodePoints(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := kmeansMap(p, empty, noEmit); err != nil {
		t.Errorf("kmeans over an empty block: %v", err)
	}
}

// TestSplitSizesCoverTheirMemory: the size a decoder reports is what the
// iCache charges; it must not fall short of what the split keeps alive.
func TestSplitSizesCoverTheirMemory(t *testing.T) {
	points, _ := workloads.Points(11, 600, 2, 3)
	split, size, err := decodePoints(points)
	if err != nil {
		t.Fatal(err)
	}
	ps := split.(*pointSplit)
	if len(ps.vals) != 1200 || ps.width != 2 {
		t.Fatalf("600 points decoded to %d values of width %d", len(ps.vals), ps.width)
	}
	if size < int64(8*cap(ps.vals)) || cap(ps.vals) > len(ps.vals)+ps.width {
		t.Fatalf("size %d for %d values in a %d-value allocation: want exact-size storage, fully charged", size, len(ps.vals), cap(ps.vals))
	}
	graph := workloads.Graph(12, 60, 3)
	gsplit, gsize, err := decodeGraph(graph)
	if err != nil {
		t.Fatal(err)
	}
	g := gsplit.(*graphSplit)
	if min := int64(len(g.names) + 4*cap(g.nameEnd) + 4*cap(g.lineEnd)); gsize < min {
		t.Fatalf("graph split reports %d bytes, holds at least %d", gsize, min)
	}
	if len(g.lineEnd) != 60 {
		t.Fatalf("60 adjacency lines decoded to %d", len(g.lineEnd))
	}
}

// pinnedRunner runs the iterative drivers' jobs with intermediates
// replicated, which makes a reducer read its spills in (task, sequence)
// order rather than arrival order, so the floating-point sums of two runs
// are comparable bit for bit. With legacy set the job runs the parent
// commit's map function: the "legacy-" application of the same name.
type pinnedRunner struct {
	c      *cluster.Cluster
	legacy bool
}

func (r pinnedRunner) Run(spec mapreduce.JobSpec) (mapreduce.Result, error) {
	spec.ReplicateIntermediates = true
	spec.MaxAttempts = 6
	if r.legacy {
		spec.App = "legacy-" + spec.App
		spec.ID = "legacy-" + spec.ID
	}
	return r.c.Run(spec)
}

func (r pinnedRunner) Collect(res mapreduce.Result, user string) ([]mapreduce.KV, error) {
	return r.c.Collect(res, user)
}

func init() {
	mapreduce.Register("legacy-"+KMeans, mapreduce.App{Map: legacyKMeansMap, Reduce: kmeansReduce, Combine: kmeansReduce})
	mapreduce.Register("legacy-"+PageRank, mapreduce.App{Map: legacyPageRankMap, Reduce: pageRankReduce})
	mapreduce.Register("legacy-"+LogReg, mapreduce.App{Map: legacyLogRegMap, Reduce: logRegReduce, Combine: logRegReduce})
}

// TestIterativeResultsBitIdenticalToParentUnderDrops runs the three
// iterative drivers on a cluster that loses 10% of its messages, once
// with the decoding applications and once with the parent commit's map
// functions, and demands the same centroids, ranks and weights to the
// last bit: retried and re-dispatched tasks are served splits decoded by
// earlier attempts and earlier iterations, and none of that may show.
func TestIterativeResultsBitIdenticalToParentUnderDrops(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{Seed: 7})
	c, err := cluster.New(4, cluster.Options{
		Config:  cluster.Config{BlockSize: 2048, CacheBytes: 16 << 20, HeartbeatInterval: 50 * time.Millisecond},
		Network: chaos,
		Retry:   transport.RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	points, _ := workloads.Points(11, 600, 2, 3)
	labeled, _ := workloads.LabeledPoints(13, 800, 4)
	uploadLines(t, c, "pts.txt", points)
	uploadLines(t, c, "graph.txt", workloads.Graph(12, 60, 3))
	uploadLines(t, c, "lp.txt", labeled)
	chaos.SetDrop(0.10)

	now, parent := pinnedRunner{c: c}, pinnedRunner{c: c, legacy: true}
	initial := [][]float64{{0, 0}, {1, 1}, {-1, -1}}
	km, err := RunKMeans(now, "pts.txt", "u", initial, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	kmParent, err := RunKMeans(parent, "pts.txt", "u", initial, 6, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(km.Centroids, kmParent.Centroids) || !reflect.DeepEqual(km.Shifts, kmParent.Shifts) {
		t.Errorf("k-means diverged from the parent's maps:\n got %v\nwant %v", km.Centroids, kmParent.Centroids)
	}
	pr, err := RunPageRank(now, "graph.txt", "u", 60, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	prParent, err := RunPageRank(parent, "graph.txt", "u", 60, 5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Ranks) != 60 || !reflect.DeepEqual(pr.Ranks, prParent.Ranks) {
		t.Errorf("page rank diverged from the parent's maps:\n got %v\nwant %v", pr.Ranks, prParent.Ranks)
	}
	lr, err := RunLogReg(now, "lp.txt", "u", 4, 6, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	lrParent, err := RunLogReg(parent, "lp.txt", "u", 4, 6, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lr.Weights, lrParent.Weights) {
		t.Errorf("logistic regression diverged from the parent's maps:\n got %v\nwant %v", lr.Weights, lrParent.Weights)
	}

	snap := c.MetricsSnapshot()
	if snap.Get("chaos.drops") == 0 {
		t.Error("no message was dropped")
	}
	tasks, hits, misses := snap.Get("mr.map.tasks"), snap.Get("mr.map.decode_hits"), snap.Get("mr.map.decode_misses")
	if hits == 0 || misses == 0 || hits <= misses {
		t.Errorf("decode hits/misses = %d/%d over %d map tasks: the iterations did not reuse their splits", hits, misses, tasks)
	}
	t.Logf("drops=%d retries=%d map tasks=%d decode hits=%d misses=%d",
		snap.Get("chaos.drops"), snap.Get("net.retries"), tasks, hits, misses)
}
