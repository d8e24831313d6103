package apps

import (
	"bytes"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"eclipsemr/internal/cluster"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/workloads"
)

func newCluster(t *testing.T, n int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.New(n, cluster.Options{
		Config: cluster.Config{
			BlockSize:         2048,
			CacheBytes:        16 << 20,
			HeartbeatInterval: 50 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func uploadLines(t *testing.T, c *cluster.Cluster, name string, data []byte) {
	t.Helper()
	if _, err := c.UploadRecords(name, "u", dhtfs.PermPublic, data, '\n'); err != nil {
		t.Fatal(err)
	}
}

func runAndCollect(t *testing.T, c *cluster.Cluster, spec mapreduce.JobSpec) map[string]string {
	t.Helper()
	res, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := c.Collect(res, spec.User)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(kvs))
	for _, kv := range kvs {
		out[kv.Key] = string(kv.Value)
	}
	return out
}

func TestWordCountMatchesReference(t *testing.T) {
	c := newCluster(t, 4)
	text := workloads.Text(7, 16<<10, 500)
	uploadLines(t, c, "zipf.txt", text)
	got := runAndCollect(t, c, mapreduce.JobSpec{
		ID: "wc", App: WordCount, Inputs: []string{"zipf.txt"}, User: "u",
	})
	want := map[string]int{}
	for _, w := range strings.Fields(string(text)) {
		want[w]++
	}
	if len(got) != len(want) {
		t.Fatalf("distinct words: got %d want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != strconv.Itoa(n) {
			t.Fatalf("count[%q] = %s want %d", w, got[w], n)
		}
	}
}

func TestGrepMatchesReference(t *testing.T) {
	c := newCluster(t, 3)
	text := workloads.Text(8, 8<<10, 200)
	uploadLines(t, c, "g.txt", text)
	pattern := "ba"
	got := runAndCollect(t, c, mapreduce.JobSpec{
		ID: "grep", App: Grep, Inputs: []string{"g.txt"}, User: "u",
		Params: mapreduce.Params{"pattern": []byte(pattern)},
	})
	want := map[string]int{}
	for _, line := range strings.Split(string(text), "\n") {
		if strings.Contains(line, pattern) {
			want[line]++
		}
	}
	if len(got) != len(want) {
		t.Fatalf("matching lines: got %d want %d", len(got), len(want))
	}
	for line, n := range want {
		if got[line] != strconv.Itoa(n) {
			t.Fatalf("grep count mismatch for %.40q: %s vs %d", line, got[line], n)
		}
	}
	if err := func() error {
		_, err := c.Run(mapreduce.JobSpec{
			ID: "grep-noparam", App: Grep, Inputs: []string{"g.txt"}, User: "u",
		})
		return err
	}(); err == nil {
		t.Fatal("grep without pattern succeeded")
	}
}

func TestInvertedIndexPostings(t *testing.T) {
	c := newCluster(t, 3)
	docs := workloads.Documents(9, 12, 300, 80)
	uploadLines(t, c, "docs.txt", docs)
	got := runAndCollect(t, c, mapreduce.JobSpec{
		ID: "ii", App: InvertedIndex, Inputs: []string{"docs.txt"}, User: "u",
	})
	// Reference postings.
	want := map[string]map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(docs)), "\n") {
		parts := strings.SplitN(line, "\t", 2)
		for _, w := range strings.Fields(parts[1]) {
			if want[w] == nil {
				want[w] = map[string]bool{}
			}
			want[w][parts[0]] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("terms: got %d want %d", len(got), len(want))
	}
	for term, docsSet := range want {
		posting := strings.Split(got[term], ",")
		if len(posting) != len(docsSet) {
			t.Fatalf("term %q: posting %v want %d docs", term, posting, len(docsSet))
		}
		if !sort.StringsAreSorted(posting) {
			t.Fatalf("term %q posting list not sorted: %v", term, posting)
		}
		for _, d := range posting {
			if !docsSet[d] {
				t.Fatalf("term %q lists wrong doc %q", term, d)
			}
		}
	}
}

func TestSortOutputsSortedPartitions(t *testing.T) {
	c := newCluster(t, 4)
	recs := workloads.Records(10, 2000, 12)
	uploadLines(t, c, "recs.txt", recs)
	res, err := c.Run(mapreduce.JobSpec{
		ID: "sort", App: Sort, Inputs: []string{"recs.txt"}, User: "u",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Each partition's output must be internally key-sorted, and the
	// multiset of records must be preserved.
	want := map[string]int{}
	for _, l := range strings.Split(strings.TrimSpace(string(recs)), "\n") {
		want[l]++
	}
	total := 0
	for _, f := range res.OutputFiles {
		data, err := c.ReadFile(f, "u")
		if err != nil {
			t.Fatal(err)
		}
		kvs, err := mapreduce.DecodeKVs(data)
		if err != nil {
			t.Fatal(err)
		}
		for i, kv := range kvs {
			if i > 0 && kvs[i-1].Key > kv.Key {
				t.Fatalf("partition %s not sorted at %d", f, i)
			}
			n, _ := strconv.Atoi(string(kv.Value))
			if want[kv.Key] != n {
				t.Fatalf("record %q count %d want %d", kv.Key, n, want[kv.Key])
			}
			total += n
		}
	}
	if total != 2000 {
		t.Fatalf("total records = %d", total)
	}
}

func TestKMeansConverges(t *testing.T) {
	c := newCluster(t, 4)
	data, centers := workloads.Points(11, 600, 2, 3)
	uploadLines(t, c, "pts.txt", data)
	// Deliberately poor initial centroids.
	initial := [][]float64{{0, 0}, {1, 1}, {-1, -1}}
	res, err := RunKMeans(c, "pts.txt", "u", initial, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shifts) != 8 || len(res.IterationTimes) != 8 {
		t.Fatalf("iterations = %d", len(res.Shifts))
	}
	// Shifts shrink as Lloyd's algorithm converges.
	if res.Shifts[len(res.Shifts)-1] > res.Shifts[0] {
		t.Fatalf("shifts did not decrease: %v", res.Shifts)
	}
	// Every true center has a learned centroid nearby.
	for _, truth := range centers {
		best := math.Inf(1)
		for _, got := range res.Centroids {
			if d := sqDist(truth, got); d < best {
				best = d
			}
		}
		if best > 1.0 {
			t.Fatalf("no centroid near true center %v (d²=%g): %v", truth, best, res.Centroids)
		}
	}
}

// TestKMeansRunsAgreeBitForBit: two fault-free k-means runs over the same
// points, stored under two names, end with the same centroids and shifts
// to the last bit. Floating-point sums depend on their order, so this
// holds only because every reduce reads its spills in (map task, spill)
// order rather than in the order they happened to arrive.
func TestKMeansRunsAgreeBitForBit(t *testing.T) {
	c := newCluster(t, 4)
	points, _ := workloads.Points(11, 3000, 2, 3)
	initial := [][]float64{{0, 0}, {1, 1}, {-1, -1}}
	var runs []KMeansResult
	for _, name := range []string{"pts-a.txt", "pts-b.txt"} {
		uploadLines(t, c, name, points)
		res, err := RunKMeans(c, name, "u", initial, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, res)
	}
	a, b := runs[0], runs[1]
	if !bytes.Equal(encodeMat(a.Centroids), encodeMat(b.Centroids)) || !bytes.Equal(encodeVec(a.Shifts), encodeVec(b.Shifts)) {
		t.Errorf("two runs over the same points differ:\ncentroids %v\n      and %v\nshifts %v\n   and %v",
			a.Centroids, b.Centroids, a.Shifts, b.Shifts)
	}
}

func TestPageRankMatchesLocalPowerIteration(t *testing.T) {
	c := newCluster(t, 3)
	const n = 60
	graph := workloads.Graph(12, n, 3)
	uploadLines(t, c, "graph.txt", graph)
	res, err := RunPageRank(c, "graph.txt", "u", n, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Local reference implementation.
	adj := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(graph)), "\n") {
		f := strings.Fields(line)
		adj[f[0]] = f[1:]
	}
	ranks := map[string]float64{}
	for node := range adj {
		ranks[node] = 1.0 / n
	}
	for it := 0; it < 5; it++ {
		next := map[string]float64{}
		for node := range adj {
			next[node] = (1 - pageRankDamping) / n
		}
		for src, dsts := range adj {
			if len(dsts) == 0 {
				continue
			}
			share := ranks[src] * pageRankDamping / float64(len(dsts))
			for _, d := range dsts {
				next[d] += share
			}
		}
		ranks = next
	}
	if len(res.Ranks) != n {
		t.Fatalf("ranks for %d nodes, want %d", len(res.Ranks), n)
	}
	for node, want := range ranks {
		got := res.Ranks[node]
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("rank[%s] = %g want %g", node, got, want)
		}
	}
}

func TestLogRegLearnsSeparator(t *testing.T) {
	c := newCluster(t, 3)
	data, _ := workloads.LabeledPoints(13, 800, 4)
	uploadLines(t, c, "lp.txt", data)
	res, err := RunLogReg(c, "lp.txt", "u", 4, 10, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.IterationTimes) != 10 {
		t.Fatalf("iterations = %d", len(res.IterationTimes))
	}
	// Training accuracy of the learned weights.
	correct, total := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		parts := strings.SplitN(line, " ", 2)
		y, _ := strconv.ParseFloat(parts[0], 64)
		x, err := parsePoint(parts[1], 4)
		if err != nil {
			t.Fatal(err)
		}
		dot := 0.0
		for j := range x {
			dot += res.Weights[j] * x[j]
		}
		if (dot >= 0) == (y > 0) {
			correct++
		}
		total++
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Fatalf("training accuracy %.2f < 0.9 (weights %v)", acc, res.Weights)
	}
}

func TestVectorRoundTrip(t *testing.T) {
	f := func(v []float64) bool {
		out, err := decodeVec(encodeVec(v))
		if err != nil || len(out) != len(v) {
			return false
		}
		for i := range v {
			if out[i] != v[i] && !(math.IsNaN(out[i]) && math.IsNaN(v[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeVec([]byte{1, 2, 3}); err == nil {
		t.Fatal("misaligned vector accepted")
	}
}

func TestMatRoundTrip(t *testing.T) {
	m := [][]float64{{1, 2, 3}, {4, 5, 6}}
	out, err := decodeMat(encodeMat(m), 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m {
		for j := range m[i] {
			if out[i][j] != m[i][j] {
				t.Fatalf("mat[%d][%d] = %g", i, j, out[i][j])
			}
		}
	}
	if _, err := decodeMat(encodeMat(m), 3, 3); err == nil {
		t.Fatal("wrong shape accepted")
	}
}

func TestParseRanks(t *testing.T) {
	ranks, err := parseRanks("a 0.5\nb 0.25\n")
	if err != nil || ranks["a"] != 0.5 || ranks["b"] != 0.25 {
		t.Fatalf("ranks = %v err = %v", ranks, err)
	}
	if _, err := parseRanks("malformed"); err == nil {
		t.Fatal("malformed ranks accepted")
	}
	round, err := parseRanks(formatRanks(map[string]float64{"x": 1.0 / 3}))
	if err != nil || round["x"] != 1.0/3 {
		t.Fatalf("format/parse round trip = %v, %v", round, err)
	}
}
