package cluster

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"eclipsemr/internal/apps"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/metrics"
	"eclipsemr/internal/workloads"
)

// rpcCounts reads how many calls of each method the retry layer has sent
// off its per-method latency histograms, net.rpc.<method>_ns. Calls a
// node makes to itself never reach the network and are not counted.
func rpcCounts(snap metrics.Snapshot) map[string]int64 {
	counts := make(map[string]int64)
	for name, h := range snap.Hists {
		if method, ok := strings.CutPrefix(name, "net.rpc."); ok {
			counts[strings.TrimSuffix(method, "_ns")] = h.Count()
		}
	}
	return counts
}

// TestSmallJobRoundTrips is the round-trip budget of one small job: a
// 4-block Grep with its journal, Collect, DropIntermediates and output
// deletes on 4 nodes. Every file the job itself writes — journal
// snapshots and reduce outputs — is one block, and such a file moves in
// one message per replica (fs.putFile, fs.getFile, fs.deleteFile), never
// as a block wave followed by a metadata wave; reading one costs no
// message at all on a node that holds a copy. The journal goes with the
// job's segments, in the one fs.dropJobSegments each member gets.
func TestSmallJobRoundTrips(t *testing.T) {
	const blockSize = 4 << 10
	c := newTestCluster(t, 4, Options{Config: Config{BlockSize: blockSize, MapSlots: 2, ReduceSlots: 2}})
	var text strings.Builder
	for i := 0; text.Len() < 4*blockSize-300; i++ { // record-aligned blocks end up to a line short
		fmt.Fprintf(&text, "line %04d of the input: %s\n", i, []string{"hay", "hay with a needle"}[min(1, i%8/7)])
	}
	meta, err := c.UploadRecords("budget.txt", "u", dhtfs.PermPublic, []byte(text.String()), '\n')
	if err != nil {
		t.Fatal(err)
	}
	if meta.Blocks() != 4 {
		t.Fatalf("input has %d blocks, want 4", meta.Blocks())
	}

	start := c.MetricsSnapshot()
	spec := mapreduce.JobSpec{
		ID: "budget-1", App: apps.Grep, Inputs: []string{"budget.txt"}, User: "u",
		Params: mapreduce.Params{"pattern": []byte("needle")},
	}
	res, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.Count(text.String(), "needle"); len(kvs) != want {
		t.Fatalf("grep found %d lines, want %d", len(kvs), want)
	}
	c.DropIntermediates(spec)
	for _, f := range res.OutputFiles {
		if err := c.DeleteFile(f, "u"); err != nil {
			t.Fatal(err)
		}
	}
	end := c.MetricsSnapshot()
	before, after := rpcCounts(start), rpcCounts(end)
	remoteReads := end.Get("mr.map.remote_reads") - start.Get("mr.map.remote_reads")

	delta := make(map[string]int64)
	var total int64
	var lines []string
	for method, n := range after {
		if !strings.HasPrefix(method, "fs.") && !strings.HasPrefix(method, "mr.") {
			continue // heartbeats and membership tick with the clock, not the job
		}
		if d := n - before[method]; d > 0 {
			delta[method] = d
			total += d
			lines = append(lines, fmt.Sprintf("%-26s %d", method, d))
		}
	}
	sort.Strings(lines)
	t.Logf("RPCs of one job (%d in all, %d remote input reads):\n%s", total, remoteReads, strings.Join(lines, "\n"))

	for _, method := range []string{"fs.putBlock", "fs.putMeta", "fs.deleteBlock", "fs.deleteMeta"} {
		if delta[method] != 0 {
			t.Errorf("%d %s calls: a one-block file is written and deleted whole", delta[method], method)
		}
	}
	// The only blocks fetched one at a time are input blocks whose map
	// task ran on a node that stores no replica.
	if delta["fs.getBlock"] != remoteReads {
		t.Errorf("%d fs.getBlock calls for %d remote input reads: a one-block file is read whole", delta["fs.getBlock"], remoteReads)
	}
	for _, method := range []string{"fs.putFile", "fs.deleteFile"} {
		if delta[method] == 0 {
			t.Errorf("no %s call: the job's files went some other way", method)
		}
	}
	// Every read and delete is made by the manager, where the driver runs,
	// and crosses the network only for a copy the manager does not hold:
	// a read for the input's metadata during Run and each output during
	// Collect, a delete for every other replica of each output.
	mgr := c.Manager()
	copies := func(files ...string) (unheld, remote int64) {
		for _, f := range files {
			set, err := mgr.Ring().ReplicaSet(hashing.KeyOfString(f), mgr.cfg.Replicas)
			if err != nil {
				t.Fatal(err)
			}
			remote += int64(len(set))
			if slices.Contains(set, mgr.ID) {
				remote--
			} else {
				unheld++
			}
		}
		return unheld, remote
	}
	unheld := func(files ...string) int64 {
		n, _ := copies(files...)
		return n
	}
	if want := unheld("budget.txt"); delta["fs.getMeta"] != want {
		t.Errorf("%d fs.getMeta calls, want %d: the manager reads its own copy first", delta["fs.getMeta"], want)
	}
	if want := unheld(res.OutputFiles...); delta["fs.getFile"] != want {
		t.Errorf("%d fs.getFile calls for %d outputs, want %d: the manager reads its own copy first",
			delta["fs.getFile"], len(res.OutputFiles), want)
	}
	if _, remote := copies(res.OutputFiles...); delta["fs.deleteFile"] != remote {
		t.Errorf("%d fs.deleteFile calls for %d remote copies of the outputs: the journal is deleted with the segments",
			delta["fs.deleteFile"], remote)
	}
	// Measured 34 in 40 of 40 runs: fs.appendSegmentBatch 12, fs.putFile 8
	// (three journal snapshots, open, reduce and done, and the one output
	// file), mr.runMap 4, fs.dropJobSegments
	// 3 with the journal deleted among the segments, and
	// fs.readTaggedSegmentsRaw 3, fs.deleteFile 2, fs.getMeta 1 and
	// mr.runReduce 1: the four small partitions are one reduce task, which
	// reads the three it does not hold from their owners. 33, with
	// fs.appendSegmentBatch 11, when the partitions were the ring's arcs,
	// which sent one map's matches to one remote owner fewer. 47 when each
	// partition was a reduce task with a file of its own (fs.putFile 16,
	// fs.deleteFile 8, mr.runReduce 4). 55-65 (median 59) when every
	// completion asked for a journal flush, a coalescing flusher deciding
	// how many a run wrote, and the journal was deleted apart; 57-65
	// (median 61) when the driver also waited for the reduce phase and
	// each partition; 107-111 when a one-block file was written, read and
	// deleted as blocks and metadata apart. The count is exact: each
	// journal flush point is one snapshot.
	const budget = 34
	if total != budget {
		t.Errorf("one small job cost %d RPCs, want %d", total, budget)
	}
}

// TestFsMixedRoundTrips is the counted cost of one fs_mixed iteration
// (the repository benchmark's file-system workload) on 4 disk-backed
// nodes: upload a 1 MiB file in four 256 KiB blocks, read three files,
// delete an older one, all from the manager as the benchmark's clients do.
// The RPCs of each method and the block writes are exact: a change to how
// a file moves changes them, and a change to how a shard stores blocks
// must not. Every shard keeps its blocks in one slab beside its metadata
// log.
func TestFsMixedRoundTrips(t *testing.T) {
	const blockSize, fileSize = 256 << 10, 1 << 20
	dataDir := t.TempDir()
	c := newTestCluster(t, 4, Options{Config: Config{BlockSize: blockSize, DataDir: dataDir}})
	file := func(i int) (string, []byte) {
		return fmt.Sprintf("fs-c0-%06d", i), bytes.Repeat([]byte{byte(i), byte(i >> 8), 'x'}, fileSize/3+1)[:fileSize]
	}
	for i := 0; i < 4; i++ {
		name, data := file(i)
		if _, err := c.Upload(name, "u", dhtfs.PermPublic, data); err != nil {
			t.Fatal(err)
		}
	}

	start := c.MetricsSnapshot()
	name, data := file(4)
	if _, err := c.Upload(name, "u", dhtfs.PermPublic, data); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{4, 3, 1} {
		name, want := file(i)
		if got, err := c.ReadFile(name, "u"); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("ReadFile(%s) = %d bytes, %v", name, len(got), err)
		}
	}
	if old, _ := file(0); c.DeleteFile(old, "u") != nil {
		t.Fatalf("DeleteFile(%s) failed", old)
	}
	end := c.MetricsSnapshot()

	before, after := rpcCounts(start), rpcCounts(end)
	got := make(map[string]int64)
	for method, n := range after {
		if strings.HasPrefix(method, "fs.") && n > before[method] {
			got[method] = n - before[method]
		}
	}
	// Measured alike on the file-per-block store and on the slab. The
	// manager holds a copy of every file's metadata here and of 4 of the 12
	// block replicas written, and its calls to itself are not counted: the
	// upload is 8 remote block puts and 2 metadata puts, the reads find all
	// but one block on the manager, and the delete is 2 metadata deletes and
	// 8 remote block deletes.
	want := map[string]int64{
		"fs.putBlock":    8,
		"fs.putFile":     2,
		"fs.getFile":     0,
		"fs.getBlock":    1,
		"fs.deleteFile":  2,
		"fs.deleteBlock": 8,
	}
	for method, n := range want {
		if got[method] != n {
			t.Errorf("%s: %d calls, want %d", method, got[method], n)
		}
	}
	t.Logf("RPCs of one iteration: %v", got)
	if n := end.Get("fs.blocks.written") - start.Get("fs.blocks.written"); n != 12 {
		t.Errorf("fs.blocks.written = %d, want 12: four blocks, three replicas each", n)
	}
	for _, id := range c.Nodes() {
		entries, err := os.ReadDir(filepath.Join(dataDir, string(id)))
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		if !slices.Equal(names, []string{"blocks.slab", "metadata.log"}) {
			t.Errorf("node %s's shard directory holds %v, want blocks.slab and metadata.log", id, names)
		}
	}
}

// renamed submits each job under the ID apps.Named gives it, without
// looking for its journal first.
type renamed struct {
	*Cluster
	run string
}

func (r renamed) Run(spec mapreduce.JobSpec) (mapreduce.Result, error) {
	spec.ID = r.run + "-" + spec.ID
	return r.Cluster.Run(spec)
}

// TestKMeansIterationRoundTrips is the counted cost of one iter_kmeans
// operation, one Lloyd iteration through apps.RunKMeans, on 4 nodes: run
// plainly, then under the same job ID through apps.Named once its journal
// is dropped, then through apps.Named again, replayed from that run's
// journal.
func TestKMeansIterationRoundTrips(t *testing.T) {
	c := newTestCluster(t, 4, Options{Config: Config{BlockSize: 4 << 10}})
	data, _ := workloads.Points(31, 1000, 2, 3)
	if _, err := c.UploadRecords("points.txt", "u", dhtfs.PermPublic, data, '\n'); err != nil {
		t.Fatal(err)
	}
	initial := [][]float64{{0, 0}, {3, 3}, {-3, -3}}
	iteration := func(r apps.Runner) (map[string]int64, apps.KMeansResult) {
		t.Helper()
		start := c.MetricsSnapshot()
		out, err := apps.RunKMeans(r, "points.txt", "u", initial, 1, true)
		if err != nil {
			t.Fatal(err)
		}
		before, after := rpcCounts(start), rpcCounts(c.MetricsSnapshot())
		delta := make(map[string]int64)
		for method, n := range after {
			if d := n - before[method]; d > 0 && (strings.HasPrefix(method, "fs.") || strings.HasPrefix(method, "mr.")) {
				delta[method] = d
			}
		}
		return delta, out
	}
	sameCentroids := func(a, b apps.KMeansResult) bool {
		return slices.EqualFunc(a.Centroids, b.Centroids, func(x, y []float64) bool {
			return slices.EqualFunc(x, y, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
		})
	}

	// Plain: the maps the manager does not run itself (its own are calls
	// to itself, not counted) and one reduce task for the three centroids.
	plain, first := iteration(renamed{c, "iter"})
	t.Logf("plain:    %v", plain)
	for method, want := range map[string]int64{"mr.runMap": 4, "mr.runReduce": 1} {
		if plain[method] != want {
			t.Errorf("plain: %d %s calls, want %d", plain[method], method, want)
		}
	}
	for method := range plain {
		if strings.HasPrefix(method, "mr.") && method != "mr.runMap" && method != "mr.runReduce" {
			t.Errorf("plain: %d %s calls, want none", plain[method], method)
		}
	}
	res := first.Results[0]
	c.DropIntermediates(mapreduce.JobSpec{ID: res.Job, User: "u"})
	for _, f := range res.OutputFiles {
		if err := c.DeleteFile(f, "u"); err != nil {
			t.Fatal(err)
		}
	}

	// Fresh: the same job, after the journal probe, one fs.getFile that
	// finds no journal. Both runs write one journal snapshot per flush
	// point (TestJournalPacingOneWave), so every other cell is the same.
	fresh, again := iteration(apps.Named(c, "iter"))
	t.Logf("fresh:    %v", fresh)
	for method := range mergeKeys(plain, fresh) {
		want := plain[method]
		if method == "fs.getFile" {
			want++
		}
		if fresh[method] != want {
			t.Errorf("fresh: %d %s calls, want %d: a named run costs one journal probe more than a plain one", fresh[method], method, want)
		}
	}
	if !sameCentroids(first, again) {
		t.Errorf("fresh: centroids %v, the plain run reached %v", again.Centroids, first.Centroids)
	}

	// Replayed: the recorded outputs are collected; no task runs and
	// nothing is written.
	replayed, replay := iteration(apps.Named(c, "iter"))
	t.Logf("replayed: %v", replayed)
	for method, n := range replayed {
		if strings.HasPrefix(method, "mr.") || strings.HasPrefix(method, "fs.put") || strings.HasPrefix(method, "fs.append") {
			t.Errorf("replayed: %d %s calls, want none", n, method)
		}
	}
	if r := replay.Results[0]; !r.Resumed || !r.MapsSkipped {
		t.Errorf("replayed: Resumed=%v MapsSkipped=%v, want both", r.Resumed, r.MapsSkipped)
	}
	if !sameCentroids(first, replay) {
		t.Errorf("replayed: centroids %v, the plain run reached %v", replay.Centroids, first.Centroids)
	}
}

// mergeKeys returns a set of the keys of a and b.
func mergeKeys(a, b map[string]int64) map[string]bool {
	keys := make(map[string]bool, len(a)+len(b))
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	return keys
}

// TestReuseTagRoundTrips is the counted cost of a reuse tag on 4 nodes: a
// first tagged word count, an unchanged rerun, and a rerun after its
// input is re-uploaded with other words. The tag is one whose marker the
// manager holds no copy of, so each read of the marker is one fs.getFile.
func TestReuseTagRoundTrips(t *testing.T) {
	c := newTestCluster(t, 4, Options{Config: Config{BlockSize: 4 << 10}})
	mgr := c.Manager()
	tag := ""
	for i := 0; tag == ""; i++ {
		set, err := mgr.Ring().ReplicaSet(hashing.KeyOfString(fmt.Sprintf("_mr/tag:reuse-%d/done", i)), mgr.cfg.Replicas)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Contains(set, mgr.ID) {
			tag = fmt.Sprintf("reuse-%d", i)
		}
	}
	text := func(words ...string) []byte {
		var b strings.Builder
		for i := 0; b.Len() < 16<<10; i++ {
			fmt.Fprintf(&b, "%s %s line %04d\n", words[i%len(words)], words[(i+1)%len(words)], i)
		}
		return []byte(b.String())
	}
	upload := func(data []byte) {
		t.Helper()
		if _, err := c.UploadRecords("tagged.txt", "u", dhtfs.PermPublic, data, '\n'); err != nil {
			t.Fatal(err)
		}
	}
	run := func(id string) (map[string]int64, mapreduce.Result) {
		t.Helper()
		start := c.MetricsSnapshot()
		res, err := c.Run(mapreduce.JobSpec{ID: id, App: apps.WordCount, Inputs: []string{"tagged.txt"}, User: "u", ReuseTag: tag})
		if err != nil {
			t.Fatal(err)
		}
		before, after := rpcCounts(start), rpcCounts(c.MetricsSnapshot())
		delta := make(map[string]int64)
		for method, n := range after {
			if d := n - before[method]; d > 0 && (strings.HasPrefix(method, "fs.") || strings.HasPrefix(method, "mr.")) {
				delta[method] = d
			}
		}
		t.Logf("%s: %v", id, delta)
		return delta, res
	}

	upload(text("apple", "berry", "cedar"))
	first, _ := run("tag-1")
	if first["mr.runMap"] == 0 {
		t.Fatal("first: no mr.runMap call")
	}
	if first["fs.getFile"] != 1 {
		t.Errorf("first: %d fs.getFile calls, want 1: the marker read that finds none", first["fs.getFile"])
	}

	// Unchanged: the maps are skipped; the marker is read before the run
	// and again after its reduce phase, and nothing is appended.
	again, res := run("tag-2")
	if !res.MapsSkipped {
		t.Errorf("unchanged rerun ran its maps: %+v", res)
	}
	if again["mr.runMap"] != 0 {
		t.Errorf("unchanged rerun: %d mr.runMap calls, want 0", again["mr.runMap"])
	}
	if again["fs.getFile"] != 2 {
		t.Errorf("unchanged rerun: %d fs.getFile calls, want 2: the marker read twice", again["fs.getFile"])
	}
	for method, n := range again {
		if strings.HasPrefix(method, "fs.append") {
			t.Errorf("unchanged rerun: %d %s calls, want none", n, method)
		}
	}

	// Re-uploaded: another signature, so the maps run as the first run's
	// did, and publishing drops the namespace the marker named.
	upload(text("delta", "ember", "fjord"))
	reup, res := run("tag-3")
	if res.MapsSkipped {
		t.Errorf("rerun after a re-upload skipped its maps: %+v", res)
	}
	if reup["mr.runMap"] != first["mr.runMap"] {
		t.Errorf("rerun after a re-upload: %d mr.runMap calls, the first run made %d", reup["mr.runMap"], first["mr.runMap"])
	}
	if want := int64(len(c.Nodes()) - 1); reup["fs.dropJobSegments"] != want {
		t.Errorf("rerun after a re-upload: %d fs.dropJobSegments calls, want %d: the superseded namespace dropped", reup["fs.dropJobSegments"], want)
	}
}

// TestSortShuffleRoundTrips is the counted cost of one sort_shuffle
// operation (the repository benchmark's shuffle workload) on 4 nodes: a
// sort over 2 MiB of 32-byte records in 128 KiB blocks, then Collect,
// DropIntermediates and the output deletes, as the benchmark does. The
// RPCs of each method and the block writes are exact.
func TestSortShuffleRoundTrips(t *testing.T) {
	const blockSize, recordLen = 128 << 10, 32
	c := newTestCluster(t, 4, Options{Config: Config{BlockSize: blockSize, MapSlots: 2, ReduceSlots: 2}})
	records := workloads.Records(7, 2<<20/recordLen, recordLen-1)
	if _, err := c.UploadRecords("sort.txt", "u", dhtfs.PermPublic, records, '\n'); err != nil {
		t.Fatal(err)
	}

	start := c.MetricsSnapshot()
	spec := mapreduce.JobSpec{ID: "sort-1", App: apps.Sort, Inputs: []string{"sort.txt"}, User: "u"}
	res, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(records) / recordLen; len(kvs) != want {
		t.Fatalf("sort returned %d records, want %d", len(kvs), want)
	}
	c.DropIntermediates(spec)
	for _, f := range res.OutputFiles {
		if err := c.DeleteFile(f, "u"); err != nil {
			t.Fatal(err)
		}
	}
	end := c.MetricsSnapshot()
	before, after := rpcCounts(start), rpcCounts(end)
	got := make(map[string]int64)
	for method, n := range after {
		if d := n - before[method]; d > 0 && (strings.HasPrefix(method, "fs.") || strings.HasPrefix(method, "mr.")) {
			got[method] = d
		}
	}
	t.Logf("RPCs of one sort: %v", got)

	// Every reduce partition is an equal slice of the ShuffleKey space, so
	// each of the four outputs is about 0.6 MiB: one block, written, read
	// and deleted whole. When the partitions were the ring's arcs, one of
	// them held 58.7% of the pairs and its 1.4 MiB output was the job's
	// only two-block file: fs.putBlock 4, fs.putFile 18 and fs.deleteBlock
	// 4 with the rest as below, 105 RPCs and 27 blocks written.
	want := map[string]int64{
		"fs.appendSegmentBatch": 48,
		"fs.putFile":            16,
		"fs.deleteFile":         8,
		"fs.dropJobSegments":    3,
		"mr.runMap":             16,
		"mr.runReduce":          4,
	}
	for method := range mergeKeys(got, want) {
		if got[method] != want[method] {
			t.Errorf("%s: %d calls, want %d", method, got[method], want[method])
		}
	}
	if n := end.Get("fs.blocks.written") - start.Get("fs.blocks.written"); n != 24 {
		t.Errorf("fs.blocks.written = %d, want 24", n)
	}
}
