package cluster

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"eclipsemr/internal/apps"
	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/metrics"
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
// message at all on a node that holds a copy.
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
	// Every read is made by the manager, where the driver runs, and crosses
	// the network only for a file the manager holds no replica of: the
	// input's metadata during Run, each output during Collect.
	mgr := c.Manager()
	unheld := func(files ...string) (n int64) {
		for _, f := range files {
			set, err := mgr.Ring().ReplicaSet(hashing.KeyOfString(f), mgr.cfg.Replicas)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Contains(set, mgr.ID) {
				n++
			}
		}
		return n
	}
	if want := unheld("budget.txt"); delta["fs.getMeta"] != want {
		t.Errorf("%d fs.getMeta calls, want %d: the manager reads its own copy first", delta["fs.getMeta"], want)
	}
	if want := unheld(res.OutputFiles...); delta["fs.getFile"] != want {
		t.Errorf("%d fs.getFile calls for %d outputs, want %d: the manager reads its own copy first",
			delta["fs.getFile"], len(res.OutputFiles), want)
	}
	// Measured 55-63, the journal's coalescing deciding how many snapshots
	// a run flushes; the same job took 107-111 when a one-block file was
	// written, read and deleted as blocks and metadata apart.
	const ceiling = 80
	if total > ceiling {
		t.Errorf("one small job cost %d RPCs, budget %d", total, ceiling)
	}
}
