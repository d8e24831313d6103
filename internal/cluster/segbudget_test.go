package cluster

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
)

// budgetCorpus is an input of distinct words of its own, each repeated.
func budgetCorpus(name string, distinct, repeat int) []byte {
	var b strings.Builder
	for r := 0; r < repeat; r++ {
		for i := 0; i < distinct; i++ {
			fmt.Fprintf(&b, "%s-%03d\n", name, i)
		}
	}
	return []byte(b.String())
}

// budgetRun runs spec and returns its result and its output files' bytes.
func budgetRun(t *testing.T, c *Cluster, spec mapreduce.JobSpec) (mapreduce.Result, [][]byte) {
	t.Helper()
	res, err := c.Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.ID, err)
	}
	var out [][]byte
	for _, f := range res.OutputFiles {
		data, err := c.ReadFile(f, spec.User)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return res, out
}

// eventCount counts the events of one name the cluster logged for job.
func eventCount(t *testing.T, c *Cluster, job, name string) int {
	t.Helper()
	evs, _, err := c.Events(job)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range evs {
		if e.Name == name {
			n++
		}
	}
	return n
}

// finishedBytes reads every node's finished intermediate bytes, the ones
// the segment budget bounds.
func finishedBytes(c *Cluster) map[string]int64 {
	out := make(map[string]int64)
	for _, id := range c.Nodes() {
		n, _ := c.Node(id)
		out[string(id)] = n.MetricsSnapshot().Get("fs.store.finished_bytes")
	}
	return out
}

// TestSegmentBudgetBoundsFinishedNamespaces runs more untagged jobs and
// more tags than the nodes' segment budgets hold, and drops none. After
// every job each node's finished namespaces fit its budget; a later run of
// each tag returns a fresh run's bytes, reusing what was kept and running
// its maps once, with one job.reuse_lost, where the budget evicted the
// published namespace.
func TestSegmentBudgetBoundsFinishedNamespaces(t *testing.T) {
	const cacheBytes = 16 << 10
	const budget = cacheBytes - cacheBytes/2
	c := newTestCluster(t, 4, Options{Config: Config{CacheBytes: cacheBytes}})
	within := func(after string) {
		t.Helper()
		for id, n := range finishedBytes(c) {
			if n > budget {
				t.Fatalf("after %s, %s holds %d finished bytes over its budget of %d", after, id, n, budget)
			}
		}
	}
	const inputs = 4
	fresh := make([][][]byte, inputs)
	for i := 0; i < inputs; i++ {
		name := fmt.Sprintf("in%d", i)
		if _, err := c.UploadRecords(name, "u", dhtfs.PermPublic, budgetCorpus(name, 100, 8), '\n'); err != nil {
			t.Fatal(err)
		}
		spec := mapreduce.JobSpec{ID: "fresh-" + name, App: "cluster-wordcount", Inputs: []string{name}, User: "u"}
		_, fresh[i] = budgetRun(t, c, spec)
		within(spec.ID)
		spec.ID, spec.ReuseTag = "pub-"+name, "t-"+name
		budgetRun(t, c, spec)
		within(spec.ID)
	}

	// Newest tag first, so the kept namespaces are reused before the
	// fallbacks' own publish and evict others.
	reused, fellBack := 0, 0
	for i := inputs - 1; i >= 0; i-- {
		name := fmt.Sprintf("in%d", i)
		pub := mapreduce.JobSpec{ID: "pub-" + name}
		evicted := eventCount(t, c, pub.Namespace(), "shuffle.evict") > 0
		spec := mapreduce.JobSpec{ID: "again-" + name, App: "cluster-wordcount", Inputs: []string{name}, User: "u", ReuseTag: "t-" + name}
		res, out := budgetRun(t, c, spec)
		within(spec.ID)
		if len(out) != len(fresh[i]) {
			t.Fatalf("%s wrote %d files, its fresh run %d", spec.ID, len(out), len(fresh[i]))
		}
		for f := range out {
			if !bytes.Equal(out[f], fresh[i][f]) {
				t.Fatalf("%s: output %d differs from its fresh run's", spec.ID, f)
			}
		}
		lost := eventCount(t, c, spec.ID, "job.reuse_lost")
		switch {
		case evicted && lost == 1:
			fellBack++
		case !evicted && lost == 0 && res.MapsSkipped:
			reused++
		default:
			t.Fatalf("%s: published namespace evicted %v, %d job.reuse_lost events, maps skipped %v",
				spec.ID, evicted, lost, res.MapsSkipped)
		}
	}
	t.Logf("reused %d, fell back %d, finished %v", reused, fellBack, finishedBytes(c))
	if reused == 0 || fellBack == 0 {
		t.Fatalf("%d tags reused and %d fell back: the budget should keep some namespaces and evict others", reused, fellBack)
	}
}

// TestSegmentBudgetSparesTheJobBeingReduced: a job whose own shuffle is
// more than a node's budget reduces its namespace whole. The budget
// evicts only namespaces other than the one a reduce fetches, so the job
// needs no partition recovery and its namespace stays until another is
// fetched or it is dropped.
func TestSegmentBudgetSparesTheJobBeingReduced(t *testing.T) {
	const cacheBytes = 8 << 10
	const budget = cacheBytes - cacheBytes/2
	c := newTestCluster(t, 4, Options{Config: Config{CacheBytes: cacheBytes}})
	if _, err := c.UploadRecords("big", "u", dhtfs.PermPublic, budgetCorpus("big", 300, 8), '\n'); err != nil {
		t.Fatal(err)
	}
	spec := mapreduce.JobSpec{ID: "big-1", App: "cluster-wordcount", Inputs: []string{"big"}, User: "u"}
	res, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) != 300 {
		t.Fatalf("%d keys, want 300", len(kvs))
	}
	for _, kv := range kvs {
		if string(kv.Value) != "8" {
			t.Fatalf("count[%q] = %s, want 8", kv.Key, kv.Value)
		}
	}
	if got := c.MetricsSnapshot().Get("mr.driver.partition_recoveries"); got != 0 {
		t.Fatalf("%d partition recoveries", got)
	}
	if n := eventCount(t, c, spec.Namespace(), "shuffle.evict"); n != 0 {
		t.Fatalf("the job's own namespace was evicted %d times", n)
	}
	over := false
	for _, n := range finishedBytes(c) {
		over = over || n > budget
	}
	if !over {
		t.Fatalf("no node holds more than its budget of %d finished bytes (%v): the job's shuffle fit", budget, finishedBytes(c))
	}
}

// TestCacheBytesSplitLosesNothing: a node's cache bytes are split whole,
// odd counts included: the iCache holds CacheBytes/2 and the segment
// store's finished namespaces the rest, so a finished namespace of exactly
// that rest evicts nothing and one byte more evicts it.
func TestCacheBytesSplitLosesNothing(t *testing.T) {
	const cacheBytes = 1001
	n, err := NewNode("split-0", transport.NewLocal(), Config{CacheBytes: cacheBytes})
	if err != nil {
		t.Fatal(err)
	}
	if got := n.cache.ICache.Capacity(); got != cacheBytes/2 {
		t.Fatalf("iCache holds %d bytes, want %d", got, cacheBytes/2)
	}
	store := n.fs.Store()
	finish := func(ns string, size int) {
		store.AppendTaskSegment(ns, "p0", "m0", 0, 0, make([]byte, size))
		store.ReadTaggedSegments(ns, "p0")
	}
	evicted := func() int64 { return n.MetricsSnapshot().Get("fs.segments.evicted") }
	finish("job:a", cacheBytes-cacheBytes/2)
	finish("job:b", 0)
	if got := evicted(); got != 0 || store.Bytes() != cacheBytes-cacheBytes/2 {
		t.Fatalf("a namespace of the budget's %d bytes was evicted: %d evictions, %d bytes resident",
			cacheBytes-cacheBytes/2, got, store.Bytes())
	}
	finish("job:c", 1)
	if got := evicted(); got != 1 || store.Bytes() != 1 {
		t.Fatalf("one byte over the budget: %d evictions, %d bytes resident, want 1 and c's 1", got, store.Bytes())
	}
}
