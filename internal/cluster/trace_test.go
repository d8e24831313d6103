package cluster

import (
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/trace"
	"eclipsemr/internal/transport"
)

// traceIndex summarizes one collected trace for assertions.
type traceIndex struct {
	names     map[string]bool
	nodes     map[string]bool
	cacheVals map[string]bool
	retries   int
}

func indexSpans(spans []trace.Span) traceIndex {
	ix := traceIndex{
		names: map[string]bool{}, nodes: map[string]bool{}, cacheVals: map[string]bool{},
	}
	for _, s := range spans {
		ix.names[s.Name] = true
		ix.nodes[s.Node] = true
		for _, a := range s.Annotations {
			if a.Key == "cache" {
				ix.cacheVals[a.Value] = true
			}
			if a.Key == "retry" {
				ix.retries++
			}
		}
		for _, e := range s.Events {
			if strings.Contains(e.Msg, "retry attempt=") {
				ix.retries++
			}
		}
	}
	return ix
}

// TestClusterTraceEndToEnd is the real-engine acceptance path: a 4-node
// WordCount over a lossy chaos network, traced end to end. The collected
// span tree must cover driver→map→shuffle→reduce across every node, the
// second (warm) job must carry cache=hit annotations, drops must surface
// as retry annotations, and the Chrome export must validate. Every stage
// histogram is its spans' summary: over each job it gains exactly one
// observation per span of its stage.
func TestClusterTraceEndToEnd(t *testing.T) {
	chaos := transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{Seed: 42})
	c := newTestCluster(t, 4, Options{
		Network: chaos,
		Retry:   transport.RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Microsecond},
	})
	c.SetTracing(true)

	text := strings.Repeat("pack my box with five dozen liquor jugs\n", 800)
	if _, err := c.UploadRecords("trace.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	chaos.SetDrop(0.08) // upload ran fault-free; the jobs do not

	spec := mapreduce.JobSpec{
		App: "cluster-wordcount", Inputs: []string{"trace.txt"}, User: "u", MaxAttempts: 5,
	}
	stages := map[string]string{
		"map.read": "mr.map.read_ns", "map.compute": "mr.map.compute_ns",
		"shuffle.send": "mr.shuffle.send_ns", "shuffle.recv": "mr.shuffle.recv_ns",
		"reduce.compute": "mr.reduce.compute_ns", "reduce.write": "mr.reduce.write_ns",
		"fs.write_block": "fs.write_block_ns", "fs.lookup": "fs.lookup_ns",
		"fs.read_block": "fs.read_block_ns",
	}
	var indexes []traceIndex
	for _, id := range []string{"trace-wc-cold", "trace-wc-warm"} {
		spec.ID = id
		before := c.MetricsSnapshot()
		if _, err := c.Run(spec); err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		after := c.MetricsSnapshot()
		spans, dropped, err := c.TraceSpans(id)
		if err != nil {
			t.Fatalf("TraceSpans(%s): %v", id, err)
		}
		if len(spans) == 0 || dropped != 0 {
			t.Fatalf("job %s collected %d spans, %d dropped", id, len(spans), dropped)
		}
		count := map[string]int64{}
		for _, s := range spans {
			count[s.Name]++
		}
		for name, hist := range stages {
			if got := after.Hists[hist].Count() - before.Hists[hist].Count(); got != count[name] {
				t.Errorf("job %s: %d %s observations, %d %s spans", id, got, hist, count[name], name)
			}
		}

		tree := trace.BuildTree(spans)
		if len(tree) == 0 || tree[0].Span.Name != "driver.job" {
			t.Fatalf("job %s: tree does not start at driver.job (%d roots)", id, len(tree))
		}
		data, err := trace.ChromeTrace(spans)
		if err != nil {
			t.Fatalf("ChromeTrace(%s): %v", id, err)
		}
		if err := trace.ValidateChrome(data); err != nil {
			t.Fatalf("job %s: exported trace invalid: %v", id, err)
		}

		ix := indexSpans(spans)
		for _, want := range []string{
			"driver.job", "driver.map_task", "task.map", "map.read", "map.compute",
			"shuffle.send", "driver.reduce_task", "task.reduce", "shuffle.recv",
			"reduce.compute", "reduce.write", "fs.write_block", "fs.lookup",
		} {
			if !ix.names[want] {
				t.Errorf("job %s: no %q span (have %v)", id, want, ix.names)
			}
		}
		for _, n := range c.Nodes() {
			if !ix.nodes[string(n)] {
				t.Errorf("job %s: no spans from node %s (have %v)", id, n, ix.nodes)
			}
		}
		indexes = append(indexes, ix)
	}

	// The first job reads cold (misses), the second hits the warm iCache.
	if !indexes[0].cacheVals["miss"] {
		t.Errorf("cold job: no cache=miss annotation, got %v", indexes[0].cacheVals)
	}
	if !indexes[1].cacheVals["hit"] {
		t.Errorf("warm job: no cache=hit annotation, got %v", indexes[1].cacheVals)
	}
	// At 8% drop over hundreds of traced RPCs the retry layer must have
	// fired inside at least one traced call.
	if total := indexes[0].retries + indexes[1].retries; total == 0 {
		t.Error("no retry annotations or events in either trace despite 8% drop rate")
	}
}

// TestTracingDisabledByDefault pins the off switch on the real engine: a
// cluster without SetTracing records nothing and pays no span costs.
func TestTracingDisabledByDefault(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	text := strings.Repeat("a b c\n", 200)
	if _, err := c.UploadRecords("off.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(mapreduce.JobSpec{
		ID: "off-wc", App: "cluster-wordcount", Inputs: []string{"off.txt"}, User: "u",
	}); err != nil {
		t.Fatal(err)
	}
	spans, dropped, err := c.TraceSpans("off-wc")
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 || dropped != 0 {
		t.Fatalf("disabled tracing collected %d spans (%d dropped)", len(spans), dropped)
	}
}
