package cluster

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
)

// chaosJobText sizes the WordCount input so the job comfortably spans the
// mid-job crash point.
func chaosJobText(short bool) string {
	line := "the quick brown fox jumps over the lazy dog again and again\n"
	n := 6000
	if short {
		n = 1500
	}
	return strings.Repeat(line, n)
}

// runWordCount uploads the text and runs the job, returning the collected
// output stream (sorted partitions, sorted keys: byte-comparable).
func runWordCount(t *testing.T, c *Cluster, spec mapreduce.JobSpec, text string) []byte {
	t.Helper()
	if _, err := c.UploadRecords("chaos.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks == 0 {
		t.Fatal("no map tasks ran")
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	if len(kvs) == 0 {
		t.Fatal("empty job output")
	}
	return mapreduce.EncodeKVs(kvs)
}

// TestChaosWordCountSurvivesDropsAndCrash is the acceptance soak: a full
// WordCount over a chaos-wrapped cluster with message drops plus one
// worker crash-stopped mid-job must produce output byte-identical to a
// fault-free run, with the retry and failover counters visible in the
// metrics snapshot. Intermediates have one copy, at their partition's
// owner: what the crash takes, lost-partition recovery rebuilds.
func TestChaosWordCountSurvivesDropsAndCrash(t *testing.T) {
	text := chaosJobText(testing.Short())
	drop := 0.10
	if testing.Short() {
		drop = 0.05
	}
	spec := mapreduce.JobSpec{
		ID: "chaos-wc", App: "cluster-wordcount", Inputs: []string{"chaos.txt"},
		User: "u", MaxAttempts: 5,
	}

	// Fault-free baseline.
	base := newTestCluster(t, 5, Options{})
	want := runWordCount(t, base, spec, text)

	// Chaos run: drops + latency jitter on every link, one crash mid-job.
	chaos := transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{
		Seed:    20260806,
		Latency: 100 * time.Microsecond,
		Jitter:  200 * time.Microsecond,
		Logf:    t.Logf,
	})
	c := newTestCluster(t, 5, Options{
		Network: chaos,
		Retry:   transport.RetryPolicy{MaxAttempts: 5, BaseDelay: 200 * time.Microsecond},
	})
	if _, err := c.UploadRecords("chaos.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	chaos.SetDrop(drop) // upload ran fault-free; the job does not

	victim := hashing.NodeID("worker-01") // not the manager (highest ID)
	crashed := make(chan struct{})
	go func() {
		time.Sleep(20 * time.Millisecond)
		chaos.Crash(victim)
		close(crashed)
	}()

	res, err := c.Run(spec)
	if err != nil {
		t.Fatalf("job did not survive chaos: %v", err)
	}
	<-crashed
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	got := mapreduce.EncodeKVs(kvs)
	if !bytes.Equal(got, want) {
		t.Fatalf("chaos output diverged from fault-free run: %d vs %d bytes, %d vs %d pairs",
			len(got), len(want), len(kvs), len(want)/8)
	}

	snap := c.MetricsSnapshot()
	if snap.Get("chaos.drops") == 0 {
		t.Error("chaos.drops = 0: the schedule injected no faults")
	}
	if snap.Get("net.retries") == 0 {
		t.Error("net.retries = 0: the retry layer absorbed nothing")
	}
	// The recovery counters must be visible in the snapshot (they are
	// pre-created, so presence does not depend on the fault schedule).
	for _, name := range []string{
		"mr.driver.map_retries", "mr.driver.map_failovers", "mr.driver.reduce_failovers",
	} {
		if _, ok := snap.Values[name]; !ok {
			t.Errorf("counter %s missing from metrics snapshot", name)
		}
	}
	t.Logf("chaos run: drops=%d blocked=%d retries=%d map_retries=%d map_failovers=%d reduce_failovers=%d",
		snap.Get("chaos.drops"), snap.Get("chaos.blocked"), snap.Get("net.retries"),
		snap.Get("mr.driver.map_retries"), snap.Get("mr.driver.map_failovers"), snap.Get("mr.driver.reduce_failovers"))
}

// TestChaosDropOnlyJobIsExact runs the job under pure message loss (no
// crash) and checks exactness: retries plus attempt-tagged idempotent
// spills must not duplicate or lose a single count.
func TestChaosDropOnlyJobIsExact(t *testing.T) {
	text := chaosJobText(true)
	spec := mapreduce.JobSpec{
		ID: "chaos-drop", App: "cluster-wordcount", Inputs: []string{"chaos.txt"},
		User: "u", MaxAttempts: 5,
	}
	base := newTestCluster(t, 4, Options{})
	want := runWordCount(t, base, spec, text)

	chaos := transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{Seed: 7})
	c := newTestCluster(t, 4, Options{
		Network: chaos,
		Retry:   transport.RetryPolicy{MaxAttempts: 6, BaseDelay: 100 * time.Microsecond},
	})
	if _, err := c.UploadRecords("chaos.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	chaos.SetDrop(0.15)
	res, err := c.Run(spec)
	if err != nil {
		t.Fatalf("job failed under 15%% drop: %v", err)
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	if got := mapreduce.EncodeKVs(kvs); !bytes.Equal(got, want) {
		t.Fatalf("drop-only output diverged: %d vs %d bytes", len(got), len(want))
	}
	if snap := c.MetricsSnapshot(); snap.Get("chaos.drops") == 0 {
		t.Error("no drops injected at 15% drop rate")
	}
}
