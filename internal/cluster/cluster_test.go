package cluster

import (
	"bytes"
	"context"
	"strconv"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
)

func init() {
	mapreduce.Register("cluster-wordcount", mapreduce.App{
		Map: func(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
			for _, w := range strings.Fields(string(input)) {
				if err := emit(w, []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: sumCounts,
	})
}

func sumCounts(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
	total := 0
	for _, v := range values {
		n, _ := strconv.Atoi(string(v))
		total += n
	}
	return emit(key, []byte(strconv.Itoa(total)))
}

func newTestCluster(t *testing.T, n int, opts Options) *Cluster {
	t.Helper()
	if opts.HeartbeatInterval == 0 {
		opts.HeartbeatInterval = 25 * time.Millisecond
	}
	if opts.CacheBytes == 0 {
		opts.CacheBytes = 8 << 20
	}
	if opts.BlockSize == 0 {
		opts.BlockSize = 512
	}
	c, err := New(n, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestBootstrapConvergesViews(t *testing.T) {
	c := newTestCluster(t, 5, Options{})
	mgr := c.Manager()
	if mgr == nil {
		t.Fatal("no manager after bootstrap")
	}
	// The bootstrap manager is the highest ID (bully convention).
	if mgr.ID != c.order[len(c.order)-1] {
		t.Fatalf("manager = %s", mgr.ID)
	}
	for _, id := range c.Nodes() {
		n, _ := c.Node(id)
		v := n.View()
		if v.Epoch != 1 || len(v.Members) != 5 {
			t.Fatalf("node %s view = epoch %d, %d members", id, v.Epoch, len(v.Members))
		}
		if n.ManagerID() != mgr.ID {
			t.Fatalf("node %s thinks manager is %s", id, n.ManagerID())
		}
	}
}

func TestClusterRunsJob(t *testing.T) {
	c := newTestCluster(t, 4, Options{})
	text := strings.Repeat("hello world hello cluster\n", 200)
	if _, err := c.UploadRecords("t.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(mapreduce.JobSpec{
		ID: "j1", App: "cluster-wordcount", Inputs: []string{"t.txt"}, User: "u",
	})
	if err != nil {
		t.Fatal(err)
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range kvs {
		counts[kv.Key] = string(kv.Value)
	}
	if counts["hello"] != "400" || counts["world"] != "200" || counts["cluster"] != "200" {
		t.Fatalf("counts = %v", counts)
	}
}

func TestClusterPolicies(t *testing.T) {
	for _, p := range []Policy{PolicyLAF, PolicyDelay, PolicyFair} {
		t.Run(string(p), func(t *testing.T) {
			c := newTestCluster(t, 3, Options{Policy: p, DelayWait: 50 * time.Millisecond})
			if _, err := c.UploadRecords("x.txt", "u", dhtfs.PermPublic,
				[]byte(strings.Repeat("a b c\n", 100)), '\n'); err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(mapreduce.JobSpec{
				ID: "p1", App: "cluster-wordcount", Inputs: []string{"x.txt"}, User: "u",
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.OutputFiles) == 0 {
				t.Fatal("no output")
			}
		})
	}
}

func TestFileReadAfterFailNow(t *testing.T) {
	c := newTestCluster(t, 6, Options{})
	data := bytes.Repeat([]byte("0123456789"), 2000)
	if _, err := c.Upload("f.dat", "u", dhtfs.PermPublic, data); err != nil {
		t.Fatal(err)
	}
	// Deterministically fail a non-manager node.
	victim := c.order[0]
	if err := c.FailNow(victim); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFile("f.dat", "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after failure")
	}
	// Replication invariant restored: a second failure is survivable too.
	if err := c.FailNow(c.order[1]); err != nil {
		t.Fatal(err)
	}
	got, err = c.ReadFile("f.dat", "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost after second failure")
	}
}

func TestHeartbeatDetectsFailure(t *testing.T) {
	c := newTestCluster(t, 5, Options{
		Config: Config{HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 60 * time.Millisecond},
	})
	victim := c.order[1] // not the manager (manager is highest ID)
	c.Kill(victim)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mgr := c.Manager()
		if mgr != nil {
			mgr.mu.Lock()
			m := mgr.mgr
			mgr.mu.Unlock()
			alive := m.Members()
			found := false
			for _, id := range alive {
				if id == victim {
					found = true
				}
			}
			if !found {
				return // failure detected and membership updated
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("failure not detected via heartbeats")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestManagerFailureTriggersElection(t *testing.T) {
	c := newTestCluster(t, 5, Options{
		Config: Config{HeartbeatInterval: 20 * time.Millisecond, HeartbeatTimeout: 60 * time.Millisecond},
	})
	oldMgr := c.Manager()
	if oldMgr == nil {
		t.Fatal("no initial manager")
	}
	c.Kill(oldMgr.ID)
	deadline := time.Now().Add(10 * time.Second)
	var newMgr *Node
	for {
		newMgr = c.Manager()
		if newMgr != nil && newMgr.ID != oldMgr.ID {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no new manager elected")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The new manager must be the highest surviving ID.
	want := c.order[len(c.order)-2]
	if newMgr.ID != want {
		t.Fatalf("elected %s, want %s", newMgr.ID, want)
	}
	// Wait for the new view (without the dead manager) to spread.
	deadline = time.Now().Add(5 * time.Second)
	for {
		v := newMgr.View()
		if !v.Has(oldMgr.ID) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead manager never left the view")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The cluster still runs jobs under the new manager.
	if _, err := c.UploadRecords("post.txt", "u", dhtfs.PermPublic,
		[]byte(strings.Repeat("x y\n", 50)), '\n'); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(mapreduce.JobSpec{
		ID: "post-election", App: "cluster-wordcount", Inputs: []string{"post.txt"}, User: "u",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.OutputFiles) == 0 {
		t.Fatal("no output after election")
	}
}

func TestJoinExpandsCluster(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	data := bytes.Repeat([]byte("abcdef"), 1000)
	if _, err := c.Upload("grow.dat", "u", dhtfs.PermPublic, data); err != nil {
		t.Fatal(err)
	}
	// Boot a new node on the same network and have the manager admit it.
	newID := hashing.NodeID("worker-99")
	n, err := NewNode(newID, c.net, c.opts.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	c.nodes[newID] = n
	c.order = append(c.order, newID)
	mgrNode := c.Manager()
	mgrNode.mu.Lock()
	mgr := mgrNode.mgr
	mgrNode.mu.Unlock()
	if err := mgr.Join(newID); err != nil {
		t.Fatal(err)
	}
	v := n.View()
	if !v.Has(newID) || v.Epoch < 2 {
		t.Fatalf("new node view = %+v", v)
	}
	// Data remains readable and the newcomer participates in jobs.
	got, err := c.ReadFile("grow.dat", "u")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after join: %v", err)
	}
	if _, err := c.UploadRecords("j.txt", "u", dhtfs.PermPublic,
		[]byte(strings.Repeat("m n\n", 100)), '\n'); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(mapreduce.JobSpec{
		ID: "after-join", App: "cluster-wordcount", Inputs: []string{"j.txt"}, User: "u",
	}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheStatsAggregate(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	if _, err := c.UploadRecords("s.txt", "u", dhtfs.PermPublic,
		[]byte(strings.Repeat("q r s\n", 200)), '\n'); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := c.Run(mapreduce.JobSpec{
			ID: "cs-" + strconv.Itoa(i), App: "cluster-wordcount",
			Inputs: []string{"s.txt"}, User: "u",
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.CacheStats()
	if st.Hits == 0 {
		t.Fatalf("no cache hits across two identical jobs: %+v", st)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, Options{}); err == nil {
		t.Fatal("New(0) accepted")
	}
	if _, err := NewWithNodes(nil, Options{}); err == nil {
		t.Fatal("empty node list accepted")
	}
	if _, err := New(2, Options{Policy: "bogus"}); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Replicas != 3 || cfg.MapSlots != 8 || cfg.ReduceSlots != 8 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.HeartbeatTimeout < cfg.HeartbeatInterval {
		t.Fatal("timeout below interval")
	}
}

func TestMetricsSnapshotReflectsWork(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	if _, err := c.UploadRecords("m.txt", "u", dhtfs.PermPublic,
		[]byte(strings.Repeat("alpha beta\n", 300)), '\n'); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(mapreduce.JobSpec{
		ID: "metrics-job", App: "cluster-wordcount", Inputs: []string{"m.txt"}, User: "u",
	}); err != nil {
		t.Fatal(err)
	}
	snap := c.MetricsSnapshot()
	for _, key := range []string{
		"mr.map.tasks", "mr.reduce.tasks", "mr.shuffle.bytes",
		"fs.blocks.written", "fs.segments.appended", "cache.insertions",
	} {
		if snap.Get(key) <= 0 {
			t.Errorf("metric %s = %d, want > 0 (snapshot: %v)", key, snap.Get(key), snap.Values)
		}
	}
	if snap.Get("mr.reduce.keys") != 2 { // alpha, beta
		t.Errorf("mr.reduce.keys = %d", snap.Get("mr.reduce.keys"))
	}
	// Per-stage latency histograms must be populated by a real job run and
	// survive the cluster-wide bucket merge.
	for _, key := range []string{
		"mr.map.read_ns", "mr.map.compute_ns", "mr.shuffle.send_ns",
		"mr.reduce.compute_ns", "fs.write_block_ns", "sched.queue_wait_ns",
		"mr.driver.job_ns",
	} {
		h, ok := snap.Hists[key]
		if !ok || h.Count() == 0 {
			t.Errorf("histogram %s missing or empty (count=%d)", key, h.Count())
			continue
		}
		if h.Quantile(0.99) < h.Quantile(0.50) {
			t.Errorf("histogram %s quantiles not monotone", key)
		}
	}
	// The snapshot-level hit ratio must come from the summed counters.
	wantBP := snap.Get("cache.hits") * 10000 / (snap.Get("cache.hits") + snap.Get("cache.misses"))
	if got := snap.Get("cache.hit_ratio_bp"); got != wantBP {
		t.Errorf("cache.hit_ratio_bp = %d, want %d", got, wantBP)
	}
	// Per-node stats are reachable over the control plane too, and the
	// histogram state survives the gob wire format: at least one node ran
	// a timed stage, so the union over nodes must carry histograms.
	body, err := transport.Encode(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	wireHists := 0
	for _, id := range c.Nodes() {
		out, err := c.net.Call(context.Background(), id, MethodStats, body)
		if err != nil {
			t.Fatal(err)
		}
		var resp StatsResp
		if err := transport.Decode(out, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Node != id || len(resp.Metrics.Values) == 0 {
			t.Fatalf("stats resp = %+v", resp)
		}
		wireHists += len(resp.Metrics.Hists)
	}
	if wireHists == 0 {
		t.Fatal("no node's stats carry histograms over the wire")
	}
}
