package nodecmd

import (
	"maps"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	_ "eclipsemr/internal/apps"
	"eclipsemr/internal/cluster"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
)

func init() {
	// A paced word count, so a job is still mapping when its manager goes.
	mapreduce.Register("nodecmd-slow-wordcount", mapreduce.App{
		Map: func(_ mapreduce.Params, input []byte, emit mapreduce.Emit) error {
			time.Sleep(2 * time.Millisecond)
			for _, w := range strings.Fields(string(input)) {
				if err := emit(w, []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(_ mapreduce.Params, key string, values [][]byte, emit mapreduce.Emit) error {
			total := 0
			for _, v := range values {
				n, _ := strconv.Atoi(string(v))
				total += n
			}
			return emit(key, []byte(strconv.Itoa(total)))
		},
	})
}

func TestReadHosts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hosts.txt")
	content := "# cluster\nworker-00 127.0.0.1:7001\n\nworker-01 127.0.0.1:7002\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	hosts, err := ReadHosts(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 || hosts["worker-00"] != "127.0.0.1:7001" {
		t.Fatalf("hosts = %v", hosts)
	}
	if err := os.WriteFile(path, []byte("malformed line here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHosts(path); err == nil {
		t.Fatal("malformed hosts accepted")
	}
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadHosts(path); err == nil {
		t.Fatal("empty hosts accepted")
	}
	if _, err := ReadHosts(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// bootTCP starts one node per ID over a shared loopback TCP network,
// each mounting the client methods as cmd/eclipse-node does, and
// bootstraps the manager on the last one, as -bootstrap does.
func bootTCP(t *testing.T, ids []hashing.NodeID, cfg cluster.Config) (*transport.TCP, map[hashing.NodeID]string, []*cluster.Node) {
	t.Helper()
	hosts := map[hashing.NodeID]string{}
	for _, id := range ids {
		hosts[id] = "127.0.0.1:0"
	}
	net := transport.NewTCP(hosts, 30*time.Second)
	t.Cleanup(func() { net.Close() })
	var nodes []*cluster.Node
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	for _, id := range ids {
		node, err := cluster.NewNode(id, net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		node.SetExtraHandler(ClientHandler(node))
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
	}
	last := ids[len(ids)-1]
	ring, err := WaitForPeers(net, hosts, last, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[len(nodes)-1].BecomeManagerWith(ring, 1); err != nil {
		t.Fatal(err)
	}
	return net, hosts, nodes
}

// TestTCPDeploymentEndToEnd boots a 3-node cluster over real loopback TCP
// exactly as cmd/eclipse-node does, then drives the eclipse-cli protocol:
// upload, job submission to the elected manager, collection, and read.
func TestTCPDeploymentEndToEnd(t *testing.T) {
	ids := []hashing.NodeID{"worker-00", "worker-01", "worker-02"}
	net, hosts, _ := bootTCP(t, ids, cluster.Config{
		Replicas:    2,
		MapSlots:    4,
		ReduceSlots: 4,
		CacheBytes:  8 << 20,
		BlockSize:   512,
	})

	// Client flow, over the same TCP network.
	text := strings.Repeat("ping pong ping net\n", 300)
	var upResp UploadResp
	err := Call(net, ids[0], MethodUpload, UploadReq{
		Name: "t.txt", Owner: "cli", Public: true, Data: []byte(text), Records: true,
	}, &upResp)
	if err != nil {
		t.Fatal(err)
	}
	if upResp.Size != int64(len(text)) || upResp.Blocks < 2 {
		t.Fatalf("upload resp = %+v", upResp)
	}

	mgr, err := FindManager(net, hosts)
	if err != nil {
		t.Fatal(err)
	}
	if mgr != ids[2] {
		t.Fatalf("manager = %s", mgr)
	}

	var runResp RunResp
	err = Call(net, mgr, MethodRun, RunReq{Spec: mapreduce.JobSpec{
		ID: "tcp-wc", App: "wordcount", Inputs: []string{"t.txt"}, User: "cli",
	}}, &runResp)
	if err != nil {
		t.Fatal(err)
	}
	if runResp.Result.MapTasks == 0 {
		t.Fatalf("result = %+v", runResp.Result)
	}

	var collected CollectResp
	err = Call(net, mgr, MethodCollect, CollectReq{Result: runResp.Result, User: "cli"}, &collected)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range collected.Pairs {
		counts[kv.Key] = string(kv.Value)
	}
	if counts["ping"] != "600" || counts["pong"] != "300" || counts["net"] != "300" {
		t.Fatalf("counts = %v", counts)
	}

	// Submitting to a non-manager is refused.
	err = Call(net, ids[0], MethodRun, RunReq{Spec: mapreduce.JobSpec{
		ID: "nope", App: "wordcount", Inputs: []string{"t.txt"}, User: "cli",
	}}, &runResp)
	if err == nil || !strings.Contains(err.Error(), "not the manager") {
		t.Fatalf("non-manager run err = %v", err)
	}

	// Listing shows the uploaded file (and hides framework internals).
	var listResp ListResp
	if err := Call(net, ids[0], MethodList, ListReq{User: "cli"}, &listResp); err != nil {
		t.Fatal(err)
	}
	foundFile := false
	for _, n := range listResp.Names {
		if n == "t.txt" {
			foundFile = true
		}
		if strings.HasPrefix(n, "_mr/") {
			t.Fatalf("internal file %q listed by default", n)
		}
	}
	// Metadata is placed by hash key: this node may or may not hold it,
	// so aggregate across all nodes before asserting.
	if !foundFile {
		for _, id := range ids[1:] {
			if err := Call(net, id, MethodList, ListReq{User: "cli"}, &listResp); err != nil {
				t.Fatal(err)
			}
			for _, n := range listResp.Names {
				if n == "t.txt" {
					foundFile = true
				}
			}
		}
	}
	if !foundFile {
		t.Fatal("uploaded file not in any node's listing")
	}

	// Read the file back through the client path.
	var readResp ReadResp
	if err := Call(net, ids[1], MethodRead, ReadReq{Name: "t.txt", User: "cli"}, &readResp); err != nil {
		t.Fatal(err)
	}
	if string(readResp.Data) != text {
		t.Fatal("cat round-trip corrupted")
	}
}

// TestTCPDeploymentManagerFailover closes the bootstrap manager's node
// over real loopback TCP while a job runs on it. The elected node serves
// job.jobs, job.resume and job.run from the manager role it built when it
// was elected: nothing in the test hands it a driver.
func TestTCPDeploymentManagerFailover(t *testing.T) {
	ids := []hashing.NodeID{"worker-00", "worker-01", "worker-02"}
	net, hosts, nodes := bootTCP(t, ids, cluster.Config{
		Replicas:          2,
		MapSlots:          2,
		ReduceSlots:       2,
		CacheBytes:        8 << 20,
		BlockSize:         512,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  60 * time.Millisecond,
	})
	const lines = 1200
	text := strings.Repeat("ping pong ping net\n", lines)
	var upResp UploadResp
	if err := Call(net, ids[0], MethodUpload, UploadReq{
		Name: "f.txt", Owner: "cli", Public: true, Data: []byte(text), Records: true,
	}, &upResp); err != nil {
		t.Fatal(err)
	}

	// The manager's node goes away a few maps into the job; the journal is
	// what survives it.
	spec := mapreduce.JobSpec{
		ID: "tcp-failover", App: "nodecmd-slow-wordcount", Inputs: []string{"f.txt"},
		User: "cli", MaxAttempts: 5,
	}
	var finished atomic.Int32
	closed := make(chan struct{})
	nodes[2].Events().SetObserver(func(e events.Event) {
		if e.Job == spec.ID && e.Name == "map.finish" && finished.Add(1) == 3 {
			go func() {
				nodes[2].Close()
				close(closed)
			}()
		}
	})
	var runResp RunResp
	if err := Call(net, ids[2], MethodRun, RunReq{Spec: spec}, &runResp); err == nil {
		t.Fatal("the run on the closed manager reported success")
	}
	<-closed

	deadline := time.Now().Add(10 * time.Second)
	for {
		if mgr, err := FindManager(net, hosts); err == nil && mgr == ids[1] {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no manager elected after the bootstrap manager closed")
		}
		time.Sleep(10 * time.Millisecond)
	}

	checkCounts := func(res mapreduce.Result) {
		t.Helper()
		var collected CollectResp
		if err := Call(net, ids[1], MethodCollect, CollectReq{Result: res, User: "cli"}, &collected); err != nil {
			t.Fatal(err)
		}
		counts := map[string]string{}
		for _, kv := range collected.Pairs {
			counts[kv.Key] = string(kv.Value)
		}
		want := map[string]string{"ping": strconv.Itoa(2 * lines), "pong": strconv.Itoa(lines), "net": strconv.Itoa(lines)}
		if !maps.Equal(counts, want) {
			t.Fatalf("%s counts = %v, want %v", res.Job, counts, want)
		}
	}

	var jobs JobsResp
	if err := Call(net, ids[1], MethodJobs, struct{}{}, &jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs.Jobs) != 1 || jobs.Jobs[0] != spec.ID {
		t.Fatalf("interrupted jobs = %v, want [%s]", jobs.Jobs, spec.ID)
	}
	if err := Call(net, ids[1], MethodResume, ResumeReq{Job: spec.ID}, &runResp); err != nil {
		t.Fatalf("the elected manager did not adopt the job: %v", err)
	}
	if !runResp.Result.Resumed {
		t.Error("Resumed not set on the adopted run")
	}
	checkCounts(runResp.Result)
	reduces := int64(runResp.Result.ReduceTasks)

	spec.ID, spec.App = "tcp-after-failover", "wordcount"
	if err := Call(net, ids[1], MethodRun, RunReq{Spec: spec}, &runResp); err != nil {
		t.Fatal(err)
	}
	checkCounts(runResp.Result)
	reduces += int64(runResp.Result.ReduceTasks)
	// The elected manager's cluster.stats reports its driver once.
	var stats cluster.StatsResp
	if err := Call(net, ids[1], cluster.MethodStats, struct{}{}, &stats); err != nil {
		t.Fatal(err)
	}
	if got := stats.Metrics.Get("mr.driver.partition_reduces"); got != reduces {
		t.Errorf("mr.driver.partition_reduces = %d, want the %d reduce tasks run", got, reduces)
	}
	if err := Call(net, ids[0], MethodRun, RunReq{Spec: spec}, &runResp); err == nil || !strings.Contains(err.Error(), "not the manager") {
		t.Fatalf("run on a worker: err = %v", err)
	}
}

func TestFindManagerNoManager(t *testing.T) {
	net := transport.NewLocal()
	defer net.Close()
	hosts := map[hashing.NodeID]string{"a": "x"}
	if _, err := FindManager(net, hosts); err == nil {
		t.Fatal("FindManager succeeded with no nodes")
	}
}
