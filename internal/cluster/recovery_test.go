package cluster

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/transport"
)

func init() {
	// A paced WordCount so cancellation and straggler tests have a job that
	// cannot race to completion before the fault fires.
	mapreduce.Register("cluster-slow-wordcount", mapreduce.App{
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

// recoveryText builds a corpus with many distinct words so every reduce
// partition of a small ring is non-empty — a crashed owner then always
// takes real intermediate data with it.
func recoveryText(distinct, repeat int) (string, map[string]int) {
	var b strings.Builder
	want := make(map[string]int, distinct)
	for r := 0; r < repeat; r++ {
		for i := 0; i < distinct; i++ {
			fmt.Fprintf(&b, "term%03d ", i)
			want[fmt.Sprintf("term%03d", i)]++
		}
		b.WriteByte('\n')
	}
	return b.String(), want
}

// nonManagerNode picks a live worker that is not the resource manager.
func nonManagerNode(t *testing.T, c *Cluster) hashing.NodeID {
	t.Helper()
	mgrID := c.Manager().ID
	for _, id := range c.Nodes() {
		if id != mgrID {
			return id
		}
	}
	t.Fatal("no non-manager node")
	return ""
}

// TestLostPartitionRecoveryEndToEnd is the acceptance chaos test: a
// 4-node WordCount under seeded message drops loses the owner of a reduce
// partition, whose spills have no other copy. The job must complete with
// output byte-identical to a fault-free run — without restarting from
// scratch and without re-reducing partitions that survived, both pinned
// via the driver's counters.
func TestLostPartitionRecoveryEndToEnd(t *testing.T) {
	text, _ := recoveryText(300, 40)
	spec := mapreduce.JobSpec{
		ID: "heal-e2e", App: "cluster-wordcount", Inputs: []string{"chaos.txt"},
		User: "u", MaxAttempts: 5,
	}

	// Fault-free baseline for the byte-identity check.
	base := newTestCluster(t, 4, Options{})
	want := runWordCount(t, base, spec, text)

	for _, tc := range []struct {
		name string
		// at is the event whose first occurrence crash-stops the owner.
		at string
		// cut, instead of a crash, cuts the link from another worker to
		// the owner before the job starts: the owner stays reachable from
		// the driver and every other node, so only the maps on that worker
		// know their spills missed it.
		cut bool
		// resume stops the driver at the first map that finishes with the
		// owner's partitions lost, and finishes the job with Resume.
		resume bool
	}{
		// Every spill has landed; no reduce has run.
		{name: "after-maps", at: "job.phase.reduce"},
		{name: "mid-map", at: "map.finish"},
		{name: "asymmetric", cut: true},
		{name: "resume", at: "map.finish", resume: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			chaos := transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{
				Seed:    20260806,
				Latency: 50 * time.Microsecond,
				Jitter:  100 * time.Microsecond,
			})
			c := newTestCluster(t, 4, Options{
				Network: chaos,
				Retry:   transport.RetryPolicy{MaxAttempts: 5, BaseDelay: 200 * time.Microsecond},
			})
			if _, err := c.UploadRecords("chaos.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
				t.Fatal(err)
			}
			chaos.SetDrop(0.05) // upload ran fault-free; the job does not

			victim := nonManagerNode(t, c)
			if tc.cut {
				for _, id := range c.Nodes() {
					if id != victim && id != c.Manager().ID {
						chaos.Partition(id, victim, true)
						break
					}
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The crash is a chaos crash-stop where the event fires (nothing
			// reaches the victim after it), then the manager's eviction.
			failed := make(chan error, 1)
			var crashed, stopped sync.Once
			c.Manager().Events().SetObserver(func(e events.Event) {
				if e.Job != spec.ID || tc.at == "" {
					return
				}
				if e.Name == tc.at {
					crashed.Do(func() {
						chaos.Crash(victim)
						go func() { failed <- c.FailNow(victim) }()
					})
				}
				if tc.resume && e.Name == "map.finish" && strings.HasPrefix(e.Detail, "lost=") {
					stopped.Do(cancel)
				}
			})

			res, err := c.RunContext(ctx, spec)
			if tc.resume {
				if err == nil {
					t.Fatal("the run finished before any map reported a lost partition")
				}
				if ferr := <-failed; ferr != nil {
					t.Fatal(ferr)
				}
				res, err = c.Resume(spec.ID)
			}
			if err != nil {
				t.Fatalf("job did not self-heal after losing %s: %v", victim, err)
			}
			if tc.at != "" && !tc.resume {
				if ferr := <-failed; ferr != nil {
					t.Fatal(ferr)
				}
			}
			if res.RecoveredPartitions < 1 {
				t.Fatalf("RecoveredPartitions = %d, want >= 1 (victim %s owned no non-empty partition?)",
					res.RecoveredPartitions, victim)
			}

			kvs, err := c.Collect(res, "u")
			if err != nil {
				t.Fatal(err)
			}
			if got := mapreduce.EncodeKVs(kvs); !bytes.Equal(got, want) {
				t.Fatalf("recovered output diverged from fault-free run: %d vs %d bytes", len(got), len(want))
			}

			snap := c.MetricsSnapshot()
			if got := snap.Get("mr.driver.partition_recoveries"); got < 1 {
				t.Errorf("partition_recoveries = %d, want >= 1", got)
			}
			// Exactly one successful reduce per partition: the recovery
			// round re-reduced only the lost partitions, never the
			// completed ones.
			if got := snap.Get("mr.driver.partition_reduces"); got != int64(res.ReduceTasks) {
				t.Errorf("partition_reduces = %d with %d reduce tasks: completed partitions were re-reduced",
					got, res.ReduceTasks)
			}
			if snap.Get("chaos.drops") == 0 {
				t.Error("chaos.drops = 0: the schedule injected no message loss")
			}
			t.Logf("recovered %d partition(s) after losing %s: recoveries=%d reduces=%d/%d drops=%d",
				res.RecoveredPartitions, victim, snap.Get("mr.driver.partition_recoveries"),
				snap.Get("mr.driver.partition_reduces"), res.ReduceTasks, snap.Get("chaos.drops"))
		})
	}
}

// TestManagerFailoverAdoptsJournaledJob is the acceptance resume test:
// the manager dies mid-job, a new manager is elected, adopts the job from
// its durable journal and finishes it — re-executing only the work the
// journal does not record as done.
func TestManagerFailoverAdoptsJournaledJob(t *testing.T) {
	c := newTestCluster(t, 5, Options{Config: Config{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  60 * time.Millisecond,
	}})
	text, want := recoveryText(200, 30)
	meta, err := c.UploadRecords("journal.txt", "u", dhtfs.PermPublic, []byte(text), '\n')
	if err != nil {
		t.Fatal(err)
	}
	totalMaps := meta.Blocks()
	if totalMaps < 10 {
		t.Fatalf("corpus too small: %d blocks", totalMaps)
	}

	spec := mapreduce.JobSpec{
		ID: "journal-e2e", App: "cluster-slow-wordcount", Inputs: []string{"journal.txt"},
		User: "u", MaxAttempts: 5,
	}
	// "Kill" the driver a few completions into the map phase. Cancelling
	// RunContext models the manager process dying mid-job: dispatching
	// stops, and only the journal survives (we then really kill the node).
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	mgrEvents := c.Manager().Events()
	mgrEvents.SetObserver(func(e events.Event) {
		if e.Job == spec.ID && e.Name == "map.finish" {
			if done++; done == 5 {
				cancel()
			}
		}
	})
	if _, err := c.RunContext(ctx, spec); err == nil {
		t.Fatal("interrupted run reported success")
	}
	mgrEvents.SetObserver(nil)

	oldMgr := c.Manager().ID
	c.Kill(oldMgr)
	// Heartbeats detect the death; the bully election converges on the
	// next-highest ID.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if mgr := c.Manager(); mgr != nil && mgr.ID != oldMgr && !mgr.View().Has(oldMgr) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no new manager elected after the old one died")
		}
		time.Sleep(10 * time.Millisecond)
	}

	jobs, err := c.OrphanJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0] != spec.ID {
		t.Fatalf("orphaned jobs = %v, want [%s]", jobs, spec.ID)
	}
	res, err := c.Resume(spec.ID)
	if err != nil {
		t.Fatalf("elected manager failed to adopt the job: %v", err)
	}
	if !res.Resumed {
		t.Error("Resumed flag not set on the adopted run")
	}
	if res.MapTasks == 0 || res.MapTasks >= totalMaps {
		t.Errorf("adopted run re-executed %d of %d maps; want a strict, non-empty subset",
			res.MapTasks, totalMaps)
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, kv := range kvs {
		n, _ := strconv.Atoi(string(kv.Value))
		got[kv.Key] = n
	}
	if len(got) != len(want) {
		t.Fatalf("resumed job produced %d distinct keys, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
	t.Logf("manager %s died with %d/%d maps journaled; successor re-ran %d maps, recovered %d partitions",
		oldMgr, totalMaps-res.MapTasks, totalMaps, res.MapTasks, res.RecoveredPartitions)
}

// TestChaosStragglerDelaysButNeverCorrupts: seeded chaos latency turns one
// node into a straggler, slow but not dead. Its map tasks run there to
// completion, with no retry, failover or duplicate execution; the job
// waits for them and its counts are exact.
func TestChaosStragglerDelaysButNeverCorrupts(t *testing.T) {
	const latency = 100 * time.Millisecond
	chaos := transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{Seed: 7})
	c := newTestCluster(t, 4, Options{
		Network: chaos,
		// Big blocks: about a dozen map tasks, all in the first wave.
		Config: Config{BlockSize: 4 << 10},
	})
	// A single-word corpus keeps the shuffle off the straggler: only the
	// word's own partition receives spills.
	text := strings.Repeat(strings.Repeat("zebra ", 12)+"\n", 1200)
	want := map[string]int{"zebra": 12 * 1200}
	if _, err := c.UploadRecords("slow.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	// Straggler: a non-manager node that does not own the word's reduce
	// partition.
	partOwner, err := c.Manager().Ring().Owner(hashing.ShuffleKey("zebra"))
	if err != nil {
		t.Fatal(err)
	}
	var straggler hashing.NodeID
	mgrID := c.Manager().ID
	for _, id := range c.Nodes() {
		if id != mgrID && id != partOwner {
			straggler = id
			break
		}
	}
	if straggler == "" {
		t.Fatal("no eligible straggler node")
	}
	// Every message to the straggler crawls; nothing is dropped.
	chaos.SetLink("", straggler, 0, latency, 0)

	res, err := c.Run(mapreduce.JobSpec{
		ID: "straggler-e2e", App: "cluster-wordcount", Inputs: []string{"slow.txt"}, User: "u",
	})
	if err != nil {
		t.Fatalf("job failed under straggler latency: %v", err)
	}
	kvs, err := c.Collect(res, "u")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, kv := range kvs {
		n, _ := strconv.Atoi(string(kv.Value))
		got[kv.Key] = n
	}
	if len(got) != len(want) || got["zebra"] != want["zebra"] {
		t.Fatalf("counts %v, want %v", got, want)
	}
	snap := c.MetricsSnapshot()
	for _, name := range []string{"mr.driver.map_retries", "mr.driver.map_failovers", "mr.driver.reduce_failovers"} {
		if n := snap.Get(name); n != 0 {
			t.Errorf("%s = %d, want 0: a slow node is not a failed one", name, n)
		}
	}
	evs, _, err := c.Events("straggler-e2e")
	if err != nil {
		t.Fatal(err)
	}
	executions, onStraggler := 0, 0
	for _, e := range evs {
		switch e.Name {
		case "map.dispatch", "map.failover":
			executions++
			if e.Detail == string(straggler) {
				onStraggler++
			}
		}
	}
	if executions != res.MapTasks || onStraggler == 0 {
		t.Fatalf("%d map executions for %d tasks, %d on the straggler: want one each, some there", executions, res.MapTasks, onStraggler)
	}
	if res.Elapsed < latency {
		t.Fatalf("job took %v with maps on a node %v away", res.Elapsed, latency)
	}
	t.Logf("straggler %s ran %d of %d maps, job in %v", straggler, onStraggler, res.MapTasks, res.Elapsed)
}

// TestSuspectVerifyRetriesUnderDrops pins the retried verification ping:
// a live node reported as suspect must survive even when half the
// manager's pings to it are dropped — the single unretried ping of the
// old implementation evicted healthy nodes on the first lost packet.
func TestSuspectVerifyRetriesUnderDrops(t *testing.T) {
	// Seed 2's drop schedule on the manager→victim link never strings five
	// losses together, so a 5-attempt verification always gets through
	// (while individual drops still occur and are asserted below).
	chaos := transport.NewChaos(transport.NewLocal(), transport.ChaosConfig{Seed: 2})
	c := newTestCluster(t, 3, Options{
		Network:     chaos,
		bareNetwork: true, // the verification path must bring its own retries
		Config:      Config{HeartbeatInterval: time.Hour},
	})
	mgrNode := c.Manager()
	mgr := mgrNode.Manager()
	victim := nonManagerNode(t, c)
	chaos.SetLink(mgrNode.ID, victim, 0.5, 0, 0)

	for i := 0; i < 3; i++ {
		mgr.reportSuspect(victim)
	}
	for _, id := range mgr.Members() {
		if id == victim {
			if drops := c.MetricsSnapshot().Get("chaos.drops"); drops == 0 {
				t.Fatal("no pings dropped: the retry path was never exercised")
			}
			return
		}
	}
	t.Fatalf("live node %s evicted despite retried verification (members %v)", victim, mgr.Members())
}

// TestReReplicateIdempotentAfterChurn pins repair idempotence: after one
// node fails and a replacement joins, a full re-replication pass restores
// every block and metadata entry to its replica set — and a second pass
// pushes nothing.
func TestReReplicateIdempotentAfterChurn(t *testing.T) {
	c := newTestCluster(t, 5, Options{})
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("churn-%d.txt", i)
		data := bytes.Repeat([]byte(fmt.Sprintf("payload %d for replication\n", i)), 50)
		if _, err := c.UploadRecords(name, "u", dhtfs.PermPublic, data, '\n'); err != nil {
			t.Fatal(err)
		}
	}

	// Churn: one failure, one join.
	if err := c.FailNow(nonManagerNode(t, c)); err != nil {
		t.Fatal(err)
	}
	newID := hashing.NodeID("worker-90")
	n, err := NewNode(newID, c.net, c.opts.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	c.nodes[newID] = n
	c.order = append(c.order, newID)
	if err := c.Manager().Manager().Join(newID); err != nil {
		t.Fatal(err)
	}
	// Wait for every node to adopt the post-churn view so all repairers
	// agree on the replica sets.
	deadline := time.Now().Add(5 * time.Second)
	for {
		settled := true
		for _, id := range c.Nodes() {
			node, _ := c.Node(id)
			if len(node.View().Members) != 5 {
				settled = false
			}
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("views never converged after churn")
		}
		time.Sleep(10 * time.Millisecond)
	}

	pass := func() int {
		t.Helper()
		total := 0
		for _, id := range c.Nodes() {
			node, _ := c.Node(id)
			pushed, err := node.FS().ReReplicate(context.Background())
			if err != nil {
				t.Fatalf("ReReplicate on %s: %v", id, err)
			}
			total += pushed
		}
		return total
	}
	// The membership machinery already drove recovery on Fail/Join; drive
	// explicit passes to the fixpoint, then pin idempotence: once converged,
	// a full repair pass must push nothing. (Before metadata restoration
	// checked the target, every pass re-pushed every metadata entry and no
	// pass ever reached zero.)
	last := -1
	for i := 0; i < 6 && last != 0; i++ {
		last = pass()
	}
	if last != 0 {
		t.Fatalf("repair never converged: last pass pushed %d objects", last)
	}
	if extra := pass(); extra != 0 {
		t.Fatalf("converged repair pass pushed %d objects, want 0 (repair is not idempotent)", extra)
	}

	// Every block sits on exactly its replica-set members.
	ring := c.Manager().Ring()
	factor := c.opts.Replicas
	blocks := 0
	for _, id := range c.Nodes() {
		node, _ := c.Node(id)
		for _, k := range node.FS().Store().BlockKeys() {
			targets, err := ring.ReplicaSet(k, factor)
			if err != nil {
				t.Fatal(err)
			}
			holders := 0
			for _, tid := range c.Nodes() {
				tn, _ := c.Node(tid)
				if tn.FS().Store().HasBlock(k) {
					holders++
				}
			}
			for _, target := range targets {
				tn, ok := c.Node(target)
				if !ok {
					t.Fatalf("replica target %s for block %v is not live", target, k)
				}
				if !tn.FS().Store().HasBlock(k) {
					t.Errorf("block %v missing from replica %s", k, target)
				}
			}
			if holders != len(targets) {
				t.Errorf("block %v held by %d nodes, want exactly %d", k, holders, len(targets))
			}
			blocks++
		}
	}
	if blocks == 0 {
		t.Fatal("no blocks found after churn")
	}
}
