package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/mapreduce"
	"eclipsemr/internal/scheduler"
)

// TestConcurrentRunsAcrossManagerFailover: the manager dies after running
// a job, and once the election settles four concurrent jobs run on the
// elected manager's own scheduler and driver and finish with exact counts.
// Its driver's counters are reported once, by its node. The deadline turns
// a hang (two dispatch loops pumping one scheduler) into a failure.
func TestConcurrentRunsAcrossManagerFailover(t *testing.T) {
	c := newTestCluster(t, 5, Options{Config: Config{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  60 * time.Millisecond,
	}})
	text, want := recoveryText(40, 8)
	if _, err := c.UploadRecords("failover.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	run := func(id string) (mapreduce.Result, error) {
		res, err := c.Run(mapreduce.JobSpec{ID: id, App: "cluster-wordcount", Inputs: []string{"failover.txt"}, User: "u"})
		if err != nil {
			return res, fmt.Errorf("%s: %w", id, err)
		}
		kvs, err := c.Collect(res, "u")
		if err != nil {
			return res, fmt.Errorf("%s: collect: %w", id, err)
		}
		if len(kvs) != len(want) {
			return res, fmt.Errorf("%s: %d distinct keys, want %d", id, len(kvs), len(want))
		}
		for _, kv := range kvs {
			if n, _ := strconv.Atoi(string(kv.Value)); n != want[kv.Key] {
				return res, fmt.Errorf("%s: count[%q] = %d, want %d", id, kv.Key, n, want[kv.Key])
			}
		}
		return res, nil
	}
	if _, err := run("before"); err != nil {
		t.Fatal(err)
	}

	oldMgr := c.Manager().ID
	c.Kill(oldMgr)
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

	const jobs = 4
	type outcome struct {
		res mapreduce.Result
		err error
	}
	done := make(chan outcome, jobs)
	for i := range jobs {
		go func() {
			res, err := run(fmt.Sprintf("after-%d", i))
			done <- outcome{res, err}
		}()
	}
	timeout := time.After(60 * time.Second)
	reduces := int64(0)
	for range jobs {
		select {
		case o := <-done:
			if o.err != nil {
				t.Error(o.err)
			}
			reduces += int64(o.res.ReduceTasks)
		case <-timeout:
			t.Fatal("concurrent runs on the elected manager hung")
		}
	}
	if got := c.MetricsSnapshot().Get("mr.driver.partition_reduces"); got != reduces {
		t.Errorf("mr.driver.partition_reduces = %d, want the %d reduce tasks the elected manager ran", got, reduces)
	}
}

// TestKillWhileSnapshotting: Kill removes nodes while the facade ranges
// over the node set; under -race an unguarded map is a reported race.
func TestKillWhileSnapshotting(t *testing.T) {
	c := newTestCluster(t, 5, Options{})
	victims := c.Nodes()[:3] // the manager is the highest ID
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, id := range victims {
			c.Kill(id)
			time.Sleep(time.Millisecond)
		}
	}()
	for {
		select {
		case <-done:
			if got := len(c.Nodes()); got != 2 {
				t.Fatalf("%d nodes live after killing 3 of 5", got)
			}
			return
		default:
		}
		c.MetricsSnapshot()
		c.CacheStats()
		if c.Manager() == nil {
			t.Fatal("the manager vanished while workers were killed")
		}
	}
}

// TestManagerRoleCountsOnce: one job on a healthy cluster shows in the
// merged snapshot exactly as often as it ran. The role's driver and
// scheduler report through their node alone, so nothing is merged twice.
func TestManagerRoleCountsOnce(t *testing.T) {
	c := newTestCluster(t, 4, Options{})
	text, _ := recoveryText(30, 6)
	if _, err := c.UploadRecords("once.txt", "u", dhtfs.PermPublic, []byte(text), '\n'); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(mapreduce.JobSpec{ID: "once", App: "cluster-wordcount", Inputs: []string{"once.txt"}, User: "u"})
	if err != nil {
		t.Fatal(err)
	}
	snap := c.MetricsSnapshot()
	if got := snap.Get("mr.driver.partition_reduces"); got != int64(res.ReduceTasks) {
		t.Errorf("mr.driver.partition_reduces = %d, want the %d reduce tasks run", got, res.ReduceTasks)
	}
	if got := snap.Hists["mr.driver.job_ns"].Count(); got != 1 {
		t.Errorf("mr.driver.job_ns holds %d jobs, want 1", got)
	}
	if got := snap.Hists["sched.queue_wait_ns"].Count(); got != int64(res.MapTasks) {
		t.Errorf("sched.queue_wait_ns holds %d assignments, want the %d map tasks run", got, res.MapTasks)
	}
}

// TestManagerRoleSlotsFollowMembership: the role's scheduler holds the
// map slots of every member; an eviction takes a node's slots out and a
// join gives the newcomer its own.
func TestManagerRoleSlotsFollowMembership(t *testing.T) {
	c := newTestCluster(t, 4, Options{})
	perNode := c.opts.Config.withDefaults().MapSlots
	slots := func() int {
		t.Helper()
		s := c.Scheduler()
		if s == nil {
			t.Fatal("no scheduler: the cluster has no manager")
		}
		return s.Slots()
	}
	if got := slots(); got != 4*perNode {
		t.Fatalf("slots at bootstrap = %d, want %d", got, 4*perNode)
	}
	if err := c.FailNow(c.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	if got := slots(); got != 3*perNode {
		t.Fatalf("slots after an eviction = %d, want %d", got, 3*perNode)
	}
	newID := hashing.NodeID("worker-99")
	n, err := NewNode(newID, c.net, c.opts.Config)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.nodes[newID] = n
	c.order = append(c.order, newID)
	c.mu.Unlock()
	if err := c.Manager().Manager().Join(newID); err != nil {
		t.Fatal(err)
	}
	if got := slots(); got != 4*perNode {
		t.Fatalf("slots after a join = %d, want %d", got, 4*perNode)
	}
}

// TestManagerRolePolicy: the role builds its scheduler from the
// cluster's Options.Policy.
func TestManagerRolePolicy(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		want   func(scheduler.Scheduler) bool
	}{
		{PolicyLAF, func(s scheduler.Scheduler) bool { _, ok := s.(*scheduler.LAF); return ok }},
		{PolicyDelay, func(s scheduler.Scheduler) bool { _, ok := s.(*scheduler.Delay); return ok }},
		{PolicyFair, func(s scheduler.Scheduler) bool { _, ok := s.(*scheduler.Fair); return ok }},
	} {
		t.Run(string(tc.policy), func(t *testing.T) {
			c := newTestCluster(t, 3, Options{Policy: tc.policy})
			if s := c.Scheduler(); !tc.want(s) {
				t.Fatalf("policy %q built a %T scheduler", tc.policy, s)
			}
		})
	}
}

// TestPromoteRefusesHeldOrClosed: a node that holds the role already, or
// has closed, is not promoted again, and the role in place stays.
func TestPromoteRefusesHeldOrClosed(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	mgrNode := c.Manager()
	held := mgrNode.Manager()
	if _, err := mgrNode.BecomeManagerWith(mgrNode.Ring(), 9); err == nil {
		t.Fatal("the manager was promoted a second time")
	}
	if mgrNode.Manager() != held {
		t.Fatal("a refused promotion replaced the role in place")
	}
	victim, _ := c.Node(c.Nodes()[0])
	ring := victim.Ring()
	c.Kill(victim.ID)
	if _, err := victim.BecomeManagerWith(ring, 9); err == nil {
		t.Fatal("a closed node was promoted")
	}
	if victim.IsManager() {
		t.Fatal("a closed node holds the manager role")
	}
}

// TestClosedManagerClosesDriver: when the manager's node closes, its
// role stops and its driver refuses work rather than dispatching onto a
// node that is gone.
func TestClosedManagerClosesDriver(t *testing.T) {
	c := newTestCluster(t, 3, Options{})
	if _, err := c.UploadRecords("closed.txt", "u", dhtfs.PermPublic, []byte("a b\n"), '\n'); err != nil {
		t.Fatal(err)
	}
	mgrNode := c.Manager()
	role := mgrNode.Manager()
	c.Kill(mgrNode.ID)
	_, err := role.Driver().Run(mapreduce.JobSpec{ID: "late", App: "cluster-wordcount", Inputs: []string{"closed.txt"}, User: "u"})
	if err == nil || !strings.Contains(err.Error(), "driver closed") {
		t.Fatalf("run on a stopped role: err = %v, want driver closed", err)
	}
}
