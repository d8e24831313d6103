package mapreduce

import (
	"context"
	"fmt"
	"testing"

	"eclipsemr/internal/hashing"
)

// TestJournalFailedFlushNotLost pins two journalWriter fixes at once: a
// flush that fails to upload must re-mark the state dirty (not silently
// drop the snapshot), and close's final flush must run even under a
// cancelled job context, so the retried snapshot still lands.
func TestJournalFailedFlushNotLost(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	self := ec.ids[0]

	// Pick a job ID whose journal file maps entirely to remote nodes:
	// both the metadata key and the single block key must avoid the
	// driver's own node, so partitioning the remotes fails the flush
	// deterministically (self-calls bypass the network).
	var jobID string
	for i := 0; i < 10000 && jobID == ""; i++ {
		id := fmt.Sprintf("dirty-%04d", i)
		file := journalFile(id)
		onSelf := false
		for _, k := range []hashing.Key{hashing.KeyOfString(file), hashing.BlockKey(file, 0)} {
			set, err := ec.ring.ReplicaSet(k, 2)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range set {
				if n == self {
					onSelf = true
				}
			}
		}
		if !onSelf {
			jobID = id
		}
	}
	if jobID == "" {
		t.Fatal("no job ID maps its journal entirely to remote nodes")
	}

	spec := JobSpec{ID: jobID, App: "test-wordcount", Inputs: []string{"s.txt"}, User: "tester"}
	mk := &marker{Servers: []hashing.NodeID{self}, Bounds: []hashing.Key{hashing.KeyOfString("x")},
		PartBytes: []int64{0}}
	w := ec.driver.newJournalWriter(context.Background(), spec, mk, nil)

	for _, id := range ec.ids[1:] {
		ec.net.Partition(id, true)
	}
	w.updateSync(func(j *journal) { j.MapsDone["m1"] = true })
	if got := ec.driver.reg.Snapshot().Get("mr.driver.journal_errors"); got == 0 {
		t.Fatal("the partitioned flush did not fail; the test exercises nothing")
	}
	for _, id := range ec.ids[1:] {
		ec.net.Partition(id, false)
	}

	// Close under an already-cancelled context: the final flush must
	// still persist the retried snapshot (context.WithoutCancel).
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	w.close(cctx)

	j, err := ec.driver.loadJournal(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	if !j.MapsDone["m1"] {
		t.Fatal("mutation from the failed flush was lost; close did not retry the dropped snapshot")
	}
}
