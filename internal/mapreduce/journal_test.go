package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"eclipsemr/internal/dhtfs"
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

// TestFaultFreeJobWaitsOnTheJournalTwice: a fault-free job waits for its
// journal twice, for the opening snapshot and for the done phase. Map
// completions, the reduce phase and every partition are queued, and the
// done snapshot carries them all.
func TestFaultFreeJobWaitsOnTheJournalTwice(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, _ := wideCorpus(150, 4)
	ec.upload(t, "waits.txt", text, 512)
	res, err := ec.driver.Run(JobSpec{ID: "waits-1", App: "test-wordcount", Inputs: []string{"waits.txt"}, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReduceTasks < 4 || res.MapTasks < 4 {
		t.Fatalf("the job ran %d maps and %d reduces: input too small", res.MapTasks, res.ReduceTasks)
	}
	if waits := ec.driver.Metrics().Snapshot().Hists["mr.driver.journal_wait_ns"].Count(); waits != 2 {
		t.Errorf("the job waited for its journal %d times, want 2", waits)
	}
	j, err := ec.driver.loadJournal(context.Background(), "waits-1")
	if err != nil {
		t.Fatal(err)
	}
	if j.Phase != phaseDone || len(j.MapsDone) != res.MapTasks || len(j.PartsDone) != res.ReduceTasks {
		t.Fatalf("journal after the run: phase %s, %d maps and %d partitions done; the job ran %d and %d",
			j.Phase, len(j.MapsDone), len(j.PartsDone), res.MapTasks, res.ReduceTasks)
	}
}

// TestParentJournalResumes: testdata/journal-format0 is the journal of
// job parent-1 in its reduce phase with partition 0 left, as the parent
// commit encoded it (format 0, its two spec fields set). Resuming from it
// reduces that partition alone, and every output is byte for byte the
// run's it was taken from.
func TestParentJournalResumes(t *testing.T) {
	ctx := context.Background()
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, want := wideCorpus(150, 6)
	ec.upload(t, "parent.txt", text, 256)
	fs := ec.fs[ec.ids[0]]
	spec := JobSpec{ID: "parent-1", App: "test-wordcount", Inputs: []string{"parent.txt"}, User: "tester"}
	first, err := ec.driver.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	outputs := make([][]byte, len(first.OutputFiles))
	for i, f := range first.OutputFiles {
		if outputs[i], err = fs.ReadFile(ctx, f, "tester"); err != nil {
			t.Fatal(err)
		}
	}

	data, err := os.ReadFile(filepath.Join("testdata", "journal-format0"))
	if err != nil {
		t.Fatal(err)
	}
	var j journal
	if err := j.ParseWire(data); err != nil || data[0] != parentFormat {
		t.Fatalf("format %#x: %v", data[0], err)
	}
	if fmt.Sprint(j.Spec) != fmt.Sprint(spec) || j.Phase != phaseReduce || len(j.PartsDone) != 3 || j.PartsDone[0] != "" {
		t.Fatalf("the parent journal reads as spec %+v, phase %s, partitions done %v", j.Spec, j.Phase, j.PartsDone)
	}
	current := append([]byte{durableFormat}, data[1:]...)
	if err := new(journal).ParseWire(current); err == nil {
		t.Fatal("the parent journal parses without skipping its two spec fields; the test exercises nothing")
	}
	// Partition 0's output goes, so the resume has to write it again.
	if err := fs.Delete(ctx, first.OutputFiles[0], "tester"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Upload(ctx, journalFile(spec.ID), "tester", dhtfs.PermPublic, data, 1<<20); err != nil {
		t.Fatal(err)
	}
	before := ec.driver.Metrics().Snapshot().Get("mr.driver.partition_reduces")
	res, err := ec.driver.Resume(spec.ID)
	if err != nil {
		t.Fatalf("resume from the parent journal: %v", err)
	}
	if got := ec.driver.Metrics().Snapshot().Get("mr.driver.partition_reduces") - before; got != 1 || res.MapTasks != 0 {
		t.Fatalf("resume ran %d maps and %d reduces, want 0 and 1", res.MapTasks, got)
	}
	if fmt.Sprint(res.OutputFiles) != fmt.Sprint(first.OutputFiles) {
		t.Fatalf("resumed outputs %v, the run's %v", res.OutputFiles, first.OutputFiles)
	}
	for i, f := range res.OutputFiles {
		got, err := fs.ReadFile(ctx, f, "tester")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, outputs[i]) {
			t.Fatalf("%s: %d bytes after the resume, %d before", f, len(got), len(outputs[i]))
		}
	}
	kvs, err := ec.driver.Collect(ctx, res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}
