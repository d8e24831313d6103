package mapreduce

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"eclipsemr/internal/events"
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
	w.updateSync(context.Background(), func(j *journal) { j.MapsDone["m1"] = true })
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

// openTestJournal opens a journal writer for a job of its own on the
// driver's node, as a run would before any work.
func openTestJournal(ec *engineCluster, job string) *journalWriter {
	spec := JobSpec{ID: job, App: "test-wordcount", Inputs: []string{"s.txt"}, User: "tester"}
	mk := &marker{Servers: []hashing.NodeID{ec.ids[0]}, Bounds: []hashing.Key{hashing.KeyOfString("x")},
		PartBytes: []int64{0}}
	return ec.driver.newJournalWriter(context.Background(), spec, mk, nil)
}

// TestJournalCloseUploadsOnlyWhatTheFileLacks: close makes no upload when
// the last snapshot holds every record, so a fault-free run ends on its
// last flush point, and exactly one when a record was made after it.
func TestJournalCloseUploadsOnlyWhatTheFileLacks(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	ctx := context.Background()

	clean := openTestJournal(ec, "close-clean")
	clean.updateSync(ctx, func(j *journal) { j.MapsDone["m1"] = true })
	clean.close(ctx)
	if got := journalFlushes(ec, "close-clean"); len(got) != 2 {
		t.Fatalf("a writer with nothing left to persist was written %d times, phases %v; want 2", len(got), got)
	}

	late := openTestJournal(ec, "close-late")
	late.updateSync(ctx, func(j *journal) { j.MapsDone["m1"] = true })
	late.update(ctx, func(j *journal) { j.MapsDone["m2"] = true }, false)
	late.close(ctx)
	if got := journalFlushes(ec, "close-late"); len(got) != 3 {
		t.Fatalf("a writer with one unflushed record was written %d times, phases %v; want 3", len(got), got)
	}
	j, err := ec.driver.loadJournal(ctx, "close-late")
	if err != nil {
		t.Fatal(err)
	}
	if !j.MapsDone["m1"] || !j.MapsDone["m2"] {
		t.Fatalf("journal after close holds maps %v; want m1 and m2", j.MapsDone)
	}
}

// TestJournalFlushesAreNotFolded: flushes asked for back to back, without
// waiting, are neither folded into one another nor overtaken: each makes
// one upload, and once the last is over the file holds every record.
func TestJournalFlushesAreNotFolded(t *testing.T) {
	const job, n = "unfolded-1", 16
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	ctx := context.Background()
	w := openTestJournal(ec, job)
	for i := 0; i < n; i++ {
		w.update(ctx, func(j *journal) { j.MapsDone[fmt.Sprintf("m%02d", i)] = true }, true)
	}
	w.close(ctx)
	for _, e := range ec.events.Events(job, 0) {
		if e.Name == "journal.flush_error" {
			t.Fatalf("journal upload failed: %s", e.Detail)
		}
	}
	if got := journalFlushes(ec, job); len(got) != 1+n {
		t.Fatalf("%d flush requests after the opening snapshot made %d uploads; want %d", n, len(got), 1+n)
	}
	j, err := ec.driver.loadJournal(ctx, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.MapsDone) != n {
		t.Fatalf("journal after the last flush holds %d maps, want %d", len(j.MapsDone), n)
	}
}

// TestFaultFreeJobWaitsOnTheJournalTwice: a fault-free job waits for its
// journal twice, for the opening snapshot and for the done phase. Map
// completions, the reduce phase and every partition are queued, and the
// done snapshot carries them all. Every partition of its input holds more
// than reduceGroupBytes (21-152 KiB), so each is a reduce task of its own.
func TestFaultFreeJobWaitsOnTheJournalTwice(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, _ := wideCorpus(1000, 16)
	ec.upload(t, "waits.txt", text, 4096)
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

// journalFlushes lists the phase of every snapshot of a job's journal
// that reached the file system, in order.
func journalFlushes(ec *engineCluster, job string) []string {
	var phases []string
	for _, e := range ec.events.Events(job, 0) {
		if e.Name == "journal.flush" {
			phases = append(phases, e.Detail)
		}
	}
	return phases
}

// TestJournalPacingOneWave: a job with no more maps than slots and no more
// partitions than reduce slots writes three snapshots, the opening one,
// the reduce phase and the done phase: no completion asks for a flush of
// its own. Each reduce waits until the reduce phase is in the file: its
// upload is asked for before any reduce runs and never waits on one.
func TestJournalPacingOneWave(t *testing.T) {
	const job = "onewave-1"
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, _ := wideCorpus(150, 4)
	ec.upload(t, "onewave.txt", text, 512)
	ec.events.SetObserver(func(e events.Event) {
		if e.Job != job || e.Name != "reduce.dispatch" {
			return
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if j, err := readJournal(context.Background(), ec.fs[ec.ids[1]], job); err == nil && j.Phase != phaseMap {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("the reduce phase never reached the journal")
				return
			}
		}
	})
	res, err := ec.driver.Run(JobSpec{ID: job, App: "test-wordcount", Inputs: []string{"onewave.txt"}, User: "tester"})
	ec.events.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	// One partition per node, and engine clusters give every node as many
	// reduce slots as map slots.
	if res.MapTasks > ec.sched.Slots() || res.ReduceTasks > len(ec.ids) {
		t.Fatalf("the job ran %d maps and %d reduces on %d slots: more than one wave", res.MapTasks, res.ReduceTasks, ec.sched.Slots())
	}
	if got := journalFlushes(ec, job); fmt.Sprint(got) != "[map reduce done]" {
		t.Fatalf("the journal was written %d times, phases %v; want the opening, reduce and done snapshots", len(got), got)
	}
}

// TestJournalPacingBound: a 40-map job on 8 slots asks for a flush at
// every eighth map completion but the last, so it writes exactly 3 + 4
// snapshots, and once each requested flush is in, the journal file holds
// every completion but at most one wave's. Each completion waits, with the
// driver held, until the file holds what pacing has asked for so far: a
// flush asked for too late, or not at all, never arrives.
func TestJournalPacingBound(t *testing.T) {
	const maps, job = 40, "bound-1"
	ec := newEngineCluster(t, engineOpts{nodes: 4, slots: 2})
	wave := ec.sched.Slots()
	if wave != 8 {
		t.Fatalf("%d slots, want 8", wave)
	}
	var text []byte
	for i := 0; i < maps; i++ { // one 64-byte line per block
		text = fmt.Appendf(text, "%-63s\n", fmt.Sprintf("word%03d word%03d", i%7, i%5))
	}
	ec.upload(t, "bound.txt", text, 64)

	ctx := context.Background()
	fs := ec.fs[ec.ids[1]]
	finished, stuck := 0, false
	ec.events.SetObserver(func(e events.Event) {
		if e.Job != job || e.Name != "map.finish" {
			return
		}
		// Runs under the driver's lock: no other completion is recorded
		// while the file catches up.
		if finished++; stuck {
			return
		}
		asked := finished / wave * wave
		if finished == maps {
			asked = (maps - 1) / wave * wave // the phase's last completion asks for none
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			j, err := readJournal(ctx, fs, job)
			if err == nil && len(j.MapsDone) >= asked {
				if finished-len(j.MapsDone) > wave {
					t.Errorf("after %d completions the journal holds %d: more than a wave behind", finished, len(j.MapsDone))
				}
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("after %d completions the journal never held the %d pacing asked for (last read: %v)", finished, asked, err)
				stuck = true
				return
			}
		}
	})
	res, err := ec.driver.Run(JobSpec{ID: job, App: "test-wordcount", Inputs: []string{"bound.txt"}, User: "tester"})
	ec.events.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.MapTasks != maps || finished != maps {
		t.Fatalf("the job ran %d maps (%d finished), want %d", res.MapTasks, finished, maps)
	}
	got := journalFlushes(ec, job)
	if want := 3 + (maps-1)/wave; len(got) != want {
		t.Fatalf("the journal was written %d times, phases %v; want %d", len(got), got, want)
	}
	if got[0] != phaseMap || got[len(got)-1] != phaseDone {
		t.Fatalf("snapshot phases %v: want the opening one first and done last", got)
	}
}

// TestJournalPacingFollowsShape: a job's snapshot count is its count of
// flush points, whatever the timing: the opening snapshot, one per map
// wave but the last (⌊(maps−1)/slots⌋), the reduce phase, two per
// recovery round (the re-homed table and the end of its re-shuffle) and
// the done phase. A partition owner dies once every map has pushed, so the
// job reduces in two waves, the second after one recovery round. A reduce
// wave asks for no flush of its own here: its tasks, one per partition at
// most, never outnumber its owners' slots. Snapshots reach the file in
// order, so the phases of successive ones never go backward.
func TestJournalPacingFollowsShape(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 5, slots: 2})
	text, want := wideCorpus(200, 8)
	ec.upload(t, "shape.txt", text, 256)

	// The victim holds no copy of the journal, so no upload fails when it
	// dies; every snapshot is a journal.flush event.
	victim := ec.ids[1]
	var job string
	for i := 0; i < 1000 && job == ""; i++ {
		id := fmt.Sprintf("shape-%03d", i)
		file := journalFile(id)
		holds := false
		for _, k := range []hashing.Key{hashing.KeyOfString(file), hashing.BlockKey(file, 0)} {
			set, err := ec.ring.ReplicaSet(k, 2)
			if err != nil {
				t.Fatal(err)
			}
			holds = holds || slices.Contains(set, victim)
		}
		if !holds {
			job = id
		}
	}
	if job == "" {
		t.Fatal("no job ID keeps its journal off the victim")
	}

	var once sync.Once
	ec.events.SetObserver(func(e events.Event) {
		if e.Job != job || e.Name != "job.phase.reduce" {
			return
		}
		once.Do(func() {
			ec.net.Unlisten(victim)
			next := hashing.NewChordRing()
			for _, id := range ec.ring.Members() {
				if pos, _ := ec.ring.Position(id); id != victim {
					_ = next.Add(id, pos)
				}
			}
			ec.mu.Lock()
			ec.ring = next
			ec.mu.Unlock()
			ec.sched.RemoveNode(victim)
		})
	})
	slots := ec.sched.Slots()
	res, err := ec.driver.Run(JobSpec{ID: job, App: "test-wordcount", Inputs: []string{"shape.txt"}, User: "tester"})
	ec.events.SetObserver(nil)
	if err != nil {
		t.Fatalf("job did not self-heal: %v", err)
	}
	rounds := 0
	for _, e := range ec.events.Events(job, 0) {
		switch e.Name {
		case "job.recovery":
			rounds++
		case "journal.flush_error":
			t.Errorf("journal upload failed: %s", e.Detail)
		}
	}
	if mapWaves := (res.MapTasks - 1) / slots; mapWaves < 2 || rounds != 1 {
		t.Fatalf("the job ran %d maps on %d slots and %d recovery rounds: want several map waves and one round", res.MapTasks, slots, rounds)
	}

	got := journalFlushes(ec, job)
	if want := 1 + (res.MapTasks-1)/slots + 1 + 2*rounds + 1; len(got) != want {
		t.Errorf("the journal was written %d times, phases %v; want %d for %d maps on %d slots and %d recovery round",
			len(got), got, want, res.MapTasks, slots, rounds)
	}
	rank := map[string]int{phaseMap: 0, phaseReduce: 1, phaseDone: 2}
	for i := 1; i < len(got); i++ {
		if rank[got[i]] < rank[got[i-1]] {
			t.Fatalf("snapshot phases %v go backward at %d", got, i)
		}
	}
	if len(got) == 0 || got[len(got)-1] != phaseDone {
		t.Fatalf("snapshot phases %v: want done last", got)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}
