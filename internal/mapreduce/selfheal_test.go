package mapreduce

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
)

// test-slow-wordcount paces each map call so cancellation tests can
// deterministically interrupt a job mid-map-phase: on a purely local
// transport an unpaced 50-task job can finish before a cancellation
// goroutine is even scheduled.
func init() {
	Register("test-slow-wordcount", App{
		Map: func(_ Params, input []byte, emit Emit) error {
			time.Sleep(2 * time.Millisecond)
			for _, w := range strings.Fields(string(input)) {
				if err := emit(w, []byte("1")); err != nil {
					return err
				}
			}
			return nil
		},
		Reduce: func(_ Params, key string, values [][]byte, emit Emit) error {
			total := 0
			for _, v := range values {
				n, err := strconv.Atoi(string(v))
				if err != nil {
					return err
				}
				total += n
			}
			return emit(key, []byte(strconv.Itoa(total)))
		},
	})
}

// wideCorpus builds a corpus with many distinct words so every reduce
// partition of a small cluster is non-empty (each word hashes
// independently; with hundreds of keys, no ring range stays empty).
func wideCorpus(distinct, repeat int) ([]byte, map[string]int) {
	var b strings.Builder
	want := make(map[string]int, distinct)
	for r := 0; r < repeat; r++ {
		for i := 0; i < distinct; i++ {
			w := fmt.Sprintf("word%03d", i)
			b.WriteString(w)
			if (i+r)%5 == 4 {
				b.WriteByte('\n')
			} else {
				b.WriteByte(' ')
			}
			want[w]++
		}
		b.WriteByte('\n')
	}
	return []byte(b.String()), want
}

func checkCounts(t *testing.T, got map[string]int, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d distinct keys, want %d", len(got), len(want))
	}
	for w, n := range want {
		if got[w] != n {
			t.Fatalf("count[%q] = %d, want %d", w, got[w], n)
		}
	}
}

// TestLostPartitionRecovery crash-stops a reduce-partition owner at each
// point of a job (intermediates are not replicated, so its partitions'
// spills are gone) and verifies the job self-heals: the lost partitions
// re-home to survivors, the contributing maps re-execute with a partition
// filter, and the output is exact — without re-reducing the partitions
// that survived.
func TestLostPartitionRecovery(t *testing.T) {
	for _, tc := range []struct {
		name string
		// at is the event whose first occurrence crashes the owner.
		at string
	}{
		// Every spill has landed; the reduce finds the owner gone.
		{"after-maps", "job.phase.reduce"},
		// The maps still running cannot push to the owner and report its
		// partitions lost, which are recovered before any reduce.
		{"mid-map", "map.finish"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ec := newEngineCluster(t, engineOpts{nodes: 5})
			text, want := wideCorpus(200, 8)
			ec.upload(t, "heal.txt", text, 512)

			victim := ec.ids[1] // not the driver node
			var once sync.Once
			ec.events.SetObserver(func(e events.Event) {
				if e.Name != tc.at {
					return
				}
				once.Do(func() {
					// Crash-stop the victim and evict it, as the manager
					// would after failure detection: a ring without it
					// replaces the shared one, which never changes.
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
			res, err := ec.driver.Run(JobSpec{
				ID: "heal-1", App: "test-wordcount", Inputs: []string{"heal.txt"}, User: "tester",
			})
			if err != nil {
				t.Fatalf("job did not self-heal: %v", err)
			}
			if res.RecoveredPartitions < 1 {
				t.Fatalf("RecoveredPartitions = %d, want >= 1 (victim owned no partition?)", res.RecoveredPartitions)
			}
			snap := ec.driver.Metrics().Snapshot()
			if got := snap.Get("mr.driver.partition_recoveries"); got != int64(res.RecoveredPartitions) {
				t.Errorf("partition_recoveries counter = %d, result says %d", got, res.RecoveredPartitions)
			}
			// Exactly one successful reduce per partition: surviving
			// partitions were not re-reduced by the recovery round.
			if got := snap.Get("mr.driver.partition_reduces"); got != int64(res.ReduceTasks) {
				t.Errorf("partition_reduces = %d, want %d (completed partitions re-reduced?)", got, res.ReduceTasks)
			}
			kvs, err := ec.driver.Collect(context.Background(), res, "tester")
			if err != nil {
				t.Fatal(err)
			}
			checkCounts(t, countsFromKVs(t, kvs), want)
		})
	}
}

// TestLostPartitionResumeAfterOwnerReturns cuts a partition owner off
// mid-map, stops the driver at the first map that reports the owner's
// partitions lost, and lets the owner back, holding the spills that did
// reach it, before resuming. The owner is then live and reachable, so only
// the journal knows its partitions miss spills: the resumed run must
// re-home and re-shuffle them before reducing, and the output be exact.
func TestLostPartitionResumeAfterOwnerReturns(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 5, slots: 2})
	text, want := wideCorpus(200, 8)
	ec.upload(t, "heal-resume.txt", text, 256)

	victim := ec.ids[1]
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cut, stop sync.Once
	ec.events.SetObserver(func(e events.Event) {
		if e.Name != "map.finish" {
			return
		}
		cut.Do(func() { ec.net.Partition(victim, true) })
		if strings.HasPrefix(e.Detail, "lost=") {
			stop.Do(cancel) // the driver dies with the loss journaled
		}
	})
	spec := JobSpec{ID: "heal-resume-1", App: "test-slow-wordcount", Inputs: []string{"heal-resume.txt"}, User: "tester"}
	if _, err := ec.driver.RunContext(ctx, spec); err == nil {
		t.Fatal("the run finished before any map reported a lost partition")
	}
	ec.events.SetObserver(nil)
	ec.net.Partition(victim, false)

	res, err := ec.driver.Resume(spec.ID)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.RecoveredPartitions < 1 {
		t.Fatalf("RecoveredPartitions = %d, want >= 1: the journaled loss was not re-homed", res.RecoveredPartitions)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}

// TestMapTaskOfACancelledJobWakesTheDispatcher: the maps a cancelled job
// left queued are dispatched after it deregistered, and give their slot
// back. The dispatcher must then take another pass: the next job's maps,
// which found that slot taken, wait on it and nothing else.
func TestMapTaskOfACancelledJobWakesTheDispatcher(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 1, slots: 1, replicas: 1})
	text, want := wideCorpus(150, 10)
	ec.upload(t, "stall.txt", text, 256)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stop sync.Once
	ec.events.SetObserver(func(e events.Event) {
		if e.Name == "map.finish" {
			stop.Do(cancel)
		}
	})
	spec := JobSpec{ID: "stall-a", App: "test-slow-wordcount", Inputs: []string{"stall.txt"}, User: "tester"}
	if _, err := ec.driver.RunContext(ctx, spec); err == nil {
		t.Fatal("the cancelled run finished")
	}
	ec.events.SetObserver(nil)

	spec.ID = "stall-b"
	done := make(chan error, 1)
	var res Result
	go func() {
		var err error
		res, err = ec.driver.Run(spec)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("the next job stalled behind the cancelled job's queued maps")
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}

// gatedMaps holds every call of test-gated-wordcount's map but the first
// until open is closed.
var gatedMaps struct {
	calls atomic.Int64
	open  chan struct{}
}

func init() {
	Register("test-gated-wordcount", App{
		Map: func(p Params, input []byte, emit Emit) error {
			if gatedMaps.calls.Add(1) > 1 {
				<-gatedMaps.open
			}
			return testWordCountMap(p, input, emit)
		},
		Reduce: testSumReduce,
	})
}

// TestCancelledMapPhaseLeavesNothingQueuedForResume cancels a job at its
// first finished map while every other slot holds a map and the rest
// wait in the queue: the phase's end withdraws them, so a Resume of the
// job is routed its own tasks only, and no attempt runs twice.
func TestCancelledMapPhaseLeavesNothingQueuedForResume(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4, slots: 1})
	text, want := wideCorpus(150, 10)
	ec.upload(t, "gate.txt", text, 256)
	gatedMaps.calls.Store(0)
	gatedMaps.open = make(chan struct{})
	opened := false
	open := func() {
		if !opened {
			opened = true
			close(gatedMaps.open)
		}
	}
	defer open()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stop sync.Once
	ec.events.SetObserver(func(e events.Event) {
		if e.Name == "map.finish" {
			stop.Do(cancel)
		}
	})
	spec := JobSpec{ID: "gate-1", App: "test-gated-wordcount", Inputs: []string{"gate.txt"}, User: "tester"}
	if _, err := ec.driver.RunContext(ctx, spec); err == nil {
		t.Fatal("the cancelled run finished")
	}
	if n := ec.sched.Pending(); n != 0 {
		t.Errorf("%d tasks of the cancelled phase still queued", n)
	}
	open()

	type execution struct {
		task    string
		attempt int
	}
	var mu sync.Mutex
	ran := make(map[execution]int)
	ec.events.SetObserver(func(e events.Event) {
		if e.Job == spec.ID && (e.Name == "map.dispatch" || e.Name == "map.failover") {
			mu.Lock()
			ran[execution{e.Task, e.Attempt}]++
			mu.Unlock()
		}
	})
	res, err := ec.driver.Resume(spec.ID)
	ec.events.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	for x, n := range ran {
		if n > 1 {
			t.Errorf("%s attempt %d ran %d times", x.task, x.attempt, n)
		}
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}

// TestResumeAfterMidMapCancel interrupts a job mid-map-phase (the driver
// dying) and resumes it from the durable journal: only the unfinished map
// tasks re-execute and the output is exact.
func TestResumeAfterMidMapCancel(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4, slots: 2})
	text, want := wideCorpus(150, 10)
	ec.upload(t, "resume.txt", text, 256)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "resume.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	totalMaps := len(meta.BlockKeys)
	if totalMaps < 12 {
		t.Fatalf("corpus too small: %d blocks", totalMaps)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := 0
	var mu sync.Mutex
	ec.events.SetObserver(func(e events.Event) {
		if e.Name != "map.finish" {
			return
		}
		mu.Lock()
		done++
		if done == 3 {
			cancel() // the "crash": no further dispatches
		}
		mu.Unlock()
	})
	spec := JobSpec{ID: "resume-1", App: "test-slow-wordcount", Inputs: []string{"resume.txt"}, User: "tester"}
	if _, err := ec.driver.RunContext(ctx, spec); err == nil {
		t.Fatal("canceled run reported success")
	}
	ec.events.SetObserver(nil)

	res, err := ec.driver.Resume("resume-1")
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if !res.Resumed {
		t.Error("Resumed flag not set")
	}
	if res.MapTasks >= totalMaps || res.MapTasks == 0 {
		t.Errorf("resumed run re-executed %d of %d maps; want a strict, non-empty subset", res.MapTasks, totalMaps)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
	if got := ec.driver.Metrics().Snapshot().Get("mr.driver.journal_resumes"); got != 1 {
		t.Errorf("journal_resumes = %d, want 1", got)
	}
}

// TestResumeAfterMidReduceCancel interrupts between reduce completions:
// the resumed run skips the map phase entirely (journaled done) and the
// partitions already journaled as complete.
func TestResumeAfterMidReduceCancel(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 5})
	text, want := wideCorpus(200, 6)
	ec.upload(t, "resume2.txt", text, 512)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	ec.events.SetObserver(func(e events.Event) {
		if e.Name == "reduce.finish" {
			once.Do(cancel)
		}
	})
	spec := JobSpec{ID: "resume-2", App: "test-wordcount", Inputs: []string{"resume2.txt"}, User: "tester"}
	if _, err := ec.driver.RunContext(ctx, spec); err == nil {
		// All reduce dispatches can beat the cancel; the journal then holds
		// a completed job and resume must be a pure no-op replay below.
		t.Log("job finished before the cancel took effect")
	}
	ec.events.SetObserver(nil)

	res, err := ec.driver.Resume("resume-2")
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.MapTasks != 0 {
		t.Errorf("resumed run re-executed %d map tasks, want 0 (map phase journaled done)", res.MapTasks)
	}
	if !res.MapsSkipped {
		t.Error("MapsSkipped not set on resumed run")
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}

// TestResumeCompletedJobReplaysResult pins that resuming a job whose
// journal reached the done phase re-runs nothing and returns the recorded
// output set.
func TestResumeCompletedJobReplaysResult(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, want := wideCorpus(80, 5)
	ec.upload(t, "done.txt", text, 512)
	spec := JobSpec{ID: "done-1", App: "test-wordcount", Inputs: []string{"done.txt"}, User: "tester"}
	first, err := ec.driver.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	before := ec.driver.Metrics().Snapshot().Get("mr.driver.partition_reduces")
	res, err := ec.driver.Resume("done-1")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.OutputFiles) != fmt.Sprint(first.OutputFiles) {
		t.Fatalf("replayed outputs %v != original %v", res.OutputFiles, first.OutputFiles)
	}
	if after := ec.driver.Metrics().Snapshot().Get("mr.driver.partition_reduces"); after != before {
		t.Fatalf("resume of a done job re-reduced partitions: %d -> %d", before, after)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}

// TestDisableJournalLeavesNothingToResume pins the opt-out: without a
// journal a job cannot be adopted.
func TestDisableJournalLeavesNothingToResume(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, _ := wideCorpus(50, 3)
	ec.upload(t, "nojournal.txt", text, 512)
	spec := JobSpec{
		ID: "nojournal-1", App: "test-wordcount", Inputs: []string{"nojournal.txt"},
		User: "tester", DisableJournal: true,
	}
	if _, err := ec.driver.Run(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := ec.driver.Resume("nojournal-1"); err == nil {
		t.Fatal("Resume succeeded without a journal")
	}
	jobs, err := ec.driver.Orphans(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("orphans = %v, want none", jobs)
	}
}

// TestOrphansListsInterruptedJobs pins the adoption listing: an
// interrupted job shows up, a completed one does not, and dropping the
// intermediates clears the journal.
func TestOrphansListsInterruptedJobs(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4, slots: 2})
	text, _ := wideCorpus(100, 8)
	ec.upload(t, "orphan.txt", text, 256)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	ec.events.SetObserver(func(e events.Event) {
		if e.Name == "map.finish" {
			once.Do(cancel)
		}
	})
	spec := JobSpec{ID: "orphan-1", App: "test-slow-wordcount", Inputs: []string{"orphan.txt"}, User: "tester"}
	if _, err := ec.driver.RunContext(ctx, spec); err == nil {
		t.Fatal("canceled run reported success")
	}
	ec.events.SetObserver(nil)

	jobs, err := ec.driver.Orphans(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0] != "orphan-1" {
		t.Fatalf("orphans = %v, want [orphan-1]", jobs)
	}
	res, err := ec.driver.Resume("orphan-1")
	if err != nil {
		t.Fatal(err)
	}
	if jobs, err = ec.driver.Orphans(context.Background()); err != nil || len(jobs) != 0 {
		t.Fatalf("orphans after completion = %v (err %v), want none", jobs, err)
	}
	ec.driver.DropIntermediates(context.Background(), spec)
	if _, err := ec.driver.Resume("orphan-1"); err == nil {
		t.Fatal("journal survived DropIntermediates")
	}
	_ = res
}

// TestAttemptStrideSupersedesInterruptedGeneration pins the generation
// arithmetic that makes resume safe against stale spills: a resumed run's
// attempts start one full stride above every attempt the interrupted
// generation could have used, so its spills always win the store's
// max-attempt dedup.
func TestAttemptStrideSupersedesInterruptedGeneration(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	spec := JobSpec{ID: "stride-1", App: "test-wordcount", Inputs: []string{"s.txt"}, User: "tester"}
	mk := &marker{Servers: []hashing.NodeID{ec.ids[0]}, Bounds: []hashing.Key{hashing.KeyOfString("x")},
		PartBytes: []int64{0}}
	w0 := ec.driver.newJournalWriter(context.Background(), spec, mk, nil)
	if got := w0.attemptBase(); got != 0 {
		t.Fatalf("generation 0 attempt base = %d, want 0", got)
	}
	w0.close(context.Background())
	prior, err := ec.driver.loadJournal(context.Background(), "stride-1")
	if err != nil {
		t.Fatal(err)
	}
	w1 := ec.driver.newJournalWriter(context.Background(), spec, mk, prior)
	defer w1.close(context.Background())
	if got := w1.attemptBase(); got != attemptStride {
		t.Fatalf("generation 1 attempt base = %d, want %d", got, attemptStride)
	}
	// Retry budgets stay per-generation under the stride floor.
	if got := st1Base(attemptStride + 2); got != attemptStride {
		t.Fatalf("st1Base(%d) = %d, want %d", attemptStride+2, got, attemptStride)
	}
}

// TestOnlyPartitionsFiltersShuffle pins the recovery re-shuffle filter at
// the worker level: with OnlyPartitions set, a map pushes spills only for
// the listed partitions.
func TestOnlyPartitionsFiltersShuffle(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	text, _ := wideCorpus(100, 2)
	ec.upload(t, "only.txt", text, 1<<20)
	meta, err := ec.fs[ec.ids[0]].Lookup(context.Background(), "only.txt", "tester")
	if err != nil {
		t.Fatal(err)
	}
	table, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	req := RunMapReq{
		Job: "only-1", Namespace: "job:only-1", App: "test-wordcount",
		BlockKey: meta.BlockKeys[0], BlockSum: meta.BlockSums[0], Task: "t0", Attempt: 0,
		ReduceServers: table.Servers(), ReduceBounds: table.Bounds(),
		OnlyPartitions: []int{1},
	}
	resp, err := ec.workers[ec.ids[0]].runMap(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for part, b := range resp.PartBytes {
		if part == 1 && b == 0 {
			t.Error("wanted partition 1 produced no bytes")
		}
		if part != 1 && b != 0 {
			t.Errorf("partition %d got %d bytes despite OnlyPartitions=[1]", part, b)
		}
	}
}

// TestResumeOverHolderThatLostSpills: the driver dies once every spill
// has landed, and a holder then loses the job's namespace while staying
// in the ring (a restarted in-memory node). The resumed run must find its
// partitions short of their journaled bytes, re-home and re-shuffle them,
// and count every word.
func TestResumeOverHolderThatLostSpills(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 5})
	text, want := wideCorpus(200, 8)
	ec.upload(t, "lostspills.txt", text, 512)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ec.events.SetObserver(func(e events.Event) {
		if e.Name == "job.phase.reduce" {
			cancel()
		}
	})
	spec := JobSpec{ID: "lostspills-1", App: "test-wordcount", Inputs: []string{"lostspills.txt"}, User: "tester"}
	if _, err := ec.driver.RunContext(ctx, spec); err == nil {
		t.Fatal("the run finished though it was cancelled before its reduce phase")
	}
	ec.events.SetObserver(nil)
	ec.fs[holderOf(t, ec)].Store().DropJobSegments(spec.Namespace())

	res, err := ec.driver.Resume(spec.ID)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
	if res.RecoveredPartitions < 1 {
		t.Fatalf("RecoveredPartitions = %d, want >= 1", res.RecoveredPartitions)
	}
}

// TestReducePartShortOfItsBytesIsUnreached: a reduce part whose holder's
// merged spills do not sum to the bytes the partition table records is
// unreached, whether the holder lost some spills or all of them, and the
// task reduces and writes nothing; parts that sum right reduce, an empty
// partition with no spills among them.
func TestReducePartShortOfItsBytesIsUnreached(t *testing.T) {
	ctx := context.Background()
	ec := newEngineCluster(t, engineOpts{nodes: 3})
	holder := ec.ids[1]
	spills := [][]byte{
		EncodeKVs([]KV{{Key: "a", Value: []byte("1")}, {Key: "b", Value: []byte("1")}}),
		EncodeKVs([]KV{{Key: "a", Value: []byte("1")}}),
	}
	for seq, data := range spills {
		ec.fs[holder].Store().AppendTaskSegment("job:short", partitionName(0), "m0", 0, seq, data)
	}
	whole := spillBytes(spills)
	for i, tc := range []struct {
		name      string
		parts     []ReducePart
		unreached []int
	}{
		{"whole", []ReducePart{{Partition: 0, Holder: holder, Bytes: whole}}, nil},
		{"whole and empty", []ReducePart{{Partition: 0, Holder: holder, Bytes: whole}, {Partition: 1, Holder: holder}}, nil},
		{"some spills lost", []ReducePart{{Partition: 0, Holder: holder, Bytes: whole + 1}}, []int{0}},
		{"all spills lost", []ReducePart{{Partition: 0, Holder: holder, Bytes: whole}, {Partition: 1, Holder: holder, Bytes: 5}}, []int{1}},
	} {
		req := RunReduceReq{Job: "short", Namespace: "job:short", App: "test-wordcount",
			Parts: tc.parts, OutputFile: fmt.Sprintf("short.out.%d", i), User: "tester"}
		resp, err := ec.workers[holder].runReduce(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fmt.Sprint(resp.Unreached) != fmt.Sprint(tc.unreached) {
			t.Fatalf("%s: unreached %v, want %v", tc.name, resp.Unreached, tc.unreached)
		}
		_, readErr := ec.fs[holder].ReadFile(ctx, req.OutputFile, req.User)
		if wrote := readErr == nil; wrote != (tc.unreached == nil) || resp.HasOutput != wrote {
			t.Fatalf("%s: output written %v, HasOutput %v, with %v unreached", tc.name, wrote, resp.HasOutput, tc.unreached)
		}
	}
}
