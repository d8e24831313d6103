package mapreduce

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
)

// runCounts runs spec and returns its word counts and result.
func runCounts(t *testing.T, ec *engineCluster, spec JobSpec) (map[string]int, Result) {
	t.Helper()
	res, err := ec.driver.Run(spec)
	if err != nil {
		t.Fatalf("%s: %v", spec.ID, err)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, spec.User)
	if err != nil {
		t.Fatal(err)
	}
	return countsFromKVs(t, kvs), res
}

// outputs reads a result's output files, in partition order.
func outputs(t *testing.T, ec *engineCluster, res Result) [][]byte {
	t.Helper()
	var out [][]byte
	for _, f := range res.OutputFiles {
		data, err := ec.fs[ec.ids[0]].ReadFile(context.Background(), f, "tester")
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// TestReuseTagReuploadRunsMaps: a re-uploaded input is another map phase,
// whatever the tag says: the rerun runs its maps and counts the new words.
func TestReuseTagReuploadRunsMaps(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	ec.upload(t, "c.txt", corpus(map[string]int{"alpha": 64, "beta": 32}), 256)
	spec := JobSpec{ID: "up-1", App: "test-wordcount", Inputs: []string{"c.txt"}, User: "tester", ReuseTag: "wc"}
	runCounts(t, ec, spec)

	want := map[string]int{"gamma": 40, "delta": 24}
	ec.upload(t, "c.txt", corpus(want), 256)
	spec.ID = "up-2"
	got, res := runCounts(t, ec, spec)
	if res.MapsSkipped || res.MapTasks == 0 {
		t.Fatalf("the rerun over a re-uploaded input skipped its maps: %+v", res)
	}
	checkCounts(t, got, want)
}

// TestReuseTagOtherJobRunsMaps: another input, application or parameter
// set under one tag is another map phase.
func TestReuseTagOtherJobRunsMaps(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	wantA := map[string]int{"apple": 30, "needle": 12}
	wantB := map[string]int{"banana": 21, "cherry": 9}
	ec.upload(t, "a.txt", corpus(wantA), 128)
	ec.upload(t, "b.txt", corpus(wantB), 128)
	first := JobSpec{ID: "o-1", App: "test-wordcount", Inputs: []string{"a.txt"}, User: "tester", ReuseTag: "shared"}
	runCounts(t, ec, first)

	for _, c := range []struct {
		name string
		spec JobSpec
		want map[string]int
	}{
		{"input", JobSpec{ID: "o-input", App: "test-wordcount", Inputs: []string{"b.txt"}}, wantB},
		{"app", JobSpec{ID: "o-app", App: "test-wordcount-nocombine", Inputs: []string{"a.txt"}}, wantA},
		{"params", JobSpec{ID: "o-params", App: "test-wordcount", Inputs: []string{"a.txt"}, Params: Params{"unused": []byte("x")}}, wantA},
		{"spill threshold", JobSpec{ID: "o-spill", App: "test-wordcount", Inputs: []string{"a.txt"}, SpillThreshold: 64}, wantA},
	} {
		c.spec.User, c.spec.ReuseTag = "tester", "shared"
		got, res := runCounts(t, ec, c.spec)
		if res.MapsSkipped || res.MapTasks == 0 {
			t.Errorf("another %s under the tag skipped its maps: %+v", c.name, res)
		}
		checkCounts(t, got, c.want)
	}
	// The last run published its own map phase; its rerun reuses it.
	again := JobSpec{ID: "o-again", App: "test-wordcount", Inputs: []string{"a.txt"}, User: "tester", ReuseTag: "shared", SpillThreshold: 64}
	got, res := runCounts(t, ec, again)
	if !res.MapsSkipped {
		t.Errorf("an unchanged rerun of the last publisher ran its maps: %+v", res)
	}
	checkCounts(t, got, wantA)
}

// TestReuseTagConcurrentRuns: concurrent runs under one tag each run their
// own maps into their own namespace, or reduce a published one of their
// signature, and each output is that job's solo fault-free run, over one
// input and over two.
func TestReuseTagConcurrentRuns(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, wantText := wideCorpus(80, 3)
	wantOther := map[string]int{"solo": 17, "other": 5}
	ec.upload(t, "one.txt", text, 256)
	ec.upload(t, "two.txt", corpus(wantOther), 128)
	for _, inputs := range [][]string{{"one.txt", "one.txt"}, {"one.txt", "two.txt"}} {
		want := map[string]map[string]int{"one.txt": wantText, "two.txt": wantOther}
		for round := 0; round < 20; round++ {
			var wg sync.WaitGroup
			results := make([]Result, len(inputs))
			errs := make([]error, len(inputs))
			for i, in := range inputs {
				wg.Add(1)
				go func(i int, in string) {
					defer wg.Done()
					results[i], errs[i] = ec.driver.Run(JobSpec{
						ID: fmt.Sprintf("cc-%s-%d-%d", inputs[1], round, i), App: "test-wordcount",
						Inputs: []string{in}, User: "tester", ReuseTag: fmt.Sprintf("cc-%s-%d", inputs[1], round),
					})
				}(i, in)
			}
			wg.Wait()
			for i, in := range inputs {
				if errs[i] != nil {
					t.Fatalf("round %d, job %d over %s: %v", round, i, in, errs[i])
				}
				kvs, err := ec.driver.Collect(context.Background(), results[i], "tester")
				if err != nil {
					t.Fatal(err)
				}
				if got := countsFromKVs(t, kvs); fmt.Sprint(got) != fmt.Sprint(want[in]) {
					t.Fatalf("round %d, job %d over %s counted %v, want %v", round, i, in, got, want[in])
				}
			}
		}
	}
}

// TestReuseTagAfterDropIntermediates: dropping a tagged job's
// intermediates deletes the tag's marker before its namespace, so the
// next run under the tag runs its maps and counts right.
func TestReuseTagAfterDropIntermediates(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	want := map[string]int{"kept": 40, "dropped": 8}
	ec.upload(t, "d.txt", corpus(want), 128)
	spec := JobSpec{ID: "drop-1", App: "test-wordcount", Inputs: []string{"d.txt"}, User: "tester", ReuseTag: "drop"}
	runCounts(t, ec, spec)
	ec.driver.DropIntermediates(context.Background(), spec)
	for id, fs := range ec.fs {
		if _, _, segs := fs.Store().Counts(); segs != 0 {
			t.Fatalf("%s holds %d segment streams after the drop", id, segs)
		}
		if _, err := fs.Store().GetMeta(markerFile(spec.ReuseTag)); err == nil {
			t.Fatalf("%s still holds the tag's marker after the drop", id)
		}
	}
	spec.ID = "drop-2"
	got, res := runCounts(t, ec, spec)
	if res.MapsSkipped {
		t.Fatalf("the run after the drop skipped its maps: %+v", res)
	}
	checkCounts(t, got, want)
}

// TestReuseTagSupersededMidReduce publishes another input under the tag
// while a reusing job reduces: the publisher drops the namespace the
// reader is reducing, and the reader, re-reading the marker, runs its own
// maps once and counts right.
func TestReuseTagSupersededMidReduce(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	want := map[string]int{"reader": 33, "words": 12}
	ec.upload(t, "r.txt", corpus(want), 128)
	ec.upload(t, "w.txt", corpus(map[string]int{"writer": 20}), 128)
	spec := JobSpec{ID: "sup-1", App: "test-wordcount", Inputs: []string{"r.txt"}, User: "tester", ReuseTag: "sup"}
	runCounts(t, ec, spec)

	var once sync.Once
	var publishErr error
	ec.events.SetObserver(func(e events.Event) {
		if e.Job == "sup-2" && e.Name == "job.phase.reduce" {
			once.Do(func() {
				_, publishErr = ec.driver.Run(JobSpec{ID: "sup-w", App: "test-wordcount", Inputs: []string{"w.txt"}, User: "tester", ReuseTag: "sup"})
			})
		}
	})
	spec.ID = "sup-2"
	got, res := runCounts(t, ec, spec)
	ec.events.SetObserver(nil)
	if publishErr != nil {
		t.Fatal(publishErr)
	}
	checkCounts(t, got, want)
	if res.MapsSkipped || res.MapTasks == 0 {
		t.Errorf("the superseded reader did not run its own maps: %+v", res)
	}
	fallbacks := 0
	for _, e := range ec.events.Events("sup-2", 0) {
		if e.Name == "job.reuse_lost" && e.Job == "sup-2" {
			fallbacks++
		}
	}
	if fallbacks != 1 {
		t.Errorf("%d job.reuse_lost events, want 1", fallbacks)
	}
}

// TestReuseTagLostPartitionFallsBack crashes an owner of the published
// namespace's partitions before a reusing job reduces it: the spills are
// other jobs' maps', so the job runs its own maps instead of recovering
// the partition.
func TestReuseTagLostPartitionFallsBack(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 6})
	text, want := wideCorpus(200, 4)
	ec.upload(t, "lost.txt", text, 512)
	spec := JobSpec{ID: "lost-1", App: "test-wordcount", Inputs: []string{"lost.txt"}, User: "tester", ReuseTag: "lost"}
	runCounts(t, ec, spec)

	// The victim holds no copy of the input's metadata or of the marker,
	// which a read after the crash asks the new replica sets for.
	holders := make(map[hashing.NodeID]bool)
	for _, name := range []string{"lost.txt", markerFile(spec.ReuseTag)} {
		set, err := ec.ring.ReplicaSet(hashing.KeyOfString(name), 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range set {
			holders[id] = true
		}
	}
	var victim hashing.NodeID
	for _, id := range ec.ids[1:] {
		if !holders[id] {
			victim = id
			break
		}
	}
	if victim == "" {
		t.Fatal("every node holds the input's metadata or the marker")
	}
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

	spec.ID = "lost-2"
	got, res := runCounts(t, ec, spec)
	checkCounts(t, got, want)
	if res.MapsSkipped || res.MapTasks == 0 {
		t.Errorf("the job did not run its own maps: %+v", res)
	}
	fallbacks := 0
	for _, e := range ec.events.Events(spec.ID, 0) {
		if e.Name == "job.reuse_lost" && e.Job == spec.ID {
			fallbacks++
		}
	}
	if fallbacks != 1 {
		t.Errorf("%d job.reuse_lost events, want 1", fallbacks)
	}
}

// TestReuseTagOutputMatchesFreshRun: a reused run writes, file for file,
// the bytes a fresh untagged run of the same spec writes.
func TestReuseTagOutputMatchesFreshRun(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, _ := wideCorpus(120, 5)
	ec.upload(t, "same.txt", text, 256)
	spec := JobSpec{ID: "same-1", App: "test-wordcount", Inputs: []string{"same.txt"}, User: "tester", ReuseTag: "same"}
	if _, err := ec.driver.Run(spec); err != nil {
		t.Fatal(err)
	}
	spec.ID = "same-2"
	reused, err := ec.driver.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reused.MapsSkipped {
		t.Fatalf("the rerun did not reuse: %+v", reused)
	}
	fresh, err := ec.driver.Run(JobSpec{ID: "same-fresh", App: "test-wordcount", Inputs: []string{"same.txt"}, User: "tester"})
	if err != nil {
		t.Fatal(err)
	}
	a, b := outputs(t, ec, reused), outputs(t, ec, fresh)
	if len(a) != len(b) {
		t.Fatalf("reused run wrote %d files, fresh run %d", len(a), len(b))
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("output %d differs: %s vs %s", i, reused.OutputFiles[i], fresh.OutputFiles[i])
		}
	}
}

// TestReuseTagParentFormat: a marker or a journal in the parent's durable
// format 0x01 is refused, not misread: the tagged run over the marker and
// the Resume of the journal fail with the format error, and once
// DropIntermediates has deleted the marker the tag runs its maps afresh.
func TestReuseTagParentFormat(t *testing.T) {
	ctx := context.Background()
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, want := wideCorpus(60, 4)
	ec.upload(t, "legacy.txt", text, 256)
	spec := JobSpec{ID: "legacy-1", App: "test-wordcount", Inputs: []string{"legacy.txt"}, User: "tester", ReuseTag: "legacy"}
	runCounts(t, ec, spec)
	fs := ec.fs[ec.ids[0]]
	toParentFormat := func(name string) {
		t.Helper()
		data, err := fs.ReadFile(ctx, name, spec.User)
		if err != nil {
			t.Fatal(err)
		}
		data[0] = 0x01
		if err := fs.Delete(ctx, name, spec.User); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Upload(ctx, name, spec.User, dhtfs.PermPublic, data, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	toParentFormat(markerFile(spec.ReuseTag))
	toParentFormat(journalFile(spec.ID))
	const refusal = "file format 0x1, want 0x2"

	again := spec
	again.ID = "legacy-2"
	if res, err := ec.driver.Run(again); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("a tagged run over a parent-format marker returned %+v, %v", res, err)
	}
	if res, err := ec.driver.Resume(spec.ID); err == nil || !strings.Contains(err.Error(), refusal) {
		t.Fatalf("the Resume of a parent-format journal returned %+v, %v", res, err)
	}

	ec.driver.DropIntermediates(ctx, again)
	again.ID = "legacy-3"
	got, res := runCounts(t, ec, again)
	if res.MapsSkipped || res.MapTasks == 0 {
		t.Errorf("the tag reused a namespace after its marker was deleted: %+v", res)
	}
	checkCounts(t, got, want)
}

// holderOf returns a node other than the driver's whose shard holds
// spills, the only job's having run.
func holderOf(t *testing.T, ec *engineCluster) hashing.NodeID {
	t.Helper()
	for _, id := range ec.ids[1:] {
		if _, _, segs := ec.fs[id].Store().Counts(); segs > 0 {
			return id
		}
	}
	t.Fatal("no node but the driver's holds spills")
	return ""
}

// TestReuseTagHolderLostNamespaceFallsBack: a holder that stays in the
// ring but no longer holds the published namespace (a restarted
// in-memory node) reads as the partitions' bytes missing, not as empty
// partitions: the reusing run falls back to its own maps, once, and
// counts every word.
func TestReuseTagHolderLostNamespaceFallsBack(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{})
	text, want := wideCorpus(120, 4)
	ec.upload(t, "lostns.txt", text, 256)
	spec := JobSpec{ID: "lostns-1", App: "test-wordcount", Inputs: []string{"lostns.txt"}, User: "tester", ReuseTag: "lostns"}
	runCounts(t, ec, spec)
	ec.fs[holderOf(t, ec)].Store().DropJobSegments(spec.Namespace())

	var lost atomic.Int64
	ec.events.SetObserver(func(e events.Event) {
		if e.Name == "job.reuse_lost" {
			lost.Add(1)
		}
	})
	spec.ID = "lostns-2"
	got, _ := runCounts(t, ec, spec)
	checkCounts(t, got, want)
	if n := lost.Load(); n != 1 {
		t.Fatalf("%d job.reuse_lost events, want 1", n)
	}
}
