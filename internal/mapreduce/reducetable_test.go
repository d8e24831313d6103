package mapreduce

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
)

// journaledTable returns the partition table a job's journal records.
func journaledTable(t *testing.T, ec *engineCluster, jobID string) *hashing.RangeTable {
	t.Helper()
	j, err := ec.driver.loadJournal(context.Background(), jobID)
	if err != nil {
		t.Fatal(err)
	}
	table, err := hashing.NewRangeTable(j.Mk.Servers, j.Mk.Bounds)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func sameTable(a, b *hashing.RangeTable) bool {
	return slices.Equal(a.Servers(), b.Servers()) && slices.Equal(a.Bounds(), b.Bounds())
}

// TestFreshJobPartitionsAreEvenSlices: on the four nodes worker-00 to
// worker-03, a fresh job's reduce partitions each get a quarter of the
// intermediate keys. The ring's own arcs give one node 58.7% of the key
// space and another 7.0%; ShuffleKey spreads keys evenly, so a table cut
// at the arcs hands one reducer most of every shuffle.
func TestFreshJobPartitionsAreEvenSlices(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, _ := wideCorpus(20, 2)
	ec.upload(t, "even.txt", text, 1<<20)
	spec := JobSpec{ID: "even-1", App: "test-wordcount", Inputs: []string{"even.txt"}, User: "tester"}
	if _, err := ec.driver.Run(spec); err != nil {
		t.Fatal(err)
	}
	table := journaledTable(t, ec, spec.ID)
	if !slices.Equal(table.Servers(), ec.ring.Members()) {
		t.Fatalf("partitions owned by %v, want one per member in ring order %v", table.Servers(), ec.ring.Members())
	}

	const keys = 100_000
	counts := make([]int, table.Len())
	for i := 0; i < keys; i++ {
		counts[table.LookupIndex(hashing.ShuffleKey(fmt.Sprintf("key-%06d", i)))]++
	}
	arcs, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	for p, n := range counts {
		share := 100 * float64(n) / keys
		start, end, _ := arcs.ServerRange(table.Servers()[p])
		t.Logf("%s: %.1f%% of the keys (its ring arc: %.1f%% of the key space)",
			table.Servers()[p], share, 100*float64(end-start)/(1<<64))
		if share < 22 || share > 28 {
			t.Errorf("partition %d (%s) holds %.1f%% of %d keys, want 25 ± 3", p, table.Servers()[p], share, keys)
		}
	}
}

// TestResumeAndReuseKeepAnAdoptedArcTable: a journal and a reuse marker
// written when a job's reduce partitions were the ring's arcs
// (hashing.AlignedRangeTable) are adopted exactly as written. A resume
// runs its maps and its reduces on the arc table, the marker it
// publishes carries it, and a run that reuses that marker reduces on it
// too; every one counts what a fresh run counts. A new job still gets
// equal slices.
func TestResumeAndReuseKeepAnAdoptedArcTable(t *testing.T) {
	ctx := context.Background()
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, want := wideCorpus(150, 6)
	ec.upload(t, "arc.txt", text, 256)
	even, err := hashing.UniformRangeTable(ec.ring.Members())
	if err != nil {
		t.Fatal(err)
	}
	arcs, err := hashing.AlignedRangeTable(ec.ring)
	if err != nil {
		t.Fatal(err)
	}
	if sameTable(even, arcs) {
		t.Fatal("the ring's arcs are equal slices: the test tells nothing")
	}
	counted := func(name string, res Result) {
		t.Helper()
		kvs, err := ec.driver.Collect(ctx, res, "tester")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkCounts(t, countsFromKVs(t, kvs), want)
	}
	onTable := func(name, jobID string, table *hashing.RangeTable) {
		t.Helper()
		if got := journaledTable(t, ec, jobID); !sameTable(got, table) {
			t.Errorf("%s ran on\n%vwant\n%v", name, got, table)
		}
	}

	fresh := JobSpec{ID: "even-1", App: "test-wordcount", Inputs: []string{"arc.txt"}, User: "tester"}
	res, err := ec.driver.Run(fresh)
	if err != nil {
		t.Fatal(err)
	}
	counted("fresh run", res)
	onTable("fresh run", fresh.ID, even)

	// The opening snapshot of a tagged job whose table is the arcs.
	spec := JobSpec{ID: "arc-1", App: "test-wordcount", Inputs: []string{"arc.txt"}, User: "tester", ReuseTag: "arc-shared"}
	j := journal{
		Spec: spec, Phase: phaseMap,
		Mk: marker{
			Servers: arcs.Servers(), Bounds: arcs.Bounds(), PartBytes: make([]int64, arcs.Len()),
			Partitioner: partitionerID, Namespace: spec.Namespace(),
		},
		MapsDone: map[string]bool{}, Attempts: map[string]int{}, PartsDone: map[int]string{}, Lost: map[int]bool{},
	}
	if _, err := ec.fs[ec.ids[0]].Upload(ctx, journalFile(spec.ID), "tester", dhtfs.PermPublic, j.AppendWire(nil), 1<<20); err != nil {
		t.Fatal(err)
	}
	// Resumed in its map phase, and interrupted once every spill landed.
	cut, cancel := context.WithCancel(ctx)
	defer cancel()
	ec.events.SetObserver(func(e events.Event) {
		if e.Name == "job.phase.reduce" && e.Job == spec.ID {
			cancel()
		}
	})
	if _, err := ec.driver.ResumeContext(cut, spec.ID); err == nil {
		t.Fatal("the resume finished though it was cancelled before its reduce phase")
	}
	ec.events.SetObserver(nil)
	onTable("the resumed map phase", spec.ID, arcs)
	for part, owner := range arcs.Servers() {
		if len(ec.fs[owner].Store().ReadTaggedSegments(spec.Namespace(), partitionName(part))) == 0 {
			t.Errorf("partition %d's arc owner %s holds none of its spills", part, owner)
		}
	}
	// Resumed again, to reduce what the arc owners hold.
	res, err = ec.driver.Resume(spec.ID)
	if err != nil {
		t.Fatalf("resume of the reduce phase: %v", err)
	}
	counted("resumed run", res)
	onTable("the resumed reduce phase", spec.ID, arcs)

	data, err := ec.fs[ec.ids[0]].ReadFile(ctx, markerFile(spec.ReuseTag), "tester")
	if err != nil {
		t.Fatal(err)
	}
	var mk marker
	if err := mk.ParseWire(data); err != nil {
		t.Fatal(err)
	}
	if published, err := hashing.NewRangeTable(mk.Servers, mk.Bounds); err != nil || !sameTable(published, arcs) {
		t.Fatalf("the resumed run published\n%vwant the arc table (%v)", published, err)
	}
	reuse := spec
	reuse.ID = "arc-2"
	res, err = ec.driver.Run(reuse)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MapsSkipped {
		t.Fatal("the arc-table marker was not reused")
	}
	counted("reusing run", res)
	onTable("the reusing run", reuse.ID, arcs)

	again := fresh
	again.ID = "even-2"
	res, err = ec.driver.Run(again)
	if err != nil {
		t.Fatal(err)
	}
	counted("new job", res)
	onTable("a new job", again.ID, even)
}
