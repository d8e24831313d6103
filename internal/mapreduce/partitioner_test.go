package mapreduce

import (
	"context"
	"testing"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/transport"
)

// TestForeignPartitionerIsNeverMixed feeds the driver what a binary from
// before intermediate keys had their own hash left behind: a journal and a
// reuse marker with the zero partitioner id (SHA-1 placement). Neither may
// be resumed or reused piecemeal: whatever they list as done is dropped,
// every map runs again, and the output is a fresh run's. Each namespace is
// also seeded with a spill of a key no input holds, which any reduce over
// the old intermediates would carry into the output.
func TestForeignPartitionerIsNeverMixed(t *testing.T) {
	ctx := context.Background()
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	text, want := wideCorpus(150, 6)
	ec.upload(t, "old.txt", text, 256)

	mapTasks := func() int64 {
		n := int64(0)
		for _, w := range ec.workers {
			n += w.Metrics().Snapshot().Get("mr.map.tasks")
		}
		return n
	}
	mismatches := func(job string) int {
		n := 0
		for _, e := range ec.events.Events(job, 0) {
			if e.Name == "journal.partitioner_mismatch" && e.Job == job {
				n++
			}
		}
		return n
	}
	// ranLikeFresh runs fn, which must execute every map task of the input
	// and produce exactly the fresh run's pairs.
	var freshMaps int64
	ranLikeFresh := func(name string, fn func() (Result, error)) {
		t.Helper()
		before := mapTasks()
		res, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ran := mapTasks() - before; ran != freshMaps || int64(res.MapTasks) != freshMaps || res.MapsSkipped {
			t.Errorf("%s executed %d map tasks (result says %d, skipped=%v), a fresh run %d",
				name, ran, res.MapTasks, res.MapsSkipped, freshMaps)
		}
		kvs, err := ec.driver.Collect(ctx, res, "tester")
		if err != nil {
			t.Fatal(err)
		}
		checkCounts(t, countsFromKVs(t, kvs), want)
	}
	// poison plants, at every partition owner, a spill no map of this
	// binary would have pushed there.
	poison := func(spec JobSpec, mk marker) {
		for part, owner := range mk.Servers {
			ec.fs[owner].Store().AppendTaskSegment(spec.Namespace(), partitionName(part), "", 0, 0,
				EncodeKVs([]KV{{Key: "placed-by-sha1", Value: []byte("1")}}), 0)
		}
	}
	upload := func(file string, v any) {
		t.Helper()
		//lint:ignore wiremsg the journal and the marker are gob files; the test writes them as the driver does
		data, err := transport.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ec.fs[ec.ids[0]].Upload(ctx, file, "tester", dhtfs.PermPublic, data, 1<<20); err != nil {
			t.Fatal(err)
		}
	}

	before := mapTasks()
	fresh := JobSpec{ID: "fresh", App: "test-wordcount", Inputs: []string{"old.txt"}, User: "tester"}
	if _, err := ec.driver.Run(fresh); err != nil {
		t.Fatal(err)
	}
	if freshMaps = mapTasks() - before; freshMaps < 8 {
		t.Fatalf("the fresh run executed %d map tasks: input too small", freshMaps)
	}

	// A journal from the old binary, interrupted in its reduce phase: all
	// maps done, all partitions but one reduced.
	old := JobSpec{ID: "old-1", App: "test-wordcount", Inputs: []string{"old.txt"}, User: "tester"}
	if _, err := ec.driver.Run(old); err != nil {
		t.Fatal(err)
	}
	j, err := ec.driver.loadJournal(ctx, old.ID)
	if err != nil {
		t.Fatal(err)
	}
	if j.Mk.Partitioner != partitionerID || len(j.PartsDone) < 2 {
		t.Fatalf("journal of a finished job: partitioner %d, %d partitions done", j.Mk.Partitioner, len(j.PartsDone))
	}
	j.Mk.Partitioner = 0
	j.Phase = phaseReduce
	for part := range j.PartsDone {
		delete(j.PartsDone, part)
		break
	}
	upload(journalFile(old.ID), *j)
	poison(old, j.Mk)
	ranLikeFresh("resume of a zero-id journal", func() (Result, error) { return ec.driver.Resume(old.ID) })
	if n := mismatches(old.ID); n != 1 {
		t.Errorf("%d journal.partitioner_mismatch events for the resumed job, want 1", n)
	}

	// A reuse marker from the old binary.
	tagged := JobSpec{ID: "tag-1", App: "test-wordcount", Inputs: []string{"old.txt"}, User: "tester", ReuseTag: "old-shared"}
	if _, err := ec.driver.Run(tagged); err != nil {
		t.Fatal(err)
	}
	data, err := ec.fs[ec.ids[0]].ReadFile(ctx, markerFile(tagged.Namespace()), "tester")
	if err != nil {
		t.Fatal(err)
	}
	var mk marker
	//lint:ignore wiremsg the reuse marker is a gob file
	if err := transport.Decode(data, &mk); err != nil {
		t.Fatal(err)
	}
	if mk.Partitioner != partitionerID {
		t.Fatalf("marker of a finished job has partitioner %d", mk.Partitioner)
	}
	mk.Partitioner = 0
	upload(markerFile(tagged.Namespace()), mk)
	poison(tagged, mk)
	tagged.ID = "tag-2"
	ranLikeFresh("job over a zero-id reuse marker", func() (Result, error) { return ec.driver.Run(tagged) })
	if n := mismatches(tagged.ID); n != 1 {
		t.Errorf("%d journal.partitioner_mismatch events for the reusing job, want 1", n)
	}
	// The marker it left is this binary's: the next job reuses it.
	tagged.ID = "tag-3"
	res, err := ec.driver.Run(tagged)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MapsSkipped || mismatches(tagged.ID) != 0 {
		t.Errorf("a current-id marker was not reused: %+v", res)
	}
}
