package mapreduce

import (
	"context"
	"fmt"
	"testing"

	"eclipsemr/internal/dhtfs"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
)

// TestOneBlockInputScheduledByNameKey: the block of a one-block input
// lives at the file-name key, so that is the key its map task is placed
// by, and on an idle cluster the range owner of that key runs it.
func TestOneBlockInputScheduledByNameKey(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	want := map[string]int{"solo": 40, "block": 12}
	ec.upload(t, "one.txt", corpus(want), 1<<20)

	var ran []string
	ec.events.SetObserver(func(e events.Event) {
		if e.Name == "map.dispatch" {
			ran = append(ran, e.Detail)
		}
	})
	before := ec.sched.Stats()
	res, err := ec.driver.Run(JobSpec{ID: "one-1", App: "test-wordcount", Inputs: []string{"one.txt"}, User: "tester"})
	ec.events.SetObserver(nil)
	if err != nil {
		t.Fatal(err)
	}
	after := ec.sched.Stats()
	if assigned, local := after.Assigned-before.Assigned, after.LocalAssigns-before.LocalAssigns; assigned != 1 || local != 1 {
		t.Fatalf("scheduler assigned %d map tasks, %d of them local; want 1 and 1", assigned, local)
	}
	owner := ec.sched.RangeTable().Lookup(hashing.KeyOfString("one.txt"))
	if fmt.Sprint(ran) != fmt.Sprint([]string{string(owner)}) {
		t.Fatalf("map task dispatched to %v; the range owner of the file-name key is %s", ran, owner)
	}
	kvs, err := ec.driver.Collect(context.Background(), res, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)
}

// rehomeAsParentWrote rewrites a one-block file the way releases before
// the co-location rule stored it: the block at hashing.BlockKey(name, 0)
// rather than at the file-name key. Those files stay on disk across an
// upgrade, and readers find the block through Metadata.BlockKeys.
func rehomeAsParentWrote(t *testing.T, ec *engineCluster, name string) hashing.Key {
	t.Helper()
	ctx := context.Background()
	fs := ec.fs[ec.ids[0]]
	meta, err := fs.Lookup(ctx, name, "tester")
	if err != nil {
		t.Fatal(err)
	}
	data, err := fs.ReadFile(ctx, name, "tester")
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Delete(ctx, name, meta.Owner); err != nil {
		t.Fatal(err)
	}
	old := hashing.BlockKey(name, 0)
	meta.BlockKeys = []hashing.Key{old}
	place := func(k hashing.Key, put func(*dhtfs.Store)) {
		set, err := ec.ring.ReplicaSet(k, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range set {
			put(ec.fs[id].Store())
		}
	}
	place(old, func(s *dhtfs.Store) {
		if err := s.PutBlock(old, data); err != nil {
			t.Fatal(err)
		}
	})
	place(hashing.KeyOfString(name), func(s *dhtfs.Store) {
		if err := s.PutMeta(meta); err != nil {
			t.Fatal(err)
		}
	})
	return old
}

// TestParentWrittenJournalAndMarkerStillLoad: a journal and a reuse marker
// stored with their block away from the metadata are resumed from, reused
// and cleaned up like ones written today.
func TestParentWrittenJournalAndMarkerStillLoad(t *testing.T) {
	ec := newEngineCluster(t, engineOpts{nodes: 4})
	want := map[string]int{"kept": 33, "across": 21, "upgrade": 8}
	ec.upload(t, "up.txt", corpus(want), 256)
	spec := JobSpec{ID: "up-1", App: "test-wordcount", Inputs: []string{"up.txt"}, User: "tester", ReuseTag: "up-shared"}
	first, err := ec.driver.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	journalBlock := rehomeAsParentWrote(t, ec, journalFile(spec.ID))
	rehomeAsParentWrote(t, ec, markerFile(spec.Namespace()))

	res, err := ec.driver.Resume(spec.ID)
	if err != nil {
		t.Fatalf("resume from a parent-written journal: %v", err)
	}
	if fmt.Sprint(res.OutputFiles) != fmt.Sprint(first.OutputFiles) {
		t.Fatalf("replayed outputs %v != original %v", res.OutputFiles, first.OutputFiles)
	}
	again := spec
	again.ID = "up-2"
	res2, err := ec.driver.Run(again)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.MapsSkipped {
		t.Fatal("the parent-written reuse marker was not honoured")
	}
	kvs, err := ec.driver.Collect(context.Background(), res2, "tester")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, countsFromKVs(t, kvs), want)

	ec.driver.DropIntermediates(context.Background(), spec)
	for id, fs := range ec.fs {
		if fs.Store().HasBlock(journalBlock) {
			t.Fatalf("%s still holds the parent-written journal block after clean-up", id)
		}
		if _, err := fs.Store().GetMeta(journalFile(spec.ID)); err == nil {
			t.Fatalf("%s still holds the journal's metadata after clean-up", id)
		}
	}
}
