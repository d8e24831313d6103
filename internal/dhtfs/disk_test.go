package dhtfs

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := hashing.KeyOfString("disk-block")
	if err := s.PutBlock(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if !s.HasBlock(k) {
		t.Fatal("HasBlock false")
	}
	got, err := s.GetBlock(k)
	if err != nil || string(got) != "payload" {
		t.Fatalf("GetBlock = %q, %v", got, err)
	}
	// Overwrite adjusts accounting.
	if err := s.PutBlock(k, []byte("xy")); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != 2 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	if !s.DeleteBlock(k) || s.DeleteBlock(k) {
		t.Fatal("DeleteBlock semantics")
	}
	if _, err := s.GetBlock(k); !IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
	// Nothing on disk but the slab, and no live record in it.
	if names := dirNames(t, dir); !slices.Equal(names, []string{slabName}) {
		t.Fatalf("the shard directory holds %v, want only %s", names, slabName)
	}
	if recs := slabRecords(t, dir); len(recs) != 0 {
		t.Fatalf("the deleted block left live records: %+v", recs)
	}
}

func TestDiskStoreRecoversAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]hashing.Key, 5)
	for i := range keys {
		keys[i] = hashing.BlockKey("restart.dat", i)
		if err := s1.PutBlock(keys[i], bytes.Repeat([]byte{byte(i)}, 100+i)); err != nil {
			t.Fatal(err)
		}
	}
	// "Restart": a fresh store over the same directory recovers the shard.
	s2, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s2.BlockKeys()); got != 5 {
		t.Fatalf("recovered %d blocks", got)
	}
	for i, k := range keys {
		data, err := s2.GetBlock(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 100+i || data[0] != byte(i) {
			t.Fatalf("block %d corrupted after restart", i)
		}
	}
	if s2.Bytes() != 100+101+102+103+104 {
		t.Fatalf("recovered bytes = %d", s2.Bytes())
	}
}

func TestDiskStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zz.blk"), []byte("bad name"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.BlockKeys()); got != 0 {
		t.Fatalf("indexed %d foreign files", got)
	}
}

func TestDiskBackedServiceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	store, err := NewStoreAt(filepath.Join(dir, "n0"))
	if err != nil {
		t.Fatal(err)
	}
	ring := hashing.NewChordRing()
	if err := ring.AddNode("solo"); err != nil {
		t.Fatal(err)
	}
	// A single-node service never leaves the process: self-calls
	// short-circuit to the local handler, so no listener is needed.
	svc, err := NewServiceWithStore("solo", transport.NewLocal(),
		func() *hashing.ChordRing { return ring }, 1, store)
	if err != nil {
		t.Fatal(err)
	}
	data := randomData(4096, 31)
	meta, err := svc.Upload(context.Background(), "disk.dat", "u", PermPublic, data, 512)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.ReadFile(context.Background(), "disk.dat", "u")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("disk-backed round trip: %v", err)
	}
	// Blocks are really on disk: a record of each in the slab.
	for i, k := range meta.BlockKeys {
		if rec := slabRecord(t, filepath.Join(dir, "n0"), k); rec.size != 512 || rec.damaged {
			t.Fatalf("block %d's record on disk: %+v", i, rec)
		}
	}
}

// TestClusterRestartRecoversFiles is the full durability story: a
// disk-backed shard survives a process restart with both blocks and
// metadata intact, so previously uploaded files remain readable.
func TestClusterRestartRecoversFiles(t *testing.T) {
	dir := t.TempDir()
	ring := hashing.NewChordRing()
	if err := ring.AddNode("solo"); err != nil {
		t.Fatal(err)
	}
	ringFn := func() *hashing.ChordRing { return ring }
	data := randomData(4096, 41)

	store1, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc1, err := NewServiceWithStore("solo", transport.NewLocal(), ringFn, 1, store1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc1.Upload(context.Background(), "persist.dat", "u", PermPublic, data, 512); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store + service over the same directory.
	store2, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := NewServiceWithStore("solo", transport.NewLocal(), ringFn, 1, store2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc2.ReadFile(context.Background(), "persist.dat", "u")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("file corrupted across restart")
	}
	// Deletion persists too.
	if err := svc2.Delete(context.Background(), "persist.dat", "u"); err != nil {
		t.Fatal(err)
	}
	store3, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store3.GetMeta("persist.dat"); !IsNotFound(err) {
		t.Fatalf("deleted metadata resurrected: %v", err)
	}
}
