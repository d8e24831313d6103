package dhtfs

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// testCluster wires n Services over an in-process network with a shared
// ring, swapped for a rebuilt one on every membership change.
type testCluster struct {
	mu       sync.Mutex
	ring     *hashing.ChordRing
	net      *transport.Local
	services map[hashing.NodeID]*Service
	ids      []hashing.NodeID
}

func newTestCluster(t testing.TB, n, replicas int) *testCluster {
	t.Helper()
	tc := &testCluster{
		ring:     hashing.NewChordRing(),
		net:      transport.NewLocal(),
		services: make(map[hashing.NodeID]*Service),
	}
	for i := 0; i < n; i++ {
		id := hashing.NodeID(fmt.Sprintf("node-%02d", i))
		if err := tc.ring.AddNode(id); err != nil {
			t.Fatal(err)
		}
		svc, err := NewService(id, tc.net, tc.currentRing, replicas)
		if err != nil {
			t.Fatal(err)
		}
		tc.services[id] = svc
		tc.ids = append(tc.ids, id)
		handler := func(s *Service) transport.Handler {
			return func(ctx context.Context, method string, body []byte) ([]byte, error) {
				out, ok, err := s.Handle(ctx, method, body)
				if !ok {
					return nil, fmt.Errorf("unknown method %s", method)
				}
				return out, err
			}
		}(svc)
		if err := tc.net.Listen(id, handler); err != nil {
			t.Fatal(err)
		}
	}
	return tc
}

// currentRing is the services' ring source.
func (tc *testCluster) currentRing() *hashing.ChordRing {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return tc.ring
}

// swapRing swaps in a ring rebuilt with join added and leave gone: the
// membership after a change. A shared ring is never changed.
func (tc *testCluster) swapRing(join []hashing.NodeID, leave ...hashing.NodeID) error {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	next := hashing.NewChordRing()
	for _, id := range tc.ring.Members() {
		if pos, _ := tc.ring.Position(id); !slices.Contains(leave, id) {
			_ = next.Add(id, pos) // distinct on the ring it came from
		}
	}
	for _, id := range join {
		if err := next.AddNode(id); err != nil {
			return err
		}
	}
	tc.ring = next
	return nil
}

// fail crashes a node: removes it from the ring and the network.
func (tc *testCluster) fail(id hashing.NodeID) {
	_ = tc.swapRing(nil, id) // a leave joins no one
	tc.net.Unlisten(id)
	delete(tc.services, id)
}

func (tc *testCluster) any() *Service {
	for _, id := range tc.ids {
		if svc, ok := tc.services[id]; ok {
			return svc
		}
	}
	return nil
}

func randomData(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func TestSplit(t *testing.T) {
	data := []byte("abcdefghij") // 10 bytes
	chunks, keys, err := Split("f", data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 3 || len(keys) != 3 {
		t.Fatalf("chunks=%d keys=%d", len(chunks), len(keys))
	}
	if string(chunks[2]) != "ij" {
		t.Fatalf("last chunk = %q", chunks[2])
	}
	for i, k := range keys {
		if k != hashing.BlockKey("f", i) {
			t.Fatalf("key %d mismatch", i)
		}
	}
	// Empty file still yields one (empty) block so metadata has a key.
	chunks, keys, err = Split("e", nil, 4)
	if err != nil || len(chunks) != 1 || len(chunks[0]) != 0 || len(keys) != 1 {
		t.Fatalf("empty split = %d chunks, err %v", len(chunks), err)
	}
	if _, _, err := Split("f", data, 0); err == nil {
		t.Fatal("blockSize 0 accepted")
	}
}

func TestStoreBasics(t *testing.T) {
	s := NewStore()
	k := hashing.KeyOfString("blk")
	given := []byte("data")
	s.PutBlock(k, given)
	if !s.HasBlock(k) {
		t.Fatal("HasBlock false")
	}
	got, err := s.GetBlock(k)
	if err != nil || string(got) != "data" {
		t.Fatalf("GetBlock = %q, %v", got, err)
	}
	// The stored copy is isolated from what the writer does next; what
	// readers get is the shard's own buffer, shared and read-only.
	given[0] = 'X'
	again, _ := s.GetBlock(k)
	if string(again) != "data" {
		t.Fatal("stored block aliased to the slice PutBlock was given")
	}
	s.PutBlock(k, []byte("xy")) // overwrite adjusts byte accounting
	if s.Bytes() != 2 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	if !s.DeleteBlock(k) || s.DeleteBlock(k) {
		t.Fatal("DeleteBlock semantics")
	}
	if s.Bytes() != 0 {
		t.Fatalf("Bytes after delete = %d", s.Bytes())
	}
	if _, err := s.GetBlock(k); !IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreMeta(t *testing.T) {
	s := NewStore()
	m := Metadata{Name: "f", Owner: "alice", Size: 10}
	if err := s.PutMeta(m); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetMeta("f")
	if err != nil || got.Owner != "alice" {
		t.Fatalf("GetMeta = %+v, %v", got, err)
	}
	if names := s.MetaNames(); len(names) != 1 || names[0] != "f" {
		t.Fatalf("MetaNames = %v", names)
	}
	if ok, err := s.DeleteMeta("f"); !ok || err != nil {
		t.Fatalf("DeleteMeta = %v, %v", ok, err)
	}
	if ok, err := s.DeleteMeta("f"); ok || err != nil {
		t.Fatalf("second DeleteMeta = %v, %v", ok, err)
	}
	if _, err := s.GetMeta("f"); !IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestStoreSegments(t *testing.T) {
	s := NewStore()
	s.AppendTaskSegment("job1", "p0", "m0", 0, 0, []byte("aa"))
	s.AppendTaskSegment("job1", "p0", "m0", 0, 1, []byte("bb"))
	s.AppendTaskSegment("job1", "p1", "m0", 0, 0, []byte("cc"))
	s.AppendTaskSegment("job2", "p0", "m0", 0, 0, []byte("dd"))
	segs := s.ReadTaggedSegments("job1", "p0")
	if len(segs) != 2 || string(segs[0].Data) != "aa" || string(segs[1].Data) != "bb" {
		t.Fatalf("segments = %q", segs)
	}
	if len(s.ReadTaggedSegments("job1", "missing")) != 0 {
		t.Fatal("missing partition returned data")
	}
	s.DropJobSegments("job1")
	if len(s.ReadTaggedSegments("job1", "p0")) != 0 || len(s.ReadTaggedSegments("job1", "p1")) != 0 {
		t.Fatal("DropJobSegments left data")
	}
	if len(s.ReadTaggedSegments("job2", "p0")) != 1 {
		t.Fatal("DropJobSegments removed other job's data")
	}
	if s.Bytes() != 2 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
}

func TestMetadataCanRead(t *testing.T) {
	priv := Metadata{Owner: "alice", Perm: PermPrivate}
	if !priv.CanRead("alice") || priv.CanRead("bob") {
		t.Fatal("private permission wrong")
	}
	pub := Metadata{Owner: "alice", Perm: PermPublic}
	if !pub.CanRead("bob") {
		t.Fatal("public permission wrong")
	}
}

func TestUploadAndReadFile(t *testing.T) {
	tc := newTestCluster(t, 6, 3)
	svc := tc.any()
	data := randomData(10_000, 1)
	meta, err := svc.Upload(context.Background(), "input.dat", "alice", PermPublic, data, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Blocks() != 10 || meta.Size != 10_000 {
		t.Fatalf("meta = %+v", meta)
	}
	// Read back from a different node.
	other := tc.services[tc.ids[3]]
	got, err := other.ReadFile(context.Background(), "input.dat", "bob")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round-trip corruption")
	}
}

func TestBlockPlacementFollowsRing(t *testing.T) {
	tc := newTestCluster(t, 6, 3)
	svc := tc.any()
	data := randomData(8192, 2)
	meta, err := svc.Upload(context.Background(), "placed.dat", "alice", PermPublic, data, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range meta.BlockKeys {
		targets, _ := tc.ring.ReplicaSet(k, 3)
		for _, id := range targets {
			if !tc.services[id].Store().HasBlock(k) {
				t.Fatalf("replica %s missing block %s", id, k)
			}
		}
		// Nodes outside the replica set must not hold the block.
		inSet := map[hashing.NodeID]bool{}
		for _, id := range targets {
			inSet[id] = true
		}
		for id, s := range tc.services {
			if !inSet[id] && s.Store().HasBlock(k) {
				t.Fatalf("non-replica %s holds block %s", id, k)
			}
		}
	}
	// Metadata lives at the file-name owner and its replicas.
	metaTargets, _ := tc.ring.ReplicaSet(hashing.KeyOfString("placed.dat"), 3)
	for _, id := range metaTargets {
		if _, err := tc.services[id].Store().GetMeta("placed.dat"); err != nil {
			t.Fatalf("metadata replica %s missing entry: %v", id, err)
		}
	}
}

func TestLookupPermissionDenied(t *testing.T) {
	tc := newTestCluster(t, 4, 2)
	svc := tc.any()
	if _, err := svc.Upload(context.Background(), "secret.dat", "alice", PermPrivate, []byte("x"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Lookup(context.Background(), "secret.dat", "alice"); err != nil {
		t.Fatalf("owner denied: %v", err)
	}
	_, err := svc.Lookup(context.Background(), "secret.dat", "eve")
	if err == nil || !IsPermission(err) {
		t.Fatalf("expected permission error, got %v", err)
	}
}

func TestLookupMissingFile(t *testing.T) {
	tc := newTestCluster(t, 4, 2)
	_, err := tc.any().Lookup(context.Background(), "nope.dat", "x")
	if err == nil || !IsNotFound(err) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadSurvivesSingleFailure(t *testing.T) {
	tc := newTestCluster(t, 6, 3)
	svc := tc.services[tc.ids[0]]
	data := randomData(4096, 3)
	if _, err := svc.Upload(context.Background(), "ft.dat", "alice", PermPublic, data, 256); err != nil {
		t.Fatal(err)
	}
	// Kill a node that holds data (not the reader).
	tc.fail(tc.ids[4])
	got, err := svc.ReadFile(context.Background(), "ft.dat", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data corrupted after failure")
	}
}

// TestReReplicateTakesTheRingOnce: one ring, taken once, places every
// block and metadata entry of a round, so a membership change during the
// round cannot split it across two epochs.
func TestReReplicateTakesTheRingOnce(t *testing.T) {
	tc := newTestCluster(t, 5, 3)
	svc := tc.services[tc.ids[0]]
	if _, err := svc.Upload(context.Background(), "once.dat", "alice", PermPublic, randomData(4096, 8), 256); err != nil {
		t.Fatal(err)
	}
	tc.fail(tc.ids[2])
	var taken atomic.Int32
	svc.ring = func() *hashing.ChordRing {
		taken.Add(1)
		return tc.currentRing()
	}
	if _, err := svc.ReReplicate(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := len(svc.Store().BlockKeys()) + len(svc.Store().MetaNames()); n < 2 {
		t.Fatalf("the round placed %d objects; want several", n)
	}
	if n := taken.Load(); n != 1 {
		t.Fatalf("one round took the ring %d times, want once", n)
	}
}

func TestReReplicateRestoresInvariant(t *testing.T) {
	tc := newTestCluster(t, 6, 3)
	svc := tc.services[tc.ids[0]]
	data := randomData(8192, 4)
	meta, err := svc.Upload(context.Background(), "rec.dat", "alice", PermPublic, data, 256)
	if err != nil {
		t.Fatal(err)
	}
	victim := tc.ids[2]
	tc.fail(victim)
	// Every survivor runs re-replication, as the resource manager directs
	// after detecting a failure.
	for _, s := range tc.services {
		if _, err := s.ReReplicate(context.Background()); err != nil {
			t.Fatalf("ReReplicate: %v", err)
		}
	}
	// Invariant: every block again has `replicas` live copies.
	for _, k := range meta.BlockKeys {
		targets, _ := tc.ring.ReplicaSet(k, 3)
		for _, id := range targets {
			if !tc.services[id].Store().HasBlock(k) {
				t.Fatalf("after recovery, replica %s missing block %s", id, k)
			}
		}
	}
	// And a second failure of any single node still leaves data readable.
	tc.fail(tc.ids[5])
	got, err := svc.ReadFile(context.Background(), "rec.dat", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data lost after second failure")
	}
}

// TestReReplicateKeepsCopiesItCannotHandOver: a member that has left a
// key's replica set keeps its copy until every member of the new set has
// one. Twenty joiners no one can reach take over most of the ring, every
// old member re-replicates and fails to hand over, and the file must still
// read once the joiners are evicted.
func TestReReplicateKeepsCopiesItCannotHandOver(t *testing.T) {
	ctx := context.Background()
	tc := newTestCluster(t, 3, 3)
	svc := tc.services[tc.ids[0]]
	data := randomData(64*256, 6)
	if _, err := svc.Upload(ctx, "handover.dat", "alice", PermPublic, data, 256); err != nil {
		t.Fatal(err)
	}
	var joiners []hashing.NodeID
	for i := 0; i < 20; i++ {
		joiners = append(joiners, hashing.NodeID(fmt.Sprintf("joiner-%02d", i)))
	}
	if err := tc.swapRing(joiners); err != nil {
		t.Fatal(err)
	}
	var kept int64
	for _, id := range tc.ids {
		// The joiners are unreachable, so every run reports an error.
		_, _ = tc.services[id].ReReplicate(ctx)
		kept += counter(tc.services[id], "fs.handover.kept")
	}
	_ = tc.swapRing(nil, joiners...)
	got, err := svc.ReadFile(ctx, "handover.dat", "alice")
	if err != nil {
		t.Fatalf("after the joiners were evicted: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the file changed")
	}
	if kept == 0 {
		t.Fatal("no member kept a copy it could not hand over: the joiners took no key")
	}
}

func TestSegmentsPushFetchDrop(t *testing.T) {
	tc := newTestCluster(t, 4, 2)
	a, b := tc.services[tc.ids[0]], tc.services[tc.ids[1]]
	if err := a.PushTaggedSegmentBatch(context.Background(), tc.ids[1], "job9", []SegBatchEntry{{Partition: "r0", Tag: SegTag{Task: "m0", Seq: 0}, Data: []byte("spill-1")}}); err != nil {
		t.Fatal(err)
	}
	if err := a.PushTaggedSegmentBatch(context.Background(), tc.ids[1], "job9", []SegBatchEntry{{Partition: "r0", Tag: SegTag{Task: "m0", Seq: 1}, Data: []byte("spill-2")}}); err != nil {
		t.Fatal(err)
	}
	segs, err := b.FetchTaggedSegments(context.Background(), tc.ids[1], "job9", "r0")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || string(segs[1].Data) != "spill-2" {
		t.Fatalf("segments = %q", segs)
	}
	// Fetch across the network too.
	segs, err = a.FetchTaggedSegments(context.Background(), tc.ids[1], "job9", "r0")
	if err != nil || len(segs) != 2 {
		t.Fatalf("remote fetch = %d, %v", len(segs), err)
	}
	a.DropJob(context.Background(), "job9", "tester")
	segs, _ = a.FetchTaggedSegments(context.Background(), tc.ids[1], "job9", "r0")
	if len(segs) != 0 {
		t.Fatal("DropJob left segments")
	}
}

func TestNewServiceValidation(t *testing.T) {
	net := transport.NewLocal()
	if _, err := NewService("a", net, nil, 3); err == nil {
		t.Fatal("nil ring accepted")
	}
	if _, err := NewService("a", net, func() *hashing.ChordRing { return nil }, 0); err == nil {
		t.Fatal("replicas=0 accepted")
	}
}

func TestUploadSmallRingFewerReplicas(t *testing.T) {
	tc := newTestCluster(t, 2, 3) // fewer nodes than replicas
	svc := tc.any()
	data := randomData(1000, 5)
	if _, err := svc.Upload(context.Background(), "small.dat", "a", PermPublic, data, 100); err != nil {
		t.Fatal(err)
	}
	got, err := svc.ReadFile(context.Background(), "small.dat", "a")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read = %d bytes, %v", len(got), err)
	}
}

func TestConcurrentUploadsAndReads(t *testing.T) {
	tc := newTestCluster(t, 5, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			svc := tc.services[tc.ids[i%len(tc.ids)]]
			name := fmt.Sprintf("file-%d", i)
			data := randomData(2048, int64(i))
			if _, err := svc.Upload(context.Background(), name, "u", PermPublic, data, 256); err != nil {
				errs <- err
				return
			}
			got, err := svc.ReadFile(context.Background(), name, "u")
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, data) {
				errs <- fmt.Errorf("%s corrupted", name)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSplitRecords(t *testing.T) {
	data := []byte("aa bb\ncc dd\nee ff\n")
	chunks, keys, err := SplitRecords("f", data, 8, '\n')
	if err != nil {
		t.Fatal(err)
	}
	var total []byte
	for _, c := range chunks {
		if len(c) > 8 {
			t.Fatalf("chunk %q exceeds block size", c)
		}
		if c[len(c)-1] != '\n' && !bytes.HasSuffix(data, c) {
			t.Fatalf("chunk %q not record-aligned", c)
		}
		total = append(total, c...)
	}
	if !bytes.Equal(total, data) {
		t.Fatal("chunks do not reassemble")
	}
	if len(keys) != len(chunks) {
		t.Fatalf("keys=%d chunks=%d", len(keys), len(chunks))
	}
	// A record longer than the block is hard-cut rather than looping.
	long := []byte("abcdefghijklmnop")
	chunks, _, err = SplitRecords("g", long, 4, '\n')
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("hard-cut chunks = %d", len(chunks))
	}
	// Empty input still yields one block.
	chunks, keys, err = SplitRecords("e", nil, 4, '\n')
	if err != nil || len(chunks) != 1 || len(keys) != 1 {
		t.Fatalf("empty = %d chunks, %v", len(chunks), err)
	}
	if _, _, err := SplitRecords("f", data, 0, '\n'); err == nil {
		t.Fatal("blockSize 0 accepted")
	}
}

func TestUploadRecordsRoundTrip(t *testing.T) {
	tc := newTestCluster(t, 4, 2)
	svc := tc.any()
	var data []byte
	for i := 0; i < 200; i++ {
		data = append(data, []byte(fmt.Sprintf("line number %d with some text\n", i))...)
	}
	meta, err := svc.UploadRecords(context.Background(), "lines.txt", "u", PermPublic, data, 256, '\n')
	if err != nil {
		t.Fatal(err)
	}
	if meta.Blocks() < 2 {
		t.Fatalf("blocks = %d", meta.Blocks())
	}
	got, err := svc.ReadFile(context.Background(), "lines.txt", "u")
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("round trip failed: %v", err)
	}
}

func TestDeleteRemovesBlocksAndMetadata(t *testing.T) {
	tc := newTestCluster(t, 5, 3)
	svc := tc.any()
	data := randomData(4096, 9)
	meta, err := svc.Upload(context.Background(), "del.dat", "alice", PermPublic, data, 512)
	if err != nil {
		t.Fatal(err)
	}
	// A non-owner cannot delete, even with read permission.
	if err := tc.services[tc.ids[1]].Delete(context.Background(), "del.dat", "bob"); !IsPermission(err) {
		t.Fatalf("non-owner delete err = %v", err)
	}
	if err := svc.Delete(context.Background(), "del.dat", "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Lookup(context.Background(), "del.dat", "alice"); !IsNotFound(err) {
		t.Fatalf("lookup after delete err = %v", err)
	}
	for id, s := range tc.services {
		for _, k := range meta.BlockKeys {
			if s.Store().HasBlock(k) {
				t.Fatalf("node %s still holds block %s after delete", id, k)
			}
		}
		if _, err := s.Store().GetMeta("del.dat"); !IsNotFound(err) {
			t.Fatalf("node %s still holds metadata", id)
		}
	}
	// Deleting a missing file reports not-found.
	if err := svc.Delete(context.Background(), "ghost.dat", "alice"); !IsNotFound(err) {
		t.Fatalf("delete missing err = %v", err)
	}
}

// TestPinBlockAtEveryRingSize reads every block of a file from every node
// of rings of 1 to 16 members, the one- and two-member rings included,
// where a key's successor wraps round to the reader itself. With one copy
// per block the owner serves its own read without a message, any other
// reader's read costs exactly one (to the owner, whom every node's view
// names), and PinBlock says which of the two happened.
func TestPinBlockAtEveryRingSize(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 5, 8, 16} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			tc := newTestCluster(t, n, 1)
			data := randomData(2048, 12)
			meta, err := tc.any().Upload(ctx, "direct.dat", "u", PermPublic, data, 256)
			if err != nil {
				t.Fatal(err)
			}
			calls := countCalls(t, tc)
			for i, k := range meta.BlockKeys {
				owner, _ := tc.ring.Owner(k)
				want := data[i*256 : (i+1)*256]
				for id, svc := range tc.services {
					before := calls()
					buf, remote, err := svc.PinBlock(ctx, k, meta.BlockSums[i])
					if err != nil {
						t.Fatalf("PinBlock(%s) from %s: %v", k, id, err)
					}
					same := bytes.Equal(buf.Bytes(), want)
					buf.Release()
					if !same {
						t.Fatalf("PinBlock(%s) from %s returned other bytes than block %d", k, id, i)
					}
					if remote != (id != owner) {
						t.Fatalf("PinBlock(%s) from %s: remote = %v, the owner is %s", k, id, remote, owner)
					}
					wantCalls := 0
					if remote {
						wantCalls = 1
					}
					if got := calls() - before; got != wantCalls {
						t.Fatalf("PinBlock(%s) from %s cost %d calls, want %d", k, id, got, wantCalls)
					}
				}
			}
		})
	}
}

func TestReadRecoversFromCorruptReplica(t *testing.T) {
	tc := newTestCluster(t, 5, 3)
	svc := tc.any()
	data := randomData(3000, 14)
	meta, err := svc.Upload(context.Background(), "sum.dat", "u", PermPublic, data, 500)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the primary copy of every block (bit-rot on the owner).
	for _, k := range meta.BlockKeys {
		owner, err := tc.ring.Owner(k)
		if err != nil {
			t.Fatal(err)
		}
		store := tc.services[owner].Store()
		blk, err := store.GetBlock(k)
		if err != nil {
			t.Fatal(err)
		}
		blk = bytes.Clone(blk) // the shard's bytes are read-only
		blk[0] ^= 0xFF
		store.PutBlock(k, blk)
	}
	got, err := svc.ReadFile(context.Background(), "sum.dat", "u")
	if err != nil {
		t.Fatalf("read with corrupt primaries: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("corrupt data served")
	}
	// Corrupting every replica surfaces ErrCorrupt rather than bad bytes.
	k := meta.BlockKeys[0]
	targets, _ := tc.ring.ReplicaSet(k, 3)
	for _, id := range targets {
		store := tc.services[id].Store()
		blk, _ := store.GetBlock(k)
		garbage := make([]byte, len(blk)) // definitely not the original
		store.PutBlock(k, garbage)
	}
	_, err = svc.ReadFile(context.Background(), "sum.dat", "u")
	if err == nil || !strings.Contains(err.Error(), ErrCorrupt.Error()) {
		t.Fatalf("err = %v", err)
	}
}
