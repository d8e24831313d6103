package dhtfs

import (
	"bytes"
	"context"
	"crypto/sha1"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"eclipsemr/internal/blockbuf"
	"eclipsemr/internal/events"
	"eclipsemr/internal/hashing"
	"eclipsemr/internal/transport"
)

// The contract of DESIGN.md "Block integrity": a block is hashed once, by
// its writer; a replica checks the CRC before it stores; a reader checks
// the CRC of bytes that crossed a disk or a socket and tells the version by
// comparing digests; only a block stored without a digest is ever summed.

// integrityCluster is a testCluster whose shards may live on disk, each in
// a directory of its own so that a node can be restarted over it.
func integrityCluster(t *testing.T, n, replicas int, disk bool) (*testCluster, map[hashing.NodeID]string) {
	t.Helper()
	tc := newTestCluster(t, n, replicas)
	dirs := make(map[hashing.NodeID]string)
	if !disk {
		return tc, dirs
	}
	root := t.TempDir()
	for _, id := range tc.ids {
		dirs[id] = filepath.Join(root, string(id))
		restartNode(t, tc, id, dirs[id])
	}
	return tc, dirs
}

// restartNode replaces node id's service with a fresh one over a store
// opened on dir: what a process restart leaves of the node.
func restartNode(t *testing.T, tc *testCluster, id hashing.NodeID, dir string) *Service {
	t.Helper()
	store, err := NewStoreAt(dir)
	if err != nil {
		t.Fatal(err)
	}
	ringFn := func() hashing.Ring {
		tc.mu.Lock()
		defer tc.mu.Unlock()
		return tc.ring.Clone()
	}
	svc, err := NewServiceWithStore(id, tc.net, ringFn, tc.services[id].replicas, store)
	if err != nil {
		t.Fatal(err)
	}
	tc.services[id] = svc
	tc.net.Unlisten(id)
	err = tc.net.Listen(id, func(ctx context.Context, method string, body []byte) ([]byte, error) {
		out, _, err := svc.Handle(ctx, method, body)
		return out, err
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// blockbufRef is a reference a test holds on a stored block.
type blockbufRef struct {
	key hashing.Key
	buf *blockbuf.Buf
}

// counter reads one counter of a service's registry.
func counter(svc *Service, name string) int64 { return svc.Metrics().Snapshot().Get(name) }

// summedEverywhere adds up fs.read.summed over the cluster.
func summedEverywhere(tc *testCluster) (n int64) {
	for _, svc := range tc.services {
		n += counter(svc, "fs.read.summed")
	}
	return n
}

// flipByte flips one byte of a file in place.
func flipByte(t *testing.T, path string, at int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], at); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], at); err != nil {
		t.Fatal(err)
	}
}

// outsider returns the node of tc that is no replica of k.
func outsider(tc *testCluster, set []hashing.NodeID) hashing.NodeID {
	for _, id := range tc.ids {
		if !slices.Contains(set, id) {
			return id
		}
	}
	return ""
}

// TestFaultFreeReadsNeverSum: with every block put by an upload, no read
// computes a SHA-1, whichever node reads, by whichever entry point, on
// either backend.
func TestFaultFreeReadsNeverSum(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			tc, _ := integrityCluster(t, 4, 3, backend == "disk")
			small, large := randomData(300, 71), randomData(5000, 72)
			if _, err := tc.any().Upload(ctx, "small.dat", "alice", PermPublic, small, 1<<10); err != nil {
				t.Fatal(err)
			}
			meta, err := tc.any().Upload(ctx, "large.dat", "alice", PermPublic, large, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			set, _ := tc.ring.ReplicaSet(meta.BlockKeys[1], 3)
			for _, who := range []hashing.NodeID{set[0], set[2], outsider(tc, set)} {
				svc := tc.services[who]
				for file, want := range map[string][]byte{"small.dat": small, "large.dat": large} {
					if got, err := svc.ReadFile(ctx, file, "alice"); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("ReadFile(%s) on %s = %d bytes, %v", file, who, len(got), err)
					}
				}
				buf, err := svc.PinBlock(ctx, meta.BlockKeys[1], meta.BlockSums[1])
				if err != nil || !bytes.Equal(buf.Bytes(), large[1<<10:2<<10]) {
					t.Fatalf("PinBlock on %s: %v", who, err)
				}
				buf.Release()
			}
			if n := summedEverywhere(tc); n != 0 {
				t.Fatalf("fs.read.summed = %d over fault-free reads, want 0", n)
			}
			for id, svc := range tc.services {
				if n := counter(svc, "fs.read.corrupt") + counter(svc, "fs.put.corrupt"); n != 0 {
					t.Fatalf("%s counted %d corrupt copies in a fault-free run", id, n)
				}
			}
		})
	}
}

// TestDigestlessBlockSummedOnce: a block put without a digest is summed by
// the first read that names one and never again; a read that names another
// digest than the bytes have finds the copy corrupt without a second sum.
func TestDigestlessBlockSummedOnce(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			tc, _ := integrityCluster(t, 1, 1, backend == "disk")
			svc := tc.any()
			k, data := hashing.KeyOfString("bare"), randomData(2000, 73)
			if err := svc.Store().PutBlock(k, data); err != nil {
				t.Fatal(err)
			}
			if buf, err := svc.PinBlock(ctx, k, [sha1.Size]byte{}); err != nil {
				t.Fatal(err)
			} else {
				buf.Release()
			}
			if n := counter(svc, "fs.read.summed"); n != 0 {
				t.Fatalf("a read naming no digest summed %d blocks", n)
			}
			for read := 1; read <= 2; read++ {
				buf, err := svc.PinBlock(ctx, k, SumBlock(data))
				if err != nil || !bytes.Equal(buf.Bytes(), data) {
					t.Fatalf("read %d: %v", read, err)
				}
				buf.Release()
				if n := counter(svc, "fs.read.summed"); n != 1 {
					t.Fatalf("fs.read.summed = %d after read %d, want 1", n, read)
				}
			}
			if _, err := svc.PinBlock(ctx, k, SumBlock([]byte("another version"))); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a read naming another version: %v", err)
			}
			if n := counter(svc, "fs.read.summed"); n != 1 {
				t.Fatalf("fs.read.summed = %d after a mismatch on the adopted digest, want 1", n)
			}
		})
	}
}

// TestPutCorruptedInFlightIsRefused: a put whose payload changed on the way
// is refused by the replica, stores nothing, is counted and named in an
// event, and the writer hears of it.
func TestPutCorruptedInFlightIsRefused(t *testing.T) {
	ctx := context.Background()
	data := randomData(700, 74)
	check := BlockCheck{CRC: BlockCRC(data), Sum: SumBlock(data)}
	key := hashing.KeyOfString("inflight.dat")
	meta := Metadata{Name: "inflight.dat", Owner: "alice", Perm: PermPublic, Size: int64(len(data)), BlockSize: 1 << 10,
		BlockKeys: []hashing.Key{key}, BlockSums: [][sha1.Size]byte{check.Sum}}
	bodies := map[string]transport.Wire{
		MethodPutBlock: &putBlockReq{Key: key, Check: check, Data: data},
		MethodPutFile:  &putFileReq{Meta: meta, Check: check, Data: data},
	}
	for method, msg := range bodies {
		t.Run(method, func(t *testing.T) {
			tc := newTestCluster(t, 1, 1)
			svc := tc.any()
			log := events.New(string(svc.self), events.Options{})
			svc.SetEvents(log)
			body, err := transport.Encode(msg)
			if err != nil {
				t.Fatal(err)
			}
			body[len(body)-len(data)/2] ^= 0x01 // Data is the last field
			_, _, err = svc.Handle(ctx, method, body)
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Handle(%s) of a damaged body = %v, want ErrCorrupt", method, err)
			}
			if svc.Store().HasBlock(key) {
				t.Fatal("the damaged block was stored")
			}
			if _, err := svc.Store().GetMeta(meta.Name); !IsNotFound(err) {
				t.Fatalf("metadata stored beside a refused block: %v", err)
			}
			if n := counter(svc, "fs.put.corrupt"); n != 1 {
				t.Fatalf("fs.put.corrupt = %d, want 1", n)
			}
			if n := counter(svc, "fs.blocks.written"); n != 0 {
				t.Fatalf("fs.blocks.written = %d for a refused put", n)
			}
			var named []string
			for _, ev := range log.Events("", 0) {
				if ev.Name == "fs.put_corrupt" {
					named = append(named, ev.Detail)
				}
			}
			if want := fmt.Sprintf("%s %s", svc.self, key); !slices.Equal(named, []string{want}) {
				t.Fatalf("fs.put_corrupt events %v, want [%s]", named, want)
			}
		})
	}

	// The writer's side: a replica that refuses is a failed upload, not one
	// of the copies that landed.
	uploads := []struct {
		method    string // what carries the file's first block
		blockSize int
		first     hashing.Key
	}{
		{MethodPutFile, 1 << 10, key},
		{MethodPutBlock, 256, hashing.BlockKey("inflight.dat", 0)},
	}
	for _, up := range uploads {
		t.Run("upload/"+up.method, func(t *testing.T) {
			tc := newTestCluster(t, 4, 3)
			set, _ := tc.ring.ReplicaSet(up.first, 3)
			writer, victim := tc.services[set[0]], tc.services[set[1]]
			tc.net.Unlisten(set[1])
			err := tc.net.Listen(set[1], func(ctx context.Context, method string, body []byte) ([]byte, error) {
				if method == up.method {
					body = bytes.Clone(body)
					body[len(body)-1] ^= 0x80
				}
				out, _, err := victim.Handle(ctx, method, body)
				return out, err
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = writer.Upload(ctx, "inflight.dat", "alice", PermPublic, data, up.blockSize)
			if err == nil || !strings.Contains(err.Error(), ErrCorrupt.Error()) || !strings.Contains(err.Error(), string(set[1])) {
				t.Fatalf("Upload through a network that damages %s's copy = %v", set[1], err)
			}
			if blocks, _, _ := victim.Store().Counts(); blocks != 0 {
				t.Fatalf("%s stored %d damaged blocks", set[1], blocks)
			}
			if n := counter(victim, "fs.put.corrupt"); n != 1 {
				t.Fatalf("fs.put.corrupt on %s = %d, want 1", set[1], n)
			}
		})
	}
}

// TestDamagedBlockFileIsPassedOver: one flipped byte in a block file, in
// the payload or in the trailer (found at the next open), makes that
// replica's copy fail its check without a SHA-1: the read is served by a
// neighbour and counts one corrupt copy.
func TestDamagedBlockFileIsPassedOver(t *testing.T) {
	ctx := context.Background()
	for _, place := range []string{"payload", "trailer digest", "trailer crc"} {
		t.Run(place, func(t *testing.T) {
			tc, dirs := integrityCluster(t, 4, 3, true)
			data := randomData(3000, 75)
			meta, err := tc.any().Upload(ctx, "rot.dat", "alice", PermPublic, data, 1<<10)
			if err != nil {
				t.Fatal(err)
			}
			k := meta.BlockKeys[1]
			set, _ := tc.ring.ReplicaSet(k, 3)
			self := set[0]
			path := filepath.Join(dirs[self], k.String()+blockExt)
			switch place {
			case "payload":
				flipByte(t, path, 100)
			case "trailer crc":
				flipByte(t, path, 1<<10+1)
			case "trailer digest":
				flipByte(t, path, 1<<10+4+3)
			}
			svc := tc.services[self]
			if place != "payload" {
				// The index a running shard reads by was built from the trailer
				// as it was; the damage is met when the file is next opened.
				svc = restartNode(t, tc, self, dirs[self])
				if svc.Store().HasBlock(k) {
					t.Fatal("HasBlock vouches for a copy whose trailer is damaged")
				}
			}
			log := events.New(string(self), events.Options{})
			svc.SetEvents(log)
			got, err := svc.ReadFile(ctx, "rot.dat", "alice")
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("ReadFile = %d bytes, %v", len(got), err)
			}
			if c, f := counter(svc, "fs.read.corrupt"), counter(svc, "fs.read.failover"); c != 1 || f != 1 {
				t.Fatalf("fs.read.corrupt = %d, fs.read.failover = %d, want 1 and 1", c, f)
			}
			if n := summedEverywhere(tc); n != 0 {
				t.Fatalf("fs.read.summed = %d: the damage was found by a SHA-1", n)
			}
			var named []string
			for _, ev := range log.Events("", 0) {
				if ev.Name == "fs.read_corrupt" {
					named = append(named, ev.Detail)
				}
			}
			if !slices.Equal(named, []string{string(self)}) {
				t.Fatalf("fs.read_corrupt events name %v, want %s", named, self)
			}
			// Store-level reads refuse the copy too.
			if _, err := svc.Store().GetBlock(k); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Store.GetBlock of the damaged copy = %v", err)
			}
		})
	}
}

// TestStaleVersionIsPassedOverByDigest: right key, wrong version. A replica
// left holding the previous upload's block is told from the current one by
// comparing digests, on either backend and from the reader's own shard or
// over the network.
func TestStaleVersionIsPassedOverByDigest(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []string{"mem", "disk"} {
		for _, reader := range []string{"stale holder", "outsider"} {
			t.Run(backend+"/"+reader, func(t *testing.T) {
				tc, _ := integrityCluster(t, 4, 3, backend == "disk")
				old, current := randomData(2500, 76), randomData(2500, 77)
				oldMeta, err := tc.any().Upload(ctx, "v.dat", "alice", PermPublic, old, 1<<10)
				if err != nil {
					t.Fatal(err)
				}
				k := oldMeta.BlockKeys[0]
				set, _ := tc.ring.ReplicaSet(k, 3)
				stale := tc.services[set[0]] // first in every outsider's read order
				buf, check, err := stale.Store().pin(k)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tc.any().Upload(ctx, "v.dat", "alice", PermPublic, current, 1<<10); err != nil {
					t.Fatal(err)
				}
				// The replica missed the second upload's write of this block.
				if err := stale.putBlock(k, buf.Bytes(), check); err != nil {
					t.Fatal(err)
				}
				who := set[0]
				if reader == "outsider" {
					who = outsider(tc, set)
				}
				svc := tc.services[who]
				got, err := svc.ReadFile(ctx, "v.dat", "alice")
				if err != nil || !bytes.Equal(got, current) {
					t.Fatalf("ReadFile = %d bytes, %v; want the second upload", len(got), err)
				}
				if n := counter(svc, "fs.read.corrupt"); n != 1 {
					t.Fatalf("fs.read.corrupt = %d, want 1", n)
				}
				if n := summedEverywhere(tc); n != 0 {
					t.Fatalf("fs.read.summed = %d: the version was told by a SHA-1", n)
				}
			})
		}
	}
}

// TestBlockFilesAcrossRestart: a shard reopened over block files with
// trailers knows every block's size, CRC and digest without reading a
// payload; over files written before trailers existed it serves them,
// summing each once per process.
func TestBlockFilesAcrossRestart(t *testing.T) {
	ctx := context.Background()
	tc, dirs := integrityCluster(t, 1, 1, true)
	id := tc.ids[0]
	data := randomData(4500, 78)
	meta, err := tc.any().Upload(ctx, "kept.dat", "alice", PermPublic, data, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[hashing.Key]BlockCheck)
	for i, k := range meta.BlockKeys {
		_, check, err := tc.any().Store().pin(k)
		if err != nil || check.Sum != meta.BlockSums[i] {
			t.Fatalf("block %d is stored beside %+v, %v", i, check, err)
		}
		want[k] = check
		info, err := os.Stat(filepath.Join(dirs[id], k.String()+blockExt))
		if payload := min(1<<10, len(data)-i<<10); err != nil || info.Size() != int64(payload+trailerSize) {
			t.Fatalf("block file %d: %v, want %d bytes of payload and a trailer", i, info, payload)
		}
	}

	svc := restartNode(t, tc, id, dirs[id])
	if n := svc.Store().Bytes(); n != int64(len(data)) {
		t.Fatalf("Store.Bytes() after a restart = %d, want the %d payload bytes", n, len(data))
	}
	for k, check := range want {
		if _, got, err := svc.Store().pin(k); err != nil || got != check {
			t.Fatalf("block %s after a restart is beside %+v, %v; want %+v", k, got, err, check)
		}
	}
	if got, err := svc.ReadFile(ctx, "kept.dat", "alice"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadFile after a restart = %d bytes, %v", len(got), err)
	}
	if n := counter(svc, "fs.read.summed"); n != 0 {
		t.Fatalf("fs.read.summed = %d after a restart over trailers, want 0", n)
	}

	// The same files as the commit before trailers wrote them.
	for k := range want {
		path := filepath.Join(dirs[id], k.String()+blockExt)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-trailerSize); err != nil {
			t.Fatal(err)
		}
	}
	for open := 0; open < 2; open++ {
		svc = restartNode(t, tc, id, dirs[id])
		if n := svc.Store().Bytes(); n != int64(len(data)) {
			t.Fatalf("open %d: Store.Bytes() over bare files = %d, want %d", open, n, len(data))
		}
		for read := 0; read < 2; read++ {
			if got, err := svc.ReadFile(ctx, "kept.dat", "alice"); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("open %d: ReadFile over bare files = %d bytes, %v", open, len(got), err)
			}
			if n := counter(svc, "fs.read.summed"); n != int64(len(want)) {
				t.Fatalf("open %d, read %d: fs.read.summed = %d, want one per block (%d)", open, read, n, len(want))
			}
		}
	}
}

// TestReReplicateDoesNotSpreadDamage: a node whose copy of a block rotted
// on disk does not push it to a new member of the replica set; the new
// holder ends up with the good bytes from another replica or with none.
func TestReReplicateDoesNotSpreadDamage(t *testing.T) {
	ctx := context.Background()
	tc, dirs := integrityCluster(t, 4, 3, true)
	data := randomData(800, 79)
	meta, err := tc.any().Upload(ctx, "heal.dat", "alice", PermPublic, data, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	k := meta.BlockKeys[0]
	set, _ := tc.ring.ReplicaSet(k, 3)
	rotten := set[0]
	flipByte(t, filepath.Join(dirs[rotten], k.String()+blockExt), 10)

	// A holder other than the rotten one leaves, so the fourth node joins
	// the key's replica set holding nothing.
	joiner := outsider(tc, set)
	tc.fail(set[1])
	if now, _ := tc.ring.ReplicaSet(k, 3); !slices.Contains(now, joiner) || !slices.Contains(now, rotten) {
		t.Fatalf("replica set %v → %v: want %s in and %s still there", set, now, joiner, rotten)
	}
	held := func() ([]byte, bool) {
		buf, _, err := tc.services[joiner].Store().pin(k)
		if err != nil {
			return nil, false
		}
		return buf.Bytes(), true
	}
	if _, err := tc.services[rotten].ReReplicate(ctx); err != nil {
		t.Fatal(err)
	}
	if got, ok := held(); ok && !bytes.Equal(got, data) {
		t.Fatal("the new holder was pushed the damaged copy")
	}
	if n := counter(tc.services[rotten], "fs.read.corrupt"); n != 1 {
		t.Fatalf("fs.read.corrupt on the rotten node = %d, want 1", n)
	}
	if _, err := tc.services[set[2]].ReReplicate(ctx); err != nil {
		t.Fatal(err)
	}
	got, ok := held()
	if !ok || !bytes.Equal(got, data) {
		t.Fatalf("after the sound replica re-replicated, the new holder has %d bytes (held %v)", len(got), ok)
	}
	if _, check, _ := tc.services[joiner].Store().pin(k); check.Sum != meta.BlockSums[0] {
		t.Fatal("the healed replica does not know its block's digest")
	}
}

// TestBufferLifecycleReadFile: ReadFile gives every block buffer back, so
// its disk reads recycle each other's arrays, and what it returns is a copy
// no later read can reach. Under the race detector a recycled array is
// overwritten at once, so a result aliased to one changes here.
func TestBufferLifecycleReadFile(t *testing.T) {
	ctx := context.Background()
	for _, backend := range []string{"mem", "disk"} {
		t.Run(backend, func(t *testing.T) {
			tc, _ := integrityCluster(t, 1, 1, backend == "disk")
			svc := tc.any()
			files := map[string][]byte{
				"a-one-block.dat": randomData(4096, 80),
				"a-blocks.dat":    randomData(4*4096, 81),
				"b-one-block.dat": randomData(4096, 82),
				"b-blocks.dat":    randomData(4*4096, 83),
			}
			var metas []Metadata
			for name, data := range files {
				meta, err := svc.Upload(ctx, name, "alice", PermPublic, data, 4096)
				if err != nil {
					t.Fatal(err)
				}
				metas = append(metas, meta)
			}
			// A reference of the test's own to every block: what ReadFile
			// takes it must give back for the count to reach zero below.
			var held []*blockbufRef
			if backend == "mem" {
				for _, meta := range metas {
					for _, k := range meta.BlockKeys {
						buf, _, err := svc.Store().pin(k)
						if err != nil {
							t.Fatal(err)
						}
						held = append(held, &blockbufRef{k, buf})
					}
				}
			}
			first := make(map[string][]byte)
			for round := 0; round < 4; round++ {
				for name, want := range files {
					got, err := svc.ReadFile(ctx, name, "alice")
					if err != nil || !bytes.Equal(got, want) {
						t.Fatalf("round %d: ReadFile(%s) = %d bytes, %v", round, name, len(got), err)
					}
					if round == 0 {
						first[name] = got
					}
				}
			}
			for name, want := range files {
				if !bytes.Equal(first[name], want) {
					t.Fatalf("the bytes ReadFile(%s) returned changed under later reads", name)
				}
			}
			if backend == "disk" {
				if n := counter(svc, "fs.blockbuf.reused"); n == 0 {
					t.Fatalf("40 disk reads reused no buffer (allocated %d): ReadFile keeps its references", counter(svc, "fs.blockbuf.allocated"))
				}
				return
			}
			for _, ref := range held {
				svc.Store().DeleteBlock(ref.key) // the shard's reference
				ref.buf.Release()                // the test's: the last, unless ReadFile kept one
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("block %s is still referenced after ReadFile returned", ref.key)
						}
					}()
					ref.buf.Retain()
				}()
			}
		})
	}
}
